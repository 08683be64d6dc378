#!/usr/bin/env bash
# Tier-1 verify wrapper: configure, build, and run the full ctest suite.
#
# Usage:
#   tools/run_tests.sh               # full suite
#   tools/run_tests.sh -L smoke      # extra args are forwarded to ctest
#   tools/run_tests.sh --with-bench  # suite + parallel-bench baseline gate
#                                    # (tools/run_bench_baseline.sh)
#   tools/run_tests.sh --sanitize    # ASan+UBSan lane only: builds the
#                                    # util + graph + serve + store + net +
#                                    # obs + pattern + gnn + explain suites
#                                    # in build-asan
#                                    # (GVEX_SANITIZE=address) and runs them
#   tools/run_tests.sh --tsan        # ThreadSanitizer lane only: builds
#                                    # the util + net + serve + obs + store
#                                    # + gnn + explain suites
#                                    # in build-tsan
#                                    # (GVEX_SANITIZE=thread) and runs the
#                                    # concurrency-heavy binaries and the
#                                    # SIGTERM smoke
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

with_bench=0
sanitize=0
tsan=0
ctest_args=()
for arg in "$@"; do
  if [[ "${arg}" == "--with-bench" ]]; then
    with_bench=1
  elif [[ "${arg}" == "--sanitize" ]]; then
    sanitize=1
  elif [[ "${arg}" == "--tsan" ]]; then
    tsan=1
  else
    ctest_args+=("${arg}")
  fi
done

# SIGTERM smoke: a durable gvex_netserve under gvex_loadgen load gets
# SIGTERM and must drain and exit 0, $2 times in a row. The server takes
# the signal in a sigwait thread; this guards that path, since a drain
# that deadlocks or crashes only now and then cannot be provoked on demand.
# Usage: sigterm_smoke TOOLS_DIR REPS SCRATCH_DIR
sigterm_smoke() {
  local tools="$1" reps="$2" dir="$3"
  local i rc pid load_pid
  for ((i = 0; i < reps; ++i)); do
    rm -rf "${dir}/sigterm_store" "${dir}/sigterm_port.txt"
    "${tools}/gvex_netserve" --synthetic 9 --labels 3 --port 0 \
      --store "${dir}/sigterm_store" \
      --port-file "${dir}/sigterm_port.txt" 2>"${dir}/sigterm.log" &
    pid=$!
    for _ in $(seq 100); do
      [[ -s "${dir}/sigterm_port.txt" ]] && break
      sleep 0.1
    done
    if [[ ! -s "${dir}/sigterm_port.txt" ]]; then
      echo "sigterm smoke: netserve never wrote its port file" >&2
      cat "${dir}/sigterm.log" >&2
      kill -9 "${pid}" 2>/dev/null || true
      return 1
    fi
    # The drain may cut the load short, so the loadgen's verdict is moot.
    "${tools}/gvex_loadgen" --port "$(cat "${dir}/sigterm_port.txt")" \
      --synthetic 9 --labels 3 --connections 4 --requests 4096 \
      --pipeline 4 --admit-frac 0.1 >/dev/null 2>&1 &
    load_pid=$!
    sleep 0.2
    kill -TERM "${pid}"
    rc=0
    wait "${pid}" || rc=$?
    kill "${load_pid}" 2>/dev/null || true
    wait "${load_pid}" 2>/dev/null || true
    if [[ "${rc}" != 0 ]]; then
      echo "sigterm smoke: run ${i}: netserve exited ${rc} after SIGTERM" >&2
      cat "${dir}/sigterm.log" >&2
      return 1
    fi
  done
  echo "sigterm smoke (${reps} runs): ok"
}

# The sanitizer lanes are their own build trees; they cover the serving +
# durable store + TCP front-end suites (the subsystems with the hairiest
# pointer/lifetime traffic: shared postings, WAL replay, snapshot buffers,
# nonblocking socket sessions), the util suite (util/file_io holds the
# store's syscall-level code), the graph suite (the text parser every TCP
# payload block goes through), the pattern suite (the miner's occurrence
# lists and the coverage masks Psum reads) and the gnn + explain suites (the
# exact influence kernel indexes raw flat Jacobian buffers) without paying
# for an instrumented build of everything else.
if [[ "${sanitize}" == 1 ]]; then
  asan_dir="${ASAN_BUILD_DIR:-${repo_root}/build-asan}"
  cmake -B "${asan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGVEX_SANITIZE=address \
    -DGVEX_BUILD_BENCH=OFF -DGVEX_BUILD_EXAMPLES=OFF
  cmake --build "${asan_dir}" -j "${jobs}" \
    --target gvex_util_test gvex_graph_test gvex_serve_test gvex_store_test \
      gvex_net_test gvex_obs_test gvex_pattern_test gvex_gnn_test \
      gvex_explain_test
  "${asan_dir}/tests/gvex_util_test"
  "${asan_dir}/tests/gvex_graph_test"
  "${asan_dir}/tests/gvex_serve_test"
  "${asan_dir}/tests/gvex_store_test"
  "${asan_dir}/tests/gvex_net_test"
  "${asan_dir}/tests/gvex_obs_test"
  "${asan_dir}/tests/gvex_pattern_test"
  "${asan_dir}/tests/gvex_gnn_test"
  "${asan_dir}/tests/gvex_explain_test"
  exit 0
fi

# The TSan lane exercises the genuinely multi-threaded paths: worker event
# loops + accept-thread handoff + concurrent AdmitView combining (net), the
# query/admission races inside ViewService (serve), the replication
# interleaver racing admits/saves/compactions against WAL shipping (store),
# and view generation on a pool (gnn + explain: GenerateViews and
# StreamGvex::GenerateView explain graphs concurrently, each with its own
# remainder predictor and scoring state over the one shared model). The
# ViewService concurrency tests and the wedged-batch health test run 20
# more times: a lost wake-up when one batch leader hands the queue to the
# next shows only now and then. The SIGTERM smoke runs gvex_netserve's
# sigwait drain thread under TSan too.
# ASan and TSan can't share a build, so this is a third tree.
if [[ "${tsan}" == 1 ]]; then
  tsan_dir="${TSAN_BUILD_DIR:-${repo_root}/build-tsan}"
  cmake -B "${tsan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGVEX_SANITIZE=thread \
    -DGVEX_BUILD_BENCH=OFF -DGVEX_BUILD_EXAMPLES=OFF
  cmake --build "${tsan_dir}" -j "${jobs}" \
    --target gvex_util_test gvex_net_test gvex_serve_test gvex_obs_test \
      gvex_store_test gvex_gnn_test gvex_explain_test gvex_netserve_tool \
      gvex_loadgen_tool
  "${tsan_dir}/tests/gvex_util_test"
  "${tsan_dir}/tests/gvex_net_test"
  "${tsan_dir}/tests/gvex_serve_test"
  "${tsan_dir}/tests/gvex_serve_test" --gtest_repeat=20 \
    --gtest_filter='ViewServiceConcurrencyTest.*:HealthFaultTest.WedgedAdmitLeaderFailsHealthUntilReleased'
  "${tsan_dir}/tests/gvex_serve_test" --gtest_repeat=5 \
    --gtest_filter='*ApplyOracleTest*:PatternIndexTest.*'
  "${tsan_dir}/tests/gvex_obs_test"
  "${tsan_dir}/tests/gvex_store_test"
  "${tsan_dir}/tests/gvex_gnn_test"
  "${tsan_dir}/tests/gvex_explain_test"
  tsan_scratch="$(mktemp -d)"
  trap 'rm -rf "${tsan_scratch}"' EXIT
  sigterm_smoke "${tsan_dir}/tools" 5 "${tsan_scratch}"
  exit 0
fi

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j "${jobs}"
(cd "${build_dir}" && ctest --output-on-failure -j "${jobs}" ${ctest_args[@]+"${ctest_args[@]}"})

# Durable-store smoke: a real on-disk round trip through the gvex_store
# tool — full snapshot + chained delta + WAL (admit -> full save -> admit
# -> delta save -> admit -> kill -> reopen -> parity, + compaction folding
# the chain).
store_scratch="$(mktemp -d)"
trap 'rm -rf "${store_scratch}"' EXIT
"${build_dir}/tools/gvex_store" selftest "${store_scratch}"
"${build_dir}/tools/gvex_store" verify "${store_scratch}"

# CLI pipeline smoke: generate -> train -> explain -> query on the MUT
# stand-in, in a scratch directory (the CLI reads and writes graphs.txt,
# model.txt and views.txt in its working directory). The query must list
# the view's patterns with their database counts, a views file whose
# header carries no label (`view -1`) must make query fail, and explain
# must refuse a misspelled --engine or --algo, naming the accepted values.
cli="$(cd "${build_dir}" && pwd)/tools/gvex_cli"
mkdir -p "${store_scratch}/cli"
(
  cd "${store_scratch}/cli"
  "${cli}" generate --dataset MUT --num 60 > /dev/null
  "${cli}" train --epochs 40 > /dev/null
  "${cli}" explain --label 1 > /dev/null
  query_out="$("${cli}" query --graphs graphs.txt)"
  grep -q 'pattern 0:' <<< "${query_out}"
  grep -Eq '\[in [0-9]+ db graphs\]' <<< "${query_out}"
  sed '1s/^view [0-9-]*/view -1/' views.txt > unlabeled.txt
  if "${cli}" query --views unlabeled.txt > /dev/null 2>&1; then
    echo "cli smoke: query served a view with no label" >&2
    exit 1
  fi
  for bad in "--engine gSpan" "--algo apx"; do
    # ${bad} is left unquoted: it splits into a flag and its value.
    if explain_err="$("${cli}" explain --label 1 ${bad} 2>&1 >/dev/null)"; then
      echo "cli smoke: explain accepted ${bad}" >&2
      exit 1
    fi
    grep -q 'accepted: ' <<< "${explain_err}"
  done
)
echo "cli pipeline smoke: ok"

# Health smoke over stdin: the durable store the selftest just built must
# answer the `health` verb with per-check rows and an overall ok.
health_out="$("${build_dir}/tools/gvex_serve" --store "${store_scratch}" \
  <<< $'health\nquit\n')"
grep -q '^ok health ok checks ' <<< "${health_out}"
grep -q '^check wal ok ' <<< "${health_out}"
echo "health smoke (stdin): ok"

# Metrics smoke: a synthetic netserve scraped by loadgen --scrape. Gates on
# (a) the loadgen's own checks — byte-for-byte response verification AND
# zero divergence between the server's gvex_requests_total{verb=} deltas
# and the client's completed counts — and (b) the --metrics-dump file
# containing a well-formed export with the per-verb histogram family.
"${build_dir}/tools/gvex_netserve" --synthetic 42 --labels 4 --port 0 \
  --port-file "${store_scratch}/port.txt" \
  --metrics-dump "${store_scratch}/metrics.prom" --metrics-dump-interval 1 \
  --health-file "${store_scratch}/health.txt" \
  2>"${store_scratch}/netserve.log" &
netserve_pid=$!
for _ in $(seq 100); do
  [[ -s "${store_scratch}/port.txt" ]] && break
  sleep 0.1
done
if [[ ! -s "${store_scratch}/port.txt" ]]; then
  echo "metrics smoke: netserve never wrote its port file" >&2
  cat "${store_scratch}/netserve.log" >&2
  kill "${netserve_pid}" 2>/dev/null || true
  exit 1
fi
"${build_dir}/tools/gvex_loadgen" --port "$(cat "${store_scratch}/port.txt")" \
  --synthetic 42 --labels 4 --connections 8 --requests 64 --pipeline 4 \
  --admit-frac 0.1 --stats-frac 0.1 --scrape 1
# Health smoke over TCP: gvex_top scrapes the live server's metrics +
# health verbs and must report the serving tiers healthy.
top_out="$("${build_dir}/tools/gvex_top" \
  --port-file "${store_scratch}/port.txt" --once 1)"
grep -q 'health ok' <<< "${top_out}"
grep -q '^check admit_queue ok ' <<< "${top_out}"
grep -q '^check net_worker_0 ok ' <<< "${top_out}"
kill -TERM "${netserve_pid}"
wait "${netserve_pid}"
grep -q '^# TYPE gvex_request_seconds histogram$' "${store_scratch}/metrics.prom"
grep -q '^gvex_requests_total{verb="labels"}' "${store_scratch}/metrics.prom"
grep -q '^gvex_health_status ' "${store_scratch}/metrics.prom"
grep -q '^health ok checks ' "${store_scratch}/health.txt"
echo "health smoke (tcp + gvex_top): ok"
echo "metrics smoke: ok"

# Crash smoke: a controlled SIGSEGV (hidden --crash-test flag) must leave
# a parseable crash-<pid>.log — post-mortem header, flight-event tail,
# metrics snapshot, end marker — before the process dies of the signal.
crash_rc=0
"${build_dir}/tools/gvex_netserve" --synthetic 7 --labels 2 --port 0 \
  --port-file "${store_scratch}/crash_port.txt" \
  --crash-dir "${store_scratch}" --crash-test 1 \
  2>"${store_scratch}/crash_netserve.log" || crash_rc=$?
if [[ "${crash_rc}" == 0 ]]; then
  echo "crash smoke: netserve --crash-test exited 0 (expected a signal)" >&2
  exit 1
fi
crash_log="$(ls "${store_scratch}"/crash-*.log 2>/dev/null | head -1)"
if [[ -z "${crash_log}" ]]; then
  echo "crash smoke: no crash-<pid>.log written" >&2
  cat "${store_scratch}/crash_netserve.log" >&2
  exit 1
fi
grep -q '^gvex-crash-log version 1$' "${crash_log}"
grep -q 'signal 11 SIGSEGV' "${crash_log}"
grep -q '^event ' "${crash_log}"
grep -q 'crash-test: raising SIGSEGV' "${crash_log}"
grep -q '^metrics-snapshot bytes ' "${crash_log}"
grep -q '^end-crash-log$' "${crash_log}"
echo "crash smoke: ok"

# Port-file smoke: a port file that cannot be written (its directory is
# missing) must fail start-up with exit 1 at once, not leave a script
# polling for a file that never comes.
port_rc=0
timeout 30 "${build_dir}/tools/gvex_netserve" --synthetic 7 --labels 2 \
  --port 0 --port-file "${store_scratch}/missing/port.txt" \
  2>"${store_scratch}/port_file.log" || port_rc=$?
if [[ "${port_rc}" != 1 ]]; then
  echo "port-file smoke: netserve exited ${port_rc}, expected 1" >&2
  cat "${store_scratch}/port_file.log" >&2
  exit 1
fi
grep -q 'port-file' "${store_scratch}/port_file.log"
echo "port-file smoke: ok"

sigterm_smoke "${build_dir}/tools" 20 "${store_scratch}"

# Replication failover smoke: a durable synthetic primary, a warm standby
# mirroring it over TCP, kill -9 on the primary, promote the standby over
# its own TCP port, then gvex_top against the promoted replica must show
# role=primary with zero replication lag.
repl_primary="${store_scratch}/repl_primary"
repl_replica="${store_scratch}/repl_replica"
mkdir -p "${repl_primary}" "${repl_replica}"
"${build_dir}/tools/gvex_netserve" --synthetic 5 --labels 4 \
  --store "${repl_primary}" --port 0 \
  --port-file "${store_scratch}/repl_primary_port.txt" \
  2>"${store_scratch}/repl_primary.log" &
repl_primary_pid=$!
for _ in $(seq 100); do
  [[ -s "${store_scratch}/repl_primary_port.txt" ]] && break
  sleep 0.1
done
if [[ ! -s "${store_scratch}/repl_primary_port.txt" ]]; then
  echo "replication smoke: primary never wrote its port file" >&2
  cat "${store_scratch}/repl_primary.log" >&2
  kill -9 "${repl_primary_pid}" 2>/dev/null || true
  exit 1
fi
"${build_dir}/tools/gvex_netserve" --synthetic 5 --labels 4 \
  --store "${repl_replica}" \
  --replicate-from "127.0.0.1:$(cat "${store_scratch}/repl_primary_port.txt")" \
  --replicate-poll 0.1 --port 0 \
  --port-file "${store_scratch}/repl_replica_port.txt" \
  2>"${store_scratch}/repl_replica.log" &
repl_replica_pid=$!
for _ in $(seq 100); do
  [[ -s "${store_scratch}/repl_replica_port.txt" ]] && break
  sleep 0.1
done
replica_port="$(cat "${store_scratch}/repl_replica_port.txt")"
# Wait until the standby has applied the primary's startup admission
# (epoch 1) — stats over the replica's own TCP port, via bash /dev/tcp.
repl_synced=0
for _ in $(seq 100); do
  stats_out="$(exec 3<>"/dev/tcp/127.0.0.1/${replica_port}" \
    && printf 'stats\nquit\n' >&3 && cat <&3 && exec 3<&- 3>&-)" || true
  if grep -q '^ok stats epoch 1 .* role replica' <<< "${stats_out}"; then
    repl_synced=1
    break
  fi
  sleep 0.1
done
if [[ "${repl_synced}" != 1 ]]; then
  echo "replication smoke: standby never reached the primary's epoch" >&2
  cat "${store_scratch}/repl_replica.log" >&2
  kill -9 "${repl_primary_pid}" "${repl_replica_pid}" 2>/dev/null || true
  exit 1
fi
# The primary dies hard; the standby is promoted over its own port.
kill -9 "${repl_primary_pid}"
wait "${repl_primary_pid}" 2>/dev/null || true
promote_out="$(exec 3<>"/dev/tcp/127.0.0.1/${replica_port}" \
  && printf 'promote\nquit\n' >&3 && cat <&3 && exec 3<&- 3>&-)"
grep -q '^ok promoted epoch 1$' <<< "${promote_out}"
top_out="$("${build_dir}/tools/gvex_top" \
  --port-file "${store_scratch}/repl_replica_port.txt" --once 1)"
grep -q 'role primary' <<< "${top_out}"
grep -q 'lag 0 epochs' <<< "${top_out}"
# The promoted store owns durability now: it must accept a save.
save_out="$(exec 3<>"/dev/tcp/127.0.0.1/${replica_port}" \
  && printf 'save --full\nquit\n' >&3 && cat <&3 && exec 3<&- 3>&-)"
grep -q '^ok saved epoch 1 full$' <<< "${save_out}"
kill -TERM "${repl_replica_pid}"
wait "${repl_replica_pid}" 2>/dev/null || true
echo "replication failover smoke: ok"

if [[ "${with_bench}" == 1 ]]; then
  "${repo_root}/tools/run_bench_baseline.sh"
fi
