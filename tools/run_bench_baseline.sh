#!/usr/bin/env bash
# Bench baseline runner: builds Release, runs the gated perf drivers
# (bench_fig9e_parallel, bench_serving_throughput, bench_store_startup,
# bench_net_throughput) into scratch JSONs, and gates them against the
# committed BENCH_parallel.json / BENCH_serving.json / BENCH_store.json /
# BENCH_net.json with tools/check_bench.py.
#
# Usage:
#   tools/run_bench_baseline.sh            # compare against the baselines
#   tools/run_bench_baseline.sh --record   # re-measure and update the
#                                          # committed BENCH_*.json files
#
# Environment:
#   BENCH_BUILD_DIR        build tree to use (default: <repo>/build-bench)
#   BENCH_TOLERANCE        fractional slowdown allowed per timing
#                          (default 0.35)
#
# Every gate runs even when an earlier one fails; the script then names
# each failing section and exits non-zero.
#
# The ratio floors live in one table in tools/check_bench.py (FLOORS).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BENCH_BUILD_DIR:-${repo_root}/build-bench}"
tolerance="${BENCH_TOLERANCE:-0.35}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

record=0
if [[ "${1:-}" == "--record" ]]; then
  record=1
  shift
fi

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "${jobs}" \
  --target bench_fig9e_parallel bench_serving_throughput \
           bench_store_startup bench_net_throughput

# Scratch files are cleaned up on EXIT (a RETURN trap would be skipped when
# errexit aborts a failed gate mid-function).
scratch_files=()
cleanup() { rm -f "${scratch_files[@]+"${scratch_files[@]}"}"; }
trap cleanup EXIT

# gate <driver> <baseline file> <section>: runs the driver into a scratch
# JSON and checks it, or (with --record) re-measures straight into the
# committed baseline (merging, so sections from other drivers survive).
# Called under `||`, so errexit is off inside: each step returns explicitly.
gate() {
  local driver="$1" baseline="$2" section="$3"
  if [[ "${record}" == 1 ]]; then
    GVEX_BENCH_OUT="${baseline}" "${build_dir}/bench/${driver}" || return 1
    echo "recorded ${section} baseline into ${baseline}"
    return 0
  fi
  if [[ ! -f "${baseline}" ]]; then
    echo "run_bench_baseline: no committed baseline at ${baseline};" >&2
    echo "run 'tools/run_bench_baseline.sh --record' first." >&2
    return 1
  fi
  # BenchReport treats an empty existing file as having no sections, so the
  # bench can merge straight into mktemp's file.
  # No .json suffix: trailing characters after the X's are a GNU extension
  # that BSD/macOS mktemp rejects. BenchReport doesn't care about extensions.
  local current
  current="$(mktemp /tmp/gvex_bench.XXXXXX)" || return 1
  scratch_files+=("${current}")
  GVEX_BENCH_OUT="${current}" "${build_dir}/bench/${driver}" || return 1
  python3 "${repo_root}/tools/check_bench.py" \
    --baseline "${baseline}" \
    --current "${current}" \
    --tolerance "${tolerance}" \
    --section "${section}"
}

failed=()
gate bench_fig9e_parallel "${repo_root}/BENCH_parallel.json" fig9e_parallel \
  || failed+=(fig9e_parallel)
gate bench_serving_throughput "${repo_root}/BENCH_serving.json" serving \
  || failed+=(serving)
gate bench_store_startup "${repo_root}/BENCH_store.json" store_startup \
  || failed+=(store_startup)
gate bench_net_throughput "${repo_root}/BENCH_net.json" net || failed+=(net)

if (( ${#failed[@]} > 0 )); then
  for section in "${failed[@]}"; do
    echo "run_bench_baseline: FAILED ${section}" >&2
  done
  exit 1
fi
