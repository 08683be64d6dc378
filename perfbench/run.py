#!/usr/bin/env python3
"""The GVEX repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload explain_mut|explain_mal|serve_mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of a GVEX source tree. The first run configures and
builds perfbench/CMakeLists.txt (the library modules, gvex_netserve and the
measuring program gvex_perfbench, Release) into .bench_build/; later runs
only rebuild what changed. Every input is generated from --seed inside a
temporary directory under .bench_build/tmp/, which is removed even when the
run fails.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(see perfbench/README.md). End-to-end times and rates are scaled by a
host-speed reference timed in the same run (calibrate.h). The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Human-readable figures, the host record and the output checks
are printed above it.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")

WORKLOADS = ("explain_mut", "explain_mal", "serve_mixed")
# Default workload seed; 9001 is held out for confirming claims (README.md).
DEFAULT_SEED = 1
SERVER_STARTS = 5       # serve set-up repeats; setup_s is their median
SERVER_WORKERS = 2

# End-to-end metrics: (name, unit). What each means per workload is in
# README.md; run.py prints the per-workload names beside them.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rate_per_s", "1/s"),
    ("primary_p50_ms", "ms"),
    ("primary_tail_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_tail_ms", "ms"),
)

# Per-layer metrics: (name, unit). Timings are the median self time of one
# call; counts are per label view (explain) or per run (serve).
PER_LAYER = (
    ("data.generate_s", "s"),
    ("gnn.train_s", "s"),
    ("gnn.influence_ms", "ms"),
    ("gnn.forward_ms", "ms"),
    ("explain.select_ms", "ms"),
    ("explain.everify_ms", "ms"),
    ("pattern.mine_ms", "ms"),
    ("pattern.coverage_ms", "ms"),
    ("explain.psum_ms", "ms"),
    ("stream.init_ms", "ms"),
    ("stream.node_us", "us"),
    ("stream.finalize_ms", "ms"),
    ("pattern.candidates", "count"),
    ("explain.patterns", "count"),
    ("explain.skipped", "count"),
    ("net.roundtrip_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.indexed_us", "us"),
    ("serve.fallback_us", "us"),
    ("serve.mcs_us", "us"),
    ("serve.cache_hit_frac", "fraction"),
    ("serve.cache_lookups", "count"),
    ("serve.index_build_ms", "ms"),
    ("store.wal_append_us", "us"),
    ("store.wal_sync_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.open_s", "s"),
    ("serve.admit_batches", "count"),
    ("serve.admits_sent", "count"),
    ("serve.fallback_scans", "count"),
    ("serve.quiet_fallback_reads", "count"),
    ("serve.reads_sent", "count"),
    ("store.wal_fsyncs", "count"),
    ("trace.overhead_pct", "%"),
)

UNIT_SCALE_FROM_NS = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}

# The host-speed reference (calibrate.h): every gated timing is scaled to a
# host on which one reference run takes this long, about its median on the
# 4-vCPU VM the bounds were set on.
REFERENCE_MS = 8.0


class BenchError(Exception):
    """A run that cannot produce a result (exit code 1, no JSON line)."""


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------- build


def build():
    """Configures once and (re)builds; returns the two program paths."""
    for need in ("src/CMakeLists.txt", "tools/gvex_netserve.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a GVEX source tree: %s is missing" % need)
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR  # compilers and children stay in the checkout
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                  "gvex_perfbench", "gvex_netserve_tool"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=880).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD_DIR, "gvex_perfbench"),
            os.path.join(BUILD_DIR, "gvex_tools", "gvex_netserve"))


# ---------------------------------------------------------- host record


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:9]
    return [int(x) for x in fields]  # user nice system idle iowait irq softirq steal


def host_record(start_times, load_at_start):
    end = cpu_times()
    delta = [b - a for a, b in zip(start_times, end)]
    total = sum(delta)
    steal = delta[7] / total if total > 0 else 0.0
    return "host: nproc %d, load average at start %s, cpu steal %.2f%% of the run" % (
        os.cpu_count() or 0, load_at_start, 100.0 * steal)


# ------------------------------------------------------------ statistics


def quantile(values, q):
    """Linear-interpolated quantile of `values` (0 <= q <= 1)."""
    s = sorted(values)
    if not s:
        raise BenchError("no samples")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def host_scale(rep):
    """REFERENCE_MS over the run's median reference time: the factor that
    takes a time measured in this run to the reference host."""
    ref = rep["samples"].get("reference_ms")
    if not ref:
        raise BenchError("no host-speed reference samples")
    return REFERENCE_MS / statistics.median(ref)


def at_reference(value, unit, scale):
    """A measured figure on the reference host: times scale by `scale`,
    rates by its inverse, anything else stays."""
    if unit in UNIT_SCALE_FROM_NS:
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def gated(measured, rep):
    """The end-to-end metrics on the reference host, from their measured
    values."""
    scale = host_scale(rep)
    return {name: at_reference(measured[name], unit, scale)
            for name, unit in END_TO_END}


def hd_median(values):
    """Harrell-Davis estimate of the median: a weighted mean of every order
    statistic, the weights being the mass a Beta((n+1)/2, (n+1)/2)
    distribution puts on each of n equal slices of [0, 1] (midpoint rule,
    normalised). Where samples come in clumps, as the per-graph times of a
    few dozen graphs do, the plain median jumps across the gap between two
    clumps when one sample moves; this estimate moves smoothly."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise BenchError("no samples")
    a = (n + 1) / 2.0
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    steps = 16
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * (math.log(x) + math.log1p(-x)))
        weights.append(w)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, s)) / total


def self_times(spans):
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover (clipped to the span).

    `spans` is a list of dicts with keys name, id, parent, start, end; a
    parent is an index into the list or -1. Returns a list of nanoseconds,
    one per span."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted((max(spans[c]["start"], s["start"]),
                            min(spans[c]["end"], s["end"]))
                           for c in children[i])
        covered = 0
        cur_start = cur_end = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s["end"] - s["start"]) - covered)
    return out


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            name, sid, parent, start, end = line.rstrip("\n").split("\t")
            spans.append({"name": name, "id": int(sid), "parent": int(parent),
                          "start": int(start), "end": int(end)})
    return spans


def layer_metrics(spans, values):
    """Per-layer metrics from one traced run's spans and report values."""
    selfs = self_times(spans)
    by_name = {}
    for s, t in zip(spans, selfs):
        by_name.setdefault(s["name"], []).append(t)
    # explain.select: ExplainGraph minus the influence precomputation of the
    # same graph (both are children of one explain.graph span).
    select = []
    kids = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            kids.setdefault(s["parent"], {})[s["name"]] = s["end"] - s["start"]
    for i, s in enumerate(spans):
        k = kids.get(i, {})
        if s["name"] == "explain.graph" and "explain.explain_graph" in k:
            select.append(k["explain.explain_graph"] - k.get("gnn.influence", 0))
    if select:
        by_name["explain.select"] = select

    out = {}
    for name, unit in PER_LAYER:
        stem = name.rsplit("_", 1)[0] if unit in UNIT_SCALE_FROM_NS else name
        if unit in UNIT_SCALE_FROM_NS and stem in by_name:
            out[name] = statistics.median(by_name[stem]) * UNIT_SCALE_FROM_NS[unit]
        elif name in values:
            out[name] = values[name]
    # Tracing overhead: recorded spans times the cost of one, over the
    # traced wall time (first start to last end: spans of concurrent
    # threads share it).
    wall = (max(s["end"] for s in spans) - min(s["start"] for s in spans)
            if spans else 0)
    if wall > 0 and "trace.span_ns" in values:
        out["trace.overhead_pct"] = 100.0 * len(spans) * values["trace.span_ns"] / wall
    return out


# ------------------------------------------------------------- workloads


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          universal_newlines=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError("%s exited with %d" % (os.path.basename(cmd[0]),
                                                proc.returncode))


def load_report(path):
    with open(path) as f:
        return json.load(f)


def run_explain(bench, dataset, seed, seconds, trace, tmp, corrupt=0):
    out = os.path.join(tmp, "explain-%s.json" % dataset)
    spans = os.path.join(tmp, "explain-%s.tsv" % dataset)
    run_checked([bench, "explain", "--dataset", dataset, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace)),
                 "--out", out, "--spans", spans, "--corrupt", str(corrupt)],
                timeout=seconds + 150)
    rep = load_report(out)
    smp = rep["samples"]
    if not smp.get("pass_s") or not smp.get("explain_ms"):
        raise BenchError("no complete pass over the labels in %g s" % seconds)
    # The secondary phase, per pass over every label: Psum on MUT, the
    # Stream-GVEX runs on MAL. Pass totals average over every graph, so
    # they hold still where per-graph quantiles of 40 graphs would not.
    if dataset == "MAL":
        secondary = ("pass_stream", smp["pass_stream_ms"])
    else:
        secondary = ("pass_psum", smp["pass_psum_ms"])
    e2e = {
        "setup_s": statistics.median(smp["setup_s"]),
        "peak_rss_mb": rep["values"]["peak_rss_mb"],
        "rate_per_s": rep["values"]["ag_graphs_per_s"],
        "primary_p50_ms": hd_median(smp["explain_ms"]),
        "primary_tail_ms": quantile(smp["explain_ms"], 0.90),
        "secondary_p50_ms": statistics.median(secondary[1]),
        "secondary_tail_ms": quantile(secondary[1], 0.90),
    }
    n = len(smp["explain_ms"])
    table = [
        ("graphs_per_s", "1/s", e2e["rate_per_s"], n),
        ("explain_p50_ms", "ms", e2e["primary_p50_ms"], n),
        ("explain_p90_ms", "ms", e2e["primary_tail_ms"], n),
        ("explain_wall_p50_ms", "ms", hd_median(smp["explain_wall_ms"]), n),
        (secondary[0] + "_p50_ms", "ms", e2e["secondary_p50_ms"],
         len(secondary[1])),
        (secondary[0] + "_p90_ms", "ms", e2e["secondary_tail_ms"],
         len(secondary[1])),
    ]
    if smp.get("stream_ms"):
        table.append(("stream_p50_ms", "ms", statistics.median(smp["stream_ms"]),
                      len(smp["stream_ms"])))
        table.append(("stream_wall_p50_ms", "ms",
                      statistics.median(smp["stream_wall_ms"]),
                      len(smp["stream_wall_ms"])))
    table += [
        ("view_s", "s", statistics.median(smp["view_s"]), len(smp["view_s"])),
        ("pass_s", "s", statistics.median(smp["pass_s"]), len(smp["pass_s"])),
        ("setup_s", "s", e2e["setup_s"], len(smp["setup_s"])),
        ("peak_rss_mb", "MiB", e2e["peak_rss_mb"], 1),
    ]
    layers = layer_metrics(read_spans(spans), rep["values"]) if trace else {}
    return rep, gated(e2e, rep), table, layers


def wait_for_port(port_file, proc, deadline):
    """Polls until the server wrote its port and accepts a connection."""
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise BenchError("gvex_netserve exited with %d during start-up"
                             % proc.returncode)
        try:
            with open(port_file) as f:
                port = int(f.read().strip())
            with socket.create_connection(("127.0.0.1", port), timeout=1):
                return port
        except (OSError, ValueError):
            time.sleep(0.002)
    raise BenchError("gvex_netserve did not accept within its start-up limit")


def stop_server(proc):
    """Drains with SIGTERM and reaps; kills only if the drain hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the server")


def run_serve(bench, netserve, seed, seconds, trace, tmp, corrupt=0):
    run_checked([bench, "serve-prepare", "--seed", str(seed), "--dir", tmp],
                timeout=120)
    setups = []
    server = None
    server_log = open(os.path.join(tmp, "server.log"), "w")
    try:
        for k in range(SERVER_STARTS):
            if server is not None:
                stop_server(server)
            run_dir = os.path.join(tmp, "run-%d" % k)
            shutil.copytree(os.path.join(tmp, "pristine"),
                            os.path.join(run_dir, "store"))
            port_file = os.path.join(run_dir, "port")
            start = time.perf_counter()
            server = subprocess.Popen(
                [netserve, "--store", os.path.join(run_dir, "store"),
                 "--graphs", os.path.join(tmp, "graphs.txt"),
                 "--workers", str(SERVER_WORKERS), "--port", "0",
                 "--port-file", port_file, "--crash-dir", run_dir],
                stdout=server_log, stderr=server_log, cwd=run_dir)
            port = wait_for_port(port_file, server, time.monotonic() + 60)
            setups.append(time.perf_counter() - start)
        out = os.path.join(tmp, "serve.json")
        spans = os.path.join(tmp, "serve.tsv")
        run_checked([bench, "serve-client", "--port", str(port),
                     "--server-pid", str(server.pid), "--seed", str(seed), "--dir", tmp, "--seconds", str(seconds),
                     "--trace", str(int(trace)), "--out", out, "--spans",
                     spans, "--corrupt", str(corrupt)],
                    timeout=seconds + 150)
        rss = peak_rss_mb(server.pid)
    finally:
        if server is not None:
            stop_server(server)
        server_log.close()
    if server.returncode != 0:
        raise BenchError("gvex_netserve exited with %d after SIGTERM"
                         % server.returncode)
    rep = load_report(out)
    smp = rep["samples"]
    vals = rep["values"]
    if not (smp.get("read_ms") and smp.get("shared_read_ms")
            and smp.get("admit_ms") and vals["own_cpu_s"] > 0):
        raise BenchError("no timed reads or admits")
    # rate_per_s: reads per CPU second of the read path (the connection
    # with a server worker to itself: its worker plus its client thread),
    # which host CPU steal does not stretch; wall-clock reads_per_s is
    # printed beside it. primary_tail_ms: the read p90 of the connection
    # that shares the admit connection's worker, so reads blocked behind
    # admits move a gated figure.
    e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "rate_per_s": vals["own_reads"] / vals["own_cpu_s"],
        "primary_p50_ms": statistics.median(smp["read_ms"]),
        "primary_tail_ms": quantile(smp["shared_read_ms"], 0.90),
        "secondary_p50_ms": statistics.median(smp["admit_ms"]),
        "secondary_tail_ms": quantile(smp["admit_ms"], 0.90),
    }
    reads = len(smp["read_ms"])
    table = [
        ("read_p50_ms", "ms", e2e["primary_p50_ms"], reads),
        ("read_p90_ms", "ms", quantile(smp["read_ms"], 0.90), reads),
        ("read_p99_ms", "ms", quantile(smp["read_ms"], 0.99), reads),
        ("shared_read_p90_ms", "ms", e2e["primary_tail_ms"],
         len(smp["shared_read_ms"])),
        ("reads_per_s", "1/s", reads / vals["elapsed_s"], reads),
        ("reads_per_cpu_s", "1/s", e2e["rate_per_s"], int(vals["own_reads"])),
        ("admit_p50_ms", "ms", e2e["secondary_p50_ms"], len(smp["admit_ms"])),
        ("admit_p90_ms", "ms", e2e["secondary_tail_ms"], len(smp["admit_ms"])),
        ("setup_s", "s", e2e["setup_s"], len(setups)),
        ("peak_rss_mb", "MiB", rss, 1),
    ]
    layers = layer_metrics(read_spans(spans), rep["values"]) if trace else {}
    return rep, gated(e2e, rep), table, layers


def run_workload(bench, netserve, workload, seed, seconds, trace, tmp,
                 corrupt=0):
    if workload == "serve_mixed":
        return run_serve(bench, netserve, seed, seconds, trace, tmp, corrupt)
    dataset = "MUT" if workload == "explain_mut" else "MAL"
    return run_explain(bench, dataset, seed, seconds, trace, tmp, corrupt)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench, netserve = build()
    with open("/proc/loadavg") as f:
        load_at_start = " ".join(f.read().split()[:3])
    cpu_start = cpu_times()
    tmp = os.path.join(TMP_DIR, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        rep, e2e, table, layers = run_workload(
            bench, netserve, args.workload, args.seed, args.seconds,
            args.trace, tmp)
        attempted, failed = rep["attempted"], rep["failed"]
        notes = list(rep["notes"])
        if args.trace:
            # A traced run reports every layer: the other family's layers
            # come from a shorter traced pass of its companion workload.
            companion = "explain_mut" if args.workload == "serve_mixed" else "serve_mixed"
            crep, _, _, clayers = run_workload(
                bench, netserve, companion, args.seed,
                max(3.0, args.seconds / 3), True, tmp)
            attempted += crep["attempted"]
            failed += crep["failed"]
            notes += crep["notes"]
            layers = dict(clayers, **layers)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    log("workload %s, seed %d, %g s, trace %d" % (args.workload, args.seed,
                                                  args.seconds, args.trace))
    for line in notes:
        log("  " + line)
    log("  " + host_record(cpu_start, load_at_start))
    scale = host_scale(rep)
    log("  host-speed reference: median %.4f ms over %d runs; 'at reference'"
        " scales by %g/%.4f (the JSON line holds these)" % (
            REFERENCE_MS / scale, len(rep["samples"]["reference_ms"]),
            REFERENCE_MS, REFERENCE_MS / scale))
    log("  %-20s %12s %12s %-5s %s" % ("metric", "measured", "at reference",
                                        "unit", "samples"))
    for name, unit, value, n in table:
        log("  %-20s %12.4f %12.4f %-5s %d" % (
            name, value, at_reference(value, unit, scale), unit, n))
    log("  checked operations: %d attempted, %d failed" % (attempted, failed))
    if args.trace:
        for name, unit in PER_LAYER:
            if name in layers:
                log("  %-22s %14.4f %s" % (name, layers[name], unit))
        missing = [n for n, _ in PER_LAYER if n not in layers]
        if missing:
            raise BenchError("traced run lacks " + ", ".join(missing))
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so the server is stopped and the
    # temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        sys.stderr.write("benchmark failed: %s\n" % e)
        sys.exit(1)
