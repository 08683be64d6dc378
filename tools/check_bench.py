#!/usr/bin/env python3
"""Gate benchmark results against a recorded baseline.

Both files use the BenchReport format: a JSON object of sections (one per
bench driver), each a flat object of numeric metrics, e.g.

    {
      "fig9e_parallel": {
        "hardware_concurrency": 8,
        "workers_1_sec": 1.92,
        "workers_4_sec": 0.61,
        "speedup_4": 3.15
      }
    }

Checks applied to every section present in BOTH files:

  * timing regression — for every shared key ending in "_sec", the current
    value must not exceed baseline * (1 + --tolerance). Absolute wall-clock
    times are only comparable on comparable hardware, so when both sections
    record hardware_concurrency and the values differ, timings are reported
    but not gated (re-record the baseline on the new machine instead).
    Timings below --min-seconds are skipped (too noisy to gate).
  * ratio floors — one table, FLOORS, maps a metric prefix to its floor.
    Every current key equal to a prefix or starting with "<prefix>_" must
    be >= that floor:

      speedup             1.5   speedup_N of the sharded view generation
                                (bench_fig9e_parallel), N workers vs 1
      scan_speedup       10     indexed reads vs the linear scan
      warm_speedup        5     cold index build vs warm snapshot load
      delta_save_speedup  3     full snapshot save vs one-view delta save
      fallback_speedup    3     blind vs candidate-filtered fallback scan
      concurrent_speedup  3     many-connection vs one-connection admits

    Every ratio but speedup_N compares two paths run on the same machine in
    the same process, so its floor is hardware-independent and gated
    unconditionally. A speedup_N floor is an absolute property of the
    machine running the gate: it applies only from SPEEDUP_MIN_WORKERS (4)
    workers up — a flat 1.5x floor would demand 75% parallel efficiency at
    N = 2, which ordinary pool overhead can miss without any regression —
    and only when the current run reports hardware_concurrency >= N, since
    a worker count the machine cannot run in parallel says nothing about
    the sharded path.

Exit status 0 when all gates pass, 1 otherwise (2 for usage errors).
"""

import argparse
import json
import sys

# Floor per metric prefix (see the module docstring).
FLOORS = {
    "speedup": 1.5,
    "scan_speedup": 10.0,
    "warm_speedup": 5.0,
    "delta_save_speedup": 3.0,
    "fallback_speedup": 3.0,
    "concurrent_speedup": 3.0,
}
# speedup_N keys are gated only from this many workers up.
SPEEDUP_MIN_WORKERS = 4


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"check_bench: {path}: top level must be an object",
              file=sys.stderr)
        sys.exit(2)
    return data


def check_section(name, base, cur, args):
    """Returns a list of failure strings for one shared section."""
    failures = []
    base_hc = base.get("hardware_concurrency")
    cur_hc = cur.get("hardware_concurrency")
    # Wall-clock baselines are machine-relative: when both runs declare
    # their core count and they differ, the hardware changed — report the
    # timings but don't fail on them.
    comparable = base_hc is None or cur_hc is None or base_hc == cur_hc

    for key in sorted(set(base) & set(cur)):
        b, c = base[key], cur[key]
        if key.endswith("_sec"):
            # Noise filter: skip only when BOTH values are tiny — a large
            # current value against a tiny baseline is still a regression.
            if b < args.min_seconds and c < args.min_seconds:
                continue
            if not comparable:
                print(f"  {name}.{key}: baseline {b:.3f}s current {c:.3f}s "
                      f"(not gated: recorded on {base_hc:g}-core hardware, "
                      f"running on {cur_hc:g})")
                continue
            limit = b * (1.0 + args.tolerance)
            status = "ok" if c <= limit else "FAIL"
            print(f"  {name}.{key}: baseline {b:.3f}s current {c:.3f}s "
                  f"(limit {limit:.3f}s) {status}")
            if c > limit:
                failures.append(
                    f"{name}.{key} regressed: {c:.3f}s > {limit:.3f}s "
                    f"({args.tolerance:.0%} over baseline {b:.3f}s)")

    # Ratio floors cover every current key, not just those shared with the
    # baseline: a floor needs no baseline value.
    for key in sorted(cur):
        prefix = next((p for p in FLOORS
                       if key == p or key.startswith(p + "_")), None)
        if prefix is None:
            continue
        floor, c = FLOORS[prefix], cur[key]
        if prefix == "speedup":
            try:
                workers = int(key.split("_", 1)[1])
            except (IndexError, ValueError):
                continue
            if workers < SPEEDUP_MIN_WORKERS:
                print(f"  {name}.{key}: current {c:.2f}x (not gated: floor "
                      f"applies from {SPEEDUP_MIN_WORKERS} workers)")
                continue
            if cur_hc is None or cur_hc < workers:
                hc = 0 if cur_hc is None else cur_hc
                print(f"  {name}.{key}: current {c:.2f}x (not gated: "
                      f"hardware_concurrency {hc:g} < {workers} workers)")
                continue
        status = "ok" if c >= floor else "FAIL"
        print(f"  {name}.{key}: current {c:.2f}x "
              f"(floor {floor:.2f}x) {status}")
        if c < floor:
            failures.append(
                f"{name}.{key} below floor: {c:.2f}x < {floor:.2f}x")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON (e.g. BENCH_parallel.json)")
    parser.add_argument("--current", required=True,
                        help="freshly measured JSON to gate")
    parser.add_argument("--tolerance", type=float, default=0.35,
                        help="allowed fractional slowdown per timing "
                             "(default 0.35 = 35%%)")
    parser.add_argument("--min-seconds", type=float, default=0.02,
                        help="timings below this are too noisy to gate "
                             "(default 0.02)")
    parser.add_argument("--section", action="append", default=None,
                        help="restrict the check to these sections "
                             "(repeatable; default: all shared sections)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    shared = sorted(set(baseline) & set(current))
    if args.section:
        missing = sorted(set(args.section) - set(shared))
        if missing:
            print(f"check_bench: sections {missing} not present in both "
                  f"files", file=sys.stderr)
            return 1
        shared = [s for s in shared if s in args.section]
    if not shared:
        print("check_bench: no shared sections to compare", file=sys.stderr)
        return 1

    failures = []
    for name in shared:
        print(f"section {name}:")
        failures += check_section(name, baseline[name], current[name], args)

    if failures:
        print(f"\ncheck_bench: {len(failures)} gate(s) failed:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\ncheck_bench: all gates passed over {len(shared)} section(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
