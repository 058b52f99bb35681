#!/usr/bin/env python3
"""Compares a google-benchmark JSON run against a checked-in baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--factor 2.0]
       check_bench_regression.py --self-test

Fails (exit 1) when:

  * the baseline contains no benchmarks at all (an empty or mis-generated
    baseline would otherwise vacuously "pass" — hard failure);
  * a benchmark present in the baseline is missing from the current run;
  * a custom counter present in a baseline benchmark is missing from the
    same benchmark in the current run (renaming or dropping a counter must
    show up as a red gate, not as silently skipped coverage);
  * any benchmark present in both files is slower than `factor` times its
    baseline real_time;
  * a SPEEDUP_PAIRS, THROUGHPUT_BARS, or COUNTER_CEILINGS entry whose
    benchmarks exist in the baseline is violated *within the current run*
    (machine speed cancels out for pairs; bars are absolute floors;
    ceilings are absolute maxima for machine-independent counters such as
    allocation counts). Baselines without those benchmarks (e.g. the
    RESSCHED smoke gate) skip the bars.

Current pairs / bars / ceilings:

  * indexed calendar — indexed earliest_fit at 10k reservations beats the
    linear oracle by >= 5x;
  * sharded service  — a 4-shard replay sustains >= 2x the events/sec of
    the 1-shard replay of the same stream (DESIGN.md §9 acceptance bar);
  * PDES replay      — the conservative windowed replay at 4 workers
    sustains >= 2x the events/sec of the same 4-shard replay at 1 worker
    (DESIGN.md §12 acceptance bar; results are byte-identical at every
    worker count, so only wall-clock may move);
  * reschedd RPC     — pipelined submits over a unix socket sustain
    >= 10k RPCs/sec with a durable WAL (DESIGN.md §10 acceptance bar);
  * hot-path layout  — the RESSCHED sweep at Table-4 scale sustains
    >= 650 jobs/sec; heap allocations per job stay under the ceilings on
    the static, dynamic and blind scheduling paths, and the treap-node
    arena performs zero chunk allocations in steady-state churn
    (DESIGN.md §11 acceptance bars).

--self-test runs the checker against synthetic in-memory fixtures and
exits 0 iff every failure mode actually fails (wired into the lint CI
job so the gate itself cannot rot).
"""

import argparse
import json
import sys

# (slow benchmark, fast benchmark, required slow/fast ratio, label)
SPEEDUP_PAIRS = [
    ("linear_earliest_fit/10000", "indexed_earliest_fit/10000", 5.0,
     "earliest_fit speedup over the linear oracle at 10k"),
    ("BM_ShardReplay/1/real_time", "BM_ShardReplay/4/real_time", 2.0,
     "4-shard replay speedup over 1 shard"),
    ("BM_PdesReplay/1/real_time", "BM_PdesReplay/4/real_time", 2.0,
     "PDES windowed replay speedup at 4 workers over 1"),
]

# (benchmark, counter, required minimum counter value, label)
THROUGHPUT_BARS = [
    ("BM_SubmitPipelined/8/real_time", "rpc_per_sec", 10000.0,
     "reschedd pipelined submit throughput (DESIGN.md §10 bar)"),
    ("BM_ResschedSweep", "jobs_per_sec", 650.0,
     "RESSCHED sweep at Table-4 scale (DESIGN.md §11 bar)"),
]

# (benchmark, counter, maximum allowed counter value, label)
# Ceilings gate machine-independent counters — allocation counts, not
# times — so they hold exactly on any runner.
COUNTER_CEILINGS = [
    ("BM_ResschedSweep", "allocs_per_job", 64.0,
     "heap allocations per RESSCHED job (arena/SoA/scratch-buffer gate)"),
    ("BM_DynamicSweep", "allocs_per_job", 64.0,
     "heap allocations per dynamic-arrivals job (measured 15)"),
    ("BM_BlindSweep", "allocs_per_job", 512.0,
     "heap allocations per blind job incl. its calendar copy (measured 277)"),
    ("BM_ChurnSteadyState", "arena_chunk_allocs", 0.0,
     "treap-node arena chunk allocations in steady-state churn"),
]

# google-benchmark JSON keys that are not user counters.
_STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "label",
    "error_occurred", "error_message", "big_o", "rms",
}


def load(path):
    with open(path) as f:
        return parse(json.load(f))


def parse(data):
    """benchmark name -> {"real_time": float, "counters": {name: float}}."""
    out = {}
    for b in data["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        counters = {
            key: float(value)
            for key, value in b.items()
            if key not in _STANDARD_KEYS and isinstance(value, (int, float))
        }
        out[b["name"]] = {
            "real_time": float(b["real_time"]),
            "counters": counters,
        }
    return out


def compare(baseline, current, factor):
    """Returns (report_lines, failure_lines)."""
    lines, failures = [], []
    if not baseline:
        failures.append("baseline contains no benchmarks"
                        " (empty or mis-generated baseline file)")
        return lines, failures

    for name, base in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from the current run")
            continue
        cur = current[name]
        base_time, cur_time = base["real_time"], cur["real_time"]
        ratio = cur_time / base_time if base_time > 0 else float("inf")
        marker = "FAIL" if ratio > factor else "ok"
        lines.append(f"{marker:4} {name}: {base_time:12.1f} ns ->"
                     f" {cur_time:12.1f} ns  ({ratio:.2f}x)")
        if ratio > factor:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline"
                            f" (limit {factor:.2f}x)")
        for counter in sorted(base["counters"]):
            if counter not in cur["counters"]:
                failures.append(
                    f"{name}: counter '{counter}' present in the baseline is"
                    f" missing from the current run")

    for slow, fast, minimum, label in SPEEDUP_PAIRS:
        if slow not in baseline or fast not in baseline:
            continue
        if slow not in current or fast not in current:
            failures.append(f"{label}: benchmarks missing from the current run")
            continue
        speedup = current[slow]["real_time"] / current[fast]["real_time"]
        lines.append(f"{label}: {speedup:.1f}x (required >= {minimum}x)")
        if speedup < minimum:
            failures.append(f"{label}: {speedup:.1f}x below the {minimum}x bar")

    for name, counter, minimum, label in THROUGHPUT_BARS:
        if name not in baseline:
            continue
        value = current.get(name, {}).get("counters", {}).get(counter)
        if value is None:
            failures.append(f"{label}: {name} counter '{counter}' missing"
                            f" from the current run")
            continue
        lines.append(f"{label}: {value:.0f} (required >= {minimum:.0f})")
        if value < minimum:
            failures.append(f"{label}: {value:.0f} below the"
                            f" {minimum:.0f} floor")

    for name, counter, maximum, label in COUNTER_CEILINGS:
        if name not in baseline:
            continue
        value = current.get(name, {}).get("counters", {}).get(counter)
        if value is None:
            failures.append(f"{label}: {name} counter '{counter}' missing"
                            f" from the current run")
            continue
        lines.append(f"{label}: {value:.0f} (required <= {maximum:.0f})")
        if value > maximum:
            failures.append(f"{label}: {value:.0f} above the"
                            f" {maximum:.0f} ceiling")

    return lines, failures


def self_test():
    """Every failure mode must fail; the healthy case must pass."""
    def bench(name, real_time, **counters):
        return {"name": name, "run_type": "iteration",
                "real_time": real_time, "cpu_time": real_time,
                "time_unit": "ns", "iterations": 1, **counters}

    base = parse({"benchmarks": [
        bench("BM_X/1", 100.0, widgets_per_sec=50.0),
        bench("BM_SubmitPipelined/8/real_time", 100.0, rpc_per_sec=20000.0),
        bench("BM_ResschedSweep", 100.0, jobs_per_sec=800.0,
              allocs_per_job=13.0),
        bench("linear_earliest_fit/10000", 1000.0),
        bench("indexed_earliest_fit/10000", 100.0),
    ]})
    good = parse({"benchmarks": [
        bench("BM_X/1", 110.0, widgets_per_sec=48.0),
        bench("BM_SubmitPipelined/8/real_time", 90.0, rpc_per_sec=15000.0),
        bench("BM_ResschedSweep", 95.0, jobs_per_sec=700.0,
              allocs_per_job=15.0),
        bench("linear_earliest_fit/10000", 1100.0),
        bench("indexed_earliest_fit/10000", 110.0),
    ]})

    # (label, baseline, current, expect): expect is False (must pass), True
    # (must fail), or a string one of the failure lines must contain, for
    # failure modes that a more generic rule would otherwise mask.
    cases = []
    cases.append(("healthy run passes", base, good, False))
    cases.append(("empty baseline fails", parse({"benchmarks": []}),
                  good, True))
    missing_bench = {"BM_X/1": good["BM_X/1"]}
    cases.append(("missing benchmark fails", base, missing_bench, True))
    slow = {name: dict(value) for name, value in good.items()}
    slow["BM_X/1"] = {"real_time": 500.0,
                      "counters": {"widgets_per_sec": 10.0}}
    cases.append(("2x regression fails", base, slow, True))
    dropped = {name: {"real_time": value["real_time"],
                      "counters": dict(value["counters"])}
               for name, value in good.items()}
    del dropped["BM_X/1"]["counters"]["widgets_per_sec"]
    cases.append(("dropped counter fails", base, dropped, True))
    under_bar = {name: {"real_time": value["real_time"],
                        "counters": dict(value["counters"])}
                 for name, value in good.items()}
    under_bar["BM_SubmitPipelined/8/real_time"]["counters"][
        "rpc_per_sec"] = 5000.0
    cases.append(("throughput below the bar fails", base, under_bar, True))
    over_ceiling = {name: {"real_time": value["real_time"],
                           "counters": dict(value["counters"])}
                    for name, value in good.items()}
    over_ceiling["BM_ResschedSweep"]["counters"]["allocs_per_job"] = 500.0
    cases.append(("counter above the ceiling fails", base, over_ceiling,
                  True))
    # Both pair benchmarks stay within the 2x factor of their baselines, so
    # only the within-run speedup bar can fail these.
    below_pair = {name: dict(value) for name, value in good.items()}
    below_pair["linear_earliest_fit/10000"] = {"real_time": 600.0,
                                               "counters": {}}
    below_pair["indexed_earliest_fit/10000"] = {"real_time": 180.0,
                                                "counters": {}}
    cases.append(("pair below its bar fails", base, below_pair,
                  "below the 5.0x bar"))
    missing_pair = {name: value for name, value in good.items()
                    if name != "indexed_earliest_fit/10000"}
    cases.append(("pair benchmark missing from the current run fails", base,
                  missing_pair,
                  "linear oracle at 10k: benchmarks missing from the"
                  " current run"))

    broken = 0
    for label, b, c, expect in cases:
        _, failures = compare(b, c, factor=2.0)
        if isinstance(expect, str):
            matched = [f for f in failures if expect in f]
            behaved = bool(matched)
            shown = matched or failures
        else:
            behaved = bool(failures) == expect
            shown = failures
        verdict = "ok" if behaved else "SELF-TEST BROKEN"
        if not behaved:
            broken += 1
        print(f"{verdict:16} {label}"
              + (f" ({shown[0]})" if shown else ""))
    if broken:
        print(f"\nself-test FAILED: {broken} case(s) misbehaved",
              file=sys.stderr)
        return 1
    print("\nself-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--factor", type=float, default=2.0)
    ap.add_argument("--self-test", action="store_true",
                    help="verify the checker's own failure modes and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("BASELINE and CURRENT are required unless --self-test")

    lines, failures = compare(load(args.baseline), load(args.current),
                              args.factor)
    for line in lines:
        print(line)
    if failures:
        print("\nbenchmark regression check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbenchmark regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
