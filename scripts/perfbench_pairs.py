#!/usr/bin/env python3
"""Runs the repo benchmark (BENCHMARK.json) on two git revs in alternating
pairs and compares them metric by metric.

Usage: perfbench_pairs.py BASE_REV CHANGE_REV [--pairs 10] [--seed 2]
                          [--out DIR] [--results FILE]
       perfbench_pairs.py --analyze FILE
       perfbench_pairs.py --self-test

Each rev is exported (git archive) into its own work tree under --out and
built there with its own CARGO_TARGET_DIR, so the two builds never share
objects. A warm-up run per side builds it and is discarded. Then, for
each workload of BENCHMARK.json, each of the --pairs pairs runs
`perfbench/run.py` once on each side at BENCHMARK.json's `run_seconds`,
the side that goes first alternating from pair to pair, so a drift in
host speed lands on both sides alike.

Every result line is appended to --results (JSON lines: workload, pair,
side, result) as it arrives; --analyze re-reads such a file without
running anything. For each workload and each end-to-end metric of
BENCHMARK.json the report gives, per side, the median and quartiles
[q1, q3]; the change's wins (pairs where it is better, by the metric's
`better`); whether the gap between the medians exceeds the base's
interquartile range; and "unresolved" when the base's IQR / median exceeds
the metric's bound, i.e. its runs spread too widely to resolve a change of
that size. A run that is not `"correct": true` with `"failed": 0` is
reported and makes the script exit 1.

--self-test checks the analysis on synthetic result lines and exits 0 iff
every case behaves (wired into the lint CI job beside the other gate
self-tests).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def load_spec(path=ROOT / "BENCHMARK.json"):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) with inclusive linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def parse_record(line):
    """One --results line -> dict, raising ValueError when malformed."""
    rec = json.loads(line)
    if set(rec) != {"workload", "pair", "side", "result"}:
        raise ValueError(f"unexpected keys {sorted(rec)}")
    if rec["side"] not in SIDES:
        raise ValueError(f"unknown side {rec['side']!r}")
    result = rec["result"]
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("result without metrics")
    return rec


def analyze(records, spec):
    """Per (workload, metric) comparison rows plus a list of bad runs."""
    bad = []
    runs = {}  # workload -> pair -> side -> metrics
    for rec in records:
        result = rec["result"]
        if result.get("correct") is not True or result.get("failed") != 0:
            bad.append(f"{rec['workload']} pair {rec['pair']} {rec['side']}: "
                       f"correct={result.get('correct')} "
                       f"failed={result.get('failed')}")
        runs.setdefault(rec["workload"], {}).setdefault(
            rec["pair"], {})[rec["side"]] = result["metrics"]
    rows = []
    for workload in sorted(runs):
        pairs = [p for p in sorted(runs[workload])
                 if all(s in runs[workload][p] for s in SIDES)]
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            vals = {s: [runs[workload][p][s][name]["value"] for p in pairs
                        if name in runs[workload][p][s]] for s in SIDES}
            if not vals["base"] or len(vals["base"]) != len(vals["change"]):
                continue
            stats = {s: quartiles(vals[s]) for s in SIDES}
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(1 for b, c in zip(vals["base"], vals["change"])
                       if sign * (c - b) > 0)
            b_q1, b_med, b_q3 = stats["base"]
            iqr = b_q3 - b_q1
            gap = sign * (stats["change"][1] - b_med)
            rows.append({
                "workload": workload, "metric": name, "better": better,
                "base": stats["base"], "change": stats["change"],
                "ratio": stats["change"][1] / b_med if b_med else float("nan"),
                "wins": wins, "pairs": len(vals["base"]),
                "gap_exceeds_iqr": gap > iqr,
                "unresolved": b_med != 0 and iqr / abs(b_med) > metric["bound"],
            })
    return rows, bad


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1000 else f"{v:.0f}"


def render(rows):
    lines = [f"{'workload':<9} {'metric':<19} {'base median [q1, q3]':<26} "
             f"{'change median [q1, q3]':<26} {'ratio':>6} {'wins':>6}  note"]
    for r in rows:
        side = {s: f"{fmt(r[s][1])} [{fmt(r[s][0])}, {fmt(r[s][2])}]"
                for s in SIDES}
        notes = []
        if r["gap_exceeds_iqr"]:
            notes.append("gap>IQR")
        if r["unresolved"]:
            notes.append("unresolved")
        lines.append(f"{r['workload']:<9} {r['metric']:<19} "
                     f"{side['base']:<26} {side['change']:<26} "
                     f"{r['ratio']:>5.2f}x {r['wins']:>2}/{r['pairs']:<3}  "
                     f"{' '.join(notes)}")
    return "\n".join(lines)


def report(records, spec):
    rows, bad = analyze(records, spec)
    print(render(rows))
    for b in bad:
        print(f"bad run: {b}")
    return 1 if bad else 0


# --- running ------------------------------------------------------------------

def export(rev, dest):
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def run_once(tree, target, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench_pairs: run.py failed in {tree} ({workload})")
    return json.loads(lines[-1])


def run_pairs(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    out = Path(args.out or tempfile.mkdtemp(prefix="perfbench-pairs-"))
    results = Path(args.results) if args.results else out / "results.jsonl"
    sides = {}
    for side, rev in zip(SIDES, (args.base, args.change)):
        tree = out / side / "tree"
        export(rev, tree)
        sides[side] = (tree, out / side / "target")
        print(f"{side}: {rev} -> {tree}", file=sys.stderr)
        run_once(*sides[side], workloads[0], args.seed, 2)  # warm-up
    records = []
    with open(results, "a") as f:
        for workload in workloads:
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(*sides[side], workload, args.seed,
                                      spec["run_seconds"])
                    rec = {"workload": workload, "pair": pair, "side": side,
                           "result": result}
                    records.append(rec)
                    f.write(json.dumps(rec) + "\n")
                    f.flush()
                    print(f"{workload} pair {pair} {side} done",
                          file=sys.stderr)
    print(f"results: {results}", file=sys.stderr)
    return report(records, spec)


# --- self-test ----------------------------------------------------------------

def self_test():
    spec = {"end_to_end": [
        {"name": "rate", "better": "higher", "bound": 0.24},
        {"name": "secs", "better": "lower", "bound": 0.25},
    ]}

    def rec(workload, pair, side, rate, secs, correct=True, failed=0):
        return {"workload": workload, "pair": pair, "side": side,
                "result": {"correct": correct, "attempted": 1,
                           "failed": failed,
                           "metrics": {"rate": {"value": rate, "unit": "1/s"},
                                       "secs": {"value": secs, "unit": "s"}}}}

    broken = 0

    def check(label, cond):
        nonlocal broken
        print(f"  {'ok  ' if cond else 'FAIL'} {label}")
        broken += 0 if cond else 1

    # A clear win on both metrics: the change is faster every pair.
    recs = []
    for i in range(10):
        recs.append(rec("w", i, "base", 100.0 + i, 2.0 + 0.01 * i))
        recs.append(rec("w", i, "change", 150.0 + i, 1.5 + 0.01 * i))
    rows, bad = analyze(recs, spec)
    by = {r["metric"]: r for r in rows}
    check("higher-is-better wins counted", by["rate"]["wins"] == 10)
    check("lower-is-better wins counted", by["secs"]["wins"] == 10)
    check("median and quartiles", by["rate"]["base"] == (102.25, 104.5,
                                                         106.75))
    check("gap beyond the base IQR flagged", by["rate"]["gap_exceeds_iqr"])
    check("tight base runs are resolved", not by["rate"]["unresolved"])
    check("no bad runs", not bad)

    # A loss, a wide base spread, and a failed run.
    recs = []
    for i, b in enumerate([50.0, 100.0, 200.0, 100.0]):
        recs.append(rec("w", i, "base", b, 1.0))
        recs.append(rec("w", i, "change", b - 1.0, 1.0, failed=i == 3))
    rows, bad = analyze(recs, spec)
    by = {r["metric"]: r for r in rows}
    check("losses are not wins", by["rate"]["wins"] == 0)
    check("ties are not wins", by["secs"]["wins"] == 0)
    check("no gap flagged for a loss", not by["rate"]["gap_exceeds_iqr"])
    check("wide base spread is unresolved", by["rate"]["unresolved"])
    check("a failed run is reported", len(bad) == 1 and "pair 3" in bad[0])

    # Workloads are kept apart and an unpaired run is ignored.
    recs = [rec("a", 0, "base", 10.0, 1.0), rec("a", 0, "change", 20.0, 1.0),
            rec("b", 0, "base", 10.0, 1.0), rec("b", 0, "change", 5.0, 1.0),
            rec("b", 1, "base", 10.0, 1.0)]
    rows, _ = analyze(recs, spec)
    wins = {(r["workload"], r["metric"]): r["wins"] for r in rows}
    check("per-workload rows", wins[("a", "rate")] == 1 and
          wins[("b", "rate")] == 0)
    check("unpaired run ignored",
          all(r["pairs"] == 1 for r in rows))

    # Malformed lines are refused.
    for label, line in [("missing side", '{"workload": "w", "pair": 0, '
                                         '"result": {"metrics": {}}}'),
                        ("unknown side", '{"workload": "w", "pair": 0, '
                                         '"side": "x", "result": '
                                         '{"metrics": {}}}'),
                        ("not json", "perfbench: build failed")]:
        try:
            parse_record(line)
            check(f"malformed line refused: {label}", False)
        except ValueError:
            check(f"malformed line refused: {label}", True)

    # The real spec parses, names the four end-to-end metrics, and fixes
    # the workloads and run length the pairs run at.
    real = load_spec()
    names = [m["name"] for m in real["end_to_end"]]
    check("BENCHMARK.json end-to-end metrics", len(names) == 4)
    check("BENCHMARK.json workloads and run length",
          [w["name"] for w in real["workloads"]] and
          isinstance(real["run_seconds"], int) and real["run_seconds"] > 0)
    check("render lists every row", render(rows).count("\n") == len(rows))

    if broken:
        print(f"\nself-test FAILED: {broken} case(s) misbehaved",
              file=sys.stderr)
        return 1
    print("\nself-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--out", help="work trees and build dirs (default: temp)")
    ap.add_argument("--results", help="JSON-lines file to append results to")
    ap.add_argument("--analyze", metavar="FILE",
                    help="report on a --results file; run nothing")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.analyze:
        with open(args.analyze) as f:
            records = [parse_record(line) for line in f if line.strip()]
        return report(records, load_spec())
    if not (args.base and args.change):
        ap.error("BASE_REV and CHANGE_REV are required")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
