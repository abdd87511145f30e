#!/usr/bin/env python3
"""Compare two fedval checkouts on benchmark workloads, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload afl-k10 --pairs 10 --seconds 30

Pair i runs `perfbench/run.py --workload W --seed N+i --seconds S --trace 0`
in each checkout, one run at a time: the parent first in even pairs (the
first pair included), the change first in odd ones, so neither side always
runs on the host's later level.  `--workload all` runs every workload of
BENCHMARK.json in turn; N is `--first-seed`, 0 by default.  For
every end-to-end metric the script prints each side's median with its
quartiles over the pairs, the relative change of the medians, the number
of pairs the change won (ties count for neither side) and a verdict:

  gain        the change won at least 9/10 of the pairs, and its median is
              better than the parent's by more than the parent's
              interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  neither, and either side's interquartile range, relative to
              its median, is wider than the bound, while not every run of
              the change reads better than every run of the parent
  no change   otherwise

Which direction is better, and each bound, are read from BENCHMARK.json
beside this script.  Each run's output digests come from perfbench's
summary line of the workload; the script also prints on how many pairs
the parent and the change wrote equal outputs.  That count is reported,
not a failure: a change may mean to alter its outputs.  Each workload's
header names the commit of each side, from perfbench's environment line.

Nothing is written but what perfbench itself writes: its work directory
under each checkout, which it removes.  Exits 1 if any run is not correct
(a run that failed, or whose last line reports "correct": false), else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _json_lines(stdout: str):
    """Each line of perfbench's stdout that is a JSON object, parsed."""
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            continue


def summary_digests(stdout: str, workload: str) -> list | None:
    """The output digests in perfbench's summary line of `workload`, or None if no line has them."""
    for summary in _json_lines(stdout):
        if summary.get("workload") == workload and "digests" in summary:
            return summary["digests"]
    return None


def environment_commit(stdout: str) -> str | None:
    """The commit in perfbench's environment line, or None if no line names one."""
    for line in _json_lines(stdout):
        environment = line.get("environment")
        if isinstance(environment, dict) and "commit" in environment:
            return environment["commit"]
    return None


def side_commit(runs: list[dict | None]) -> str:
    """The commit named by the first of one side's runs that names one, or "unknown"."""
    return next((run["commit"] for run in runs if run and run["commit"] is not None), "unknown")


def equal_outputs(runs: list[tuple[dict | None, dict | None]]) -> tuple[int, int]:
    """(pairs whose parent and change runs wrote equal outputs, pairs where both runs have digests)."""
    both = [(p["digests"], c["digests"]) for p, c in runs
            if p and c and p["digests"] is not None and c["digests"] is not None]
    return sum(p == c for p, c in both), len(both)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One perfbench run in `checkout`: its metrics and output digests, or None if the run failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=4 * seconds + 300)
    except subprocess.TimeoutExpired:
        print(f"  {checkout}: seed {seed} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  {checkout}: seed {seed} exited {proc.returncode} without a result\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not last.get("correct"):
        print(f"  {checkout}: seed {seed} is not correct (exit {proc.returncode})\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return {"metrics": last["metrics"], "digests": summary_digests(proc.stdout, workload),
            "commit": environment_commit(proc.stdout)}


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile), with perfbench's quartile rule."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> str:
    """The verdict on one metric from its (parent, change) value per pair; see the module doc."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: the change is better
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    pm, pq1, pq3 = spread(parent)
    cm, cq1, cq3 = spread(change)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    if 10 * wins >= 9 * len(pairs) and sign * (pm - cm) > pq3 - pq1:
        return "gain"
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "worse"
    wide = any(m and (q3 - q1) / abs(m) > bound for m, q1, q3 in ((pm, pq1, pq3), (cm, cq1, cq3)))
    all_better = min(sign * p for p in parent) > max(sign * c for c in change)
    return "unresolved" if wide and not all_better else "no change"


def compare(sides: dict, workload: str, seeds: range, seconds: float, metrics: list[dict]) -> int:
    """Run the pairs of one workload and print its table; returns the number of failed runs."""
    results = {"parent": [], "change": []}  # per pair: run_once's result, None for a failed run
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], workload, seed, seconds)
            results[side].append(run)
            print(f"{workload} pair {seed}: {side} {'done' if run else 'FAILED'}", file=sys.stderr)

    print(f"{workload}: {len(seeds)} pairs of {seconds:g} s runs, seeds {seeds[0]}-{seeds[-1]}")
    print(f"commits: parent {side_commit(results['parent'])}, change {side_commit(results['change'])}")
    equal, compared = equal_outputs(list(zip(results["parent"], results["change"])))
    print(f"outputs: parent and change wrote equal outputs in {equal}/{compared} pairs")
    print(f"{'metric':24s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"{'change':>8s} {'wins':>6s}  verdict")
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(results["parent"], results["change"])
                 if p is not None and c is not None and name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            print(f"{name:24s} no pair with both runs correct")
            continue
        parent, change = zip(*pairs)
        pm, pq1, pq3 = spread(list(parent))
        cm, cq1, cq3 = spread(list(change))
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
        rel = f"{(cm / pm - 1) * 100:+.1f}%" if pm else "n/a"
        print(f"{name:24s} {f'{pm:.4g} [{pq1:.4g}, {pq3:.4g}]':34s} "
              f"{f'{cm:.4g} [{cq1:.4g}, {cq3:.4g}]':34s} {rel:>8s} {f'{wins}/{len(pairs)}':>6s}  "
              f"{verdict(pairs, direction, metric['bound'])}")
    return sum(r is None for side in results.values() for r in side)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0, help="the seed of the first pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]] if args.workload == "all" else [args.workload]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    failed = 0
    for workload in workloads:
        failed += compare(sides, workload, seeds, args.seconds, benchmark["end_to_end"])
        sys.stdout.flush()
    if failed:
        print(f"{failed} run(s) not correct", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
