"""One repetition of one workload, in a fresh process.

Usage: child.py WORKLOAD SEED TRACE SPAWN_TIME OUT_DIR

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time includes interpreter start and `import fedval`.
Prints one JSON record of timings,
outputs and checks as its last line.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import traceback
from pathlib import Path

import fedval.harness as harness
from hooks import Timeline, Tracer, clock
from workloads import WORKLOADS

OUTPUT_FILES = ("rounds.jsonl", "rounds.csv", "final_model.json")


def _check_experiment(run_dir: Path, rounds: int) -> tuple[dict, list[str]]:
    """Digest, final global metrics and gate violations of one experiment's outputs."""
    problems = []
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update((run_dir / name).read_bytes())
    lines = (run_dir / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    if len(lines) != rounds:
        problems.append(f"{run_dir.name}: {len(lines)} rounds written, expected {rounds}")
    final = {}
    for line in lines:
        obj = json.loads(line)
        total = math.fsum(c["p"] for c in obj["clients"])
        if abs(total - 1.0) > 1e-9:
            problems.append(f"{run_dir.name}: round {obj['round']} weights sum to {total!r}")
        final = obj["global"]
    if not all(math.isfinite(final.get(k, math.nan)) for k in ("accuracy", "spd", "eod")):
        problems.append(f"{run_dir.name}: final global metrics not finite: {final}")
    record = {
        "name": run_dir.name,
        "digest": digest.hexdigest(),
        "final": final,
        "bytes_written": sum((run_dir / n).stat().st_size for n in ("rounds.jsonl", "rounds.csv")),
    }
    return record, problems


def run(workload_name: str, seed: int, traced: bool, spawned: float, out: Path) -> dict:
    workload = WORKLOADS[workload_name]
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    timeline = Timeline(probe=not traced)
    timeline.install()

    result = {"failed": 0, "problems": []}
    if workload.is_sweep:
        spec, base = workload.sweep(seed)
        called = clock()
        sweep = harness.run_sweep(spec, base, out_dir=out)
        wall = clock() - called
        errors = [c.error for c in sweep.cells if c.error is not None]
        result["failed"] += len(errors)
        result["problems"] += errors
        runs = [(c.run_dir, base.rounds, len(base.clients)) for c in sweep.cells]
    else:
        cfg = workload.experiment(seed)
        called = clock()
        run_dir = harness.run_experiment(cfg, out_dir=out)
        wall = clock() - called
        runs = [(run_dir, cfg.rounds, len(cfg.clients))]
    setup = called - spawned

    # set-up: everything before the call, plus each experiment's time from
    # entry until its RoundWriter exists (when its first round begins);
    # probe time (see hooks.Timeline) is taken out of the wall time
    loop_s, client_rounds, intervals, levels = 0.0, 0, [], []
    for exp, (run_dir, rounds, k) in zip(timeline.experiments, runs):
        wall -= sum(b - a for a, b in zip([exp["writer"]] + exp["writes"], exp["resumes"]))
        if run_dir is None:  # a failed sweep cell, already counted
            continue
        setup += exp["writer"] - exp["start"]
        round_s = [b - a for a, b in zip(exp["resumes"], exp["writes"])]
        intervals += [t * 1e3 for t in round_s]
        probes = exp["probes"]
        levels += [(a + b) / 2 for a, b in zip(probes, probes[1:])]  # the two probes around each round
        loop_s += sum(round_s)
        client_rounds += k * rounds

    outputs = []
    for run_dir, rounds, _ in runs:
        if run_dir is None:
            continue
        record, problems = _check_experiment(run_dir, rounds)
        outputs.append(record)
        result["problems"] += problems
        result["failed"] += bool(problems)

    result.update(
        wall_s=wall,
        setup_s=setup,
        client_rounds_per_s=client_rounds / loop_s,
        round_ms=intervals,
        round_probe_s=levels if timeline.probe else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        outputs=outputs,
    )
    if tracer:
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts, **{"reporting.bytes_written": sum(o["bytes_written"] for o in outputs)}),
        }
    return result


def main(argv):
    workload, seed, traced, spawned, out = argv
    try:
        result = run(workload, int(seed), traced == "1", float(spawned), Path(out))
    except Exception as exc:  # every failure is reported to the parent, never raised
        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
