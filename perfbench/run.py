"""fedval benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload fedval-k100 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each repetition of the workload runs in its own fresh process (child.py),
one at a time, with BLAS pinned to one thread.  Repetitions continue until
--seconds are used up.  Times are reported on a host of fixed speed: they
are scaled by the time of a fixed probe that untraced repetitions run
between rounds (speed.py), so that the shared host's changing speed
cancels.  With --trace 0 the last stdout line reports the
end-to-end metrics; with --trace 1 untraced and traced repetitions
alternate and it reports the per-layer metrics.  Every repetition's outputs
go through the correctness gate (see README.md); a failed experiment or
check makes "correct" false and the exit code 1.

Run it from the root of a fedval checkout: it needs src/fedval.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150
MIN_REPS = 3  # per mode; a run may overrun --seconds to reach it
# final global accuracy/SPD/EOD may differ from the recorded reference by
# this much: about two flipped validation predictions in the smallest
# group/label cell EOD is computed over (~120 rows), so a fast path that only
# reorders floating-point sums stays inside it
FINAL_TOL = 0.02

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "client_rounds_per_s": "1/s",
    "round_ms.p50": "ms",
    "round_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "model.client_update.calls": "count",
    "model.client_update.self_s": "s",
    "model.sgd_steps": "count",
    "model.loss.calls": "count",
    "model.loss.self_s": "s",
    "model.gradient.calls": "count",
    "model.gradient.self_s": "s",
    "model.classify.calls": "count",
    "model.classify.rows": "count",
    "metrics.objective_score.calls": "count",
    "metrics.objective_score.self_s": "s",
    "metrics.global.self_s": "s",
    "server.score_clients.models": "count",
    "server.score_clients.self_s": "s",
    "server.rank_update.self_s": "s",
    "server.make_weights.self_s": "s",
    "server.aggregate.self_s": "s",
    "server.fedval_round.self_s": "s",
    "baselines.round.self_s": "s",
    "reporting.write.calls": "count",
    "reporting.write.self_s": "s",
    "reporting.bytes_written": "bytes",
    "reporting.read_jsonl.self_s": "s",
    "data.setup.self_s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.run_sweep.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(workload: str, seed: int, traced: bool, out: Path) -> dict:
    """One repetition in a fresh process; a crash or timeout becomes an "error" record."""
    shutil.rmtree(out, ignore_errors=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if traced else "0", repr(spawned), str(out)],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {CHILD_TIMEOUT_S} s", "elapsed": time.monotonic() - spawned}
    finally:
        if proc.poll() is None:  # timed out, or this run is being stopped
            proc.kill()
            proc.communicate()
    elapsed = time.monotonic() - spawned
    shutil.rmtree(out, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"error": f"repetition exited {proc.returncode} without a result"}
    if proc.returncode != 0 and "error" not in record:
        record = {"error": f"repetition exited {proc.returncode}"}
    record["elapsed"] = elapsed
    return record


def to_reference(rep: dict, scale: float) -> dict:
    """`rep` with its times on a host of fixed speed (see speed.py).

    Each round time is scaled by the probes around it; every other time is
    multiplied by `scale` (see host_scale).
    """
    import speed

    out = dict(rep, wall_s=rep["wall_s"] * scale, setup_s=rep["setup_s"] * scale,
               client_rounds_per_s=rep["client_rounds_per_s"] / scale)
    if rep["round_probe_s"] is not None:
        out["round_ms"] = [ms * speed.REFERENCE_S / level for ms, level in zip(rep["round_ms"], rep["round_probe_s"])]
    if "trace" in rep:
        out["trace"] = dict(rep["trace"], self_s={k: v * scale for k, v in rep["trace"]["self_s"].items()})
    return out


def host_scale(plain: list[dict]) -> tuple[float, float]:
    """The factor to reference-host seconds, and the run's mean probe time.

    The mean is over every probe of the run's untraced repetitions.  A host
    that gives the VM a varying share of its cores slows the probes and the
    workload alike on average, so mean times over the mean probe time
    cancel it.
    """
    import speed

    probe = statistics.fmean(t for rep in plain for t in rep["round_probe_s"])
    return speed.REFERENCE_S / probe, probe


def quartiles(values: list[float], centre=statistics.median) -> dict:
    """`centre` of the values (the median by default) as "value", with their quartiles and count."""
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": centre(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(reps: list[dict]) -> dict:
    """Run-level values over the repetitions; round percentiles over every round of every repetition.

    `wall_s` is the mean, to match host_scale; the throughput is total
    client-rounds over total round-loop time (the harmonic mean, as every
    repetition does the same work); set-up time and memory are medians.
    """
    stats = {
        "wall_s": quartiles([r["wall_s"] for r in reps], statistics.fmean),
        "setup_s": quartiles([r["setup_s"] for r in reps]),
        "client_rounds_per_s": quartiles([r["client_rounds_per_s"] for r in reps], statistics.harmonic_mean),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in reps]),
    }
    rounds = [ms for r in reps for ms in r["round_ms"]]
    for pct in (50, 90):
        stats[f"round_ms.p{pct}"] = {"value": percentile(rounds, pct), "n": len(rounds)}
    return stats


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over traced repetitions of every per-layer metric."""
    stats = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values = [r["trace"][field].get(layer, 0) for r in traced]
        else:
            values = [r["trace"]["counts"].get(name, 0) for r in traced]
        stats[name] = quartiles(values)
    wall_traced = statistics.fmean(r["wall_s"] for r in traced)
    wall_plain = statistics.fmean(r["wall_s"] for r in untraced)
    stats["trace.overhead_ratio"] = {"value": wall_traced / wall_plain, "n": len(traced)}
    return stats


def check_hooks(workload: str, seed: int, traced: list[dict]) -> list[str]:
    """Every hook must fire exactly as often as the round protocol says."""
    from workloads import AT_MOST, WORKLOADS, expected_calls

    expected = expected_calls(WORKLOADS[workload], seed)
    problems = []
    for rep in traced:
        calls, self_s = rep["trace"]["calls"], rep["trace"]["self_s"]
        for layer, want in expected.items():
            got = calls.get(layer, 0)
            if (got > want) if layer in AT_MOST else (got != want):
                bound = "at most " if layer in AT_MOST else ""
                problems.append(f"hook {layer} fired {got} times, expected {bound}{want}")
            elif want and layer in self_s and not self_s[layer] > 0:
                problems.append(f"hook {layer} fired but recorded no time")
        if problems:
            break
    return problems


def reference_problems(workload: str, seed: int, outputs: list[dict]) -> tuple[list[str], bool | None]:
    """One problem per experiment whose final metrics miss the reference.

    Seeds without a recorded reference get a plausibility check instead.
    The returned digest match is informational only: a fast path whose
    results stay within FINAL_TOL is not a failure.
    """
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    problems = []
    if ref is None:
        for out in outputs:
            final = out["final"]
            if not (0.6 <= final["accuracy"] <= 1.0 and 0.0 <= final["spd"] <= 1.0 and 0.0 <= final["eod"] <= 1.0):
                problems.append(f"{out['name']}: implausible final metrics {final}")
        return problems, None
    if len(ref["final"]) != len(outputs):
        return [f"{len(outputs)} experiments, reference has {len(ref['final'])}"] * len(outputs), False
    for out, want in zip(outputs, ref["final"]):
        misses = [k for k, v in want.items() if abs(out["final"][k] - v) > FINAL_TOL]
        if misses:
            problems.append(f"{out['name']}: final {misses} {out['final']} vs reference {want} (tol {FINAL_TOL})")
    return problems, [o["digest"] for o in outputs] == ref["digest"]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat `workload` for `seconds`, check every output, and summarise."""
    from workloads import WORKLOADS

    experiments = len(WORKLOADS[workload].cell_configs(seed))
    work = ROOT / ".perfbench_work" / str(os.getpid())  # one directory per run
    modes = [False, True] if traced else [False]
    reps = []
    deadline = time.monotonic() + seconds
    try:
        while True:
            mode = modes[len(reps) % len(modes)]
            reps.append(dict(run_child(workload, seed, mode, work / workload), traced=mode))
            done = len(reps) >= MIN_REPS * len(modes)
            typical = statistics.median(r["elapsed"] for r in reps)
            if done and time.monotonic() + typical > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = failed = 0
    problems = []
    good = []
    for rep in reps:
        attempted += experiments
        if "error" in rep:
            failed += experiments
            problems.append(rep["error"])
            continue
        failed += rep["failed"]
        problems += rep["problems"]
        good.append(rep)

    summary = {"workload": workload, "seed": seed, "traced": traced, "repetitions": len(reps)}
    if good:
        # repeats of one config must write byte-identical outputs
        first = [o["digest"] for o in good[0]["outputs"]]
        for rep in good[1:]:
            differing = sum(a != b["digest"] for a, b in zip(first, rep["outputs"]))
            if differing:
                failed += differing
                problems.append(f"{differing} experiment(s) wrote outputs that differ from the first repetition")
        ref_problems, digest_match = reference_problems(workload, seed, good[0]["outputs"])
        failed += len(good) * len(ref_problems)
        problems += ref_problems
        summary["digest_matches_reference"] = digest_match
        summary["final"] = [o["final"] for o in good[0]["outputs"]]
        summary["digests"] = first

    plain = [r for r in good if not r["traced"]]
    if plain:  # otherwise every untraced repetition failed, and no metric is reported
        scale, probe = host_scale(plain)
        scaled = [to_reference(rep, scale) for rep in good]
        summary["end_to_end"] = end_to_end([r for r in scaled if not r["traced"]])
        # for information: the unscaled times and the probe's own mean time
        summary["unscaled"] = {
            "wall_s": quartiles([r["wall_s"] for r in plain], statistics.fmean),
            "setup_s": quartiles([r["setup_s"] for r in plain]),
        }
        summary["unscaled"]["probe_s"] = {"value": probe, "n": sum(len(r["round_probe_s"]) for r in plain)}
        traced_reps = [r for r in scaled if r["traced"]]
        if traced_reps:
            hook_problems = check_hooks(workload, seed, traced_reps)
            problems += hook_problems
            failed += bool(hook_problems)
            summary["per_layer"] = per_layer(traced_reps, [r for r in scaled if not r["traced"]])

    failed = min(failed, attempted)  # one experiment can fail more than one check
    summary.update(attempted=attempted, failed=failed, fail_ratio=failed / attempted, problems=problems)
    return summary


def print_table(summary: dict) -> None:
    print(f"== {summary['workload']}  seed {summary['seed']}  {summary['repetitions']} repetitions"
          f"  fail_ratio {summary['fail_ratio']:.4f} ({summary['failed']}/{summary['attempted']} experiments)")
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for name, stat in summary.get(key, {}).items():
            spread = f"  q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}" if "q1" in stat else ""
            print(f"   {name:34s} {stat['value']:14.6g} {units[name]:6s} n={stat['n']}{spread}")
    for problem in summary["problems"]:
        print(f"   FAILED: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stopped from outside: unwind, so the running repetition is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "fedval" / "__init__.py").is_file():
        print(f"perfbench: no fedval source under {ROOT / 'src'}; run from a fedval checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        # every workload untraced, then every workload traced, one at a time
        runs = [(w, t) for t in (False, True) for w in WORKLOADS]
    elif args.workload in WORKLOADS:
        runs = [(args.workload, bool(args.trace))]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    print(json.dumps({"environment": environment()}))

    summaries = []
    for workload, traced in runs:
        summary = run_workload(workload, args.seed, args.seconds, traced)
        print(json.dumps(summary))
        print_table(summary)
        summaries.append(summary)

    metrics = {}
    for s in summaries:
        key, units = ("per_layer", PER_LAYER) if s["traced"] else ("end_to_end", END_TO_END)
        prefix = f"{s['workload']}:" if args.workload == "all" else ""
        for name, stat in s.get(key, {}).items():
            metrics[prefix + name] = {"value": stat["value"], "unit": units[name]}
    failed = sum(s["failed"] for s in summaries)
    correct = failed == 0 and not any(s["problems"] for s in summaries) and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
