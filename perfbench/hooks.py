"""Timing of fedval's layers by wrapping its public functions from outside.

`from .model import client_update` copies the function reference into the
importing module, so a call is only seen if the wrapper replaces the name
in the module the call goes through.  Both classes here therefore patch a
function at every `fedval` module that binds it.

`Timeline` takes the few timestamps the end-to-end metrics need (experiment
entry, writer construction, each round write) and costs one clock read per
call.  `Tracer` records every layer call for the per-layer metrics; a
layer's self time is the time of its calls minus the time of timed calls
made beneath them.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import fedval.harness as harness
from fedval.reporting import RoundWriter

import speed

clock = time.monotonic  # CLOCK_MONOTONIC on Linux: comparable across processes


def _fedval_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "fedval" or name.startswith("fedval.")]


def _patch_everywhere(original, wrapper, skip=()) -> int:
    """Rebind every fedval module name bound to `original`; returns the site count."""
    sites = 0
    for module in _fedval_modules():
        if module.__name__ in skip:
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)
                sites += 1
    return sites


class Timeline:
    """Per-experiment timestamps: entry, writer construction, round writes.

    With `probe`, speed.probe_s runs right after the writer's construction
    and after every write; "probes" holds what each measured and "resumes"
    the time each ended, so round i runs from resumes[i] to writes[i] and
    probe time stays out of every round.  Without it, a resume is one clock
    read after the mark it follows.
    """

    def __init__(self, probe: bool):
        self.experiments = []  # dicts with "start", "writer", "writes", "probes" and "resumes"
        self.probe = probe

    def install(self):
        experiments, probe = self.experiments, self.probe

        def probe_after(exp):
            if probe:
                exp["probes"].append(speed.probe_s())
            exp["resumes"].append(clock())

        def run_experiment(original):
            def timed(*args, **kwargs):
                experiments.append({"start": clock(), "writer": None, "writes": [], "probes": [], "resumes": []})
                return original(*args, **kwargs)

            return timed

        def init(original):
            def timed(*args, **kwargs):
                original(*args, **kwargs)
                experiments[-1]["writer"] = clock()
                probe_after(experiments[-1])

            return timed

        def write(original):
            def timed(*args, **kwargs):
                original(*args, **kwargs)
                experiments[-1]["writes"].append(clock())
                probe_after(experiments[-1])

            return timed

        if not _patch_everywhere(harness.run_experiment, run_experiment(harness.run_experiment)):
            raise RuntimeError("harness.run_experiment is bound nowhere in fedval")
        RoundWriter.__init__ = init(RoundWriter.__init__)
        RoundWriter.write = write(RoundWriter.write)


def _classify_rows(counts, args):
    counts["model.classify.rows"] += len(args[1])


def _sgd_steps(counts, args):
    local, cfg = args[1], args[2]
    counts["model.sgd_steps"] += cfg.epochs * math.ceil(local.n / cfg.batch_size)


def _models_scored(counts, args):
    counts["server.score_clients.models"] += len(args[1])


# (layer, defining module, function, modules whose binding stays unwrapped, counter)
# accuracy/spd/eod stay unwrapped inside fedval.metrics: there they run as
# part of objective_score, and metrics.global is the global model's evaluation.
TARGETS = (
    ("data.setup", "fedval.data", "generate_synthetic", (), None),
    ("data.setup", "fedval.data", "load_csv", (), None),
    ("data.setup", "fedval.data", "split_validation", (), None),
    ("data.setup", "fedval.data", "partition", (), None),
    ("data.setup", "fedval.data", "skew", (), None),
    ("model.client_update", "fedval.model", "client_update", (), _sgd_steps),
    ("model.loss", "fedval.model", "loss", (), None),
    ("model.gradient", "fedval.model", "gradient", (), None),
    ("metrics.objective_score", "fedval.metrics", "objective_score", (), None),
    ("metrics.global", "fedval.metrics", "accuracy", ("fedval.metrics",), None),
    ("metrics.global", "fedval.metrics", "spd", ("fedval.metrics",), None),
    ("metrics.global", "fedval.metrics", "eod", ("fedval.metrics",), None),
    ("server.score_clients", "fedval.server", "score_clients", (), _models_scored),
    ("server.rank_update", "fedval.server", "rank_update", (), None),
    ("server.make_weights", "fedval.server", "make_weights", (), None),
    ("server.aggregate", "fedval.server", "aggregate", (), None),
    ("server.fedval_round", "fedval.server", "fedval_round", (), None),
    ("baselines.round", "fedval.baselines", "fedavg_round", (), None),
    ("baselines.round", "fedval.baselines", "qfedsgd_round", (), None),
    ("baselines.round", "fedval.baselines", "qfedavg_round", (), None),
    ("baselines.round", "fedval.baselines", "afl_round", (), None),
    ("reporting.read_jsonl", "fedval.reporting", "read_jsonl", (), None),
    ("harness.run_experiment", "fedval.harness", "run_experiment", (), None),
    ("harness.run_sweep", "fedval.harness", "run_sweep", (), None),
)


# Counted but not timed: classify runs inside objective_score and the global
# metrics, and its time belongs to them, so scoring shows as one layer.
COUNTED = (("model.classify", "fedval.model", "classify", (), _classify_rows),)


class Tracer:
    """Call counts, self times and work counters per layer."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # per open span: time spent in timed children

    def _span(self, layer, counter):
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        clock_ = time.perf_counter

        def make(original):
            def traced(*args, **kwargs):
                stack.append(0.0)
                start = clock_()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = clock_() - start
                    self_s[layer] += elapsed - stack.pop()
                    calls[layer] += 1
                    if stack:
                        stack[-1] += elapsed
                    if counter is not None:
                        counter(counts, args)

            return traced

        return make

    def _count(self, layer, counter):
        calls, counts = self.calls, self.counts

        def make(original):
            def counted(*args, **kwargs):
                calls[layer] += 1
                counter(counts, args)
                return original(*args, **kwargs)

            return counted

        return make

    def install(self):
        for targets, wrap in ((TARGETS, self._span), (COUNTED, self._count)):
            for layer, module, name, skip, counter in targets:
                original = getattr(sys.modules[module], name)
                if not _patch_everywhere(original, wrap(layer, counter)(original), skip):
                    raise RuntimeError(f"{module}.{name} is bound nowhere outside {skip}")
        RoundWriter.write = self._span("reporting.write", None)(RoundWriter.write)
