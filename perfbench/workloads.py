"""The benchmark's workloads and the hook counts each one must produce.

Every workload derives its whole input from the benchmark seed: the master
seed of a single experiment, or the replicate seed of the sweep.  The sizes
below are per repetition; one benchmark run repeats a workload in fresh
processes until its time is used up, so every run holds at least 100 rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from fedval.data import ClientSpec, SkewSpec
from fedval.harness import ExperimentConfig, SweepSpec, SweepVariant, SyntheticSpec, preset
from fedval.metrics import ObjectiveSpec
from fedval.model import TrainConfig
from fedval.server import RankingConfig


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None  # single-experiment workloads start from this preset
    rounds: int

    @property
    def is_sweep(self) -> bool:
        return self.preset is None

    def experiment(self, seed: int) -> ExperimentConfig:
        return replace(preset(self.preset), rounds=self.rounds, seed=seed)

    def sweep(self, seed: int) -> tuple[SweepSpec, ExperimentConfig]:
        """A reduced grid of the acceptance trend-sweep fixture.

        Same base config (fedval, K=10, skew 0.2, both ranking variants);
        three cooperative counts instead of five and one replicate seed
        instead of three.
        """
        base = ExperimentConfig(
            strategy="fedval",
            rounds=self.rounds,
            seed=seed,
            data=SyntheticSpec(n=4000, dim=8, positive_rates=(0.5, 0.5)),
            clients=tuple(ClientSpec("uncooperative", SkewSpec(ratio=0.2)) for _ in range(10)),
            train=TrainConfig(epochs=1, batch_size=32, lr=0.2, seed=0),
            validation_fraction=0.25,
            objectives=ObjectiveSpec((("accuracy", 1.0), ("spd", 1.0), ("eod", 1.0))),
            ranking=RankingConfig(enabled=True, initial_step=2.0, step_size=1.5),
        )
        spec = SweepSpec(
            cooperative_counts=(0, 5, 10),
            variants=(SweepVariant("rank", True), SweepVariant("norank", False)),
            replicate_seeds=(seed,),
        )
        return spec, base

    def cell_configs(self, seed: int) -> list[ExperimentConfig]:
        """The configs one repetition runs, in the order it runs them."""
        if not self.is_sweep:
            return [self.experiment(seed)]
        spec, base = self.sweep(seed)
        k = len(base.clients)
        return [
            replace(
                base,
                clients=tuple(ClientSpec("cooperative") for _ in range(count))
                + tuple(ClientSpec("uncooperative", SkewSpec(ratio=0.2)) for _ in range(k - count)),
                ranking=replace(base.ranking, enabled=variant.ranking_enabled),
                seed=s,
            )
            for count in spec.cooperative_counts
            for variant in spec.variants
            for s in spec.replicate_seeds
        ]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fedval-k100", "fedval-100", 10),
        Workload("qfedavg-k10", "adult-qfed", 150),
        Workload("afl-k10", "adult-afl", 500),
        Workload("sweep-trend", None, 30),
    )
}


# Hook counts that are fixed by the round protocol: a refactor that reroutes
# one of these calls must update the benchmark, never report a layer as 0 s.
EXACT = (
    "harness.run_sweep",
    "harness.run_experiment",
    "data.setup",
    "model.client_update",
    "model.loss",
    "model.gradient",
    "metrics.global",
    "server.fedval_round",
    "server.score_clients",
    "server.rank_update",
    "server.make_weights",
    "server.aggregate",
    "baselines.round",
    "reporting.write",
    "reporting.read_jsonl",
)
# Hook counts that batched scoring is meant to cut: today's count is a ceiling.
AT_MOST = ("model.classify", "metrics.objective_score")


def expected_calls(workload: Workload, seed: int) -> dict[str, int]:
    """Calls each traced layer receives in one repetition of `workload`."""
    calls = dict.fromkeys(EXACT + AT_MOST, 0)
    cells = workload.cell_configs(seed)
    if workload.is_sweep:
        calls["harness.run_sweep"] = 1
        calls["reporting.read_jsonl"] = len(cells)
    for cfg in cells:
        k, r, s = len(cfg.clients), cfg.rounds, cfg.strategy
        skewed = sum(c.skew is not None for c in cfg.clients)
        calls["harness.run_experiment"] += 1
        calls["data.setup"] += 3 + skewed  # generate, split, partition, one skew per skewed client
        calls["reporting.write"] += r
        calls["metrics.global"] += 3 * r
        calls["model.loss"] += k * r
        if s in ("fedval", "fedavg", "qfedavg"):
            calls["model.client_update"] += k * r
        if s in ("qfedsgd", "afl"):
            calls["model.gradient"] += k * r
        if s in ("fedval", "fedavg"):
            calls["server.aggregate"] += r
        if s == "fedval":
            n_obj = len(cfg.objectives.entries)
            for name in ("server.fedval_round", "server.score_clients", "server.make_weights"):
                calls[name] += r
            if cfg.ranking.enabled:
                calls["server.rank_update"] += r
            calls["metrics.objective_score"] += n_obj * k * r
            calls["model.classify"] += (n_obj * k + 3) * r
        else:
            calls["baselines.round"] += r
            calls["model.classify"] += 3 * r
    return calls
