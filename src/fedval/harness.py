"""Config-driven experiment runner.

An experiment is one JSON document: data source, client population,
strategy, objectives, training settings, rounds, master seed.  Running it
produces a directory with resolved_config.json (replays the run exactly),
rounds.jsonl / rounds.csv (per-round reports, streamed), and
final_model.json.  Sweeps vary the cooperative-client count and the
ranking flag over replicate seeds and summarize final-round metrics.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .baselines import (
    QConfig,
    afl_round,
    fedavg_round,
    qfedavg_round,
    qfedsgd_round,
)
from .codec import BOOL, FLOAT, INT, STR, Kind, Section, list_of, malformed, read_json, write_json
from .data import (
    SCHEMA_TABLE,
    ClientSpec,
    DatasetSchema,
    SkewSpec,
    generate_synthetic,
    load_csv,
    partition,
    split_validation,
)
from .errors import ConfigError, FedValError, UnknownPresetError
from .metrics import ObjectiveSpec, accuracy, eod, spd
from .model import ModelParams, TrainConfig
from .reporting import RoundWriter, read_jsonl
from .seeding import derive_seed
from .server import AggregationWeights, RankingConfig, RankState, fedval_round

STRATEGIES = ("fedval", "fedavg", "qfedsgd", "qfedavg", "afl")


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic data source; seed defaults to one derived from the master seed."""

    n: int
    dim: int
    positive_rates: tuple[float, float]
    seed: int | None = None

    def __post_init__(self):
        # generate_synthetic's own range checks, made as the config is read
        if self.n < 2:
            raise ConfigError(f"synthetic data n must be >= 2, got {self.n}")
        if self.dim < 1:
            raise ConfigError(f"synthetic data dim must be >= 1, got {self.dim}")
        for i, rate in enumerate(self.positive_rates):
            if not (0.0 <= rate <= 1.0):
                raise ConfigError(f"synthetic data positive_rates[{i}] must lie in [0, 1], got {rate}")
        # numpy seeds only from non-negative integers
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"synthetic data seed must be >= 0, got {self.seed}")

    @staticmethod
    def from_dict(raw) -> "SyntheticSpec":
        """A spec from its JSON object, as in a `fedval gen-data` spec file."""
        return _SYNTHETIC.decode(raw, "data spec")


@dataclass(frozen=True)
class CsvSpec:
    path: str
    schema: DatasetSchema

    def __post_init__(self):
        if not os.path.exists(self.path):  # False, not an error, for a path with a NUL byte
            raise ConfigError(f"data file does not exist: {self.path}")


@dataclass(frozen=True)
class ExperimentConfig:
    strategy: str
    rounds: int
    seed: int
    data: SyntheticSpec | CsvSpec
    clients: tuple[ClientSpec, ...]
    train: TrainConfig
    validation_fraction: float = 0.2
    objectives: ObjectiveSpec | None = None
    ranking: RankingConfig = RankingConfig()
    temp_alpha: float = 0.5
    qfed: QConfig | None = None
    afl_lambda_lr: float = 0.1
    out_dir: str = "runs/experiment"
    note: str = ""

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if not self.clients:
            raise ConfigError("experiment needs at least one client")
        object.__setattr__(self, "clients", tuple(self.clients))
        if not (0.0 < self.validation_fraction < 1.0):
            raise ConfigError(
                f"validation_fraction must lie in (0, 1), got {self.validation_fraction}"
            )
        if not (0.0 <= self.temp_alpha <= 1.0):
            raise ConfigError(f"temp_alpha must lie in [0, 1], got {self.temp_alpha}")
        if self.strategy == "fedval" and self.objectives is None:
            raise ConfigError("strategy 'fedval' requires an objectives list")
        if self.strategy in ("qfedsgd", "qfedavg") and self.qfed is None:
            raise ConfigError(f"strategy {self.strategy!r} requires a qfed section")
        if not (self.afl_lambda_lr > 0 and math.isfinite(self.afl_lambda_lr)):
            raise ConfigError(f"afl lambda_lr must be positive, got {self.afl_lambda_lr}")
        # every round's seed derives from `seed`, and the resolved config does not write train.seed
        if self.train.seed != 0:
            raise ConfigError(f"train.seed must be 0 (round seeds derive from seed), got {self.train.seed!r}")

    def to_dict(self) -> dict:
        """Fully-resolved config: feeding this back reproduces the run."""
        return _CONFIG.encode(self)

    @staticmethod
    def from_dict(raw) -> "ExperimentConfig":
        return _CONFIG.decode(raw, "config")

    @staticmethod
    def load(path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(read_json(path, "config"))


# The JSON form of each config section: its keys, in the order they are
# written, and their kinds (see codec).  An absent key takes its dataclass
# default, except train.lr, which a config must state.
_SYNTHETIC = Section(
    SyntheticSpec,
    {"n": INT, "dim": INT, "positive_rates": list_of(FLOAT, length=2), "seed": INT},
)
_CSV = Section(CsvSpec, {"path": STR, "schema": SCHEMA_TABLE})
_SOURCES = {"synthetic": _SYNTHETIC, "csv": _CSV}


def _decode_data(value, what, path):
    if not (isinstance(value, dict) and len(value) == 1 and set(value) <= set(_SOURCES)):
        raise malformed(what, path, f"must hold one of {list(_SOURCES)}, got {value!r}")
    [(key, source)] = value.items()
    return _SOURCES[key].decode(source, what, f"{path}.{key}")


_OBJECTIVE = Section(None, {"kind": STR, "weight": FLOAT}, required=("kind", "weight"))


def _decode_objectives(value, what, path) -> ObjectiveSpec:
    entries = list_of(_OBJECTIVE).decode(value, what, path)
    return ObjectiveSpec(tuple((entry["kind"], entry["weight"]) for entry in entries))


_SKEW = Section(SkewSpec, {"ratio": FLOAT, "retain": FLOAT, "group": STR})
_CLIENT = Section(ClientSpec, {"behavior": STR, "skew": _SKEW}, shorthand="behavior")
_TRAIN = Section(TrainConfig, {"epochs": INT, "batch_size": INT, "lr": FLOAT}, required=("lr",))
_RANKING = Section(RankingConfig, {"enabled": BOOL, "initial_step": FLOAT, "step_size": FLOAT})
# resolved configs from before QConfig dropped its unread "lr" and "rounds"
# still carry both; they load with both ignored
_QFED = Section(QConfig, {"q": FLOAT, "lipschitz": FLOAT}, retired=("lr", "rounds"))
_CONFIG = Section(ExperimentConfig, {
    "strategy": STR,
    "rounds": INT,
    "seed": INT,
    "out_dir": STR,
    "data": Kind(_decode_data, lambda data: {
        key: source.encode(data) for key, source in _SOURCES.items() if isinstance(data, source.cls)
    }),
    "validation_fraction": FLOAT,
    "clients": list_of(_CLIENT),
    "objectives": Kind(_decode_objectives, lambda spec: [
        {"kind": kind, "weight": weight} for kind, weight in spec.entries
    ]),
    "train": _TRAIN,
    "ranking": _RANKING,
    "temp_alpha": FLOAT,
    "qfed": _QFED,
    "afl": Section(None, {"lambda_lr": FLOAT}, attrs={"lambda_lr": "afl_lambda_lr"}),
    "note": STR,
})


def _build_dataset(cfg: ExperimentConfig):
    if isinstance(cfg.data, SyntheticSpec):
        seed = cfg.data.seed if cfg.data.seed is not None else derive_seed(cfg.seed, "data")
        return generate_synthetic(cfg.data.n, cfg.data.dim, cfg.data.positive_rates, seed)
    return load_csv(cfg.data.path, cfg.data.schema)


def _make_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:  # a NUL byte in the path; an OSError stays a runtime error
        raise ConfigError(f"cannot use {str(out)!r} as a directory: {exc}") from None
    return out


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Execute one experiment; returns the artifact directory.

    Outputs are streamed per round, so an aborted run keeps everything up
    to the last completed round.  Re-running the written
    resolved_config.json reproduces the reports byte for byte.
    """
    out = _make_dir(out_dir if out_dir is not None else cfg.out_dir)
    for stale in ("rounds.jsonl", "rounds.csv", "final_model.json"):
        (out / stale).unlink(missing_ok=True)
    write_json(out / "resolved_config.json", cfg.to_dict())

    # each set-up copy of the rows goes as soon as its last reader returns,
    # so partition runs beside the training and validation splits only
    dataset = _build_dataset(cfg)
    train_data, validation = split_validation(
        dataset, cfg.validation_fraction, derive_seed(cfg.seed, "split")
    )
    del dataset
    clients = partition(train_data, cfg.clients, derive_seed(cfg.seed, "partition"))
    del train_data  # the shards and the validation split hold every row the rounds use

    params = ModelParams.zeros(validation.dim)
    ids = [c.client_id for c in clients]
    uniform = [1.0 / len(ids)] * len(ids)
    # the strategy's state: AFL's mixture, uniform at first, or the rank mass that fedval's rounds thread
    state = AggregationWeights(ids, uniform) if cfg.strategy == "afl" else RankState.zeros(ids)

    with RoundWriter(out) as writer:
        for t in range(1, cfg.rounds + 1):
            # replace(cfg.train, seed=...), built directly: replace costs more per round
            train = cfg.train
            round_cfg = TrainConfig(
                train.epochs, train.batch_size, train.lr, derive_seed(cfg.seed, "round", t)
            )
            if cfg.strategy == "fedval":
                params, state, info = fedval_round(
                    params,
                    clients,
                    validation,
                    cfg.objectives,
                    round_cfg,
                    cfg.ranking,
                    state,
                    alpha=cfg.temp_alpha,
                )
            elif cfg.strategy == "fedavg":
                params, info = fedavg_round(params, clients, round_cfg)
            elif cfg.strategy == "qfedsgd":
                params, info = qfedsgd_round(params, clients, cfg.qfed)
            elif cfg.strategy == "qfedavg":
                params, info = qfedavg_round(params, clients, round_cfg, cfg.qfed)
            else:  # afl
                params, state, info = afl_round(params, clients, state, round_cfg, cfg.afl_lambda_lr)
            global_metrics = (accuracy(params, validation), spd(params, validation), eod(params, validation))
            writer.write(t, global_metrics, clients, info)

    params.save(out / "final_model.json")
    return out


# ---------------------------------------------------------------------------
# presets: hyperparameter sets from the published benchmark tables
# ---------------------------------------------------------------------------

_DEFAULT_OBJECTIVES = ObjectiveSpec((("accuracy", 1.0), ("spd", 1.0), ("eod", 1.0)))


def _preset_base(name, *, strategy, rounds, lr, k=10, n=4000, dim=8, **kw):
    return ExperimentConfig(
        strategy=strategy,
        rounds=rounds,
        seed=0,
        data=SyntheticSpec(n=n, dim=dim, positive_rates=(0.6, 0.3)),
        clients=tuple(ClientSpec("cooperative") for _ in range(k)),
        train=TrainConfig(lr=lr),
        objectives=_DEFAULT_OBJECTIVES,
        out_dir=f"runs/{name}",
        **kw,
    )


_AFL_NOTE = (
    "the source table files this run under the q-parameterized family with q=0; "
    "this preset runs the minimax procedure instead of qfedsgd with q=0"
)
_RANKED = RankingConfig(enabled=True, initial_step=2.0, step_size=1.5)

# each preset's arguments to _preset_base besides its name
_PRESETS = {
    "adult-fedval-10": dict(strategy="fedval", rounds=150, lr=0.1, ranking=_RANKED),
    "health-fedval-10": dict(
        strategy="fedval", rounds=350, lr=0.1,
        ranking=RankingConfig(enabled=True, initial_step=0.001, step_size=10.0),
    ),
    "adult-qfed": dict(strategy="qfedavg", rounds=1000, lr=0.01, qfed=QConfig(q=5.0)),
    "health-qfed": dict(strategy="qfedavg", rounds=3000, lr=0.01, qfed=QConfig(q=5.0)),
    "adult-afl": dict(strategy="afl", rounds=1000, lr=0.01, note=_AFL_NOTE),
    "health-afl": dict(strategy="afl", rounds=3000, lr=0.01, note=_AFL_NOTE),
    "adult-fedavg": dict(strategy="fedavg", rounds=150, lr=0.1),
    "health-fedavg": dict(strategy="fedavg", rounds=350, lr=0.1),
    "fedval-100": dict(strategy="fedval", rounds=150, lr=0.1, k=100, n=20000, ranking=_RANKED),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> ExperimentConfig:
    """A registered experiment configuration by name."""
    try:
        args = _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(name, preset_names()) from None
    return _preset_base(name, **args)


# ---------------------------------------------------------------------------
# sweeps over the cooperative-client count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepVariant:
    name: str
    ranking_enabled: bool


@dataclass(frozen=True)
class SweepSpec:
    """Grid: cooperative counts x variants x replicate seeds."""

    cooperative_counts: tuple[int, ...]
    variants: tuple[SweepVariant, ...]
    replicate_seeds: tuple[int, ...]

    def __post_init__(self):
        for attr in ("cooperative_counts", "variants", "replicate_seeds"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        # codec.INT's rule, by which the JSON form is read: an int, not a bool, float or string
        for attr in ("cooperative_counts", "replicate_seeds"):
            for v in getattr(self, attr):
                if type(v) is not int:
                    raise ConfigError(f"sweep {attr} must be integers, got {v!r}")
        if not self.cooperative_counts:
            raise ConfigError("sweep needs at least one cooperative count")
        if not self.variants:
            raise ConfigError("sweep needs at least one variant")
        if not self.replicate_seeds:
            raise ConfigError("sweep needs at least one replicate seed")
        for what, values in (
            ("cooperative counts", self.cooperative_counts),
            ("variant names", [v.name for v in self.variants]),
            ("replicate seeds", self.replicate_seeds),
        ):
            if len(set(values)) != len(values):
                raise ConfigError(f"duplicate {what}: {list(values)}")
        # each cell's directory name holds its variant's name
        for v in self.variants:
            if v.name in ("", ".", "..") or "/" in v.name or "\\" in v.name:
                raise ConfigError(f"variant name {v.name!r} must be one plain path component")

    @staticmethod
    def from_dict(raw) -> "SweepSpec":
        return _SWEEP.decode(raw, "sweep spec")


_SWEEP = Section(SweepSpec, {
    "cooperative_counts": list_of(INT),
    "variants": list_of(Section(SweepVariant, {"name": STR, "ranking_enabled": BOOL})),
    "replicate_seeds": list_of(INT),
})


def load_sweep(path) -> tuple[SweepSpec, ExperimentConfig]:
    """The grid of the sweep spec file at `path`, and the experiment under its "base" key."""
    raw = read_json(path, "sweep spec")
    if not isinstance(raw, dict) or "base" not in raw:
        raise ConfigError("sweep spec must be a JSON object with the experiment under a 'base' key")
    base = ExperimentConfig.from_dict(raw.pop("base"))
    return SweepSpec.from_dict(raw), base


@dataclass(frozen=True)
class CellResult:
    cooperative_count: int
    variant: str
    seed: int
    run_dir: Path | None
    final: dict | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    out_dir: Path
    cells: tuple[CellResult, ...]
    summary_rows: tuple[dict, ...] = field(default=())

    @property
    def summary_path(self) -> Path:
        return self.out_dir / "summary.csv"


def run_sweep(spec: SweepSpec, base: ExperimentConfig, out_dir=None) -> SweepResult:
    """Run the sweep grid and summarize final-round metrics per cell group.

    Each (count, variant) pair gets one summary row with mean and sample
    stddev over its replicate seeds.  A cell that fails with a FedValError,
    OSError or MemoryError is recorded and the sweep continues; an OSError
    on the sweep's own directory or on summary.csv propagates.  Cooperative
    clients take the low ids; the remaining clients reuse the base config's
    uncooperative skew (or a 0.2-ratio default when the base has none).
    """
    k = len(base.clients)
    for count in spec.cooperative_counts:
        if not (0 <= count <= k):
            raise ConfigError(f"cooperative count {count} outside [0, {k}]")
    skew_template = next(
        (c.skew for c in base.clients if c.behavior == "uncooperative" and c.skew is not None),
        SkewSpec(ratio=0.2),
    )
    out = _make_dir(out_dir if out_dir is not None else base.out_dir)

    cells, rows = [], []
    for count in spec.cooperative_counts:
        profiles = tuple(ClientSpec("cooperative") for _ in range(count)) + tuple(
            ClientSpec("uncooperative", skew_template) for _ in range(k - count)
        )
        for variant in spec.variants:
            finals = []  # final metrics of this (count, variant) group's finished cells
            for seed in spec.replicate_seeds:
                cell_name = f"coop{count:03d}_{variant.name}_seed{seed}"
                cfg = replace(
                    base,
                    clients=profiles,
                    ranking=replace(base.ranking, enabled=variant.ranking_enabled),
                    seed=seed,
                    out_dir=str(out / cell_name),
                )
                try:
                    run_dir = run_experiment(cfg)
                    final = read_jsonl(run_dir / "rounds.jsonl")[-1]["global"]
                    cells.append(CellResult(count, variant.name, seed, run_dir, final))
                    finals.append(final)
                except (FedValError, OSError, MemoryError) as exc:  # one cell's failure; the others still run
                    error = f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)
                    cells.append(CellResult(count, variant.name, seed, None, None, error=error))

            row = {
                "cooperative_count": count,
                "cooperative_ratio": count / k,
                "variant": variant.name,
                "ranking_enabled": variant.ranking_enabled,
                "replicates_ok": len(finals),
            }
            for metric in ("accuracy", "spd", "eod"):
                vals = [final[metric] for final in finals]
                row[f"final_{metric}_mean"] = float(np.mean(vals)) if vals else None
                row[f"final_{metric}_std"] = (
                    float(np.std(vals, ddof=1)) if len(vals) > 1 else (0.0 if vals else None)
                )
            rows.append(row)

    # the columns are the keys of a row, in the order each row sets them
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow(["" if value is None else str(value) for value in row.values()])

    return SweepResult(out_dir=out, cells=tuple(cells), summary_rows=tuple(rows))
