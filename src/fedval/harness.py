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
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .baselines import (
    AFLState,
    QConfig,
    afl_round,
    fedavg_round,
    qfedavg_round,
    qfedsgd_round,
)
from .data import (
    ClientSpec,
    DatasetSchema,
    SkewSpec,
    generate_synthetic,
    load_csv,
    partition,
    split_validation,
)
from .errors import ConfigError, FedValError, UnknownPresetError
from .metrics import ObjectiveSpec
from .model import ModelParams, TrainConfig
from .reporting import RoundWriter, read_jsonl, round_report
from .seeding import derive_seed
from .server import RankingConfig, RankState, fedval_round

STRATEGIES = ("fedval", "fedavg", "qfedsgd", "qfedavg", "afl")


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic data source; seed defaults to one derived from the master seed."""

    n: int
    dim: int
    positive_rates: tuple[float, float]
    seed: int | None = None

    def __post_init__(self):
        # numpy seeds only from non-negative integers
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"synthetic data seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "positive_rates": list(self.positive_rates),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CsvSpec:
    path: str
    schema: DatasetSchema

    def to_dict(self) -> dict:
        return {"path": self.path, "schema": self.schema.to_dict()}


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
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")

    def to_dict(self) -> dict:
        """Fully-resolved config: feeding this back reproduces the run."""
        data_key = "synthetic" if isinstance(self.data, SyntheticSpec) else "csv"
        return {
            "strategy": self.strategy,
            "rounds": self.rounds,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "data": {data_key: self.data.to_dict()},
            "validation_fraction": self.validation_fraction,
            "clients": [
                {"behavior": c.behavior, "skew": None if c.skew is None else asdict(c.skew)}
                for c in self.clients
            ],
            "objectives": None
            if self.objectives is None
            else [{"kind": k, "weight": w} for k, w in self.objectives.entries],
            "train": {
                "epochs": self.train.epochs,
                "batch_size": self.train.batch_size,
                "lr": self.train.lr,
            },
            "ranking": asdict(self.ranking),
            "temp_alpha": self.temp_alpha,
            "qfed": None if self.qfed is None else asdict(self.qfed),
            "afl": {"lambda_lr": self.afl_lambda_lr},
            "note": self.note,
        }

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {
            "strategy", "rounds", "seed", "out_dir", "data", "validation_fraction",
            "clients", "objectives", "train", "ranking", "temp_alpha", "qfed", "afl", "note",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            data_raw = raw["data"]
            if "synthetic" in data_raw:
                s = data_raw["synthetic"]
                rates = s["positive_rates"]
                data = SyntheticSpec(
                    n=int(s["n"]),
                    dim=int(s["dim"]),
                    positive_rates=(float(rates[0]), float(rates[1])),
                    seed=None if s.get("seed") is None else int(s["seed"]),
                )
            elif "csv" in data_raw:
                c = data_raw["csv"]
                path = c["path"]
                if not Path(path).exists():
                    raise ConfigError(f"data file does not exist: {path}")
                data = CsvSpec(path=path, schema=DatasetSchema.from_dict(c["schema"]))
            else:
                raise ConfigError("data section must contain 'synthetic' or 'csv'")

            clients = []
            for entry in raw["clients"]:
                if isinstance(entry, str):
                    clients.append(ClientSpec(behavior=entry))
                    continue
                skew_raw = entry.get("skew")
                skew = (
                    None
                    if skew_raw is None
                    else SkewSpec(
                        ratio=float(skew_raw["ratio"]),
                        retain=float(skew_raw.get("retain", 1.0)),
                        group=skew_raw.get("group", "d"),
                    )
                )
                clients.append(ClientSpec(behavior=entry.get("behavior", "cooperative"), skew=skew))

            objectives_raw = raw.get("objectives")
            objectives = (
                None
                if objectives_raw is None
                else ObjectiveSpec(tuple((o["kind"], float(o["weight"])) for o in objectives_raw))
            )

            train_raw = raw["train"]
            train = TrainConfig(
                epochs=int(train_raw.get("epochs", 1)),
                batch_size=int(train_raw.get("batch_size", 32)),
                lr=float(train_raw["lr"]),
                seed=0,
            )

            ranking_raw = raw.get("ranking", {})
            ranking = RankingConfig(
                enabled=bool(ranking_raw.get("enabled", False)),
                initial_step=float(ranking_raw.get("initial_step", 1.0)),
                step_size=float(ranking_raw.get("step_size", 1.5)),
            )

            # older resolved configs also carry qfed "lr" and "rounds", which
            # no round ever read; they load with both ignored
            qfed_raw = raw.get("qfed")
            qfed = (
                None
                if qfed_raw is None
                else QConfig(
                    q=float(qfed_raw["q"]),
                    lipschitz=float(qfed_raw.get("lipschitz", 1.0)),
                )
            )

            return ExperimentConfig(
                strategy=raw["strategy"],
                rounds=int(raw["rounds"]),
                seed=int(raw["seed"]),
                data=data,
                clients=tuple(clients),
                train=train,
                validation_fraction=float(raw.get("validation_fraction", 0.2)),
                objectives=objectives,
                ranking=ranking,
                temp_alpha=float(raw.get("temp_alpha", 0.5)),
                qfed=qfed,
                afl_lambda_lr=float(raw.get("afl", {}).get("lambda_lr", 0.1)),
                out_dir=raw.get("out_dir", "runs/experiment"),
                note=raw.get("note", ""),
            )
        except FedValError:
            raise
        except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
            # OverflowError: int() of an infinite number
            raise ConfigError(f"malformed config: {exc!r}") from exc

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(raw)


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
    for stale in ("rounds.jsonl", "rounds.csv"):
        (out / stale).unlink(missing_ok=True)
    with open(out / "resolved_config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
        fh.write("\n")

    dataset = _build_dataset(cfg)
    train_data, validation = split_validation(
        dataset, cfg.validation_fraction, derive_seed(cfg.seed, "split")
    )
    clients = partition(train_data, cfg.clients, derive_seed(cfg.seed, "partition"))

    params = ModelParams.zeros(dataset.dim)
    rank_state = RankState.zeros(c.client_id for c in clients)
    afl_state = AFLState.uniform(
        tuple(c.client_id for c in clients), cfg.afl_lambda_lr
    ) if cfg.strategy == "afl" else None

    with RoundWriter(out) as writer:
        for t in range(1, cfg.rounds + 1):
            # replace(cfg.train, seed=...), built directly as model.client_cfg does
            train = cfg.train
            round_cfg = TrainConfig(
                train.epochs, train.batch_size, train.lr, derive_seed(cfg.seed, "round", t)
            )
            if cfg.strategy == "fedval":
                params, rank_state, info = fedval_round(
                    params,
                    clients,
                    validation,
                    cfg.objectives,
                    round_cfg,
                    cfg.ranking,
                    rank_state,
                    alpha=cfg.temp_alpha,
                )
            elif cfg.strategy == "fedavg":
                params, info = fedavg_round(params, clients, round_cfg)
            elif cfg.strategy == "qfedsgd":
                params, info = qfedsgd_round(params, clients, cfg.qfed)
            elif cfg.strategy == "qfedavg":
                params, info = qfedavg_round(params, clients, round_cfg, cfg.qfed)
            else:  # afl
                params, afl_state, info = afl_round(params, clients, afl_state, round_cfg)
            writer.write(round_report(t, params, validation, clients, info))

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
        train=TrainConfig(epochs=1, batch_size=32, lr=lr, seed=0),
        objectives=_DEFAULT_OBJECTIVES,
        out_dir=f"runs/{name}",
        **kw,
    )


_AFL_NOTE = (
    "the source table files this run under the q-parameterized family with q=0; "
    "this preset runs the minimax procedure instead of qfedsgd with q=0"
)

_PRESETS = {
    "adult-fedval-10": lambda: _preset_base(
        "adult-fedval-10", strategy="fedval", rounds=150, lr=0.1,
        ranking=RankingConfig(enabled=True, initial_step=2.0, step_size=1.5),
    ),
    "health-fedval-10": lambda: _preset_base(
        "health-fedval-10", strategy="fedval", rounds=350, lr=0.1,
        ranking=RankingConfig(enabled=True, initial_step=0.001, step_size=10.0),
    ),
    "adult-qfed": lambda: _preset_base(
        "adult-qfed", strategy="qfedavg", rounds=1000, lr=0.01,
        qfed=QConfig(q=5.0, lipschitz=1.0),
    ),
    "health-qfed": lambda: _preset_base(
        "health-qfed", strategy="qfedavg", rounds=3000, lr=0.01,
        qfed=QConfig(q=5.0, lipschitz=1.0),
    ),
    "adult-afl": lambda: _preset_base(
        "adult-afl", strategy="afl", rounds=1000, lr=0.01,
        afl_lambda_lr=0.1, note=_AFL_NOTE,
    ),
    "health-afl": lambda: _preset_base(
        "health-afl", strategy="afl", rounds=3000, lr=0.01,
        afl_lambda_lr=0.1, note=_AFL_NOTE,
    ),
    "adult-fedavg": lambda: _preset_base(
        "adult-fedavg", strategy="fedavg", rounds=150, lr=0.1,
    ),
    "health-fedavg": lambda: _preset_base(
        "health-fedavg", strategy="fedavg", rounds=350, lr=0.1,
    ),
    "fedval-100": lambda: _preset_base(
        "fedval-100", strategy="fedval", rounds=150, lr=0.1, k=100, n=20000,
        ranking=RankingConfig(enabled=True, initial_step=2.0, step_size=1.5),
    ),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> ExperimentConfig:
    """A registered experiment configuration by name."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(name, preset_names()) from None
    return builder()


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
        object.__setattr__(self, "cooperative_counts", tuple(int(c) for c in self.cooperative_counts))
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "replicate_seeds", tuple(int(s) for s in self.replicate_seeds))
        if not self.cooperative_counts:
            raise ConfigError("sweep needs at least one cooperative count")
        if not self.variants:
            raise ConfigError("sweep needs at least one variant")
        if not self.replicate_seeds:
            raise ConfigError("sweep needs at least one replicate seed")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate variant names: {names}")

    @staticmethod
    def from_dict(raw: dict) -> "SweepSpec":
        try:
            return SweepSpec(
                cooperative_counts=tuple(raw["cooperative_counts"]),
                variants=tuple(
                    SweepVariant(name=v["name"], ranking_enabled=bool(v["ranking_enabled"]))
                    for v in raw["variants"]
                ),
                replicate_seeds=tuple(raw["replicate_seeds"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # ValueError, OverflowError: int() of a non-numeric string, NaN or an infinity
            raise ConfigError(f"malformed sweep spec: {exc!r}") from exc


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


_SUMMARY_COLUMNS = (
    "cooperative_count",
    "cooperative_ratio",
    "variant",
    "ranking_enabled",
    "replicates_ok",
    "final_accuracy_mean",
    "final_accuracy_std",
    "final_spd_mean",
    "final_spd_std",
    "final_eod_mean",
    "final_eod_std",
)


def run_sweep(spec: SweepSpec, base: ExperimentConfig, out_dir=None) -> SweepResult:
    """Run the sweep grid and summarize final-round metrics per cell group.

    Each (count, variant) pair gets one summary row with mean and sample
    stddev over its replicate seeds.  A failing cell is recorded and the
    sweep continues.  Cooperative clients take the low ids; the remaining
    clients reuse the base config's uncooperative skew (or a 0.2-ratio
    default when the base has none).
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

    cells = []
    for count in spec.cooperative_counts:
        for variant in spec.variants:
            for seed in spec.replicate_seeds:
                profiles = tuple(ClientSpec("cooperative") for _ in range(count)) + tuple(
                    ClientSpec("uncooperative", skew_template) for _ in range(k - count)
                )
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
                    last = read_jsonl(run_dir / "rounds.jsonl")[-1]
                    final = {
                        "accuracy": last.global_accuracy,
                        "spd": last.global_spd,
                        "eod": last.global_eod,
                    }
                    cells.append(CellResult(count, variant.name, seed, run_dir, final))
                except FedValError as exc:
                    cells.append(
                        CellResult(count, variant.name, seed, None, None, error=str(exc))
                    )

    rows = []
    for count in spec.cooperative_counts:
        for variant in spec.variants:
            group = [
                c for c in cells
                if c.cooperative_count == count and c.variant == variant.name and c.final
            ]
            row = {
                "cooperative_count": count,
                "cooperative_ratio": count / k,
                "variant": variant.name,
                "ranking_enabled": variant.ranking_enabled,
                "replicates_ok": len(group),
            }
            for metric in ("accuracy", "spd", "eod"):
                vals = [c.final[metric] for c in group]
                row[f"final_{metric}_mean"] = float(np.mean(vals)) if vals else None
                row[f"final_{metric}_std"] = (
                    float(np.std(vals, ddof=1)) if len(vals) > 1 else (0.0 if vals else None)
                )
            rows.append(row)

    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[col] is None else str(row[col]) for col in _SUMMARY_COLUMNS])

    return SweepResult(out_dir=out, cells=tuple(cells), summary_rows=tuple(rows))
