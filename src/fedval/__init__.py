"""Deterministic federated-learning simulator with fairness-aware aggregation."""

from .baselines import (
    QConfig,
    afl_round,
    fedavg_round,
    project_simplex,
    qfedavg_round,
    qfedsgd_round,
)
from .data import (
    ClientProfile,
    ClientSpec,
    DatasetSchema,
    SkewSpec,
    TabularDataset,
    generate_synthetic,
    load_csv,
    partition,
    skew,
    split_validation,
)
from .harness import (
    ExperimentConfig,
    SweepSpec,
    SweepVariant,
    preset,
    preset_names,
    run_experiment,
    run_sweep,
)
from .metrics import ObjectiveSpec, ScoreVector, accuracy, composite_score, eod, spd
from .model import ModelParams, TrainConfig, client_update, gradient, loss, predict_proba
from .reporting import read_jsonl
from .server import (
    AggregationWeights,
    RankingConfig,
    RankState,
    aggregate,
    fedval_round,
    make_weights,
    rank_update,
    score_clients,
    temp_aggregate,
)

__version__ = "0.1.0"

# the public names imported above: the one list of the package's API
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith("fedval.")
)
