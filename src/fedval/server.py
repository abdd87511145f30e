"""Validation-scored aggregation (the `fedval` strategy).

Each round the server trains every client from the current global model,
scores each client's candidate by blending it with the global model and
evaluating the weighted objectives on a held-out server validation set,
and aggregates with weights proportional to those scores.  An optional
ranking scheme replaces raw scores with cumulative geometric rank mass:
clients are ordered worst-to-best each round and the i-th position earns
mu * rho**i, so consistently useful clients compound their influence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import ClientProfile, TabularDataset
from .errors import (
    ConfigError,
    DegenerateWeightsError,
    MissingGroupError,
    MissingPositivesError,
    NumericOverflowError,
    ShapeError,
)
from .metrics import (
    ObjectiveSpec,
    ScoreVector,
    accuracy,
    eod,
    objective_scores,
    positive_counts,
    spd,
)
from .model import ModelParams, TrainConfig, client_cfg, client_update, loss
from .reporting import ClientRoundRecord, RoundReport


@dataclass(frozen=True)
class RankingConfig:
    """Geometric rank-mass accumulation: position i earns initial_step * step_size**i."""

    enabled: bool = False
    initial_step: float = 1.0  # mass for the worst-ranked client
    step_size: float = 1.5     # geometric factor toward better ranks

    def __post_init__(self):
        if not (self.initial_step > 0 and np.isfinite(self.initial_step)):
            raise ConfigError(f"initial_step must be positive, got {self.initial_step}")
        if not (self.step_size > 0 and np.isfinite(self.step_size)):
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        if self.enabled and self.step_size < 1.0:
            warnings.warn(
                f"ranking step_size {self.step_size} < 1 rewards worse-ranked clients",
                stacklevel=2,
            )


@dataclass(frozen=True)
class RankState:
    """Cumulative rank mass per client; starts at zero for everyone."""

    rs: dict

    def __post_init__(self):
        rs = {int(cid): float(v) for cid, v in self.rs.items()}
        object.__setattr__(self, "rs", rs)
        for cid, v in rs.items():
            if not (np.isfinite(v) and v >= 0):
                raise ConfigError(f"rank mass for client {cid} must be finite and >= 0, got {v}")

    @staticmethod
    def zeros(client_ids) -> "RankState":
        return RankState({int(cid): 0.0 for cid in client_ids})


@dataclass(frozen=True)
class AggregationWeights:
    """A probability vector over clients, in the order models are aggregated."""

    client_ids: tuple[int, ...]
    p: tuple[float, ...]

    def __post_init__(self):
        ids = tuple(int(c) for c in self.client_ids)
        p = tuple(float(v) for v in self.p)
        object.__setattr__(self, "client_ids", ids)
        object.__setattr__(self, "p", p)
        if len(ids) != len(p) or not ids:
            raise ConfigError("weights must align with a non-empty client list")
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate client ids in weights: {ids}")
        for v in p:
            if not (np.isfinite(v) and v >= 0):
                raise DegenerateWeightsError(f"aggregation weight {v} outside [0, 1]")
        if abs(sum(p) - 1.0) > 1e-12:
            raise DegenerateWeightsError(f"aggregation weights sum to {sum(p)!r}, not 1")


def _check_blend(global_params: ModelParams, client_params: ModelParams, alpha: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"blend alpha must lie in [0, 1], got {alpha}")
    if global_params.dim != client_params.dim:
        raise ShapeError("global and client models disagree on dimension")


def temp_aggregate(global_params: ModelParams, client_params: ModelParams, alpha: float = 0.5) -> ModelParams:
    """Convex blend alpha * client + (1 - alpha) * global used for scoring."""
    _check_blend(global_params, client_params, alpha)
    return ModelParams(
        alpha * client_params.weights + (1.0 - alpha) * global_params.weights,
        alpha * client_params.bias + (1.0 - alpha) * global_params.bias,
    )


def score_clients(
    global_params: ModelParams,
    client_models,
    validation: TabularDataset,
    spec: ObjectiveSpec,
    alpha: float = 0.5,
) -> ScoreVector:
    """Score each (client_id, params) pair on the server validation set.

    The blends (as `temp_aggregate` forms them) are stacked and classified
    in one blocked pass over the validation rows, and every objective is
    derived from per-cell counts.  Each score equals, bit for bit,
    `objective_score` on that client's blend, the per-model reference.
    """
    models = list(client_models)
    if not models:
        return ScoreVector((), (), ())
    for _, params in models:
        _check_blend(global_params, params, alpha)
    ids = [cid for cid, _ in models]
    weights = alpha * np.stack([p.weights for _, p in models]) + (1.0 - alpha) * global_params.weights
    biases = alpha * np.array([p.bias for _, p in models]) + (1.0 - alpha) * global_params.bias
    counts, sizes = positive_counts(weights, biases, validation)

    columns = {}
    composite = np.zeros(len(models))
    for kind, weight in spec.entries:
        try:
            scores = objective_scores(kind, counts, sizes)
        except (MissingGroupError, MissingPositivesError) as exc:
            raise type(exc)(f"objective {kind!r} failed for client {ids[0]}: {exc}") from exc
        composite = composite + weight * scores
        columns[kind] = scores.tolist()
    raw = tuple({kind: column[i] for kind, column in columns.items()} for i in range(len(ids)))
    return ScoreVector(tuple(ids), tuple(composite.tolist()), raw)


def rank_update(scores: ScoreVector, state: RankState, cfg: RankingConfig) -> RankState:
    """Add one round of geometric rank mass, worst score first.

    Ties in the composite score break toward the lower client id.  Returns
    a new state; existing mass only ever grows.
    """
    order = sorted(
        range(len(scores)),
        key=lambda i: (scores.composite[i], scores.client_ids[i]),
    )
    rs = dict(state.rs)
    for position, i in enumerate(order):
        cid = scores.client_ids[i]
        try:
            mass = rs.get(cid, 0.0) + cfg.initial_step * cfg.step_size**position
        except OverflowError:  # float ** raises where * and + give inf
            mass = math.inf
        if not math.isfinite(mass):
            raise NumericOverflowError(
                f"rank mass of client {cid} overflows at rank position {position} "
                f"(initial_step {cfg.initial_step}, step_size {cfg.step_size}, {len(order)} clients)"
            )
        rs[cid] = mass
    return RankState(rs)


def make_weights(scores: ScoreVector, state: RankState | None = None) -> AggregationWeights:
    """Normalize scores (or rank mass, when ranking is on) into weights."""
    if state is None:
        mass = list(scores.composite)
    else:
        mass = [state.rs.get(cid, 0.0) for cid in scores.client_ids]
    total = sum(mass)
    if total <= 0:
        raise DegenerateWeightsError(
            "total score mass is zero; no client can be weighted"
        )
    return AggregationWeights(scores.client_ids, tuple(v / total for v in mass))


def aggregate(client_models, weights: AggregationWeights) -> ModelParams:
    """Weighted parameter average; models align with weights positionally.

    Contributions are summed in ascending client-id order so the result is
    independent of scheduling.
    """
    models = list(client_models)
    if len(models) != len(weights.client_ids):
        raise ShapeError(f"{len(models)} models for {len(weights.client_ids)} weights")
    dim = models[0].dim
    for m in models:
        if m.dim != dim:
            raise ShapeError("client models disagree on dimension")
    w = np.zeros(dim)
    b = 0.0
    for i in sorted(range(len(models)), key=lambda i: weights.client_ids[i]):
        w += weights.p[i] * models[i].weights
        b += weights.p[i] * models[i].bias
    return ModelParams(w, b)


def fedval_round(
    global_params: ModelParams,
    clients: list[ClientProfile],
    validation: TabularDataset,
    spec: ObjectiveSpec,
    train_cfg: TrainConfig,
    rank_cfg: RankingConfig,
    state: RankState,
    *,
    alpha: float = 0.5,
    round_index: int = 0,
):
    """One full round: local updates, scoring, (optional) ranking, aggregation.

    Returns (new_global, RoundReport, new_rank_state).  The rank state is
    returned unchanged when ranking is disabled.
    """
    ordered = sorted(clients, key=lambda c: c.client_id)
    updated = [
        (c.client_id, client_update(global_params, c.data, client_cfg(train_cfg, c.client_id)))
        for c in ordered
    ]
    scores = score_clients(global_params, updated, validation, spec, alpha)

    if rank_cfg.enabled:
        new_state = rank_update(scores, state, rank_cfg)
        weights = make_weights(scores, new_state)
    else:
        new_state = state
        weights = make_weights(scores)

    new_global = aggregate([m for _, m in updated], weights)

    records = []
    for i, (c, (cid, model)) in enumerate(zip(ordered, updated)):
        records.append(
            ClientRoundRecord(
                client_id=cid,
                behavior=c.behavior,
                n=c.n,
                local_loss=loss(model, c.data),
                scores=scores.per_objective[i],
                composite=scores.composite[i],
                p=weights.p[i],
                rs=new_state.rs.get(cid) if rank_cfg.enabled else None,
            )
        )
    rs_spread = None
    if rank_cfg.enabled:
        masses = [new_state.rs.get(c.client_id, 0.0) for c in ordered]
        low = min(masses)
        if low > 0:
            rs_spread = max(masses) / low
    report = RoundReport(
        round=round_index,
        global_accuracy=accuracy(new_global, validation),
        global_spd=spd(new_global, validation),
        global_eod=eod(new_global, validation),
        clients=tuple(records),
        rs_spread=rs_spread,
    )
    return new_global, report, new_state
