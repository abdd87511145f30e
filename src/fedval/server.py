"""Validation-scored aggregation (the `fedval` strategy).

Each round the server trains every client from the current global model,
scores each client's candidate by blending it with the global model and
evaluating the weighted objectives on a held-out server validation set,
and aggregates with weights proportional to those scores.  An optional
ranking scheme replaces raw scores with cumulative geometric rank mass:
clients are ordered worst-to-best each round and the i-th position earns
mu * rho**i, so consistently useful clients compound their influence.

`fedval_round` returns the new global model, the new rank state and a
`RoundInfo`: what the round did (weights, local losses, scores, rank mass).
Every strategy returns a `RoundInfo` of the same kind, and
`reporting.RoundWriter` writes any of them as the round's report.
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
from .metrics import ObjectiveSpec, ScoreVector, _check_mass, objective_scores, positive_counts
from .model import ModelParams, TrainConfig, loss, train_clients


@dataclass(frozen=True)
class RankingConfig:
    """Geometric rank-mass accumulation: position i earns initial_step * step_size**i."""

    enabled: bool = False
    initial_step: float = 1.0  # mass for the worst-ranked client
    step_size: float = 1.5     # geometric factor toward better ranks

    def __post_init__(self):
        if not (self.initial_step > 0 and math.isfinite(self.initial_step)):
            raise ConfigError(f"initial_step must be positive, got {self.initial_step}")
        if not (self.step_size > 0 and math.isfinite(self.step_size)):
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        if self.enabled and self.step_size < 1.0:
            warnings.warn(
                f"ranking step_size {self.step_size} < 1 rewards worse-ranked clients",
                stacklevel=3,  # past the dataclass's generated __init__, to its caller
            )


@dataclass(frozen=True)
class RankState:
    """Cumulative rank mass per client; starts at zero for everyone."""

    rs: dict

    def __post_init__(self):
        rs = {int(cid): float(v) for cid, v in self.rs.items()}
        object.__setattr__(self, "rs", rs)
        _check_mass(rs.values(), lambda i, v: ConfigError(
            f"rank mass for client {list(rs)[i]} must be finite and >= 0, got {v}"
        ))

    @staticmethod
    def zeros(client_ids) -> "RankState":
        return RankState({int(cid): 0.0 for cid in client_ids})


@dataclass(frozen=True)
class AggregationWeights:
    """A probability vector over clients, in the order models are aggregated."""

    client_ids: tuple[int, ...]
    p: tuple[float, ...]

    def __post_init__(self):
        ids = tuple(map(int, self.client_ids))
        p = tuple(map(float, self.p))
        object.__setattr__(self, "client_ids", ids)
        object.__setattr__(self, "p", p)
        if len(ids) != len(p) or not ids:
            raise ConfigError("weights must align with a non-empty client list")
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate client ids in weights: {ids}")
        total = _check_mass(p, lambda i, v: DegenerateWeightsError(f"aggregation weight {v} outside [0, 1]"))
        if abs(total - 1.0) > 1e-12:
            raise DegenerateWeightsError(f"aggregation weights sum to {total!r}, not 1")


@dataclass(frozen=True)
class RoundInfo:
    """What one round of any strategy did, for reporting and replay.

    `weights` are the effective per-client weights (always a probability
    vector), `losses` each client's loss on its shard by id and `extras` the
    intermediates a baseline's update used.  The loss is taken at the
    client's local model after SGD for fedval and fedavg, and at the
    incoming global model for qfedsgd, qfedavg and afl.  Only fedval sets
    `scores`, and only fedval with ranking on sets `rank`, the new rank mass.
    """

    weights: AggregationWeights
    losses: dict
    extras: dict
    scores: ScoreVector | None = None
    rank: RankState | None = None


def _by_id(clients) -> list[ClientProfile]:
    """`clients` in ascending client id: the order every round visits them in."""
    return sorted(clients, key=lambda c: c.client_id)


def _local_losses(ordered, models) -> dict:
    """Each client's loss on its shard at its own model, by id, under one errstate per round.

    A huge model's logits overflow to +-inf, which `loss` clamps, so numpy
    prints no warning; a nan logit raises NumericOverflowError naming the client.
    """
    losses = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for c, m in zip(ordered, models):
            try:
                losses[c.client_id] = loss(m, c.data)
            except NumericOverflowError as exc:
                raise NumericOverflowError(f"client {c.client_id}: {exc}") from None
    return losses


def _check_blend(global_params: ModelParams, client_params, alpha: float) -> None:
    """Check alpha, then that every model of `client_params` has the global model's dimension."""
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"blend alpha must lie in [0, 1], got {alpha}")
    dim = global_params.dim
    if any(params.dim != dim for params in client_params):
        raise ShapeError("global and client models disagree on dimension")


def temp_aggregate(global_params: ModelParams, client_params: ModelParams, alpha: float = 0.5) -> ModelParams:
    """Convex blend alpha * client + (1 - alpha) * global used for scoring."""
    _check_blend(global_params, (client_params,), alpha)
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
    ids, params = zip(*models)
    _check_blend(global_params, params, alpha)
    weights = alpha * np.stack([p.weights for p in params]) + (1.0 - alpha) * global_params.weights
    biases = alpha * np.array([p.bias for p in params]) + (1.0 - alpha) * global_params.bias
    counts, sizes = positive_counts(weights, biases, validation)

    columns = {}
    composite = [0.0] * len(models)  # Python floats: a sum that overflows is inf, silently
    for kind, weight in spec.entries:
        try:
            scores = objective_scores(kind, counts, sizes).tolist()
        except (MissingGroupError, MissingPositivesError) as exc:
            raise type(exc)(f"objective {kind!r} failed for client {ids[0]}: {exc}") from exc
        composite = [total + weight * score for total, score in zip(composite, scores)]
        columns[kind] = scores
    if math.inf in composite:  # each weight * score is finite and >= 0; their sum is not
        cid = ids[composite.index(math.inf)]
        raise NumericOverflowError(f"composite score of client {cid} overflows the float range")
    raw = tuple({kind: column[i] for kind, column in columns.items()} for i in range(len(ids)))
    return ScoreVector(ids, tuple(composite), raw)


def _pow(base: float, exponent: float) -> float:
    """`base ** exponent` on floats, inf where the result leaves the float range."""
    try:
        return base**exponent
    except OverflowError:  # float ** raises where * and + give inf
        return math.inf


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
        mass = rs.get(cid, 0.0) + cfg.initial_step * _pow(cfg.step_size, position)
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
    if total == math.inf:  # each mass is finite, so the sum overflowed
        kind = "score" if state is None else "rank"
        raise NumericOverflowError(f"total {kind} mass of {len(mass)} clients overflows the float range")
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
):
    """One full round: local updates, scoring, (optional) ranking, aggregation.

    Returns (new_global, new_rank_state, RoundInfo).  The rank state is
    returned unchanged when ranking is disabled; `info.losses` holds each
    client's loss at its own local model.
    """
    ordered = _by_id(clients)
    models = train_clients(global_params, ordered, train_cfg)
    updated = [(c.client_id, m) for c, m in zip(ordered, models)]
    scores = score_clients(global_params, updated, validation, spec, alpha)

    rank = rank_update(scores, state, rank_cfg) if rank_cfg.enabled else None
    weights = make_weights(scores, rank)

    new_global = aggregate(models, weights)
    losses = _local_losses(ordered, models)
    return new_global, state if rank is None else rank, RoundInfo(weights, losses, {}, scores, rank)
