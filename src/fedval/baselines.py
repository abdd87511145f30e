"""Reference aggregation strategies the validation-scored server is compared against.

  fedavg   weighted parameter average, p_k = n_k / n
           (McMahan et al., https://arxiv.org/abs/1602.05629)
  qfedsgd  loss-reweighted gradient step, one server step per round
  qfedavg  loss-reweighted model-delta step over local SGD results
           (both from Li et al., https://arxiv.org/abs/1905.10497)
  afl      minimax over a learned client mixture on the simplex
           (Mohri et al., https://arxiv.org/abs/1902.00146)

Every round function is pure and returns the new global model plus a
RoundInfo carrying the effective per-client weights (always a probability
vector), local losses, and the intermediates the update used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ClientProfile
from .errors import ConfigError, NumericOverflowError, ShapeError
from .model import ModelParams, TrainConfig, client_cfg, client_update, gradient, loss
from .server import AggregationWeights, aggregate


@dataclass(frozen=True)
class QConfig:
    """Settings for the q-reweighted strategies."""

    q: float = 0.0
    lipschitz: float = 1.0  # the L estimate scaling h_k
    lr: float = 0.1
    rounds: int = 1

    def __post_init__(self):
        if not (self.q >= 0 and np.isfinite(self.q)):
            raise ConfigError(f"q must be finite and >= 0, got {self.q}")
        if not (self.lipschitz > 0 and np.isfinite(self.lipschitz)):
            raise ConfigError(f"lipschitz must be positive, got {self.lipschitz}")
        if not (self.lr > 0 and np.isfinite(self.lr)):
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")


@dataclass(frozen=True)
class AFLState:
    """Mixture weights over clients plus their ascent rate."""

    client_ids: tuple[int, ...]
    lam: tuple[float, ...]
    lr_lambda: float = 0.1

    def __post_init__(self):
        ids = tuple(int(c) for c in self.client_ids)
        lam = tuple(float(v) for v in self.lam)
        object.__setattr__(self, "client_ids", ids)
        object.__setattr__(self, "lam", lam)
        if len(ids) != len(lam) or not ids:
            raise ConfigError("lambda must align with a non-empty client list")
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate client ids: {ids}")
        for v in lam:
            if not (np.isfinite(v) and v >= 0):
                raise ConfigError(f"lambda entries must be finite and >= 0, got {v}")
        if abs(sum(lam) - 1.0) > 1e-12:
            raise ConfigError(f"lambda sums to {sum(lam)!r}, not 1")
        if not (self.lr_lambda > 0 and np.isfinite(self.lr_lambda)):
            raise ConfigError(f"lr_lambda must be positive, got {self.lr_lambda}")

    @staticmethod
    def uniform(client_ids, lr_lambda: float = 0.1) -> "AFLState":
        ids = tuple(client_ids)
        return AFLState(ids, tuple(1.0 / len(ids) for _ in ids), lr_lambda)


@dataclass(frozen=True)
class RoundInfo:
    """What a baseline round actually did, for reporting and replay."""

    weights: AggregationWeights
    losses: dict
    extras: dict


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"simplex projection needs a non-empty vector, got shape {v.shape}")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    positions = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - css) / positions > 0)[0][-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _ordered(clients) -> list[ClientProfile]:
    return sorted(clients, key=lambda c: c.client_id)


def _flat(params: ModelParams) -> np.ndarray:
    return np.concatenate([params.weights, [params.bias]])


def _unflat(vec: np.ndarray) -> ModelParams:
    return ModelParams(vec[:-1], float(vec[-1]))


def fedavg_round(global_params: ModelParams, clients, train_cfg: TrainConfig):
    """Local SGD everywhere, then average weighted by shard size."""
    ordered = _ordered(clients)
    models, losses = [], {}
    for c in ordered:
        m = client_update(global_params, c.data, client_cfg(train_cfg, c.client_id))
        models.append(m)
        losses[c.client_id] = loss(m, c.data)
    total = sum(c.n for c in ordered)
    weights = AggregationWeights(
        tuple(c.client_id for c in ordered),
        tuple(c.n / total for c in ordered),
    )
    new_global = aggregate(models, weights)
    return new_global, RoundInfo(weights, losses, {"client_models": models})


def _check_finite(value, client_id, what):
    finite = math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()
    if not finite:
        raise NumericOverflowError(
            f"{what} overflowed for client {client_id}; reduce q or the loss scale"
        )
    return value


def _pow(base: float, exponent: float) -> float:
    try:
        return base**exponent
    except OverflowError:  # float ** raises where * and + give inf
        return math.inf


def _q_terms(f: float, direction: np.ndarray, qcfg: QConfig, client_id):
    """q-FFL's delta_k = F**q * direction and h_k = q F**(q-1) |direction|^2 + L F**q.

    Returns (delta, h, |direction|^2).  A term that leaves the float range
    raises NumericOverflowError naming the client and the term.
    """
    fq = _check_finite(_pow(f, qcfg.q), client_id, "F**q")
    with np.errstate(over="ignore"):  # an overflowing product is reported just below
        delta = _check_finite(fq * direction, client_id, "delta")
    norm2 = float(direction @ direction)
    if qcfg.q == 0:
        h = qcfg.lipschitz * fq
    else:
        h = qcfg.q * _pow(f, qcfg.q - 1.0) * norm2 + qcfg.lipschitz * fq
    return delta, _check_finite(h, client_id, "h"), norm2


def _q_step(global_flat: np.ndarray, ordered, deltas, hs):
    """The server's q-FFL move by sum(delta) / sum(h), with the weights h / sum(h)."""
    total_h = float(np.sum(hs))
    step = np.sum(deltas, axis=0) / total_h
    weights = AggregationWeights(
        tuple(c.client_id for c in ordered),
        tuple(float(h) / total_h for h in hs),
    )
    return _unflat(global_flat - step), weights


def qfedsgd_round(global_params: ModelParams, clients, qcfg: QConfig):
    """One loss-reweighted gradient step from the current global model.

    delta_k = F_k**q * grad F_k, h_k = q F_k**(q-1) |grad F_k|^2 + L F_k**q,
    and the server moves by sum(delta) / sum(h).  Client losses and
    gradients are all evaluated at the incoming global model.
    """
    ordered = _ordered(clients)
    deltas, hs, losses, extras = [], [], {}, {}
    for c in ordered:
        f = loss(global_params, c.data)
        gw, gb = gradient(global_params, c.data)
        delta, h, gnorm2 = _q_terms(f, np.concatenate([gw, [gb]]), qcfg, c.client_id)
        deltas.append(delta)
        hs.append(h)
        losses[c.client_id] = f
        extras[c.client_id] = {"grad_norm_sq": gnorm2, "h": float(h)}
    new_global, weights = _q_step(_flat(global_params), ordered, deltas, hs)
    return new_global, RoundInfo(weights, losses, extras)


def qfedavg_round(global_params: ModelParams, clients, train_cfg: TrainConfig, qcfg: QConfig):
    """Loss-reweighted aggregation of local-SGD model deltas.

    Each client runs a normal local update; its step is read back as
    dw_k = L * (w - w_k_local), then combined exactly as in qfedsgd with
    losses evaluated at the incoming global model.
    """
    ordered = _ordered(clients)
    global_flat = _flat(global_params)
    deltas, hs, losses, extras = [], [], {}, {}
    for c in ordered:
        local = client_update(global_params, c.data, client_cfg(train_cfg, c.client_id))
        f = loss(global_params, c.data)
        dw = qcfg.lipschitz * (global_flat - _flat(local))
        delta, h, _ = _q_terms(f, dw, qcfg, c.client_id)
        deltas.append(delta)
        hs.append(h)
        losses[c.client_id] = f
        extras[c.client_id] = {"h": float(h)}
    new_global, weights = _q_step(global_flat, ordered, deltas, hs)
    return new_global, RoundInfo(weights, losses, extras)


def afl_round(global_params: ModelParams, clients, state: AFLState, train_cfg: TrainConfig):
    """Minimax round: descend on the lambda-mixed gradient, ascend lambda.

    The model takes one gradient step against the current mixture; lambda
    then moves toward high-loss clients and is projected back onto the
    simplex.  Returns (new_global, new_state, info); info reports the
    mixture the model step used.
    """
    ordered = _ordered(clients)
    ids = tuple(c.client_id for c in ordered)
    if set(ids) != set(state.client_ids):
        raise ConfigError("AFL state does not cover the participating clients")
    lam = {cid: l for cid, l in zip(state.client_ids, state.lam)}

    mixed = np.zeros(global_params.dim + 1)
    losses = {}
    for c in ordered:
        gw, gb = gradient(global_params, c.data)
        mixed += lam[c.client_id] * np.concatenate([gw, [gb]])
        losses[c.client_id] = loss(global_params, c.data)
    new_global = _unflat(_flat(global_params) - train_cfg.lr * mixed)

    ascended = np.array([lam[cid] + state.lr_lambda * losses[cid] for cid in ids])
    new_lam = project_simplex(ascended)
    new_state = AFLState(ids, tuple(new_lam), state.lr_lambda)

    weights = AggregationWeights(ids, tuple(lam[cid] for cid in ids))
    info = RoundInfo(weights, losses, {"lambda_next": {cid: float(v) for cid, v in zip(ids, new_lam)}})
    return new_global, new_state, info
