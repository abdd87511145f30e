"""Reference aggregation strategies the validation-scored server is compared against.

  fedavg   weighted parameter average, p_k = n_k / n
           (McMahan et al., https://arxiv.org/abs/1602.05629)
  qfedsgd  loss-reweighted gradient step, one server step per round
  qfedavg  loss-reweighted model-delta step over local SGD results
           (both from Li et al., https://arxiv.org/abs/1905.10497)
  afl      minimax over a learned client mixture on the simplex
           (Mohri et al., https://arxiv.org/abs/1902.00146)

Every round function is pure and returns the new global model plus a
`server.RoundInfo`: the effective per-client weights (always a probability
vector) and local losses.  `reporting.RoundWriter` writes the round's
report from it, as it does for the fedval strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError, DegenerateWeightsError, NumericOverflowError, ShapeError
from .model import ModelParams, TrainConfig, gradient, train_clients
from .server import AggregationWeights, RoundInfo, _by_id, _client_loss, _local_losses, _pow, aggregate


@dataclass(frozen=True)
class QConfig:
    """Settings for the q-reweighted strategies."""

    q: float = 0.0
    lipschitz: float = 1.0  # the L estimate scaling h_k

    def __post_init__(self):
        if not (self.q >= 0 and math.isfinite(self.q)):
            raise ConfigError(f"q must be finite and >= 0, got {self.q}")
        if not (self.lipschitz > 0 and math.isfinite(self.lipschitz)):
            raise ConfigError(f"lipschitz must be positive, got {self.lipschitz}")


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    With u the entries sorted in descending order and c their running sums,
    the projection is max(v + theta, 0), theta = (1 - c[rho]) / (rho + 1),
    where rho is the last index with u[rho] + (1 - c[rho]) / (rho + 1) > 0.
    The vector holds one entry per client, so the sums and the scan run on
    Python floats: their arithmetic is float64's, `accumulate` adds in
    numpy's cumsum order, and an overflowing sum gives inf without a warning.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"simplex projection needs a non-empty vector, got shape {v.shape}")
    u = sorted(v.tolist(), reverse=True)
    css = list(accumulate(u))
    if not math.isfinite(css[-1]):
        raise NumericOverflowError(f"simplex projection: the entries sum to {css[-1]}")
    # scanned from the end, the first index that passes is the last one
    for rho in range(len(u) - 1, -1, -1):
        if u[rho] + (1.0 - css[rho]) / (rho + 1) > 0:
            break
    else:  # entries so large that 1 - c[j] rounds to -c[j] everywhere
        raise NumericOverflowError(
            f"simplex projection: entries up to {u[0]!r} are too large to shift by 1"
        )
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _flat(params: ModelParams) -> np.ndarray:
    return np.concatenate([params.weights, [params.bias]])


def fedavg_round(global_params: ModelParams, clients, train_cfg: TrainConfig):
    """Local SGD everywhere, then average weighted by shard size."""
    ordered = _by_id(clients)
    models = train_clients(global_params, ordered, train_cfg)
    losses = _local_losses(ordered, models)
    total = sum(c.n for c in ordered)
    weights = AggregationWeights(
        tuple(c.client_id for c in ordered),
        tuple(c.n / total for c in ordered),
    )
    new_global = aggregate(models, weights)
    return new_global, RoundInfo(weights, losses)


def _q_round(global_params: ModelParams, ordered, directions, qcfg: QConfig):
    """One q-FFL round from each client's update direction, in `ordered`'s order.

    With F_k the client's loss at the incoming global model, delta_k =
    F_k**q * direction and h_k = q F_k**(q-1) |direction|^2 + L F_k**q; the
    server moves by sum(delta) / sum(h) and weighs client k by h_k / sum(h).
    Each client's F**q, delta and h are checked in that order, then the sum
    and the step.
    """
    q, lipschitz = qcfg.q, qcfg.lipschitz
    deltas, hs, losses = [], [], {}
    # one errstate per round; `loss` clamps a huge model's logits, and other overflows are reported
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for c, direction in zip(ordered, directions):
            f = _client_loss(c, global_params)
            fq = _pow(f, q)
            if not math.isfinite(fq):
                raise NumericOverflowError(
                    f"F**q overflowed for client {c.client_id}; reduce q or the loss scale"
                )
            delta = fq * direction  # nan where an underflowed F**q meets an overflowed direction
            if not np.isfinite(delta).all():
                raise NumericOverflowError(
                    f"delta overflowed for client {c.client_id}; reduce q or the loss scale"
                )
            norm2 = float(direction @ direction)
            h = lipschitz * fq if q == 0 else q * _pow(f, q - 1.0) * norm2 + lipschitz * fq
            if not math.isfinite(h):
                raise NumericOverflowError(
                    f"h overflowed for client {c.client_id}; reduce q or the loss scale"
                )
            deltas.append(delta)
            hs.append(h)
            losses[c.client_id] = f
        total_h = float(np.sum(hs))
        new_flat = _flat(global_params) - np.sum(deltas, axis=0) / total_h
    if not total_h > 0:  # every F**q and F**(q-1) underflowed to 0
        raise DegenerateWeightsError(
            f"q-FFL weights sum to {total_h} at q={q}: every h_k underflowed; reduce q"
        )
    if not (total_h < math.inf and np.isfinite(new_flat).all()):
        raise NumericOverflowError(
            f"q-FFL server step overflowed at q={q}; reduce q or the Lipschitz estimate"
        )
    weights = AggregationWeights(tuple(c.client_id for c in ordered), tuple(h / total_h for h in hs))
    return ModelParams(new_flat[:-1], float(new_flat[-1])), RoundInfo(weights, losses)


def qfedsgd_round(global_params: ModelParams, clients, qcfg: QConfig):
    """One loss-reweighted gradient step from the current global model.

    `_q_round`'s update with each client's gradient grad F_k as its direction;
    client losses and gradients are all evaluated at the incoming global model.
    """
    ordered = _by_id(clients)
    # lazily, so each shard's gradient and loss run back to back and share one pass
    grads = (gradient(global_params, c.data) for c in ordered)
    return _q_round(global_params, ordered, (np.concatenate([gw, [gb]]) for gw, gb in grads), qcfg)


def qfedavg_round(global_params: ModelParams, clients, train_cfg: TrainConfig, qcfg: QConfig):
    """Loss-reweighted aggregation of local-SGD model deltas.

    Each client runs a normal local update; its step is read back as
    dw_k = L * (w - w_k_local), then combined exactly as in qfedsgd with
    losses evaluated at the incoming global model.
    """
    ordered = _by_id(clients)
    global_flat = _flat(global_params)
    models = train_clients(global_params, ordered, train_cfg)
    # lazily, under `_q_round`'s errstate: an overflowing direction is reported as its client's delta
    directions = (qcfg.lipschitz * (global_flat - _flat(m)) for m in models)
    return _q_round(global_params, ordered, directions, qcfg)


def afl_round(
    global_params: ModelParams, clients, mixture: AggregationWeights, train_cfg: TrainConfig, lr_lambda: float
):
    """Minimax round: descend on the lambda-mixed gradient, ascend lambda.

    The model takes one gradient step against `mixture`, AFL's weights over
    the clients; lambda then moves toward high-loss clients at the rate
    `lr_lambda` and is projected back onto the simplex.  Returns
    (new_global, next_mixture, info): `next_mixture` is the next round's
    mixture and `info.weights` the mixture the model step used, both in
    ascending client id.
    """
    if not (lr_lambda > 0 and math.isfinite(lr_lambda)):
        raise ConfigError(f"lr_lambda must be positive, got {lr_lambda}")
    ordered = _by_id(clients)
    ids = tuple(c.client_id for c in ordered)
    # every round's mixture comes in id order and is the step's weights as it is;
    # any other order is checked and rebuilt in id order
    if mixture.client_ids != ids:
        if set(ids) != set(mixture.client_ids):
            raise ConfigError("AFL mixture does not cover the participating clients")
        lam = dict(zip(mixture.client_ids, mixture.p))
        mixture = AggregationWeights(ids, [lam[cid] for cid in ids])

    # the lambda-mixed gradient, weights and bias apart: element for element
    # the sum and the step the flat vector [w, b] would take
    mixed_w = np.zeros(global_params.dim)
    mixed_b = 0.0
    losses = {}
    lr = train_cfg.lr
    try:
        # a step too large for the float range overflows here, or in the next round's logits
        with np.errstate(over="raise"):
            for c, weight in zip(ordered, mixture.p):
                gw, gb = gradient(global_params, c.data)
                gw *= weight  # a fresh array: scaled in place, the product weight * gw
                mixed_w += gw
                mixed_b += weight * gb
                losses[c.client_id] = _client_loss(c, global_params)
            new_global = ModelParams(
                global_params.weights - lr * mixed_w, global_params.bias - lr * mixed_b
            )
    except FloatingPointError:
        raise NumericOverflowError(f"AFL model step diverged at learning rate {lr!r}") from None

    ascended = [l + lr_lambda * losses[cid] for cid, l in zip(ids, mixture.p)]
    next_mixture = AggregationWeights(ids, project_simplex(ascended).tolist())
    return new_global, next_mixture, RoundInfo(mixture, losses)
