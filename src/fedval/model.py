"""Binary logistic regression trained with plain mini-batch SGD.

The model is deliberately minimal: sigmoid(w.x + b), cross-entropy loss,
analytic gradients, no regularization, no momentum.  `client_update` is the
local training step each simulated client runs on its own shard;
`train_clients` runs it for every client of a round.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .codec import FLOAT, Section, list_of, read_json, write_json
from .data import TabularDataset
from .errors import ConfigError, NumericOverflowError, ShapeError
from .seeding import client_generators

# probabilities are clamped to this band inside the loss so that a fully
# saturated wrong prediction stays finite
_CLAMP = 1e-12
_CLAMP_HI = 1.0 - _CLAMP

# below 0, logits closer to 0 than this are classified by evaluating the
# sigmoid; further out their sign alone decides (see is_positive)
_SIGN_DECIDES = 1e-12

_NAN_LOGITS = "model logits overflowed to nan: the weights are too large for these features"


@dataclass(frozen=True, eq=False)  # == and hash() by identity, as for the weights array
class ModelParams:
    """Weights and bias of a logistic model."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        # a private copy: the caller's array could be made writeable again.
        # Adding 0.0 makes that copy and stores a -0.0 weight as +0.0 (every
        # other value is unchanged), so no model holds a -0.0 weight; see
        # client_update for why that matters
        w = np.add(self.weights, 0.0, dtype=np.float64)
        if w.ndim != 1:
            raise ShapeError(f"weights must be 1-d, got shape {w.shape}")
        b = float(self.bias)
        # count_nonzero and setflags: ndarray.all's and .flags' wrappers cost
        # more than the test and the flag on a model-sized vector
        if not (math.isfinite(b) and np.count_nonzero(np.isfinite(w)) == w.shape[0]):
            raise ShapeError("model parameters must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @staticmethod
    def zeros(dim: int) -> "ModelParams":
        return ModelParams(np.zeros(dim), 0.0)

    def to_dict(self) -> dict:
        return _PARAMS.encode(self)

    @staticmethod
    def from_dict(raw) -> "ModelParams":
        return _PARAMS.decode(raw, "model parameters")

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "ModelParams":
        return ModelParams.from_dict(read_json(path))  # a missing file stays an OSError


# the JSON form of a model file, such as a run's final_model.json
_PARAMS = Section(ModelParams, {"weights": list_of(FLOAT), "bias": FLOAT})


@dataclass(frozen=True)
class TrainConfig:
    """Local SGD settings for one client update."""

    epochs: int = 1
    batch_size: int = 32
    lr: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # branch-free form of the piecewise sigmoid: each element takes the float
    # operations of its branch, 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z)
    # below, so results match bit for bit.  exp only ever sees -|z| (that is
    # copysign(z, -1)) and min(z, 0), whose exp is 1 exactly for z >= 0.
    # Writes into `out` when given, which may be `z` itself.
    e = np.exp(np.copysign(z, -1.0))
    e += 1.0
    out = np.exp(np.minimum(z, 0.0, out=out), out=out)
    out /= e
    return out


def _check_dim(params: ModelParams, dataset: TabularDataset) -> None:
    if params.weights.shape[0] != dataset.features.shape[1]:
        raise ShapeError(f"model expects {params.dim} features, dataset has {dataset.dim}")


def _checked(params: ModelParams, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.dim:
        raise ShapeError(f"features must be (n, {params.dim}), got {X.shape}")
    return X


def _logits(params: ModelParams, X: np.ndarray) -> np.ndarray:
    # X @ w + b for an X already checked: X.dot(w) is the same gemv with
    # less dispatch, and the bias is added in place
    z = X.dot(params.weights)
    z += params.bias
    return z


def _proba(params: ModelParams, X: np.ndarray) -> np.ndarray:
    # sigmoid(X @ w + b), written over the logits, for an X already checked
    z = _logits(params, X)
    return _sigmoid(z, out=z)


def _reuse_last(compute):
    """Wrap `compute(params, dataset)` to reuse its last completed result while both are the same objects.

    `.slot` holds both, immutable, by weak reference: a dead one never matches,
    so a recycled id cannot hit, and the slot keeps no input alive.
    """
    def reuse(params, dataset):
        slot = reuse.slot
        if slot is not None and slot[0]() is params and slot[1]() is dataset:
            return slot[2]
        result = compute(params, dataset)
        reuse.slot = (weakref.ref(params), weakref.ref(dataset), result)
        return result
    reuse.slot = None
    return reuse


@_reuse_last
def _dataset_proba(params: ModelParams, dataset: TabularDataset) -> np.ndarray:
    """`_proba` over all of `dataset` after its dimension check, read-only.

    `loss` and `gradient` share it: `afl_round` and `qfedsgd_round` take both at one model.
    """
    _check_dim(params, dataset)
    p = _proba(params, dataset.features)
    p.flags.writeable = False
    return p


def predict_proba(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Positive-class probabilities for each row of `features`."""
    return _proba(params, _checked(params, features))


def is_positive(logits: np.ndarray) -> np.ndarray:
    """The hard-label rule: a logit is positive when `_sigmoid(logit) >= 0.5`.

    The rule is decided on the float64 sigmoid, not on the logit's sign: a
    logit of -1e-17 has probability exactly 0.5 and counts positive.  The
    sigmoid is only evaluated for logits in (-_SIGN_DECIDES, 0); elsewhere
    the sign gives the same answer, +-inf included.  A nan logit (an x.w
    that summed +inf and -inf terms) raises NumericOverflowError.
    """
    # z >= 0: exp(-z) <= 1, so 1 / (1 + exp(-z)) >= 0.5 exactly.
    # z <= -_SIGN_DECIDES: exp(z) is at most about 1 - 1e-12, so
    # exp(z) / (1 + exp(z)) lies ~2.5e-13 below 0.5, far beyond rounding.
    positive = logits >= 0
    decided = (logits <= -_SIGN_DECIDES) ^ positive  # false in (-_SIGN_DECIDES, 0) and at nan
    if not decided.all():
        near = ~decided
        if np.isnan(logits[near]).any():
            raise NumericOverflowError(_NAN_LOGITS)
        positive[near] = _sigmoid(logits[near]) >= 0.5
    return positive


def classify(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Hard labels; a probability of exactly 0.5 counts positive."""
    return is_positive(_logits(params, _checked(params, features))).astype(np.int64)


def loss(params: ModelParams, dataset: TabularDataset) -> float:
    """Mean binary cross-entropy with probabilities clamped away from {0,1}."""
    n = dataset.n
    p = np.maximum(_dataset_proba(params, dataset), _CLAMP)
    np.minimum(p, _CLAMP_HI, out=p)
    # one log per row, of p or 1 - p by label (the 0/1 labels select as
    # they are), taken in place: the clamp keeps log(p) and log(1 - p) finite
    # and nonzero, so y log(p) + (1 - y) log(1 - p) is exactly this log
    terms = np.where(dataset.labels, p, 1.0 - p)
    np.log(terms, out=terms)
    # summation order fixed by value so row permutations cannot move the result
    terms.sort()
    total = float(np.add.reduce(terms))
    if math.isnan(total):  # a nan logit: the clamp keeps every other term finite, +-inf logits too
        raise NumericOverflowError(_NAN_LOGITS)
    # -np.mean without its dispatch; a Python float divides as float64 does
    return -(total / n)


def gradient(params: ModelParams, dataset: TabularDataset):
    """Analytic loss gradient: (mean (p - y) x, mean (p - y))."""
    n = dataset.n
    err = _dataset_proba(params, dataset) - dataset.labels
    # features.T @ err, not err.dot(features): on a one-row shard the dot
    # returns -0.0 where this gemv returns +0.0
    grad_w = dataset.features.T @ err
    grad_w /= n
    grad_b = float(np.add.reduce(err)) / n  # err.mean()
    return grad_w, grad_b


def client_update(params: ModelParams, local: TabularDataset, cfg: TrainConfig, rng=None) -> ModelParams:
    """Run `cfg.epochs` of seeded mini-batch SGD from `params` on `local`.

    Rows are brought into a canonical order before shuffling, so permuting
    the input produces a bit-identical result.  The last partial batch is
    trained like any other.  The input params are never modified.  The
    shuffles draw from `rng`; without one, from `default_rng(cfg.seed)`.
    """
    _check_dim(params, local)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    order = local.canonical_order
    features = local.features
    labels = local.labels.astype(np.float64)
    n, size, lr = local.n, cfg.batch_size, cfg.lr

    w = params.weights.copy()
    b = params.bias
    for _ in range(cfg.epochs):
        # one gather per epoch puts the shuffled rows in batch order, so
        # each step reads contiguous slices; take is the cheaper row gather
        # for a 2-d array, indexing for a 1-d one
        rows = order[rng.permutation(n)]
        X = features.take(rows, axis=0)
        y = labels[rows]
        for start in range(0, n, size):
            xb = X[start : start + size]
            m = xb.shape[0]
            z = xb.dot(w)  # the gemv of xb @ w, with less dispatch
            z += b
            err = _sigmoid(z, out=z)
            err -= y[start : start + size]
            # in place, in the order of w -= lr * (xb.T @ err) / m.  err.dot(xb)
            # is xb.T @ err with less dispatch, up to the sign of a zero: on a
            # one-row batch it gives -0.0 where the gemv gives +0.0.  w - g
            # then differs only where w is -0.0, and w never is: ModelParams
            # stores -0.0 as +0.0, and w - g is -0.0 only if w already was
            g = err.dot(xb)
            g *= lr
            g /= m
            w -= g
            b -= lr * float(np.add.reduce(err) / m)  # err.mean(), without its dispatch
    try:
        return ModelParams(w, b)
    except ShapeError:  # its finiteness check: SGD left the float range
        raise NumericOverflowError(f"local SGD diverged at learning rate {lr!r}") from None


def train_clients(params: ModelParams, clients, cfg: TrainConfig) -> list[ModelParams]:
    """`client_update` from `params` on each client's shard, in the order given.

    Each client trains exactly as with `cfg` reseeded to
    `derive_seed(cfg.seed, "client", client_id)`: its generator comes from
    `seeding.client_generators`, which seeds the whole round in one pass.
    A diverging update raises NumericOverflowError naming the client, and
    numpy prints no overflow warning ahead of it.
    """
    models = []
    # one errstate per round, not per client: a diverging update is reported
    # by ModelParams' finiteness check, which names the client
    with np.errstate(over="ignore", invalid="ignore"):
        for client, rng in zip(clients, client_generators(cfg.seed, [c.client_id for c in clients])):
            try:
                models.append(client_update(params, client.data, cfg, rng=rng))
            except NumericOverflowError as exc:
                raise NumericOverflowError(f"client {client.client_id}: {exc}") from None
    return models
