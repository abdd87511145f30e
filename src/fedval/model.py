"""Binary logistic regression trained with plain mini-batch SGD.

The model is deliberately minimal: sigmoid(w.x + b), cross-entropy loss,
analytic gradients, no regularization, no momentum.  `client_update` is the
local training step each simulated client runs on its own shard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .data import TabularDataset
from .errors import ConfigError, EmptyDatasetError, ShapeError
from .seeding import derive_seed

# probabilities are clamped to this band inside the loss so that a fully
# saturated wrong prediction stays finite
_CLAMP = 1e-12

# below 0, logits closer to 0 than this are classified by evaluating the
# sigmoid; further out their sign alone decides (see is_positive)
_SIGN_DECIDES = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Weights and bias of a logistic model."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ShapeError(f"weights must be 1-d, got shape {w.shape}")
        b = float(self.bias)
        if not (np.all(np.isfinite(w)) and np.isfinite(b)):
            raise ShapeError("model parameters must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @staticmethod
    def zeros(dim: int) -> "ModelParams":
        return ModelParams(np.zeros(dim), 0.0)

    def to_dict(self) -> dict:
        return {"weights": [float(w) for w in self.weights], "bias": float(self.bias)}

    @staticmethod
    def from_dict(raw: dict) -> "ModelParams":
        try:
            return ModelParams(np.asarray(raw["weights"], dtype=np.float64), float(raw["bias"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed model parameters: {exc!r}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "ModelParams":
        with open(path, encoding="utf-8") as fh:
            return ModelParams.from_dict(json.load(fh))


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
        if not (self.lr > 0 and np.isfinite(self.lr)):
            raise ConfigError(f"learning rate must be positive and finite, got {self.lr}")


def client_cfg(cfg: TrainConfig, client_id: int) -> TrainConfig:
    """The per-client view of a round's TrainConfig (reseeded per client)."""
    return replace(cfg, seed=derive_seed(cfg.seed, "client", client_id))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # branch-free form of the piecewise sigmoid: exp only ever sees -|z|, and
    # each element takes the float operations of its branch, 1 / (1 + e^-z)
    # for z >= 0 and e^z / (1 + e^z) below, so results match bit for bit
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _check_dim(params: ModelParams, dataset: TabularDataset) -> None:
    if params.dim != dataset.dim:
        raise ShapeError(f"model expects {params.dim} features, dataset has {dataset.dim}")


def _logits(params: ModelParams, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.dim:
        raise ShapeError(f"features must be (n, {params.dim}), got {X.shape}")
    return X @ params.weights + params.bias


def predict_proba(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Positive-class probabilities for each row of `features`."""
    return _sigmoid(_logits(params, features))


def is_positive(logits: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """The hard-label rule: a logit is positive when `_sigmoid(logit) >= threshold`.

    The rule is decided on the float64 sigmoid, not on the logit's sign: a
    logit of -1e-17 has probability exactly 0.5 and counts positive.  At the
    default threshold the sigmoid is only evaluated for logits in
    (-_SIGN_DECIDES, 0); elsewhere the sign gives the same answer.
    """
    if threshold != 0.5:
        return _sigmoid(logits) >= threshold
    # z >= 0: exp(-z) <= 1, so 1 / (1 + exp(-z)) >= 0.5 exactly.
    # z <= -_SIGN_DECIDES: exp(z) is at most about 1 - 1e-12, so
    # exp(z) / (1 + exp(z)) lies ~2.5e-13 below 0.5, far beyond rounding.
    positive = logits >= 0
    near = (logits < 0) & (logits > -_SIGN_DECIDES)
    if near.any():
        positive[near] = _sigmoid(logits[near]) >= 0.5
    return positive


def classify(params: ModelParams, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Hard labels; a probability exactly at the threshold counts positive."""
    return is_positive(_logits(params, features), threshold).astype(np.int64)


def loss(params: ModelParams, dataset: TabularDataset) -> float:
    """Mean binary cross-entropy with probabilities clamped away from {0,1}."""
    if dataset.n == 0:
        raise EmptyDatasetError("loss needs at least one row")
    _check_dim(params, dataset)
    p = np.clip(predict_proba(params, dataset.features), _CLAMP, 1.0 - _CLAMP)
    y = dataset.labels
    terms = y * np.log(p) + (1 - y) * np.log(1.0 - p)
    # summation order fixed by value so row permutations cannot move the result
    return float(-np.mean(np.sort(terms)))


def gradient(params: ModelParams, dataset: TabularDataset):
    """Analytic loss gradient: (mean (p - y) x, mean (p - y))."""
    if dataset.n == 0:
        raise EmptyDatasetError("gradient needs at least one row")
    _check_dim(params, dataset)
    err = predict_proba(params, dataset.features) - dataset.labels
    grad_w = dataset.features.T @ err / dataset.n
    grad_b = float(err.mean())
    return grad_w, grad_b


def _canonical_order(dataset: TabularDataset) -> np.ndarray:
    # reference for the cached TabularDataset.canonical_order, which
    # client_update uses: lexicographic row order, so results do not depend
    # on how the caller happened to order the shard
    keys = [dataset.sensitive, dataset.labels]
    keys.extend(dataset.features[:, j] for j in range(dataset.dim - 1, -1, -1))
    return np.lexsort(keys)


def client_update(params: ModelParams, local: TabularDataset, cfg: TrainConfig) -> ModelParams:
    """Run `cfg.epochs` of seeded mini-batch SGD from `params` on `local`.

    Rows are brought into a canonical order before shuffling, so permuting
    the input produces a bit-identical result.  The last partial batch is
    trained like any other.  The input params are never modified.
    """
    _check_dim(params, local)
    rng = np.random.default_rng(cfg.seed)
    order = local.canonical_order
    features = local.features
    labels = local.labels.astype(np.float64)
    n, size, lr = local.n, cfg.batch_size, cfg.lr

    w = params.weights.copy()
    b = params.bias
    for _ in range(cfg.epochs):
        # one gather per epoch puts the shuffled rows in batch order, so
        # each step reads contiguous slices
        rows = order[rng.permutation(n)]
        X = features[rows]
        y = labels[rows]
        for start in range(0, n, size):
            xb = X[start : start + size]
            m = xb.shape[0]
            z = xb @ w
            z += b
            e = np.exp(-np.abs(z))  # _sigmoid, inlined
            err = np.where(z >= 0, 1.0, e) / (1.0 + e)
            err -= y[start : start + size]
            # in place, in the order of w -= lr * (xb.T @ err) / m
            g = xb.T @ err
            g *= lr
            g /= m
            w -= g
            b -= lr * float(np.add.reduce(err) / m)  # err.mean(), without its dispatch
    return ModelParams(w, b)
