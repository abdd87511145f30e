"""Shared construction helpers for the test suite."""

import numpy as np

from fedval.data import GROUP_A, GROUP_D, TabularDataset
from fedval.model import ModelParams


def coverage_dataset(n, dim, seed, positive_rate=0.5, advantaged_share=0.5):
    """Random dataset guaranteed to contain both groups, both labels, and
    at least one positive row in each group (so every metric is defined)."""
    assert n >= 4
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < positive_rate).astype(np.int64)
    groups = (rng.random(n) < advantaged_share).astype(np.int64)
    # pin four rows so coverage never depends on the draw
    labels[:4] = (1, 0, 1, 0)
    groups[:4] = (GROUP_A, GROUP_A, GROUP_D, GROUP_D)
    features = rng.standard_normal((n, dim)) + 0.8 * labels[:, None]
    return TabularDataset(features, labels, groups)


def random_params(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return ModelParams(scale * rng.standard_normal(dim), float(scale * rng.standard_normal()))


def pattern_dataset(preds, labels, groups):
    """1-d dataset on which the unit model w=[1], b=0 predicts `preds`."""
    features = np.array([[10.0] if p else [-10.0] for p in preds])
    return TabularDataset(features, np.asarray(labels), np.asarray(groups))


UNIT_MODEL = ModelParams(np.array([1.0]), 0.0)


def rows_as_multiset(ds: TabularDataset):
    """Hashable row representation for subset/disjointness checks."""
    from collections import Counter

    return Counter(
        (tuple(ds.features[i]), int(ds.labels[i]), int(ds.sensitive[i])) for i in range(ds.n)
    )


# ---------------------------------------------------------------------------
# reference implementations the fast model code is checked against
# ---------------------------------------------------------------------------


def reference_sigmoid(z):
    """The piecewise sigmoid: neither branch exponentiates a large positive."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_client_update(params, local, cfg):
    """Per-batch mini-batch SGD: gathers each batch from the canonical order
    through the epoch's permutation and steps out of place."""
    rng = np.random.default_rng(cfg.seed)
    order = local.canonical_order
    X = local.features[order]
    y = local.labels[order].astype(np.float64)
    w = params.weights.copy()
    b = params.bias
    for _ in range(cfg.epochs):
        perm = rng.permutation(local.n)
        for start in range(0, local.n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb = X[idx]
            err = reference_sigmoid(xb @ w + b) - y[idx]
            w -= cfg.lr * (xb.T @ err) / len(idx)
            b -= cfg.lr * float(err.mean())
    return ModelParams(w, b)
