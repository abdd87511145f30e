"""Accuracy and group-fairness metrics, plus weighted composite scores.

Fairness gaps follow the usual statistical definitions on hard predictions:

  spd: |P(pred=1 | group a) - P(pred=1 | group d)|
  eod: |P(pred=1 | group a, y=1) - P(pred=1 | group d, y=1)|

Both are plain frequency counts.  For scoring, every objective is mapped to
a higher-is-better value in [0, 1]: accuracy stays as-is, the gaps become
1 - gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GROUP_A, GROUP_D, TabularDataset
from .errors import ConfigError, MissingGroupError, MissingPositivesError, ShapeError
from .model import ModelParams, classify, is_positive

OBJECTIVE_KINDS = ("accuracy", "spd", "eod")

_GROUP_NAMES = {GROUP_A: "a", GROUP_D: "d"}

# (group, label) cells of a dataset, in the row order of `positive_counts`
_CELLS = ((GROUP_A, 1), (GROUP_A, 0), (GROUP_D, 1), (GROUP_D, 0))

# models classified per block in `positive_counts`: the (block, n) logits are
# the pass's working set.  On the fedval-100 preset (4000 validation rows)
# 8- and 16-model blocks raised peak RSS by 0.4 and 1.1 MB over 4-model
# blocks, with no round-time gain that could be told from noise
_BLOCK = 4


def _no_rows(group_value, *, metric):
    return MissingGroupError(
        f"{metric}: dataset has no rows for group {_GROUP_NAMES[group_value]!r}"
    )


def _no_positives(group_value):
    return MissingPositivesError(
        f"eod: no positive-label rows for group {_GROUP_NAMES[group_value]!r}"
    )


def accuracy(params: ModelParams, dataset: TabularDataset) -> float:
    """Fraction of rows classified correctly."""
    pred = classify(params, dataset.features)
    return float(np.mean(pred == dataset.labels))


def _positive_share(pred, mask, group_value, *, metric):
    if not mask.any():
        raise _no_rows(group_value, metric=metric)
    return float(pred[mask].mean())


def spd(params: ModelParams, dataset: TabularDataset) -> float:
    """Absolute gap in positive prediction rate between the two groups."""
    pred = classify(params, dataset.features)
    share_a = _positive_share(pred, dataset.sensitive == GROUP_A, GROUP_A, metric="spd")
    share_d = _positive_share(pred, dataset.sensitive == GROUP_D, GROUP_D, metric="spd")
    return abs(share_a - share_d)


def eod(params: ModelParams, dataset: TabularDataset) -> float:
    """Absolute true-positive-rate gap between the two groups."""
    pred = classify(params, dataset.features)
    rates = {}
    for group_value in (GROUP_A, GROUP_D):
        mask = (dataset.sensitive == group_value) & (dataset.labels == 1)
        if not mask.any():
            raise _no_positives(group_value)
        rates[group_value] = float(pred[mask].mean())
    return abs(rates[GROUP_A] - rates[GROUP_D])


def objective_score(kind: str, params: ModelParams, validation: TabularDataset) -> float:
    """Higher-is-better score in [0, 1] for one objective kind."""
    if kind == "accuracy":
        return accuracy(params, validation)
    if kind == "spd":
        return 1.0 - spd(params, validation)
    if kind == "eod":
        return 1.0 - eod(params, validation)
    raise ConfigError(f"unknown objective kind {kind!r}; expected one of {OBJECTIVE_KINDS}")


def positive_counts(weights: np.ndarray, biases: np.ndarray, dataset: TabularDataset):
    """Positive predictions of K logistic models per (group, label) cell.

    `weights` is (K, d) and `biases` (K,).  The models are classified a few
    at a time with `classify`'s rule, so the pass never holds more than a
    narrow block of predictions.  Returns the (4, K) counts and the (4,)
    cell sizes, both exact integers in float64.
    """
    if weights.shape[1] != dataset.dim:
        raise ShapeError(f"features must be (n, {weights.shape[1]}), got {dataset.features.shape}")
    cells = np.array(
        [(dataset.sensitive == g) & (dataset.labels == y) for g, y in _CELLS], dtype=np.float64
    ).T
    counts = np.empty((len(weights), len(_CELLS)))
    for start in range(0, len(weights), _BLOCK):
        block = slice(start, start + _BLOCK)
        logits = weights[block] @ dataset.features.T + biases[block, None]
        counts[block] = is_positive(logits) @ cells
    return counts.T, cells.sum(axis=0)


def objective_scores(kind: str, counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """`objective_score` of every model from its `positive_counts`, as a (K,) array.

    Each rate divides an exact integer count by an exact cell size, as
    `objective_score` does, so the two agree bit for bit.
    """
    a1, a0, d1, d0 = counts
    na1, na0, nd1, nd0 = sizes
    if kind == "accuracy":
        return (a1 + d1 + (na0 - a0) + (nd0 - d0)) / sizes.sum()
    if kind == "spd":
        for group_value, rows in ((GROUP_A, na1 + na0), (GROUP_D, nd1 + nd0)):
            if rows == 0:
                raise _no_rows(group_value, metric="spd")
        return 1.0 - np.abs((a1 + a0) / (na1 + na0) - (d1 + d0) / (nd1 + nd0))
    if kind == "eod":
        for group_value, rows in ((GROUP_A, na1), (GROUP_D, nd1)):
            if rows == 0:
                raise _no_positives(group_value)
        return 1.0 - np.abs(a1 / na1 - d1 / nd1)
    raise ConfigError(f"unknown objective kind {kind!r}; expected one of {OBJECTIVE_KINDS}")


@dataclass(frozen=True)
class ObjectiveSpec:
    """Weighted objectives: tuple of (kind, weight) with weight >= 0."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        entries = tuple((str(kind).lower(), float(weight)) for kind, weight in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ConfigError("objective spec needs at least one entry")
        kinds = [kind for kind, _ in entries]
        if len(set(kinds)) != len(kinds):
            raise ConfigError(f"duplicate objective kinds in {kinds}")
        for kind, weight in entries:
            if kind not in OBJECTIVE_KINDS:
                raise ConfigError(f"unknown objective kind {kind!r}")
            if not (weight >= 0 and np.isfinite(weight)):
                raise ConfigError(f"objective weight must be finite and >= 0, got {weight}")
        if sum(weight for _, weight in entries) <= 0:
            raise ConfigError("objective weights must not all be zero")

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(kind for kind, _ in self.entries)


def composite_score(params: ModelParams, validation: TabularDataset, spec: ObjectiveSpec) -> float:
    """Weighted sum of the objective scores for one model."""
    return float(
        sum(weight * objective_score(kind, params, validation) for kind, weight in spec.entries)
    )


@dataclass(frozen=True)
class ScoreVector:
    """Per-client composite scores plus the raw per-objective values."""

    client_ids: tuple[int, ...]
    composite: tuple[float, ...]
    per_objective: tuple[dict, ...]

    def __post_init__(self):
        ids = tuple(int(c) for c in self.client_ids)
        comp = tuple(float(s) for s in self.composite)
        object.__setattr__(self, "client_ids", ids)
        object.__setattr__(self, "composite", comp)
        object.__setattr__(self, "per_objective", tuple(dict(d) for d in self.per_objective))
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate client ids in score vector: {ids}")
        if not (len(ids) == len(comp) == len(self.per_objective)):
            raise ConfigError("score vector fields must align")
        for s in comp:
            if not (np.isfinite(s) and s >= 0):
                raise ConfigError(f"composite scores must be finite and >= 0, got {s}")

    def __len__(self) -> int:
        return len(self.client_ids)
