"""Accuracy and group-fairness metrics, plus weighted composite scores.

Fairness gaps follow the usual statistical definitions on hard predictions:

  spd: |P(pred=1 | group a) - P(pred=1 | group d)|
  eod: |P(pred=1 | group a, y=1) - P(pred=1 | group d, y=1)|

Both are plain frequency counts.  For scoring, every objective is mapped to
a higher-is-better value in [0, 1]: accuracy stays as-is, the gaps become
1 - gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import GROUP_A, GROUP_D, TabularDataset
from .errors import ConfigError, MissingGroupError, MissingPositivesError, ShapeError
from .model import ModelParams, _reuse_last, is_positive

OBJECTIVE_KINDS = ("accuracy", "spd", "eod")

_GROUP_NAMES = {GROUP_A: "a", GROUP_D: "d"}

# models classified per block in `positive_counts`: the (block, n) logits are
# the pass's working set.  On the fedval-100 preset (4000 validation rows)
# 8- and 16-model blocks raised peak RSS by 0.4 and 1.1 MB over 4-model
# blocks, with no round-time gain that could be told from noise
_BLOCK = 4
# features below which a 2-4 model block's gemm gives the same bits for the
# contiguous `features_t` as for the strided `features.T`: none of 2,942 random
# shapes with 1-15 features differed, half of those with 16-31 did (OpenBLAS
# 0.3.31, Haswell kernels, 1 or 2 threads)
_CONTIGUOUS_DIM = 16


def _metric_values(kind: str, counts: np.ndarray, sizes: np.ndarray):
    """Accuracy, or the SPD or EOD gap, from positive-prediction counts per cell.

    `counts` holds four floats for one model or four (K,) arrays for K
    models, in the order of `data.CELLS`; `sizes` holds the four cell sizes.
    Every rate divides an exact integer count by an exact integer size, as
    a frequency over the predictions does, so the values are the counting
    definitions' bits.
    """
    a1, a0, d1, d0 = counts
    na1, na0, nd1, nd0 = sizes
    if kind == "accuracy":
        return (a1 + d1 + (na0 - a0) + (nd0 - d0)) / (na1 + na0 + nd1 + nd0)
    if kind == "spd":
        for group_value, rows in ((GROUP_A, na1 + na0), (GROUP_D, nd1 + nd0)):
            if rows == 0:
                raise MissingGroupError(
                    f"spd: dataset has no rows for group {_GROUP_NAMES[group_value]!r}"
                )
        return abs((a1 + a0) / (na1 + na0) - (d1 + d0) / (nd1 + nd0))
    if kind == "eod":
        for group_value, rows in ((GROUP_A, na1), (GROUP_D, nd1)):
            if rows == 0:
                raise MissingPositivesError(
                    f"eod: no positive-label rows for group {_GROUP_NAMES[group_value]!r}"
                )
        return abs(a1 / na1 - d1 / nd1)
    raise ConfigError(f"unknown objective kind {kind!r}; expected one of {OBJECTIVE_KINDS}")


@_reuse_last
def _global_counts(params: ModelParams, dataset: TabularDataset):
    """`positive_counts` of the one model `params`, and the cell sizes.

    One classification per (model, dataset): accuracy, spd and eod of the
    same model share it.  The four counts and sizes are Python floats,
    whose arithmetic is float64's without numpy's per-scalar dispatch.
    """
    counts, sizes = positive_counts(params.weights[None], np.array([params.bias]), dataset)
    return tuple(counts[:, 0].tolist()), tuple(sizes.tolist())


def accuracy(params: ModelParams, dataset: TabularDataset) -> float:
    """Fraction of rows classified correctly."""
    return _metric_values("accuracy", *_global_counts(params, dataset))


def spd(params: ModelParams, dataset: TabularDataset) -> float:
    """Absolute gap in positive prediction rate between the two groups."""
    return _metric_values("spd", *_global_counts(params, dataset))


def eod(params: ModelParams, dataset: TabularDataset) -> float:
    """Absolute true-positive-rate gap between the two groups."""
    return _metric_values("eod", *_global_counts(params, dataset))


def objective_score(kind: str, params: ModelParams, validation: TabularDataset) -> float:
    """Higher-is-better score in [0, 1] for one objective kind."""
    return objective_scores(kind, *_global_counts(params, validation))


def positive_counts(weights: np.ndarray, biases: np.ndarray, dataset: TabularDataset):
    """Positive predictions of K logistic models per (group, label) cell.

    `weights` is (K, d) and `biases` (K,).  The models are classified a few
    at a time with `is_positive`'s rule, so the pass never holds more than a
    narrow block of predictions.  One model (K = 1, as the global metrics
    ask for each round) is one gemv on `features.T`, the bits of a
    one-model block, without the block loop.  Returns the (4, K) counts and
    the (4,) cell sizes, both exact integers in float64.  Logits that
    overflow raise no numpy warning; `is_positive` takes them as it says.
    """
    if weights.shape[1] != dataset.dim:
        raise ShapeError(f"features must be (n, {weights.shape[1]}), got {dataset.features.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # once per call, not per block
        if len(weights) == 1:
            logits = weights[0].dot(dataset.features.T)
            logits += biases[0]
            return is_positive(logits).dot(dataset.cells)[:, None], dataset.cell_sizes
        counts = np.empty((len(weights), dataset.cells.shape[1]))
        for block, logits in _block_logits(weights, biases, dataset):
            counts[block] = is_positive(logits).dot(dataset.cells)
    return counts.T, dataset.cell_sizes


def _block_logits(weights: np.ndarray, biases: np.ndarray, dataset: TabularDataset):
    """(block, `weights[block] @ features.T + biases[block]`) for each block of models.

    With fewer than `_CONTIGUOUS_DIM` features, a block of two or more
    models multiplies by the contiguous `features_t`, which skips the
    repacking of the strided transpose.  A one-model block (K = 1 mod 4)
    runs as a gemv, whose bits do depend on the layout, so it keeps
    `features.T`; so does every block with more features.
    """
    contiguous = dataset.dim < _CONTIGUOUS_DIM
    for start in range(0, len(weights), _BLOCK):
        block = slice(start, start + _BLOCK)
        w = weights[block]
        # w.dot(m) is the product w @ m, bit for bit, with less dispatch
        logits = w.dot(dataset.features_t if contiguous and len(w) > 1 else dataset.features.T)
        logits += biases[block, None]  # in place: the same sum without a second (block, n) array
        yield block, logits


def objective_scores(kind: str, counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Higher-is-better score of every model from its `positive_counts`.

    The values come from the cell-count formulas of `accuracy`, `spd` and
    `eod`, and the gaps become 1 - gap.  Four (K,) count arrays give a (K,)
    array; the four floats of one model, as `objective_score` passes them,
    give a float.
    """
    values = _metric_values(kind, counts, sizes)
    return values if kind == "accuracy" else 1.0 - values


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
            if not (weight >= 0 and math.isfinite(weight)):
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


def _check_mass(values, error) -> float:
    """The sum of `values`, each of which must be finite and >= 0.

    Otherwise raises `error(i, v)` for the first entry v, at position i,
    that is not.
    """
    total = sum(values)
    # a finite sum of entries >= 0 has every entry finite: the loop only names the culprit
    if not (math.isfinite(total) and min(values, default=0.0) >= 0):
        for i, v in enumerate(values):
            if not 0.0 <= v < math.inf:
                raise error(i, v)
    return total


@dataclass(frozen=True)
class ScoreVector:
    """Per-client composite scores plus the raw per-objective values."""

    client_ids: tuple[int, ...]
    composite: tuple[float, ...]
    per_objective: tuple[dict, ...]

    def __post_init__(self):
        ids = tuple(map(int, self.client_ids))
        comp = tuple(map(float, self.composite))
        object.__setattr__(self, "client_ids", ids)
        object.__setattr__(self, "composite", comp)
        object.__setattr__(self, "per_objective", tuple(map(dict, self.per_objective)))
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate client ids in score vector: {ids}")
        if not (len(ids) == len(comp) == len(self.per_objective)):
            raise ConfigError("score vector fields must align")
        _check_mass(comp, lambda i, s: ConfigError(f"composite scores must be finite and >= 0, got {s}"))

    def __len__(self) -> int:
        return len(self.client_ids)
