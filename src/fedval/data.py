"""Tabular datasets for federated simulation.

A dataset is a float feature matrix plus two binary columns: the label and
a sensitive-group indicator (1 = advantaged group "a", 0 = disadvantaged
group "d").  This module covers the full data path: CSV ingestion under an
explicit schema, synthetic generation, label-rate skewing (the adversarial
client model), partitioning into client shards, and the validation split.

All randomness is drawn from explicit seeds; every function is pure.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .codec import STR, Section, list_of
from .errors import (
    ConfigError,
    DataError,
    EmptyDatasetError,
    InfeasibleSkewError,
    InvalidPartitionError,
    InvalidValidationSplitError,
    RowParseError,
    SchemaError,
)
from .seeding import derive_seed

GROUP_D = 0  # disadvantaged
GROUP_A = 1  # advantaged

BEHAVIORS = ("cooperative", "normal", "uncooperative")

# the (group, label) cells a1, a0, d1, d0 that group metrics count over, in
# the column order of TabularDataset.cells
CELLS = ((GROUP_A, 1), (GROUP_A, 0), (GROUP_D, 1), (GROUP_D, 0))

# bounded retries for the validation-split coverage requirement
_SPLIT_RETRIES = 32

# the size of one block of generate_synthetic's noise draws
_NOISE_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class TabularDataset:
    """Immutable feature matrix with binary labels and group membership."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int, values {0, 1}
    sensitive: np.ndarray  # (n,) int, values {0=d, 1=a}

    def __post_init__(self):
        # private copies: a caller that re-enables writes on its own arrays
        # must not reach the rows (or the caches derived from them)
        self._own(
            np.array(self.features, dtype=np.float64, order="C"),
            np.array(self.labels, dtype=np.int64, order="C"),
            np.array(self.sensitive, dtype=np.int64, order="C"),
        )

    def _own(self, feats, labels, sens):
        """Check the three arrays, mark them read-only and keep them as the dataset's own."""
        if feats.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {feats.shape}")
        n = feats.shape[0]
        if n < 1:
            raise EmptyDatasetError("dataset must contain at least one row")
        if labels.shape != (n,) or sens.shape != (n,):
            raise DataError(
                f"row count mismatch: features {n}, labels {labels.shape}, sensitive {sens.shape}"
            )
        if not np.isfinite(feats).all():
            raise DataError("features contain non-finite values")
        if not ((labels == 0) | (labels == 1)).all():
            raise DataError("labels must be binary 0/1")
        if not ((sens == 0) | (sens == 1)).all():
            raise DataError("sensitive column must be binary 0/1")
        for arr, name in ((feats, "features"), (labels, "labels"), (sens, "sensitive")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def _adopt(cls, features, labels, sensitive) -> "TabularDataset":
        """A dataset that takes over arrays this module has just built, without copying them.

        The checks are the public constructor's.  No other reference to the
        arrays may outlive the call: they become the dataset's read-only rows.
        """
        dataset = object.__new__(cls)
        dataset._own(
            np.asarray(features, dtype=np.float64, order="C"),
            np.asarray(labels, dtype=np.int64, order="C"),
            np.asarray(sensitive, dtype=np.int64, order="C"),
        )
        return dataset

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def canonical_order(self) -> np.ndarray:
        """Row indices in lexicographic order of (features, label, group), read-only.

        Computed once per dataset: the arrays are immutable, so the order
        cannot go stale.  When the first feature column has no tie (-0.0
        and 0.0 tie), one stable argsort of it is already that order; only
        a tie needs the full lexsort.
        """
        order = None
        if self.dim:
            first = self.features[:, 0]
            order = np.argsort(first, kind="stable")
            ranked = first[order]
            if (ranked[1:] == ranked[:-1]).any():
                order = None
        if order is None:
            keys = [self.sensitive, self.labels]
            keys.extend(self.features[:, j] for j in range(self.dim - 1, -1, -1))
            order = np.lexsort(keys)
        order.flags.writeable = False
        return order

    @cached_property
    def features_t(self) -> np.ndarray:
        """(d, n) C-contiguous copy of `features.T`, read-only; see `metrics._block_logits`."""
        t = np.ascontiguousarray(self.features.T)
        t.flags.writeable = False
        return t

    @cached_property
    def cells(self) -> np.ndarray:
        """(n, 4) float64 membership of each row in the `CELLS`, read-only."""
        members = np.array(
            [(self.sensitive == g) & (self.labels == y) for g, y in CELLS], dtype=np.float64
        ).T
        members.flags.writeable = False
        return members

    @cached_property
    def cell_sizes(self) -> np.ndarray:
        """(4,) row count of each of the `CELLS`, exact integers in float64, read-only."""
        sizes = self.cells.sum(axis=0)
        sizes.flags.writeable = False
        return sizes

    def subset(self, indices) -> "TabularDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return TabularDataset._adopt(
            self.features.take(idx, axis=0), self.labels.take(idx), self.sensitive.take(idx)
        )


@dataclass(frozen=True)
class ColumnSpec:
    """One raw CSV column: numeric (z-scored) or categorical (one-hot)."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        object.__setattr__(self, "categories", tuple(self.categories))
        if self.kind == "categorical" and not self.categories:
            raise SchemaError(f"column {self.name!r}: categorical columns must declare categories")
        if self.kind == "numeric" and self.categories:
            raise SchemaError(f"column {self.name!r}: numeric columns take no categories")
        if len(set(self.categories)) != len(self.categories):
            raise SchemaError(f"column {self.name!r}: duplicate categories")


@dataclass(frozen=True)
class DatasetSchema:
    """Declares how raw CSV columns map onto features, label, and group."""

    features: tuple[ColumnSpec, ...]
    label: str
    label_positive: str
    sensitive: str
    sensitive_advantaged: str

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise SchemaError("schema declares no feature columns")
        names = [c.name for c in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature column names")
        if self.label == self.sensitive:
            raise SchemaError("label and sensitive columns must differ")
        for special in (self.label, self.sensitive):
            if special in names:
                raise SchemaError(f"column {special!r} cannot be both special and a feature")

    @staticmethod
    def from_dict(raw) -> "DatasetSchema":
        try:
            return SCHEMA_TABLE.decode(raw, "schema")
        except ConfigError as exc:  # a fault the codec finds is a SchemaError too
            raise SchemaError(*exc.args) from None

    def to_dict(self) -> dict:
        return SCHEMA_TABLE.encode(self)


# The JSON form of a schema, in a schema file or a config's `csv.schema`.  A
# numeric column is written without its (empty) categories.
SCHEMA_TABLE = Section(DatasetSchema, {
    "features": list_of(Section(
        ColumnSpec, {"name": STR, "kind": STR, "categories": list_of(STR)}, sparse=("categories",)
    )),
    "label": Section(
        None, {"column": STR, "positive": STR}, required=("column", "positive"),
        attrs={"column": "label", "positive": "label_positive"},
    ),
    "sensitive": Section(
        None, {"column": STR, "advantaged": STR}, required=("column", "advantaged"),
        attrs={"column": "sensitive", "advantaged": "sensitive_advantaged"},
    ),
}, required=("label", "sensitive"))


@dataclass(frozen=True)
class SkewSpec:
    """Subsampling recipe that biases a shard's label distribution.

    ratio: positive-rate ratio rate_d / rate_a to enforce, in (0, 1].
    retain: fraction of rows kept (per group) before the ratio adjustment.
    group: which group's positives are subsampled to hit the ratio.
    """

    ratio: float
    retain: float = 1.0
    group: str = "d"

    def __post_init__(self):
        if not (0.0 < self.ratio <= 1.0):
            raise DataError(f"skew ratio must lie in (0, 1], got {self.ratio}")
        if not (0.0 < self.retain <= 1.0):
            raise DataError(f"skew retain fraction must lie in (0, 1], got {self.retain}")
        if self.group not in ("a", "d"):
            raise DataError(f"skew group must be 'a' or 'd', got {self.group!r}")


@dataclass(frozen=True)
class ClientSpec:
    """Requested behavior for one simulated client."""

    behavior: str = "cooperative"
    skew: SkewSpec | None = None

    def __post_init__(self):
        if self.behavior not in BEHAVIORS:
            raise DataError(f"unknown behavior {self.behavior!r}; expected one of {BEHAVIORS}")


@dataclass(frozen=True)
class ClientProfile:
    """A client's local shard plus its declared behavior."""

    client_id: int
    behavior: str
    data: TabularDataset
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.data.n)


def load_csv(path, schema: DatasetSchema) -> TabularDataset:
    """Read a comma-separated file (UTF-8, header row) under `schema`.

    Numeric columns are z-score standardized over the whole file; a
    zero-variance column becomes all zeros.  Categorical columns expand to
    one-hot indicators in declared category order.  Cells are whitespace-
    stripped before interpretation; empty cells are hard errors.  Columns
    not mentioned by the schema are ignored.  A leading UTF-8 byte-order
    mark, as Excel's "CSV UTF-8" export writes, is dropped.  A row csv cannot
    read (a cell over its field size limit) is a RowParseError.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise EmptyDatasetError(f"{path}: file is empty") from None
    except csv.Error as exc:  # e.g. a cell over csv's field size limit
        raise RowParseError(f"{path}: header: {exc}") from None
    col_index = {name: i for i, name in enumerate(header)}
    needed = [c.name for c in schema.features] + [schema.label, schema.sensitive]
    for name in needed:
        if name not in col_index:
            raise SchemaError(f"{path}: column {name!r} not found in header")
        if header.count(name) > 1:
            raise SchemaError(f"{path}: column {name!r} appears more than once in header")

    rows, labels, sens = [], [], []
    for rownum in itertools.count(1):
        try:
            raw = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:  # e.g. a cell over csv's field size limit
            raise RowParseError(f"{path}: row {rownum}: {exc}") from None
        if len(raw) != len(header):
            raise RowParseError(
                f"{path}: row {rownum}: expected {len(header)} cells, got {len(raw)}"
            )
        cells = [c.strip() for c in raw]
        for name in needed:
            if cells[col_index[name]] == "":
                raise RowParseError(f"{path}: row {rownum}: column {name!r} is empty")
        feats: list[float] = []
        for spec in schema.features:
            cell = cells[col_index[spec.name]]
            if spec.kind == "numeric":
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan  # not a number: reported below
                if not math.isfinite(value):  # nan, inf or 1e400 would reach the z-scores
                    raise RowParseError(
                        f"{path}: row {rownum}: column {spec.name!r}: "
                        f"cannot parse {cell!r} as a finite number"
                    )
                feats.append(value)
            else:
                if cell not in spec.categories:
                    raise RowParseError(
                        f"{path}: row {rownum}: column {spec.name!r}: "
                        f"value {cell!r} not in declared categories"
                    )
                feats.extend(1.0 if cell == cat else 0.0 for cat in spec.categories)
        labels.append(int(cells[col_index[schema.label]] == schema.label_positive))
        sens.append(int(cells[col_index[schema.sensitive]] == schema.sensitive_advantaged))
        rows.append(feats)

    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")

    features = np.asarray(rows, dtype=np.float64)
    # standardize only the numeric source columns; one-hot stays 0/1
    widths = [len(spec.categories) or 1 for spec in schema.features]  # numeric: 1
    for spec, offset in zip(schema.features, np.cumsum([0] + widths)):
        if spec.kind == "numeric":
            col = features[:, offset]
            try:
                with np.errstate(over="raise", invalid="raise"):
                    # a constant column can have a tiny or overflowing float
                    # std; min == max decides that its variance is zero
                    if col.min() == col.max():
                        features[:, offset] = 0.0
                    else:
                        # distinct values whose squared deviations underflow
                        # are standardized on the column scaled to a largest
                        # magnitude of 1, which the z-scores do not change
                        if col.var() < np.finfo(np.float64).tiny:
                            col = col / np.abs(col).max()
                        features[:, offset] = (col - col.mean()) / col.std()
            except FloatingPointError:
                raise DataError(
                    f"{path}: column {spec.name!r}: values too large to standardize "
                    "(their mean or spread leaves the float range)"
                ) from None
    return TabularDataset._adopt(features, labels, sens)


def generate_synthetic(n: int, dim: int, group_positive_rates, seed: int) -> TabularDataset:
    """Sample a learnable binary-classification dataset with two groups.

    Rows split evenly between groups a and d (group a takes the odd row).
    Labels are Bernoulli with the per-group positive rate.  Features are
    unit Gaussians shifted along two fixed directions, one by the label and
    one by the group, so a linear model can recover the label while group
    membership stays visible in the features.
    """
    if n < 2:
        raise DataError(f"synthetic dataset needs n >= 2, got {n}")
    if dim < 1:
        raise DataError(f"synthetic dataset needs dim >= 1, got {dim}")
    rate_a, rate_d = float(group_positive_rates[0]), float(group_positive_rates[1])
    for rate in (rate_a, rate_d):
        if not (0.0 <= rate <= 1.0):
            raise DataError(f"positive rate {rate} outside [0, 1]")

    rng = np.random.default_rng(seed)
    n_a = (n + 1) // 2
    n_d = n - n_a
    labels = np.concatenate(
        [
            (rng.random(n_a) < rate_a).astype(np.int64),
            (rng.random(n_d) < rate_d).astype(np.int64),
        ]
    )
    groups = np.concatenate(
        [np.full(n_a, GROUP_A, dtype=np.int64), np.full(n_d, GROUP_D, dtype=np.int64)]
    )

    # signal strengths chosen so the label is learnable (~0.8 accuracy at
    # unit noise) while group membership stays visible enough that training
    # on label-skewed shards produces measurably biased models
    label_dir = np.ones(dim) / np.sqrt(dim)
    group_dir = np.array([1.0 if j % 2 == 0 else -1.0 for j in range(dim)]) / np.sqrt(dim)
    # features = center + noise, with center = 0.9 (2y - 1) label_dir
    # + 1.25 (2g - 1) group_dir, built in place in one (n, dim) buffer; the
    # groups are two row blocks, so the group term is one row per block
    features = np.multiply((0.9 * (2.0 * labels - 1.0))[:, None], label_dir)
    features[:n_a] += 1.25 * group_dir  # 2g - 1 = 1.0 for group a
    features[n_a:] += -1.25 * group_dir  # and -1.0 for group d
    # the noise is drawn and added one block of rows at a time, so no
    # (n, dim) temporary is made.  Generator's float64 normals carry no
    # state between calls: the blocks take the draws of one whole-array
    # call, in the same order
    rows = max(1, _NOISE_BLOCK_BYTES // (8 * dim))
    for start in range(0, n, rows):
        block = features[start : start + rows]
        block += rng.standard_normal(block.shape)

    perm = rng.permutation(n)
    return TabularDataset._adopt(features.take(perm, axis=0), labels[perm], groups[perm])


def _group_stats(labels, sensitive, group_value):
    mask = sensitive == group_value
    total = int(mask.sum())
    pos = int(labels[mask].sum())
    return total, pos


def skew(dataset: TabularDataset, spec: SkewSpec, seed: int) -> TabularDataset:
    """Subsample `dataset` until rate_d equals spec.ratio * rate_a.

    Only removes rows (never fabricates): first keeps `retain` of each
    group, then drops positives of the target group until the positive-rate
    ratio holds up to integer rounding of counts.
    """
    rng = np.random.default_rng(seed)
    keep = np.arange(dataset.n)

    for group_value in (GROUP_A, GROUP_D):
        if not (dataset.sensitive == group_value).any():
            name = "a" if group_value == GROUP_A else "d"
            raise InfeasibleSkewError(f"dataset has no rows for group {name!r}")

    if spec.retain < 1.0:
        kept_parts = []
        for group_value in (GROUP_A, GROUP_D):
            members = keep[dataset.sensitive[keep] == group_value]
            target = max(1, int(round(spec.retain * len(members))))
            kept_parts.append(rng.choice(members, size=target, replace=False))
        keep = np.sort(np.concatenate(kept_parts))

    labels = dataset.labels[keep]
    sens = dataset.sensitive[keep]
    target_value = GROUP_A if spec.group == "a" else GROUP_D
    n_t, pos_t = _group_stats(labels, sens, target_value)
    n_o, pos_o = _group_stats(labels, sens, GROUP_D if spec.group == "a" else GROUP_A)
    other_rate = pos_o / n_o
    current_rate = pos_t / n_t

    # solving rate_d = ratio * rate_a for the target group's new rate
    if spec.group == "d":
        wanted = spec.ratio * other_rate
        bound = "at most" if other_rate > 0 else "exactly"
        achievable = current_rate / other_rate if other_rate > 0 else None
    else:
        wanted = other_rate / spec.ratio
        achievable = other_rate / current_rate if current_rate > 0 else None
        bound = "at least"

    if wanted > current_rate + 1e-12:
        msg = f"requested ratio {spec.ratio} infeasible by subsampling group {spec.group!r} positives"
        if achievable is not None:
            msg += f"; achievable ratio is {bound} {achievable:.6f}"
        raise InfeasibleSkewError(msg)

    if wanted >= 1.0:
        removals = 0
    else:
        removals = int(round((pos_t - wanted * n_t) / (1.0 - wanted)))
        removals = min(max(removals, 0), pos_t)
    if n_t - removals < 1:
        raise InfeasibleSkewError(
            f"requested ratio {spec.ratio} would empty group {spec.group!r}"
        )

    if removals > 0:
        candidates = keep[(dataset.sensitive[keep] == target_value) & (dataset.labels[keep] == 1)]
        keep = keep[~np.isin(keep, rng.choice(candidates, size=removals, replace=False))]

    return dataset.subset(keep)


def partition(dataset: TabularDataset, profiles, seed: int) -> list[ClientProfile]:
    """Deal rows into near-equal client shards, then apply per-client skew.

    Shard sizes differ by at most one before skewing; remainder rows go to
    the lowest-indexed shards.  Each skew draws from a seed derived from
    (seed, shard index) so shards stay independent.
    """
    profiles = list(profiles)
    if not profiles:
        raise InvalidPartitionError("need at least one client profile")
    if len(profiles) > dataset.n:
        raise InvalidPartitionError(
            f"cannot split {dataset.n} rows across {len(profiles)} clients"
        )
    perm = np.random.default_rng(seed).permutation(dataset.n)
    base, extra = divmod(dataset.n, len(profiles))

    clients = []
    start = 0
    for i, spec in enumerate(profiles):
        size = base + (1 if i < extra else 0)
        shard = dataset.subset(np.sort(perm[start : start + size]))
        start += size
        if spec.skew is not None:
            shard = skew(shard, spec.skew, derive_seed(seed, "skew", i))
        clients.append(ClientProfile(client_id=i, behavior=spec.behavior, data=shard))
    return clients


def _covers(values) -> bool:
    """Whether a 0/1 column holds both values (np.unique would import numpy.ma)."""
    return 0 < np.count_nonzero(values) < len(values)


def split_validation(dataset: TabularDataset, fraction: float, seed: int):
    """Split off a validation side that covers both groups and both labels.

    Returns (train, validation).  The validation side holds round(fraction
    * n) rows; the shuffle is re-drawn (bounded retries) until validation
    contains at least one row of each group and each label.
    """
    if not (0.0 < fraction < 1.0):
        raise InvalidValidationSplitError(f"fraction must lie in (0, 1), got {fraction}")
    m = int(round(fraction * dataset.n))
    if m < 1 or dataset.n - m < 1:
        raise InvalidValidationSplitError(
            f"fraction {fraction} leaves an empty side for {dataset.n} rows"
        )
    if not (_covers(dataset.sensitive) and _covers(dataset.labels)):
        raise InvalidValidationSplitError(
            "dataset lacks a group or a label value; no split can cover both"
        )

    for attempt in range(_SPLIT_RETRIES):
        perm = np.random.default_rng(derive_seed(seed, "validation", attempt)).permutation(
            dataset.n
        )
        val_idx = perm[:m]
        if _covers(dataset.sensitive[val_idx]) and _covers(dataset.labels[val_idx]):
            train = dataset.subset(np.sort(perm[m:]))
            validation = dataset.subset(np.sort(val_idx))
            return train, validation
    raise InvalidValidationSplitError(
        f"validation side missed a group or label in {_SPLIT_RETRIES} shuffles"
    )
