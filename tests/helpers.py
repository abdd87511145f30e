"""Shared construction helpers for the test suite."""

import csv
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from fedval.data import GROUP_A, GROUP_D, TabularDataset
from fedval.errors import (
    MissingGroupError,
    MissingPositivesError,
    NumericOverflowError,
    ShapeError,
)
from fedval.metrics import _BLOCK, OBJECTIVE_KINDS, accuracy, eod, spd
from fedval.model import _CLAMP, ModelParams, TrainConfig, classify, client_update, is_positive
from fedval.reporting import CSV_COLUMNS, RoundWriter, read_jsonl
from fedval.seeding import derive_seed
from fedval.server import AggregationWeights


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


def random_case(seed, n, dim, scale, labels="mixed", groups="mixed", tie_row=False):
    """Random (params, dataset) for exactness properties.

    `scale` multiplies the parameters, so at 1e2 most probabilities reach
    the loss clamp.  `labels`/`groups` "mixed" draws both values, 0 or 1
    fixes the column.  With `tie_row`, row 0 has a logit of exactly -1e-17,
    whose sigmoid rounds to 0.5.
    """
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, dim))
    columns = [
        rng.integers(0, 2, n) if kind == "mixed" else np.full(n, kind)
        for kind in (labels, groups)
    ]
    weights = scale * rng.standard_normal(dim)
    bias = float(scale * rng.standard_normal())
    if tie_row:
        features[0] = 0.0
        features[0, 0] = -1e-17
        weights[0], bias = 1.0, 0.0
    return ModelParams(weights, bias), TabularDataset(features, *columns)


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


def reference_canonical_order(dataset):
    """Lexicographic row order of (features, label, group), the order the
    cached TabularDataset.canonical_order must give."""
    keys = [dataset.sensitive, dataset.labels]
    keys.extend(dataset.features[:, j] for j in range(dataset.dim - 1, -1, -1))
    return np.lexsort(keys)


def reference_synthetic_arrays(n, dim, group_positive_rates, seed):
    """The (features, labels, groups) that data.generate_synthetic must give,
    built with whole-array temporaries: center plus noise, rows permuted last."""
    rng = np.random.default_rng(seed)
    n_a = (n + 1) // 2
    labels = np.concatenate([
        (rng.random(n_a) < group_positive_rates[0]).astype(np.int64),
        (rng.random(n - n_a) < group_positive_rates[1]).astype(np.int64),
    ])
    groups = np.concatenate([np.full(n_a, GROUP_A, dtype=np.int64), np.full(n - n_a, GROUP_D, dtype=np.int64)])
    label_dir = np.ones(dim) / np.sqrt(dim)
    group_dir = np.array([1.0 if j % 2 == 0 else -1.0 for j in range(dim)]) / np.sqrt(dim)
    centers = (
        0.9 * (2.0 * labels - 1.0)[:, None] * label_dir[None, :]
        + 1.25 * (2.0 * groups - 1.0)[:, None] * group_dir[None, :]
    )
    features = centers + rng.standard_normal((n, dim))
    perm = rng.permutation(n)
    return features[perm], labels[perm], groups[perm]


def client_cfg(cfg, client_id):
    """The per-client view of a round's TrainConfig: `cfg` reseeded from
    `derive_seed(cfg.seed, "client", client_id)`, as `dataclasses.replace` gives."""
    return TrainConfig(cfg.epochs, cfg.batch_size, cfg.lr, derive_seed(cfg.seed, "client", client_id))


def reference_train_clients(params, clients, cfg):
    """One `client_update` per client on the public path: the client's own
    TrainConfig from `client_cfg`, and `default_rng` of its seed."""
    return [client_update(params, c.data, client_cfg(cfg, c.client_id)) for c in clients]


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


def reference_proba(params, features):
    return reference_sigmoid(features @ params.weights + params.bias)


def reference_loss(params, dataset):
    """Mean clamped cross-entropy, y log p + (1 - y) log(1 - p) per row,
    summed in sorted order."""
    p = np.clip(reference_proba(params, dataset.features), _CLAMP, 1.0 - _CLAMP)
    y = dataset.labels
    terms = y * np.log(p) + (1 - y) * np.log(1.0 - p)
    return float(-np.mean(np.sort(terms)))


def reference_gradient(params, dataset):
    """(mean (p - y) x, mean (p - y)), out of place."""
    err = reference_proba(params, dataset.features) - dataset.labels
    return dataset.features.T @ err / dataset.n, float(err.mean())


# the metrics as frequencies over classify's hard labels, with the fast
# path's error types and messages

_GROUP_NAMES = {GROUP_A: "a", GROUP_D: "d"}


def reference_accuracy(params, dataset):
    pred = classify(params, dataset.features)
    return float(np.mean(pred == dataset.labels))


def reference_spd(params, dataset):
    pred = classify(params, dataset.features)
    shares = []
    for group_value in (GROUP_A, GROUP_D):
        mask = dataset.sensitive == group_value
        if not mask.any():
            raise MissingGroupError(
                f"spd: dataset has no rows for group {_GROUP_NAMES[group_value]!r}"
            )
        shares.append(float(pred[mask].mean()))
    return abs(shares[0] - shares[1])


def reference_eod(params, dataset):
    pred = classify(params, dataset.features)
    rates = []
    for group_value in (GROUP_A, GROUP_D):
        mask = (dataset.sensitive == group_value) & (dataset.labels == 1)
        if not mask.any():
            raise MissingPositivesError(
                f"eod: no positive-label rows for group {_GROUP_NAMES[group_value]!r}"
            )
        rates.append(float(pred[mask].mean()))
    return abs(rates[0] - rates[1])


# ---------------------------------------------------------------------------
# references for the one-pass report writer
# ---------------------------------------------------------------------------


# a round object's keys, its `global` object's and each client's, in the order the writer writes them
ROUND_KEYS = ("round", "global", "rs_spread", "clients")
GLOBAL_KEYS = ("accuracy", "spd", "eod")
CLIENT_KEYS = ("client_id", "behavior", "n", "local_loss", "scores", "composite", "p", "rs")


def reference_round(round_index, global_metrics, clients, info):
    """The round object that `RoundWriter.write` of the same arguments must write.

    Its rounds.jsonl line is `json.dumps` of this object.  Clients follow
    ascending client id and take their p, loss, scores, composite and rank
    mass from `info` by id.  With rank mass in `info`, `rs_spread` is its
    max/min over `clients` (None while some client has none).
    """
    p = dict(zip(info.weights.client_ids, info.weights.p))
    scores, composite, rs = {}, {}, {}
    if info.scores is not None:
        scores = dict(zip(info.scores.client_ids, info.scores.per_objective))
        composite = dict(zip(info.scores.client_ids, info.scores.composite))
    if info.rank is not None:
        rs = info.rank.rs
    records = [
        {
            "client_id": c.client_id,
            "behavior": c.behavior,
            "n": c.n,
            "local_loss": info.losses[c.client_id],
            "scores": scores.get(c.client_id),
            "composite": composite.get(c.client_id),
            "p": p[c.client_id],
            "rs": rs.get(c.client_id),
        }
        for c in sorted(clients, key=lambda c: c.client_id)
    ]
    rs_spread = None
    if info.rank is not None:
        masses = [rs.get(c["client_id"], 0.0) for c in records]
        if min(masses) > 0:
            rs_spread = max(masses) / min(masses)
    return {
        "round": round_index,
        "global": dict(zip(GLOBAL_KEYS, global_metrics)),
        "rs_spread": rs_spread,
        "clients": records,
    }


def written_report(round_index, params, validation, clients, info):
    """The round object a run writes for one round, read back through `read_jsonl`.

    The global metrics are `params`' accuracy, SPD and EOD on `validation`,
    as `run_experiment` hands them to the writer.
    """
    global_metrics = (accuracy(params, validation), spd(params, validation), eod(params, validation))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with RoundWriter(out) as writer:
            writer.write(round_index, global_metrics, clients, info)
        [report] = read_jsonl(out / "rounds.jsonl")
    return report


def reference_csv_rows(report):
    """Flatten one round object into rounds.csv rows (clients first, then the global row).

    A missing value is an empty cell; any other value is its `str`, so a
    numpy float prints as the Python float it equals.
    """
    round_cell = str(report["round"])
    rows = []
    for c in report["clients"]:
        scores = c["scores"] or {}
        row = [round_cell, "client", str(c["client_id"]), c["behavior"], str(c["n"])]
        for v in (*map(scores.get, OBJECTIVE_KINDS), c["composite"], c["p"], c["rs"], c["local_loss"]):
            row.append("" if v is None else str(v))
        row += ("", "", "")  # the global-metric columns
        rows.append(row)
    glob = report["global"]
    rs_spread, acc, spd, eod = (
        "" if v is None else str(v) for v in (report["rs_spread"], glob["accuracy"], glob["spd"], glob["eod"])
    )
    blanks = ("",) * (3 + len(OBJECTIVE_KINDS) + 2)  # client fields, scores, composite, p
    rows.append([round_cell, "global", *blanks, rs_spread, "", acc, spd, eod])
    return rows


def library_bytes(reports):
    """The rounds.jsonl and rounds.csv bytes of round objects: `json.dumps` and `csv.writer` over each."""
    want_csv = io.StringIO(newline="")
    rows = csv.writer(want_csv)
    rows.writerow(CSV_COLUMNS)
    for report in reports:
        rows.writerows(reference_csv_rows(report))
    want_jsonl = "".join(json.dumps(report) + "\n" for report in reports)
    return want_jsonl.encode("utf-8"), want_csv.getvalue().encode("utf-8")



# ---------------------------------------------------------------------------
# references for AFL's server step
# ---------------------------------------------------------------------------


def reference_project_simplex(v):
    """Simplex projection in numpy array operations: a descending sort, its
    cumsum, and the last index that passes, found with nonzero."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"simplex projection needs a non-empty vector, got shape {v.shape}")
    u = np.sort(v)[::-1]
    with np.errstate(over="ignore"):
        css = np.cumsum(u)
    if not math.isfinite(css[-1]):
        raise NumericOverflowError(f"simplex projection: the entries sum to {css[-1]}")
    positions = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - css) / positions > 0)[0][-1]  # IndexError if none passes
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def uniform_mixture(client_ids):
    """AFL's first mixture over `client_ids`: 1 / K each, as `run_experiment` starts it."""
    ids = tuple(client_ids)
    return AggregationWeights(ids, [1.0 / len(ids)] * len(ids))


def reference_afl_step(global_params, mixture, lr_lambda, lr, grads, losses):
    """AFL's server step on the flat parameter vector [w, b].

    `mixture` is the `AggregationWeights` the step uses and `lr_lambda` its
    ascent rate.  `grads` maps each client id to its (gw, gb) and `losses`
    to its loss, both at `global_params`.  Returns the new global model, the
    next mixture and the mixture the step used, in ascending client id.
    """
    lam = dict(zip(mixture.client_ids, mixture.p))
    ids = sorted(grads)
    flat = np.concatenate([global_params.weights, [global_params.bias]])
    mixed = np.zeros(flat.size)
    for cid in ids:
        gw, gb = grads[cid]
        mixed[:-1] += lam[cid] * gw
        mixed[-1] += lam[cid] * gb
    vec = flat - lr * mixed
    ascended = np.array([lam[cid] + lr_lambda * losses[cid] for cid in ids])
    return (
        ModelParams(vec[:-1], float(vec[-1])),
        reference_project_simplex(ascended),
        np.array([lam[cid] for cid in ids]),
    )


# ---------------------------------------------------------------------------
# reference for q-FFL's server step
# ---------------------------------------------------------------------------


def reference_q_round(global_params, clients, directions, qcfg):
    """One q-FFL round as a plain loop over the clients in ascending id.

    `directions` maps each client id to its flat update direction d_k.  With
    F_k the loss at `global_params`, delta_k = F_k**q * d_k and
    h_k = q F_k**(q-1) |d_k|^2 + L F_k**q (L F_k**q alone at q = 0); the
    flat model moves by sum(delta) / sum(h), each sum taken by np.sum.
    Returns the new model, the weights h_k / sum(h) by id and the losses.
    """
    q, L = qcfg.q, qcfg.lipschitz
    deltas, hs, losses = [], {}, {}
    for c in sorted(clients, key=lambda c: c.client_id):
        f = reference_loss(global_params, c.data)
        d = directions[c.client_id]
        norm2 = float(d @ d)
        h = L * f**q if q == 0 else q * f ** (q - 1.0) * norm2 + L * f**q
        deltas.append(f**q * d)
        hs[c.client_id] = h
        losses[c.client_id] = f
    total_h = float(np.sum(list(hs.values())))
    flat = np.concatenate([global_params.weights, [global_params.bias]])
    vec = flat - np.sum(deltas, axis=0) / total_h
    weights = {cid: h / total_h for cid, h in hs.items()}
    return ModelParams(vec[:-1], float(vec[-1])), weights, losses


# ---------------------------------------------------------------------------
# references for the per-client bookkeeping and the scoring layout
# ---------------------------------------------------------------------------


def reference_derive_seed(*parts):
    """Seed derivation that feeds sha256 one part at a time: each part's
    repr, UTF-8 encoded, then a NUL byte."""
    h = hashlib.sha256()
    for part in parts:
        if not isinstance(part, (int, str)):
            raise TypeError(f"seed scope parts must be int or str, got {type(part).__name__}")
        h.update(repr(part).encode())
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "little")


def reference_model_params(weights, bias):
    """ModelParams' copy and checks with `np.isfinite(w).all()` and the
    `flags` attribute; returns the (weights, bias) a model stores."""
    w = np.add(weights, 0.0, dtype=np.float64)
    if w.ndim != 1:
        raise ShapeError(f"weights must be 1-d, got shape {w.shape}")
    b = float(bias)
    if not (np.isfinite(w).all() and math.isfinite(b)):
        raise ShapeError("model parameters must be finite")
    w.flags.writeable = False
    return w, b


def reference_positive_counts(weights, biases, dataset):
    """`metrics.positive_counts` with every block multiplied by the strided
    `features.T`.  Returns the (4, K) counts, the (4,) cell sizes and the
    list of each block's logits."""
    counts = np.empty((len(weights), dataset.cells.shape[1]))
    blocks = []
    for start in range(0, len(weights), _BLOCK):
        block = slice(start, start + _BLOCK)
        logits = weights[block] @ dataset.features.T + biases[block, None]
        counts[block] = is_positive(logits) @ dataset.cells
        blocks.append(logits)
    return counts.T, dataset.cell_sizes, blocks
