import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedval.metrics
import fedval.model
from fedval.data import GROUP_A, GROUP_D, TabularDataset
from fedval.errors import ConfigError, FedValError, MissingGroupError, MissingPositivesError, ShapeError
from fedval.metrics import (
    ObjectiveSpec,
    ScoreVector,
    accuracy,
    composite_score,
    eod,
    _block_logits,
    objective_score,
    positive_counts,
    spd,
)
from fedval.model import ModelParams, classify, gradient, loss
from helpers import (
    UNIT_MODEL,
    coverage_dataset,
    pattern_dataset,
    random_case,
    random_params,
    reference_accuracy,
    reference_eod,
    reference_gradient,
    reference_loss,
    reference_positive_counts,
    reference_proba,
    reference_spd,
)


def counting_oracle(preds, labels, groups):
    """Brute-force recount of all three metrics from prediction tuples."""
    rows = list(zip(preds, labels, groups))
    acc = sum(1 for p, y, _ in rows if p == y) / len(rows)

    def pos_rate(g):
        sub = [p for p, _, gg in rows if gg == g]
        return sum(sub) / len(sub)

    def tpr(g):
        sub = [p for p, y, gg in rows if gg == g and y == 1]
        return sum(sub) / len(sub)

    return acc, abs(pos_rate(GROUP_A) - pos_rate(GROUP_D)), abs(tpr(GROUP_A) - tpr(GROUP_D))


# ---------------------------------------------------------------------------
# point fixtures with hand-counted values
# ---------------------------------------------------------------------------

# 8 rows: (pred, label, group); designed so every cell is populated
EIGHT = dict(
    preds=[1, 0, 1, 1, 0, 0, 1, 0],
    labels=[1, 0, 0, 1, 1, 0, 1, 1],
    groups=[GROUP_A, GROUP_A, GROUP_A, GROUP_A, GROUP_D, GROUP_D, GROUP_D, GROUP_D],
)
# by hand:
#   correct = rows 0,1,3,5,6 -> acc = 5/8
#   pos rate a = 3/4, pos rate d = 1/4 -> spd = 0.5
#   tpr a = 2/2, tpr d = 1/3          -> eod = 2/3


def test_accuracy_hand_count():
    ds = pattern_dataset(**EIGHT)
    assert accuracy(UNIT_MODEL, ds) == 5 / 8


def test_spd_hand_count():
    ds = pattern_dataset(**EIGHT)
    assert spd(UNIT_MODEL, ds) == 0.5


def test_eod_hand_count():
    ds = pattern_dataset(**EIGHT)
    assert eod(UNIT_MODEL, ds) == 1 - 1 / 3  # tpr_a = 2/2, tpr_d = 1/3


def test_metrics_match_counting_oracle_exactly():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n = int(rng.integers(8, 60))
        preds = rng.integers(0, 2, n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        groups = rng.integers(0, 2, n).tolist()
        # ensure defined: both groups present, positives in both groups
        preds[:4] = [1, 0, 1, 0]
        labels[:4] = [1, 1, 1, 1]
        groups[:4] = [GROUP_A, GROUP_A, GROUP_D, GROUP_D]
        ds = pattern_dataset(preds, labels, groups)
        got_preds = classify(UNIT_MODEL, ds.features)
        assert got_preds.tolist() == preds  # pattern encoding is faithful
        acc, s, e = counting_oracle(preds, labels, groups)
        assert accuracy(UNIT_MODEL, ds) == acc
        assert spd(UNIT_MODEL, ds) == s
        assert eod(UNIT_MODEL, ds) == e


def _outcome(metric, params, ds):
    try:
        return np.float64(metric(params, ds)).view(np.int64)
    except (MissingGroupError, MissingPositivesError) as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 400),
    dim=st.integers(1, 40),  # both sides of metrics._CONTIGUOUS_DIM
    scale=st.floats(1e-2, 1e2),
    labels=st.sampled_from(("mixed", "mixed", 0, 1)),
    groups=st.sampled_from(("mixed", "mixed", 0, 1)),
    tie_row=st.booleans(),
)
@example(seed=6, n=1, dim=1, scale=1.0, labels=1, groups=1, tie_row=True)
@example(seed=7, n=5, dim=2, scale=1.0, labels="mixed", groups=0, tie_row=False)
def test_metrics_equal_the_plain_reference(seed, n, dim, scale, labels, groups, tie_row):
    # exactness bound: none.  The cell-count metrics must give the bits of
    # the frequencies over classify's labels, and the same error where one
    # is undefined (same type, same message, same group checked first).
    params, ds = random_case(seed, n, dim, scale, labels=labels, groups=groups, tie_row=tie_row)
    for metric, reference in ((accuracy, reference_accuracy), (spd, reference_spd), (eod, reference_eod)):
        assert _outcome(metric, params, ds) == _outcome(reference, params, ds)


# ---------------------------------------------------------------------------
# shared evaluation passes: loss/gradient share one probability pass per
# (model, dataset), the global metrics one classification
# ---------------------------------------------------------------------------

_EVALUATIONS = {
    "loss": (loss, reference_loss),
    "gradient": (gradient, reference_gradient),
    "accuracy": (accuracy, reference_accuracy),
    "spd": (spd, reference_spd),
    "eod": (eod, reference_eod),
}


def _bits_or_error(evaluate, params, ds):
    try:
        value = evaluate(params, ds)
    except FedValError as exc:
        return type(exc), str(exc)
    if isinstance(value, tuple):  # gradient
        grad_w, grad_b = value
        bits = (grad_w.view(np.int64).tolist(), np.float64(grad_b).view(np.int64).item())
        grad_w[:] = np.nan  # a caller that scribbles on its result must not reach the cache
        return bits
    return np.float64(value).view(np.int64).item()


def _live(slot):
    """A cache slot's (params, dataset, value), or None once either input is gone."""
    if slot is None:
        return None
    params, ds = slot[0](), slot[1]()
    return None if params is None or ds is None else (params, ds, slot[2])


def _reference_outcome(name, params, ds):
    if name in ("loss", "gradient") and ds.dim != params.dim:
        return ShapeError, f"model expects {params.dim} features, dataset has {ds.dim}"
    return _bits_or_error(_EVALUATIONS[name][1], params, ds)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    dim=st.integers(1, 6),
    calls=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from(tuple(_EVALUATIONS))),
        min_size=1,
        max_size=30,
    ),
)
@example(seed=0, dim=3, calls=[(0, 0, "gradient"), (0, 0, "loss"), (1, 0, "loss"), (1, 0, "gradient")])
@example(seed=1, dim=2, calls=[(0, 1, "accuracy"), (0, 2, "spd"), (0, 1, "spd"), (1, 1, "eod"), (0, 1, "eod")])
@example(seed=2, dim=4, calls=[(3, 0, "loss"), (3, 3, "loss"), (3, 0, "gradient"), (3, 3, "accuracy"), (3, 0, "eod")])
def test_interleaved_evaluations_equal_the_plain_reference(seed, dim, calls):
    # exactness bound: none.  Results read from a shared pass must carry the
    # plain formulas' bits whatever ran before.  Params 1 equals params 0 in
    # value but is a distinct object; dataset 2 has a single group, so spd
    # and eod raise on it; dataset 3 has one feature too many.
    first = random_params(dim, seed % 977)
    models = (
        first,
        ModelParams(first.weights.copy(), first.bias),
        random_params(dim, seed % 977 + 1),
        random_params(dim, seed % 977 + 2, scale=1e2),  # most probabilities clamped
    )
    datasets = (
        coverage_dataset(31, dim, seed % 4096),
        coverage_dataset(57, dim, seed % 4096 + 1),
        random_case(seed, 23, dim, 1.0, groups=1)[1],
        coverage_dataset(19, dim + 1, seed % 4096 + 2),
    )
    for model_index, data_index, name in calls:
        params, ds = models[model_index], datasets[data_index]
        got = _bits_or_error(_EVALUATIONS[name][0], params, ds)
        assert got == _reference_outcome(name, params, ds), (model_index, data_index, name)
        # every cached pass is read-only and still holds its inputs' values
        cached = _live(fedval.model._last_pass)
        if cached is not None:
            cached_params, cached_ds, proba = cached
            assert not proba.flags.writeable
            want = reference_proba(cached_params, cached_ds.features)
            assert np.array_equal(proba.view(np.int64), want.view(np.int64))
        cached = _live(fedval.metrics._last_counts)
        if cached is not None:
            cached_params, cached_ds, counts = cached
            assert counts == tuple(classify(cached_params, cached_ds.features) @ cached_ds.cells)


def test_spd_is_symmetric_in_groups():
    ds = pattern_dataset(**EIGHT)
    flipped = TabularDataset(ds.features, ds.labels, 1 - ds.sensitive)
    assert spd(UNIT_MODEL, ds) == spd(UNIT_MODEL, flipped)


def test_spd_zero_for_identical_group_behavior():
    preds = [1, 0, 1, 0]
    labels = [1, 0, 1, 1]
    groups = [GROUP_A, GROUP_A, GROUP_D, GROUP_D]
    ds = pattern_dataset(preds, labels, groups)
    assert spd(UNIT_MODEL, ds) == 0.0


def test_spd_missing_group_names_the_gap():
    ds = pattern_dataset([1, 0], [1, 0], [GROUP_A, GROUP_A])
    with pytest.raises(MissingGroupError, match="'d'"):
        spd(UNIT_MODEL, ds)


def test_eod_missing_positives_is_specific_error():
    # both groups present, but group d has no positive labels
    ds = pattern_dataset([1, 0, 1], [1, 1, 0], [GROUP_A, GROUP_A, GROUP_D])
    with pytest.raises(MissingPositivesError):
        eod(UNIT_MODEL, ds)
    # spd is still well-defined on the same data: rates 1/2 vs 1/1
    assert spd(UNIT_MODEL, ds) == 0.5


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31))
def test_metric_ranges_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 50))
    preds = rng.integers(0, 2, n).tolist()
    labels = rng.integers(0, 2, n).tolist()
    groups = rng.integers(0, 2, n).tolist()
    preds[:4] = [1, 0, 0, 1]
    labels[:4] = [1, 1, 1, 1]
    groups[:4] = [GROUP_A, GROUP_A, GROUP_D, GROUP_D]
    ds = pattern_dataset(preds, labels, groups)
    for metric in (accuracy, spd, eod):
        v = metric(UNIT_MODEL, ds)
        assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# objective scores (higher is better)
# ---------------------------------------------------------------------------


def test_objective_score_transforms():
    ds = pattern_dataset(**EIGHT)
    assert objective_score("accuracy", UNIT_MODEL, ds) == 5 / 8
    assert objective_score("spd", UNIT_MODEL, ds) == 0.5  # 1 - 0.5
    assert objective_score("eod", UNIT_MODEL, ds) == pytest.approx(1 / 3)


def test_objective_score_unknown_kind():
    ds = pattern_dataset(**EIGHT)
    with pytest.raises(ConfigError, match="f1"):
        objective_score("f1", UNIT_MODEL, ds)


# ---------------------------------------------------------------------------
# ObjectiveSpec and composites
# ---------------------------------------------------------------------------


def test_objective_spec_normalizes_kinds():
    spec = ObjectiveSpec((("Accuracy", 1.0), ("SPD", 2.0)))
    assert spec.kinds == ("accuracy", "spd")


def test_objective_spec_rejects_an_unknown_kind():
    with pytest.raises(ConfigError, match="^unknown objective kind 'fairness'$"):
        ObjectiveSpec((("accuracy", 1.0), ("Fairness", 1.0)))


def test_objective_spec_rejects_duplicates_and_bad_weights():
    with pytest.raises(ConfigError):
        ObjectiveSpec((("accuracy", 1.0), ("accuracy", 2.0)))
    with pytest.raises(ConfigError):
        ObjectiveSpec((("accuracy", -1.0),))
    with pytest.raises(ConfigError):
        ObjectiveSpec((("accuracy", 0.0),))  # weights must sum positive
    with pytest.raises(ConfigError):
        ObjectiveSpec(())


def test_composite_is_weighted_sum():
    ds = pattern_dataset(**EIGHT)
    spec = ObjectiveSpec((("accuracy", 2.0), ("spd", 1.0), ("eod", 0.5)))
    expected = 2.0 * (5 / 8) + 1.0 * 0.5 + 0.5 * (1 / 3)
    assert composite_score(UNIT_MODEL, ds, spec) == pytest.approx(expected, abs=1e-15)


def test_composite_single_objective_equals_score():
    ds = pattern_dataset(**EIGHT)
    spec = ObjectiveSpec((("eod", 3.0),))
    assert composite_score(UNIT_MODEL, ds, spec) == pytest.approx(3.0 * (1 / 3))


def test_composite_on_trained_model_is_positive():
    ds = coverage_dataset(120, 3, seed=4)
    spec = ObjectiveSpec((("accuracy", 1.0), ("spd", 1.0), ("eod", 1.0)))
    assert composite_score(random_params(3, seed=1), ds, spec) > 0.0


# ---------------------------------------------------------------------------
# ScoreVector
# ---------------------------------------------------------------------------


def test_score_vector_alignment_checks():
    sv = ScoreVector((0, 1), (0.5, 0.7), ({"accuracy": 0.5}, {"accuracy": 0.7}))
    assert len(sv) == 2
    with pytest.raises(ConfigError):
        ScoreVector((0, 0), (0.5, 0.7), ({}, {}))  # duplicate ids
    with pytest.raises(ConfigError):
        ScoreVector((0, 1), (0.5,), ({},))  # misaligned lengths
    with pytest.raises(ConfigError):
        ScoreVector((0, 1), (0.5, float("nan")), ({}, {}))
    with pytest.raises(ConfigError):
        ScoreVector((0, 1), (0.5, -0.1), ({}, {}))


def test_metrics_are_row_permutation_invariant():
    ds = coverage_dataset(53, 3, seed=77)
    params = random_params(3, seed=5)
    perm = np.random.default_rng(3).permutation(53)
    shuffled = ds.subset(perm)
    assert accuracy(params, ds) == accuracy(params, shuffled)
    assert spd(params, ds) == spd(params, shuffled)
    assert eod(params, ds) == eod(params, shuffled)


def test_composite_score_is_linear_in_weights():
    ds = coverage_dataset(40, 2, seed=21)
    params = random_params(2, seed=8)
    base = (("accuracy", 0.7), ("spd", 1.3), ("eod", 0.4))
    score = composite_score(params, ds, ObjectiveSpec(base))
    for alpha in (0.1, 3.0, 100.0):
        scaled = ObjectiveSpec(tuple((k, alpha * w) for k, w in base))
        assert composite_score(params, ds, scaled) == pytest.approx(alpha * score, rel=1e-12)


# ---------------------------------------------------------------------------
# positive_counts' layout against the strided reference
# ---------------------------------------------------------------------------


def _scoring_case(seed, k, dim, n, scale):
    rng = np.random.default_rng(seed)
    dataset = TabularDataset(
        rng.standard_normal((n, dim)), rng.integers(0, 2, n), rng.integers(0, 2, n)
    )
    return scale * rng.standard_normal((k, dim)), scale * rng.standard_normal(k), dataset


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 13),
    dim=st.integers(1, 24),
    n=st.one_of(st.integers(1, 64), st.integers(65, 5000)),
    scale=st.sampled_from((1e-3, 1.0, 1e3)),
)
@example(seed=0, k=100, dim=8, n=4000, scale=1.0)  # the fedval-100 preset's shape
@example(seed=1, k=101, dim=8, n=4000, scale=1.0)  # a one-model tail block
@example(seed=2, k=9, dim=15, n=5000, scale=1.0)
@example(seed=3, k=5, dim=16, n=500, scale=1.0)
def test_positive_counts_equal_the_strided_reference(seed, k, dim, n, scale):
    # exactness bound: none.  Every block's logits, and so every count, are
    # the bits of the product with the strided features.T, for K = 1 mod 4
    # (a one-model tail block) and on both sides of _CONTIGUOUS_DIM
    weights, biases, dataset = _scoring_case(seed, k, dim, n, scale)
    want_counts, want_sizes, want_blocks = reference_positive_counts(weights, biases, dataset)
    blocks = [logits for _, logits in _block_logits(weights, biases, dataset)]
    assert len(blocks) == len(want_blocks)
    for got, want in zip(blocks, want_blocks):
        assert got.tobytes() == want.tobytes()
    counts, sizes = positive_counts(weights, biases, dataset)
    assert counts.tobytes() == want_counts.tobytes() and sizes.tobytes() == want_sizes.tobytes()


def test_global_metrics_of_a_huge_model_take_its_logits_by_sign():
    # x0 * 1e308 overflows to +-inf for |x0| > 1.8: no numpy warning (an error
    # under this suite's settings), and each row is classified as by the unit model
    ds = coverage_dataset(80, 2, seed=8)
    ds = TabularDataset(ds.features * 4.0, ds.labels, ds.sensitive)
    huge, unit = ModelParams(np.array([1e308, 0.0]), 0.0), ModelParams(np.array([1.0, 0.0]), 0.0)
    assert np.count_nonzero(np.abs(ds.features[:, 0]) > 1.8) > 10
    for metric in (accuracy, spd, eod):
        assert metric(huge, ds) == metric(unit, ds)


def test_features_t_is_a_read_only_contiguous_transpose():
    ds = coverage_dataset(30, 4, seed=2)
    t = ds.features_t
    assert t.flags.c_contiguous and not t.flags.writeable
    assert np.array_equal(t, ds.features.T) and ds.features_t is t
