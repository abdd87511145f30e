import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedval.data import TabularDataset
from fedval.errors import ConfigError, ShapeError
from fedval.model import (
    ModelParams,
    TrainConfig,
    _canonical_order,
    _sigmoid,
    classify,
    client_cfg,
    client_update,
    gradient,
    is_positive,
    loss,
    predict_proba,
)
from helpers import coverage_dataset, random_params, reference_client_update, reference_sigmoid

# Frozen oracle values, computed by hand from the closed forms.
# sigmoid(z) = 1 / (1 + exp(-z))
SIGMOID_1 = 0.7310585786300049
SIGMOID_2 = 0.8807970779778823
# mean BCE for w=[1], b=0 over rows (x=2, y=1) and (x=-1, y=0):
#   (ln(1 + e^-2) + ln(1 + e^-1)) / 2
TWO_ROW_LOSS = 0.22009484928059775


def _ds(features, labels, sensitive=None):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] == 1 and np.asarray(labels).size > 1:
        features = features.T
    labels = np.asarray(labels)
    if sensitive is None:
        sensitive = np.zeros(len(labels), dtype=int)
        sensitive[: len(labels) // 2] = 1
    return TabularDataset(features, labels, sensitive)


# ---------------------------------------------------------------------------
# params container
# ---------------------------------------------------------------------------


def test_zeros_factory():
    p = ModelParams.zeros(4)
    assert p.weights.tolist() == [0.0] * 4 and p.bias == 0.0


def test_params_require_finite():
    with pytest.raises(ShapeError):
        ModelParams(np.array([np.inf]), 0.0)
    with pytest.raises(ShapeError):
        ModelParams(np.array([1.0]), float("nan"))


def test_params_reject_matrix_weights():
    with pytest.raises(ShapeError):
        ModelParams(np.zeros((2, 2)), 0.0)


def test_params_roundtrip_dict_and_file(tmp_path):
    p = ModelParams(np.array([0.5, -1.25]), 3.0)
    q = ModelParams.from_dict(p.to_dict())
    assert np.array_equal(p.weights, q.weights) and p.bias == q.bias
    path = tmp_path / "m.json"
    p.save(path)
    r = ModelParams.load(path)
    assert np.array_equal(p.weights, r.weights) and p.bias == r.bias


def test_params_weights_are_readonly():
    p = ModelParams.zeros(2)
    with pytest.raises(ValueError):
        p.weights[0] = 1.0


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def test_predict_proba_matches_sigmoid_oracle():
    p = ModelParams(np.array([1.0]), 0.0)
    probs = predict_proba(p, np.array([[1.0], [2.0], [0.0]]))
    assert probs[0] == pytest.approx(SIGMOID_1, abs=1e-15)
    assert probs[1] == pytest.approx(SIGMOID_2, abs=1e-15)
    assert probs[2] == 0.5


def test_predict_proba_uses_bias():
    p = ModelParams(np.array([0.0]), 2.0)
    assert predict_proba(p, np.array([[123.0]]))[0] == pytest.approx(SIGMOID_2, abs=1e-15)


def test_predict_proba_extreme_logits_saturate_without_warnings():
    p = ModelParams(np.array([1.0]), 0.0)
    with np.errstate(over="raise", invalid="raise"):
        probs = predict_proba(p, np.array([[1000.0], [-1000.0]]))
    assert probs[0] == 1.0 and probs[1] == 0.0


def test_classify_threshold_and_tie():
    p = ModelParams(np.array([1.0]), 0.0)
    got = classify(p, np.array([[5.0], [-5.0], [0.0]]))
    assert got.tolist() == [1, 0, 1]  # exact 0.5 goes positive


def test_classify_custom_threshold():
    p = ModelParams(np.array([1.0]), 0.0)
    assert classify(p, np.array([[1.0], [2.0]]), threshold=0.75).tolist() == [0, 1]


def test_dimension_mismatch_raises():
    p = ModelParams.zeros(3)
    ds = _ds([[1.0, 2.0]], [1])
    with pytest.raises(ShapeError):
        predict_proba(p, ds.features)
    with pytest.raises(ShapeError):
        classify(p, ds.features)
    with pytest.raises(ShapeError):
        loss(p, ds)
    with pytest.raises(ShapeError):
        gradient(p, ds)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_matches_hand_oracle():
    p = ModelParams(np.array([1.0]), 0.0)
    ds = _ds([[2.0], [-1.0]], [1, 0])
    assert loss(p, ds) == pytest.approx(TWO_ROW_LOSS, abs=1e-12)


def test_loss_zero_params_is_ln2():
    ds = coverage_dataset(64, 3, seed=0)
    assert loss(ModelParams.zeros(3), ds) == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_is_finite_at_saturation():
    # perfectly separated and confidently wrong rows must both stay finite
    p = ModelParams(np.array([100.0]), 0.0)
    right = _ds([[50.0], [-50.0]], [1, 0])
    wrong = _ds([[50.0], [-50.0]], [0, 1])
    assert math.isfinite(loss(p, right))
    assert loss(p, right) < 1e-8
    # a fully saturated wrong prediction is capped near -ln(clamp) ~ 27.6
    assert 27.0 < loss(p, wrong) < 28.0


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_matches_hand_oracle():
    # at zeros, p = 0.5 for every row; single row x=(3,-2), y=1:
    #   dw = (0.5 - 1) * x = (-1.5, 1.0),  db = -0.5
    ds = _ds([[3.0, -2.0]], [1])
    gw, gb = gradient(ModelParams.zeros(2), ds)
    assert gw.tolist() == [-1.5, 1.0]
    assert gb == -0.5


def test_gradient_is_mean_not_sum():
    ds1 = _ds([[3.0, -2.0]], [1])
    ds4 = _ds([[3.0, -2.0]] * 4, [1, 1, 1, 1])
    g1 = gradient(ModelParams.zeros(2), ds1)
    g4 = gradient(ModelParams.zeros(2), ds4)
    assert np.allclose(g1[0], g4[0]) and g1[1] == g4[1]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(2, 40), dim=st.integers(1, 6))
def test_gradient_matches_finite_differences(seed, n, dim):
    rng = np.random.default_rng(seed)
    ds = TabularDataset(
        rng.standard_normal((n, dim)),
        rng.integers(0, 2, n),
        rng.integers(0, 2, n),
    )
    p = random_params(dim, seed=seed, scale=0.5)
    gw, gb = gradient(p, ds)
    eps = 1e-6
    for j in range(dim):
        w_hi = p.weights.copy()
        w_lo = p.weights.copy()
        w_hi[j] += eps
        w_lo[j] -= eps
        fd = (loss(ModelParams(w_hi, p.bias), ds) - loss(ModelParams(w_lo, p.bias), ds)) / (2 * eps)
        assert gw[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)
    fd_b = (loss(ModelParams(p.weights, p.bias + eps), ds) - loss(ModelParams(p.weights, p.bias - eps), ds)) / (2 * eps)
    assert gb == pytest.approx(fd_b, rel=1e-4, abs=1e-7)


# ---------------------------------------------------------------------------
# local training
# ---------------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0, batch_size=4, lr=0.1, seed=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=0, lr=0.1, seed=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=4, lr=0.0, seed=0)


def test_client_cfg_derives_distinct_per_client_seeds():
    cfg = TrainConfig(epochs=1, batch_size=4, lr=0.1, seed=99)
    c0, c1 = client_cfg(cfg, 0), client_cfg(cfg, 1)
    assert c0.seed != c1.seed != cfg.seed
    assert (c0.epochs, c0.batch_size, c0.lr) == (1, 4, 0.1)
    assert client_cfg(cfg, 0).seed == c0.seed  # stable


def test_single_full_batch_step_matches_gradient_oracle():
    # one epoch, batch covering everything: exactly one vanilla GD step
    ds = coverage_dataset(32, 2, seed=5)
    cfg = TrainConfig(epochs=1, batch_size=64, lr=0.3, seed=7)
    start = random_params(2, seed=1)
    gw, gb = gradient(start, ds)
    stepped = client_update(start, ds, cfg)
    assert np.allclose(stepped.weights, start.weights - 0.3 * gw, atol=1e-15)
    assert stepped.bias == pytest.approx(start.bias - 0.3 * gb, abs=1e-15)


def test_two_full_batch_epochs_match_two_steps():
    ds = coverage_dataset(16, 2, seed=6)
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.2, seed=3)
    p = random_params(2, seed=2)
    manual = p
    for _ in range(2):
        gw, gb = gradient(manual, ds)
        manual = ModelParams(manual.weights - 0.2 * gw, manual.bias - 0.2 * gb)
    trained = client_update(p, ds, cfg)
    assert np.allclose(trained.weights, manual.weights, atol=1e-14)
    assert trained.bias == pytest.approx(manual.bias, abs=1e-14)


def test_client_update_trains_last_partial_batch():
    # 5 rows, batch 4: only the trailing single-row batch moves the params
    # if the big batch is gradient-free, so make the first four rows carry
    # zero features and put all the signal in row five
    features = np.array([[0.0], [0.0], [0.0], [0.0], [10.0]])
    labels = np.array([1, 0, 1, 0, 1])
    ds = TabularDataset(features, labels, np.array([1, 0, 1, 0, 1]))
    cfg = TrainConfig(epochs=1, batch_size=4, lr=0.5, seed=0)
    out = client_update(ModelParams.zeros(1), ds, cfg)
    # whatever the shuffle, the x=10 row lands in some trained batch
    assert out.weights[0] != 0.0


def test_client_update_is_deterministic():
    ds = coverage_dataset(40, 3, seed=8)
    cfg = TrainConfig(epochs=3, batch_size=8, lr=0.1, seed=21)
    a = client_update(ModelParams.zeros(3), ds, cfg)
    b = client_update(ModelParams.zeros(3), ds, cfg)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_client_update_seed_changes_minibatch_path():
    ds = coverage_dataset(40, 3, seed=8)
    a = client_update(ModelParams.zeros(3), ds, TrainConfig(2, 8, 0.1, seed=1))
    b = client_update(ModelParams.zeros(3), ds, TrainConfig(2, 8, 0.1, seed=2))
    assert not (np.array_equal(a.weights, b.weights) and a.bias == b.bias)


def test_client_update_row_order_invariance():
    # same multiset of rows in any order must give bit-identical params
    ds = coverage_dataset(37, 4, seed=9)
    perm = np.random.default_rng(0).permutation(37)
    shuffled = ds.subset(perm)
    cfg = TrainConfig(epochs=2, batch_size=8, lr=0.15, seed=5)
    a = client_update(ModelParams.zeros(4), ds, cfg)
    b = client_update(ModelParams.zeros(4), shuffled, cfg)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), perm_seed=st.integers(0, 2**31))
def test_row_order_invariance_property(seed, perm_seed):
    ds = coverage_dataset(24, 2, seed=seed % 4096)
    perm = np.random.default_rng(perm_seed).permutation(24)
    cfg = TrainConfig(epochs=1, batch_size=5, lr=0.2, seed=seed)
    a = client_update(ModelParams.zeros(2), ds, cfg)
    b = client_update(ModelParams.zeros(2), ds.subset(perm), cfg)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias



@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 400),
    dim=st.integers(1, 12),
    batch=st.integers(1, 64),
    epochs=st.integers(1, 3),
    lr=st.floats(1e-3, 5.0),
    scale=st.floats(1e-2, 100.0),
)
@example(seed=1, n=1, dim=1, batch=1, epochs=1, lr=0.1, scale=1.0)
@example(seed=2, n=20, dim=5, batch=64, epochs=2, lr=5.0, scale=100.0)  # batch > n
@example(seed=3, n=400, dim=12, batch=63, epochs=3, lr=1.0, scale=1.0)  # ragged last batch of 22
def test_client_update_equals_the_per_batch_reference(seed, n, dim, batch, epochs, lr, scale):
    # exactness bound: none.  The one-gather-per-epoch loop with its in-place
    # step must repeat the reference's float operations bit for bit.
    rng = np.random.default_rng(seed)
    ds = TabularDataset(scale * rng.standard_normal((n, dim)), rng.integers(0, 2, n), rng.integers(0, 2, n))
    start = random_params(dim, seed=seed % 977)
    cfg = TrainConfig(epochs=epochs, batch_size=batch, lr=lr, seed=seed)
    got = client_update(start, ds, cfg)
    want = reference_client_update(start, ds, cfg)
    assert np.array_equal(got.weights, want.weights)
    assert got.bias == want.bias

def test_training_reduces_loss_on_separable_data():
    ds = coverage_dataset(200, 3, seed=10)
    cfg = TrainConfig(epochs=10, batch_size=32, lr=0.5, seed=0)
    start = ModelParams.zeros(3)
    trained = client_update(start, ds, cfg)
    assert loss(trained, ds) < loss(start, ds)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), perm_seed=st.integers(0, 2**31))
def test_loss_row_permutation_invariance(seed, perm_seed):
    ds = coverage_dataset(41, 3, seed=seed % 4096)
    params = random_params(3, seed=seed % 977)
    perm = np.random.default_rng(perm_seed).permutation(41)
    assert loss(params, ds) == loss(params, ds.subset(perm))


def test_classify_is_thresholded_proba():
    rng = np.random.default_rng(44)
    features = rng.standard_normal((200, 4))
    params = random_params(4, seed=6)
    got = classify(params, features)
    assert np.array_equal(got, (predict_proba(params, features) >= 0.5).astype(np.int64))


def test_is_positive_equals_the_sigmoid_rule():
    # exactness bound: none; the sign shortcut must never change a decision
    tiny = np.array([-1e-17, -2.0**-54, -5.55e-17, -1e-16, -1e-13, -1e-12, -1e-11, 0.0, -0.0, 5e-324, -5e-324])
    near = np.nextafter(tiny, -np.inf)
    rng = np.random.default_rng(3)
    spread = np.concatenate([rng.standard_normal(500), -(10.0 ** rng.uniform(-20, 3, 1998)), [-800.0, 800.0]])
    for z in (tiny, near, spread, spread.reshape(5, -1)):
        assert np.array_equal(is_positive(z), _sigmoid(z) >= 0.5)
        assert np.array_equal(is_positive(z, 0.75), _sigmoid(z) >= 0.75)
    assert is_positive(np.array([-1e-17]))[0]



def test_sigmoid_equals_the_piecewise_reference():
    # exactness bound: none, compared as bit patterns.  Each element takes the
    # float operations of its piecewise branch.
    edges = np.array([0.0, 1e-17, 1e-12, 709.0, 745.0, 1e308, np.inf])
    rng = np.random.default_rng(11)
    spread = rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-20, 3, 10**6)
    for z in (np.concatenate([edges, -edges]), spread):
        got, want = _sigmoid(z), reference_sigmoid(z)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), perm_seed=st.integers(0, 2**31))
def test_cached_canonical_order_equals_reference(seed, perm_seed):
    ds = coverage_dataset(30, 3, seed=seed % 4096)
    # repeated rows exercise the label and group tie-breaks
    shuffled = ds.subset(np.random.default_rng(perm_seed).integers(0, 30, 45))
    order = shuffled.canonical_order
    assert np.array_equal(order, _canonical_order(shuffled))
    assert shuffled.canonical_order is order
    assert not order.flags.writeable


def test_two_point_separable_descent_is_monotone():
    # full-batch steps at a small rate must cut the loss every single step
    ds = TabularDataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), np.array([1, 0]))
    cfg = TrainConfig(epochs=1, batch_size=4, lr=0.1, seed=0)
    params = ModelParams.zeros(1)
    for _ in range(50):
        stepped = client_update(params, ds, cfg)
        assert loss(stepped, ds) < loss(params, ds)
        params = stepped
