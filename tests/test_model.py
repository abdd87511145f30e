import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedval.model
from fedval.data import ClientProfile, TabularDataset
from fedval.errors import ConfigError, NumericOverflowError, ShapeError
from fedval.model import (
    ModelParams,
    TrainConfig,
    _sigmoid,
    classify,
    client_update,
    gradient,
    is_positive,
    loss,
    predict_proba,
    train_clients,
)
from fedval.seeding import derive_seed
from helpers import (
    client_cfg,
    coverage_dataset,
    random_case,
    random_params,
    reference_canonical_order,
    reference_client_update,
    reference_gradient,
    reference_loss,
    reference_model_params,
    reference_proba,
    reference_sigmoid,
    reference_train_clients,
)

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


@pytest.mark.parametrize("make", [
    lambda: ModelParams(np.ones(3), 0.0),
    lambda: TabularDataset(np.ones((2, 3)), [0, 1], [1, 0]),
    lambda: ClientProfile(0, "cooperative", TabularDataset(np.ones((2, 3)), [0, 1], [1, 0])),
], ids=["ModelParams", "TabularDataset", "ClientProfile"])
def test_holders_of_arrays_compare_and_hash_by_identity(make):
    # the generated __eq__ and __hash__ compared and hashed the arrays: == of
    # two equal-valued objects raised "truth value ... is ambiguous", and hash()
    # "unhashable type"
    a, b = make(), make()
    assert a == a and not a == b and a != b
    keys = {a: "a", b: "b"}
    assert len(keys) == 2 and keys[a] == "a" and keys[b] == "b"


@pytest.mark.parametrize(
    "raw", [{"weights": [1.0]}, {"weights": [1.0], "bias": 10**400}, {"weights": "ab", "bias": 0.0}, [1.0]]
)
def test_params_from_a_malformed_dict_is_a_config_error(raw):
    with pytest.raises(ConfigError, match="malformed model parameters"):
        ModelParams.from_dict(raw)


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"weights": ["1", True], "bias": True, "extra": 1}, "unknown model parameters keys: ['extra']"),
        ({"weights": ["1", 2.0], "bias": 0.0}, "malformed model parameters: weights[0] must be a number, got '1'"),
        ({"weights": [1.0, True], "bias": 0.0}, "malformed model parameters: weights[1] must be a number, got True"),
        ({"weights": [[1.0]], "bias": 0.0}, "malformed model parameters: weights[0] must be a number"),
        ({"weights": [1.0], "bias": True}, "malformed model parameters: bias must be a number, got True"),
        ({"weights": [1.0], "bias": "0"}, "malformed model parameters: bias must be a number, got '0'"),
        ({"weights": [1.0], "bias": None}, "malformed model parameters: bias must be a number, got None"),
        ({"bias": 0.0}, "malformed model parameters: weights is missing"),
    ],
)
def test_params_from_dict_is_strict(raw, message):
    with pytest.raises(ConfigError) as info:
        ModelParams.from_dict(raw)
    assert str(info.value).startswith(message)


_weights = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 1.7976931348623157e308, -0.0, 0.0)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_weights, max_size=12), _weights)
@example([5e-324, -0.0, 1e308, -1e308, 1e-310], -0.0)
def test_params_round_trip_through_a_file_bit_for_bit(tmp_path_factory, weights, bias):
    p = ModelParams(np.array(weights, dtype=np.float64), bias)
    path = tmp_path_factory.mktemp("model") / "m.json"
    p.save(path)
    for q in (ModelParams.from_dict(json.loads(json.dumps(p.to_dict()))), ModelParams.load(path)):
        assert q.weights.tobytes() == p.weights.tobytes()
        assert struct.pack("<d", q.bias) == struct.pack("<d", p.bias)
    assert path.read_text() == json.dumps(p.to_dict(), indent=2) + "\n"


def test_params_weights_are_readonly():
    p = ModelParams.zeros(2)
    with pytest.raises(ValueError):
        p.weights[0] = 1.0


def test_params_store_a_negative_zero_weight_as_positive_zero():
    p = ModelParams(np.array([-0.0, 0.0, -1.5]), -0.0)
    assert p.weights.view(np.int64).tolist() == np.array([0.0, 0.0, -1.5]).view(np.int64).tolist()
    assert math.copysign(1.0, p.bias) == -1.0  # the bias is kept as given


def test_params_keep_a_private_copy_of_the_weights():
    # the caller still owns its array and may make it writeable again
    w = np.zeros(3)
    p = ModelParams(w, 0.0)
    w.flags.writeable = True
    w[0] = 1.0
    assert p.weights.tolist() == [0.0, 0.0, 0.0]


_PARAM_FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf, 1.5)),
    st.floats(),
)
_WEIGHTS = st.one_of(
    st.lists(_PARAM_FLOATS, min_size=1, max_size=9).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.floats(width=32), min_size=1, max_size=9).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=9).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.one_of(_PARAM_FLOATS, st.integers(-(10**6), 10**6)), min_size=1, max_size=9),
    st.just(np.zeros((2, 2))),
)


@settings(max_examples=300, deadline=None)
@given(weights=_WEIGHTS, bias=st.one_of(_PARAM_FLOATS, st.integers(-(10**6), 10**6), st.just(np.float32(2.5))))
@example(weights=np.array([-0.0, 1e308, -1e308]), bias=-0.0)
@example(weights=np.array([1.0, math.nan]), bias=math.inf)
@example(weights=[3, -0.0], bias=7)
def test_params_equal_the_reference_checks(weights, bias):
    # exactness bound: none.  The stored weights, bit for bit (a -0.0 weight
    # stored as +0.0), the bias, and every error type and message equal the
    # checks made with ndarray.all and the flags attribute
    try:
        want = reference_model_params(weights, bias)
    except ShapeError as exc:
        with pytest.raises(ShapeError) as got:
            ModelParams(weights, bias)
        assert str(got.value) == str(exc)
        return
    params = ModelParams(weights, bias)
    assert params.weights.dtype == np.float64 and params.weights.tobytes() == want[0].tobytes()
    assert math.copysign(1.0, params.bias) == math.copysign(1.0, want[1]) and params.bias == want[1]
    assert not params.weights.flags.writeable
    assert not np.shares_memory(params.weights, weights)


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
    assert c1 == dataclasses.replace(cfg, seed=derive_seed(cfg.seed, "client", 1))


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
@example(seed=6, n=33, dim=4, batch=32, epochs=2, lr=0.5, scale=1.0)  # last batch of one row
@example(seed=7, n=400, dim=1, batch=32, epochs=2, lr=0.1, scale=1.0)  # one feature
@example(seed=8, n=10, dim=6, batch=32, epochs=3, lr=1.0, scale=100.0)  # n < batch, every epoch
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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), bias=st.floats(-3.0, 3.0), lr=st.floats(1e-3, 5.0))
@example(seed=0, bias=0.0, lr=0.1)
def test_client_update_from_a_negative_zero_weight_equals_the_reference(seed, bias, lr):
    # exactness bound: none, down to the sign of a zero.  On an all-zero
    # feature column every step's gradient entry is a zero, and the last
    # batch of one row (n = 33, batch 32) makes err.dot(xb) return -0.0
    # where the reference's xb.T @ err returns +0.0.  Started from a -0.0
    # weight the two steps would end at +0.0 and -0.0; ModelParams stores
    # the weight as +0.0, so both start and end there.
    rng = np.random.default_rng(seed)
    ds = TabularDataset(np.zeros((33, 1)), rng.integers(0, 2, 33), rng.integers(0, 2, 33))
    start = ModelParams(np.array([-0.0]), bias)
    cfg = TrainConfig(epochs=2, batch_size=32, lr=lr, seed=seed)
    got = client_update(start, ds, cfg)
    want = reference_client_update(start, ds, cfg)
    assert got.weights.view(np.int64).tolist() == want.weights.view(np.int64).tolist()
    assert np.float64(got.bias).view(np.int64) == np.float64(want.bias).view(np.int64)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 400),
    dim=st.integers(1, 12),
    scale=st.floats(1e-2, 1e2),
    labels=st.sampled_from(("mixed", 0, 1)),
    tie_row=st.booleans(),
)
@example(seed=4, n=1, dim=1, scale=1.0, labels=1, tie_row=True)
@example(seed=5, n=300, dim=12, scale=1e2, labels=0, tie_row=False)  # every row clamped
# one row at p == 1 and a negative feature: err is 0.0, and err.dot(features)
# or features.T.dot(err) would return -0.0 where the reference's gemv gives +0.0
@example(seed=92, n=1, dim=1, scale=19.0, labels=1, tie_row=False)
def test_proba_loss_and_gradient_equal_the_plain_reference(seed, n, dim, scale, labels, tie_row):
    # exactness bound: none.  The one-pass in-place probabilities, loss and
    # gradient must reproduce the plain formulas' float64 bits, and classify
    # the plain probabilities' threshold.
    params, ds = random_case(seed, n, dim, scale, labels=labels, tie_row=tie_row)
    got_p, want_p = predict_proba(params, ds.features), reference_proba(params, ds.features)
    assert np.array_equal(got_p.view(np.int64), want_p.view(np.int64))
    assert np.array_equal(classify(params, ds.features), (want_p >= 0.5).astype(np.int64))
    assert np.float64(loss(params, ds)).view(np.int64) == np.float64(reference_loss(params, ds)).view(np.int64)
    got_w, got_b = gradient(params, ds)
    want_w, want_b = reference_gradient(params, ds)
    assert np.array_equal(got_w.view(np.int64), want_w.view(np.int64))
    assert np.float64(got_b).view(np.int64) == np.float64(want_b).view(np.int64)


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
    assert is_positive(np.array([-1e-17]))[0]


def test_is_positive_takes_infinite_logits_by_sign_and_rejects_nan():
    # a huge but finite model's logits overflow to +-inf; a nan one has no sign
    assert is_positive(np.array([np.inf, -np.inf, -1e-17])).tolist() == [True, False, True]
    for z in (np.array([np.nan]), np.array([1.0, -1e-13, np.nan, -2.0]), np.array([[0.5], [np.nan]])):
        with pytest.raises(NumericOverflowError, match="^model logits overflowed to nan"):
            is_positive(z)


def test_loss_of_a_nan_logit_is_a_numeric_error(monkeypatch):
    # a logit is nan where x.w sums an overflowed +inf and -inf term, which
    # depends on the BLAS kernel's summation order, so the pass is patched in
    def nan_pass(params, X):
        p = np.full(X.shape[0], 0.25)
        p[3] = np.nan
        return p

    monkeypatch.setattr(fedval.model, "_proba", nan_pass)
    with pytest.raises(NumericOverflowError, match="^model logits overflowed to nan"):
        loss(ModelParams.zeros(2), coverage_dataset(8, 2, seed=5))



def test_sigmoid_equals_the_piecewise_reference():
    # exactness bound: none, compared as bit patterns.  Each element takes the
    # float operations of its piecewise branch.
    edges = np.array([0.0, 1e-17, 1e-12, 709.0, 745.0, 1e308, np.inf])
    rng = np.random.default_rng(11)
    spread = rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-20, 3, 10**6)
    for z in (np.concatenate([edges, -edges]), spread):
        got, want = _sigmoid(z), reference_sigmoid(z)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

# how the first feature column of a canonical-order case ties: the fast
# path sorts that column alone and must see every tie the lexsort breaks
_ORDER_CASES = ("repeated rows", "tie-free", "integer first column", "one-hot", "signed zeros", "one signed-zero tie")


def _order_case(case, seed, perm_seed):
    ds = coverage_dataset(30, 3, seed=seed % 4096)
    rng = np.random.default_rng(perm_seed)
    if case == "repeated rows":  # the label and group tie-breaks
        return ds.subset(rng.integers(0, 30, 45))
    X = np.array(ds.features)
    if case == "integer first column":  # rows tie on column 0 and differ later
        X[:, 0] = rng.integers(-2, 3, 30)
    elif case == "one-hot":  # every feature ties: label and group decide
        X[:] = np.eye(3)[rng.integers(0, 3, 30)]
    elif case == "signed zeros":
        X[:, 0] = rng.choice([0.0, -0.0, 1.0], 30)
    elif case == "one signed-zero tie":  # -0.0 == 0.0 is the only tie
        X[:2, 0] = (0.0, -0.0)
    perm = rng.permutation(30)
    return TabularDataset(X[perm], ds.labels[perm], ds.sensitive[perm])


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(_ORDER_CASES), seed=st.integers(0, 2**31), perm_seed=st.integers(0, 2**31))
def test_cached_canonical_order_equals_reference(case, seed, perm_seed):
    shuffled = _order_case(case, seed, perm_seed)
    order = shuffled.canonical_order
    assert np.array_equal(order, reference_canonical_order(shuffled))
    assert shuffled.canonical_order is order
    assert not order.flags.writeable


def test_canonical_order_without_features_sorts_by_label_and_group():
    ds = TabularDataset(np.zeros((4, 0)), [1, 0, 1, 0], [1, 1, 0, 0])
    assert ds.canonical_order.tolist() == reference_canonical_order(ds).tolist() == [3, 1, 2, 0]


def test_two_point_separable_descent_is_monotone():
    # full-batch steps at a small rate must cut the loss every single step
    ds = TabularDataset(np.array([[1.0], [-1.0]]), np.array([1, 0]), np.array([1, 0]))
    cfg = TrainConfig(epochs=1, batch_size=4, lr=0.1, seed=0)
    params = ModelParams.zeros(1)
    for _ in range(50):
        stepped = client_update(params, ds, cfg)
        assert loss(stepped, ds) < loss(params, ds)
        params = stepped


def test_diverging_local_sgd_names_the_client_and_the_rate():
    # the error is built from ModelParams' finiteness check on the result,
    # so no SGD step gains a check of its own.  Client 2 has zero features
    # and balanced labels in one full batch, so its step is exactly zero at
    # any rate; client 4 is the first in id order to diverge
    steady = ClientProfile(2, "normal", TabularDataset(np.zeros((4, 3)), [1, 0, 1, 0], [1, 1, 0, 0]))
    client = ClientProfile(4, "cooperative", coverage_dataset(200, 3, seed=1))
    later = ClientProfile(7, "normal", coverage_dataset(50, 3, seed=2))
    cfg = TrainConfig(batch_size=4, lr=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError, match=r"^local SGD diverged at learning rate 1e\+308$"):
            client_update(ModelParams.zeros(3), client.data, cfg)
        (kept,) = train_clients(ModelParams.zeros(3), [steady], cfg)
        with pytest.raises(NumericOverflowError) as got:
            train_clients(ModelParams.zeros(3), [steady, client, later], cfg)
    assert kept.weights.tolist() == [0.0, 0.0, 0.0] and kept.bias == 0.0
    assert str(got.value) == "client 4: local SGD diverged at learning rate 1e+308"
    with pytest.raises(ShapeError, match="expects 2 features"):  # not an overflow
        train_clients(ModelParams.zeros(2), [client], cfg)


def test_train_clients_is_client_update_with_each_per_client_config():
    clients = [ClientProfile(cid, "normal", coverage_dataset(n, 2, seed=cid)) for cid, n in ((3, 50), (8, 17))]
    cfg = TrainConfig(epochs=2, batch_size=8, lr=0.3, seed=11)
    start = random_params(2, seed=2)
    got = train_clients(start, clients, cfg)
    assert len(got) == 2
    for c, m in zip(clients, got):
        want = client_update(start, c.data, client_cfg(cfg, c.client_id))
        assert m.weights.tobytes() == want.weights.tobytes() and m.bias == want.bias
    assert train_clients(start, [], cfg) == []


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 60), min_size=1, max_size=8),
    dim=st.integers(1, 5),
    epochs=st.integers(1, 3),
    batch_size=st.integers(1, 40),
    lr=st.sampled_from((0.01, 0.3, 2.0)),
    seed=st.integers(-(2**70), 2**70),
    data_seed=st.integers(0, 2**31),
)
@example(sizes=[33, 32, 1], dim=3, epochs=2, batch_size=32, lr=0.3, seed=0, data_seed=0)
@example(sizes=[320, 82, 320, 7], dim=8, epochs=3, batch_size=7, lr=0.01, seed=-1, data_seed=5)
def test_train_clients_equals_the_per_client_updates(sizes, dim, epochs, batch_size, lr, seed, data_seed):
    # exactness bound: none.  The batched generators start where
    # default_rng(client_cfg(cfg, cid).seed) does, so every shuffle, and so
    # every bit of every model, matches the per-client path.  Ids are
    # distinct but neither sorted nor dense
    rng = np.random.default_rng(data_seed)
    ids = rng.choice(10_000, size=len(sizes), replace=False).tolist()
    clients = []
    for cid, n in zip(ids, sizes):
        ds = TabularDataset(rng.standard_normal((n, dim)), rng.integers(0, 2, n), rng.integers(0, 2, n))
        clients.append(ClientProfile(cid, "normal", ds))
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)
    start = random_params(dim, seed=data_seed)
    got = train_clients(start, clients, cfg)
    want = reference_train_clients(start, clients, cfg)
    assert [(m.weights.tobytes(), m.bias) for m in got] == [(m.weights.tobytes(), m.bias) for m in want]
