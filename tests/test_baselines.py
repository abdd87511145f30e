import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedval.baselines
from fedval.baselines import (
    QConfig,
    RoundInfo,
    afl_round,
    fedavg_round,
    project_simplex,
    qfedavg_round,
    qfedsgd_round,
)
from fedval.data import ClientProfile, ClientSpec, TabularDataset, generate_synthetic, partition
from fedval.errors import ConfigError, DegenerateWeightsError, NumericOverflowError, ShapeError
from fedval.model import ModelParams, TrainConfig, client_update, gradient, loss
from fedval.server import AggregationWeights
from helpers import (
    client_cfg,
    coverage_dataset,
    random_params,
    reference_afl_step,
    reference_gradient,
    reference_project_simplex,
    reference_q_round,
    reference_train_clients,
    uniform_mixture,
)


def _flat(params):
    return np.concatenate([params.weights, [params.bias]])


@pytest.fixture(scope="module")
def shards():
    data = generate_synthetic(240, 3, (0.6, 0.4), seed=17)
    return partition(data, [ClientSpec() for _ in range(3)], seed=4)


# ---------------------------------------------------------------------------
# config containers
# ---------------------------------------------------------------------------


def test_qconfig_validation():
    QConfig(q=0.0)
    QConfig(q=5.0, lipschitz=2.0)
    with pytest.raises(ConfigError):
        QConfig(q=-1.0)
    with pytest.raises(ConfigError):
        QConfig(q=1.0, lipschitz=0.0)


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------


def test_project_simplex_hand_oracles():
    # computed by hand from the sorted-cumsum construction
    assert project_simplex([0.6, 0.6]).tolist() == [0.5, 0.5]
    assert project_simplex([1.2, -0.2]).tolist() == [1.0, 0.0]
    assert project_simplex([0.3, 0.7]).tolist() == pytest.approx([0.3, 0.7], abs=1e-15)
    assert project_simplex([5.0]).tolist() == [1.0]


def test_project_simplex_shape_errors():
    with pytest.raises(ShapeError):
        project_simplex(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        project_simplex([])


def test_project_simplex_reports_an_overflowing_sum():
    # an AFL ascent with lambda_lr 1e308 gives entries whose sum overflows
    with pytest.raises(NumericOverflowError, match="sum to inf"):
        project_simplex([1e308, 1e308])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=12))
def test_project_simplex_properties(values):
    v = np.asarray(values, dtype=float)
    p = project_simplex(v)
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-9
    # idempotent
    assert np.allclose(project_simplex(p), p, atol=1e-12)
    # no simplex point (spot-checked corners + centroid) is closer to v
    k = v.size
    candidates = [np.full(k, 1.0 / k)]
    candidates.extend(np.eye(k))
    d_proj = np.sum((p - v) ** 2)
    for c in candidates:
        assert d_proj <= np.sum((c - v) ** 2) + 1e-9


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# finite entries with signed zeros, ties and magnitudes at which 1 - c loses the 1
_ENTRIES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 0.5, 1e-300, 1e17, -1e17, 1e308)),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_ENTRIES, min_size=1, max_size=12))
@example(values=[1e17])  # 1 - 1e17 rounds to -1e17: no index passes
@example(values=[1e308, 1e308])  # the sum overflows
@example(values=[0.0, -0.0, 0.0])
def test_project_simplex_equals_the_array_reference(values):
    # exactness bound: none.  The Python-float sums and scan must give the
    # reference's float64 bits, and its errors; where the reference finds no
    # passing index (an IndexError), the projection reports the magnitude
    try:
        want = reference_project_simplex(values)
    except NumericOverflowError as exc:
        with pytest.raises(NumericOverflowError, match=re.escape(str(exc))):
            project_simplex(values)
        return
    except IndexError:
        with pytest.raises(NumericOverflowError, match="too large to shift by 1"):
            project_simplex(values)
        return
    assert _bits(project_simplex(values)) == _bits(want)


def test_project_simplex_shift_invariance():
    # projection is invariant to adding a constant to every coordinate
    v = np.array([0.2, -0.4, 1.3, 0.0])
    a = project_simplex(v)
    b = project_simplex(v + 7.5)
    assert np.allclose(a, b, atol=1e-9)


# ---------------------------------------------------------------------------
# fedavg
# ---------------------------------------------------------------------------


def test_fedavg_weights_are_shard_fractions():
    data = generate_synthetic(100, 2, (0.5, 0.5), seed=3)
    clients = partition(data, [ClientSpec() for _ in range(3)], seed=1)  # 34/33/33
    _, info = fedavg_round(ModelParams.zeros(2), clients, TrainConfig(seed=0))
    assert info.weights.client_ids == (0, 1, 2)
    assert info.weights.p == pytest.approx((0.34, 0.33, 0.33), abs=1e-15)


def test_fedavg_round_matches_manual_composition(shards):
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=42)
    start = ModelParams.zeros(3)
    new_global, info = fedavg_round(start, shards, cfg)

    # recompute each step by hand with the library primitives
    manual = np.zeros(4)
    total = sum(c.n for c in shards)
    for c in shards:
        local = client_update(start, c.data, client_cfg(cfg, c.client_id))
        manual += (c.n / total) * _flat(local)
        assert info.losses[c.client_id] == loss(local, c.data)
    assert np.allclose(_flat(new_global), manual, atol=1e-15)
    assert info.extras == {}


def test_fedavg_is_order_insensitive(shards):
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=7)
    a, _ = fedavg_round(ModelParams.zeros(3), shards, cfg)
    b, _ = fedavg_round(ModelParams.zeros(3), shards[::-1], cfg)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


# ---------------------------------------------------------------------------
# q-fed family
# ---------------------------------------------------------------------------


def test_qfedsgd_q0_is_an_averaged_gradient_step(shards):
    # with q=0: delta_k = grad_k, h_k = L, so the update must equal
    # w - sum(grad_k) / (K * L)
    start = random_params(3, seed=5, scale=0.3)
    L = 2.0
    new_global, info = qfedsgd_round(start, shards, QConfig(q=0.0, lipschitz=L))
    grads = [gradient(start, c.data) for c in sorted(shards, key=lambda c: c.client_id)]
    summed = np.sum([np.concatenate([gw, [gb]]) for gw, gb in grads], axis=0)
    expected = _flat(start) - summed / (len(shards) * L)
    assert np.allclose(_flat(new_global), expected, atol=1e-10)
    assert info.weights.p == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)


def test_qfedsgd_losses_and_extras_are_at_the_incoming_model(shards):
    start = random_params(3, seed=6, scale=0.3)
    _, info = qfedsgd_round(start, shards, QConfig(q=2.0))
    for c in shards:
        assert info.losses[c.client_id] == loss(start, c.data)
        gw, gb = gradient(start, c.data)
        g = np.concatenate([gw, [gb]])
        assert info.extras[c.client_id]["grad_norm_sq"] == pytest.approx(float(g @ g), rel=1e-12)


def test_qfedsgd_matches_manual_algebra(shards):
    # independent recomputation of the q > 0 update from the primitives
    q, L = 3.0, 1.5
    start = random_params(3, seed=8, scale=0.2)
    new_global, info = qfedsgd_round(start, shards, QConfig(q=q, lipschitz=L))

    deltas, hs = [], []
    for c in sorted(shards, key=lambda c: c.client_id):
        f = loss(start, c.data)
        gw, gb = gradient(start, c.data)
        g = np.concatenate([gw, [gb]])
        deltas.append(f**q * g)
        hs.append(q * f ** (q - 1.0) * float(g @ g) + L * f**q)
    expected = _flat(start) - np.sum(deltas, axis=0) / np.sum(hs)
    assert np.allclose(_flat(new_global), expected, atol=1e-14)
    assert info.weights.p == pytest.approx(tuple(h / np.sum(hs) for h in hs), rel=1e-12)


def test_qfedsgd_higher_q_tilts_weights_to_high_loss_clients():
    # client 1 sees pure noise (high loss), client 0 an easy problem
    easy = coverage_dataset(80, 2, seed=1)
    hard_features = np.random.default_rng(2).standard_normal((80, 2)) * 0.01
    hard = coverage_dataset(80, 2, seed=3)
    hard = type(hard)(hard_features, hard.labels, hard.sensitive)
    clients = [
        ClientProfile(0, "cooperative", easy),
        ClientProfile(1, "cooperative", hard),
    ]
    # train a model good on the easy shard so the losses separate
    params = client_update(ModelParams.zeros(2), easy, TrainConfig(epochs=5, batch_size=16, lr=0.5, seed=0))
    _, info_q0 = qfedsgd_round(params, clients, QConfig(q=0.0))
    _, info_q5 = qfedsgd_round(params, clients, QConfig(q=5.0))
    assert info_q0.weights.p == (0.5, 0.5)
    assert info_q5.weights.p[1] > 0.5  # high-loss client dominates


def test_qfedavg_q0_is_the_mean_of_local_models(shards):
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=10)
    start = random_params(3, seed=11, scale=0.2)
    new_global, info = qfedavg_round(start, shards, cfg, QConfig(q=0.0, lipschitz=3.0))
    locals_ = [
        client_update(start, c.data, client_cfg(cfg, c.client_id))
        for c in sorted(shards, key=lambda c: c.client_id)
    ]
    mean = np.mean([_flat(m) for m in locals_], axis=0)
    assert np.allclose(_flat(new_global), mean, atol=1e-10)


def test_qfedavg_matches_manual_algebra(shards):
    q, L = 2.0, 1.2
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=12)
    start = random_params(3, seed=13, scale=0.2)
    new_global, info = qfedavg_round(start, shards, cfg, QConfig(q=q, lipschitz=L))

    deltas, hs = [], []
    for c in sorted(shards, key=lambda c: c.client_id):
        local = client_update(start, c.data, client_cfg(cfg, c.client_id))
        f = loss(start, c.data)  # at the incoming global model
        dw = L * (_flat(start) - _flat(local))
        deltas.append(f**q * dw)
        hs.append(q * f ** (q - 1.0) * float(dw @ dw) + L * f**q)
    expected = _flat(start) - np.sum(deltas, axis=0) / np.sum(hs)
    assert np.allclose(_flat(new_global), expected, atol=1e-14)
    assert info.extras[0]["h"] == pytest.approx(hs[0], rel=1e-12)


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 10),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    q=st.sampled_from((0.0, 1.0, 2.0, 5.0)) | st.floats(0.0, 20.0),
    lipschitz=st.floats(1e-2, 1e2),
    epochs=st.integers(1, 2),
    batch_size=st.integers(1, 40),
)
def test_qfed_rounds_equal_the_per_client_reference(k, dim, seed, q, lipschitz, epochs, batch_size):
    # exactness bound: none.  Both q-FFL rounds share one round body; each
    # must give the plain per-client loop's new model, weights, losses and
    # extras bit for bit, with qfedsgd's direction the gradient and
    # qfedavg's L * (w - w_k) after local SGD.  Ids are drawn unsorted.
    rng = np.random.default_rng(seed)
    ids = rng.permutation(3 * k)[:k].tolist()
    clients = [
        ClientProfile(cid, "cooperative", coverage_dataset(int(rng.integers(4, 60)), dim, seed + i))
        for i, cid in enumerate(ids)
    ]
    start = random_params(dim, seed, scale=0.3)
    qcfg = QConfig(q=q, lipschitz=lipschitz)
    ordered = sorted(clients, key=lambda c: c.client_id)
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, lr=0.1, seed=seed)
    grads = {c.client_id: reference_gradient(start, c.data) for c in ordered}
    locals_ = reference_train_clients(start, ordered, cfg)
    directions = {
        "qfedsgd": {cid: np.concatenate([gw, [gb]]) for cid, (gw, gb) in grads.items()},
        "qfedavg": {c.client_id: lipschitz * (_flat(start) - _flat(m)) for c, m in zip(ordered, locals_)},
    }
    rounds = {
        "qfedsgd": lambda: qfedsgd_round(start, clients, qcfg),
        "qfedavg": lambda: qfedavg_round(start, clients, cfg, qcfg),
    }
    for name, run in rounds.items():
        new_global, info = run()
        want_global, want_p, want_losses, want_extras = reference_q_round(start, clients, directions[name], qcfg)
        assert _bits(_flat(new_global)) == _bits(_flat(want_global)), name
        assert info.weights.client_ids == tuple(c.client_id for c in ordered)
        assert _bits(info.weights.p) == _bits([want_p[c.client_id] for c in ordered]), name
        assert {cid: _bits(v) for cid, v in info.losses.items()} == {cid: _bits(v) for cid, v in want_losses.items()}
        got = {cid: {key: _bits(v) for key, v in e.items()} for cid, e in info.extras.items()}
        assert got == {cid: {key: _bits(v) for key, v in e.items()} for cid, e in want_extras.items()}, name


def test_qfed_rounds_are_deterministic(shards):
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=20)
    start = ModelParams.zeros(3)
    a, _ = qfedavg_round(start, shards, cfg, QConfig(q=5.0))
    b, _ = qfedavg_round(start, shards, cfg, QConfig(q=5.0))
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias



def _confidently_wrong(client_id, scale):
    """A client whose every row is positive while the model returned with it
    gives each row a logit of -13, so its loss there is about 13."""
    data = TabularDataset(np.full((8, 1), -scale), np.ones(8, dtype=np.int64), np.arange(8) % 2)
    return ClientProfile(client_id, "cooperative", data), ModelParams(np.array([13.0 / scale]), 0.0)


@pytest.mark.parametrize(
    "q, scale, term",
    [
        (400.0, 1.0, "F\\*\\*q"),  # 13**400 leaves the float range inside float **
        (269.0, 1e10, "delta"),  # 13**269 ~ 4e299 is finite; times a ~1e10 direction it is not
        (200.0, 1e45, "h"),  # 13**200 ~ 6e222 times a ~1e45 direction is finite; 200 * 13**199 * |d|^2 is not
    ],
)
def test_qfed_rounds_report_overflow_as_a_numeric_error(q, scale, term):
    client, start = _confidently_wrong(7, scale)
    assert loss(start, client.data) == pytest.approx(13.0, abs=1e-4)
    cfg = TrainConfig(epochs=1, batch_size=4, lr=0.1, seed=0)
    with pytest.raises(NumericOverflowError, match=f"^{term} overflowed for client 7"):
        qfedsgd_round(start, [client], QConfig(q=q))
    with pytest.raises(NumericOverflowError, match=f"^{term} overflowed for client 7"):
        qfedavg_round(start, [client], cfg, QConfig(q=q))


def test_qfed_rounds_evaluate_a_huge_global_model_without_warnings(shards):
    # 1e308 * x0 overflows to +-inf for |x0| > 1.8, with no numpy warning (an
    # error under this suite's settings): each loss clamps those logits as an
    # errstate-wrapped call does, and the step stays finite
    start = ModelParams(np.array([1e308, 0.0, 0.0]), 0.0)
    assert any(np.count_nonzero(np.abs(c.data.features[:, 0]) > 1.8) for c in shards)
    with np.errstate(over="ignore"):
        want = {c.client_id: loss(start, c.data) for c in shards}
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=0)
    for run in (lambda: qfedsgd_round(start, shards, QConfig(q=1.0)),
                lambda: qfedavg_round(start, shards, cfg, QConfig(q=1.0))):
        new_global, info = run()
        assert info.losses == want and all(math.isfinite(v) for v in want.values())
        assert np.isfinite(new_global.weights).all()


def test_qfed_rounds_report_underflowed_weights_as_degenerate(shards):
    # at the zero model every loss is ln 2, and ln 2 ** 4999 underflows to 0,
    # so every h_k is 0 and the server step would divide by zero
    start = ModelParams.zeros(3)
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=0)
    with pytest.raises(DegenerateWeightsError, match="at q=5000.0"):
        qfedsgd_round(start, shards, QConfig(q=5000.0))
    with pytest.raises(DegenerateWeightsError, match="at q=5000.0"):
        qfedavg_round(start, shards, cfg, QConfig(q=5000.0))


# ---------------------------------------------------------------------------
# afl
# ---------------------------------------------------------------------------


def test_afl_round_descends_the_mixed_gradient(shards):
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.25, seed=0)
    start = random_params(3, seed=14, scale=0.2)
    mixture = AggregationWeights((0, 1, 2), (0.2, 0.3, 0.5))
    new_global, _, info = afl_round(start, shards, mixture, cfg, 0.05)

    mixed = np.zeros(4)
    lam = dict(zip(mixture.client_ids, mixture.p))
    for c in sorted(shards, key=lambda c: c.client_id):
        gw, gb = gradient(start, c.data)
        mixed += lam[c.client_id] * np.concatenate([gw, [gb]])
    expected = _flat(start) - 0.25 * mixed
    assert np.allclose(_flat(new_global), expected, atol=1e-15)
    # reported mixture is the one the step used, not the ascended one
    assert info.weights.p == mixture.p


def test_afl_lambda_ascends_toward_high_loss(shards):
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=0)
    start = ModelParams.zeros(3)
    mixture = uniform_mixture((0, 1, 2))
    _, next_mixture, info = afl_round(start, shards, mixture, cfg, 0.5)
    assert abs(sum(next_mixture.p) - 1.0) <= 1e-12
    # the manual ascent-then-project recomputation matches
    ascended = np.array([
        mixture.p[i] + 0.5 * info.losses[cid] for i, cid in enumerate(mixture.client_ids)
    ])
    expected = project_simplex(ascended)
    assert np.allclose(np.asarray(next_mixture.p), expected, atol=1e-15)
    assert info.extras == {}  # the next mixture is the returned one alone


def test_afl_lambda_concentrates_on_a_persistently_bad_client():
    # client 1's labels are coin flips against its features, so its loss
    # stays high and the mixture should drift toward it
    rng = np.random.default_rng(30)
    good = coverage_dataset(120, 2, seed=31)
    noisy = type(good)(rng.standard_normal((120, 2)), rng.integers(0, 2, 120), rng.integers(0, 2, 120))
    clients = [ClientProfile(0, "cooperative", good), ClientProfile(1, "cooperative", noisy)]
    mixture = uniform_mixture((0, 1))
    params = ModelParams.zeros(2)
    cfg = TrainConfig(epochs=1, batch_size=32, lr=0.3, seed=0)
    for _ in range(15):
        params, mixture, _ = afl_round(params, clients, mixture, cfg, 0.2)
    lam = dict(zip(mixture.client_ids, mixture.p))
    assert lam[1] > lam[0]


def test_afl_state_must_cover_clients(shards):
    mixture = uniform_mixture((0, 1))  # missing client 2
    with pytest.raises(ConfigError, match="^AFL mixture does not cover the participating clients$"):
        afl_round(ModelParams.zeros(3), shards, mixture, TrainConfig(seed=0), 0.1)


@pytest.mark.parametrize("lr_lambda", [0.0, -1.0, math.inf, math.nan])
def test_afl_round_rejects_an_ascent_rate_that_is_not_positive_and_finite(shards, lr_lambda):
    with pytest.raises(ConfigError, match=f"^lr_lambda must be positive, got {lr_lambda}$"):
        afl_round(ModelParams.zeros(3), shards, uniform_mixture((0, 1, 2)), TrainConfig(seed=0), lr_lambda)


def test_afl_round_is_deterministic(shards):
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=2)
    mixture = uniform_mixture((0, 1, 2))
    a, ma, _ = afl_round(ModelParams.zeros(3), shards, mixture, cfg, 0.1)
    b, mb, _ = afl_round(ModelParams.zeros(3), shards, mixture, cfg, 0.1)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    assert ma.p == mb.p


def test_afl_equals_fedavg_on_identical_clients():
    # identical shards, one full-batch epoch, same rate: the uniform mixture
    # gradient step and the average of local steps are the same update
    shard = coverage_dataset(50, 2, seed=23)
    clients = [ClientProfile(client_id=i, behavior="cooperative", data=shard) for i in range(3)]
    cfg = TrainConfig(epochs=1, batch_size=64, lr=0.1, seed=2)
    start = random_params(2, seed=11)
    mixture = uniform_mixture((0, 1, 2))
    for _ in range(4):
        next_afl, mixture, info = afl_round(start, clients, mixture, cfg, 0.1)
        next_avg, _ = fedavg_round(start, clients, cfg)
        assert np.max(np.abs(_flat(next_afl) - _flat(next_avg))) <= 1e-12
        assert info.weights.p == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
        start = next_afl


_GRAD_ENTRIES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-1e3, 1e3))


@st.composite
def _afl_cases(draw):
    k = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(0, 50), min_size=k, max_size=k, unique=True))
    raw = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 3.0)) | st.floats(1e-3, 10.0), min_size=k, max_size=k))
    total = sum(raw)
    lam = [v / total for v in raw] if total > 0 else [1.0 / k] * k
    grads = {
        cid: (
            np.array(draw(st.lists(_GRAD_ENTRIES, min_size=dim, max_size=dim))),
            draw(_GRAD_ENTRIES),
        )
        for cid in ids
    }
    losses = {cid: draw(st.floats(0.0, 30.0)) for cid in ids}
    start = ModelParams(
        np.array(draw(st.lists(_GRAD_ENTRIES, min_size=dim, max_size=dim))), draw(_GRAD_ENTRIES)
    )
    return dict(
        ids=ids, lam=lam, grads=grads, losses=losses, start=start,
        lr=draw(st.floats(1e-3, 10.0)), lr_lambda=draw(st.floats(1e-3, 10.0)),
    )


@settings(max_examples=200, deadline=None)
@given(case=_afl_cases())
def test_afl_round_step_equals_the_flat_reference(case):
    # exactness bound: none.  The step on (d,) weights plus a float bias, and
    # the Python-float simplex projection, must give the flat-vector
    # reference's new model, next mixture and weights bit for bit, zeros and
    # -0.0 gradient entries included.  gradient and loss are replaced by the
    # drawn values, looked up by shard.
    dim = case["start"].dim
    clients = [
        ClientProfile(cid, "cooperative", TabularDataset(np.zeros((1, dim)), [0], [0]))
        for cid in case["ids"]
    ]
    by_data = {id(c.data): c.client_id for c in clients}
    mixture = AggregationWeights(case["ids"], case["lam"])

    def fake_gradient(params, data):
        gw, gb = case["grads"][by_data[id(data)]]
        return gw.copy(), gb

    def fake_loss(params, data):
        return case["losses"][by_data[id(data)]]

    with mock.patch.object(fedval.baselines, "gradient", fake_gradient), \
            mock.patch.object(fedval.baselines, "loss", fake_loss):
        new_global, next_mixture, info = afl_round(
            case["start"], clients, mixture, TrainConfig(lr=case["lr"]), case["lr_lambda"]
        )
    want_global, want_lam, want_weights = reference_afl_step(
        case["start"], mixture, case["lr_lambda"], case["lr"], case["grads"], case["losses"]
    )
    assert _bits(new_global.weights) == _bits(want_global.weights)
    assert _bits([new_global.bias]) == _bits([want_global.bias])
    assert next_mixture.client_ids == tuple(sorted(case["ids"]))
    assert _bits(next_mixture.p) == _bits(want_lam)
    assert info.extras == {}
    assert _bits(info.weights.p) == _bits(want_weights)
