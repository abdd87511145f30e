import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedval.baselines import (
    AFLState,
    QConfig,
    RoundInfo,
    afl_round,
    fedavg_round,
    project_simplex,
    qfedavg_round,
    qfedsgd_round,
)
from fedval.data import ClientProfile, ClientSpec, TabularDataset, generate_synthetic, partition
from fedval.errors import ConfigError, NumericOverflowError, ShapeError
from fedval.model import ModelParams, TrainConfig, client_cfg, client_update, gradient, loss
from helpers import coverage_dataset, random_params


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
    QConfig(q=5.0, lipschitz=2.0, lr=0.01, rounds=10)
    with pytest.raises(ConfigError):
        QConfig(q=-1.0)
    with pytest.raises(ConfigError):
        QConfig(q=1.0, lipschitz=0.0)
    with pytest.raises(ConfigError):
        QConfig(q=1.0, lr=-0.1)
    with pytest.raises(ConfigError):
        QConfig(q=1.0, rounds=0)


def test_afl_state_uniform_and_validation():
    s = AFLState.uniform((0, 1, 2, 3))
    assert s.lam == (0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ConfigError):
        AFLState((0, 1), (0.6, 0.6))  # off the simplex
    with pytest.raises(ConfigError):
        AFLState((0, 1), (1.2, -0.2))
    with pytest.raises(ConfigError):
        AFLState((0, 0), (0.5, 0.5))
    with pytest.raises(ConfigError):
        AFLState((0, 1), (0.5, 0.5), lr_lambda=0.0)


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
    assert len(info.extras["client_models"]) == 3


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


# ---------------------------------------------------------------------------
# afl
# ---------------------------------------------------------------------------


def test_afl_round_descends_the_mixed_gradient(shards):
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.25, seed=0)
    start = random_params(3, seed=14, scale=0.2)
    state = AFLState((0, 1, 2), (0.2, 0.3, 0.5), lr_lambda=0.05)
    new_global, new_state, info = afl_round(start, shards, state, cfg)

    mixed = np.zeros(4)
    lam = dict(zip(state.client_ids, state.lam))
    for c in sorted(shards, key=lambda c: c.client_id):
        gw, gb = gradient(start, c.data)
        mixed += lam[c.client_id] * np.concatenate([gw, [gb]])
    expected = _flat(start) - 0.25 * mixed
    assert np.allclose(_flat(new_global), expected, atol=1e-15)
    # reported mixture is the one the step used, not the ascended one
    assert info.weights.p == state.lam


def test_afl_lambda_ascends_toward_high_loss(shards):
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=0)
    start = ModelParams.zeros(3)
    state = AFLState.uniform((0, 1, 2), lr_lambda=0.5)
    _, new_state, info = afl_round(start, shards, state, cfg)
    assert abs(sum(new_state.lam) - 1.0) <= 1e-12
    # the manual ascent-then-project recomputation matches
    ascended = np.array([
        state.lam[i] + 0.5 * info.losses[cid] for i, cid in enumerate(state.client_ids)
    ])
    expected = project_simplex(ascended)
    assert np.allclose(np.asarray(new_state.lam), expected, atol=1e-15)
    assert info.extras["lambda_next"] == {
        cid: pytest.approx(new_state.lam[i]) for i, cid in enumerate(new_state.client_ids)
    }


def test_afl_lambda_concentrates_on_a_persistently_bad_client():
    # client 1's labels are coin flips against its features, so its loss
    # stays high and the mixture should drift toward it
    rng = np.random.default_rng(30)
    good = coverage_dataset(120, 2, seed=31)
    noisy = type(good)(rng.standard_normal((120, 2)), rng.integers(0, 2, 120), rng.integers(0, 2, 120))
    clients = [ClientProfile(0, "cooperative", good), ClientProfile(1, "cooperative", noisy)]
    state = AFLState.uniform((0, 1), lr_lambda=0.2)
    params = ModelParams.zeros(2)
    cfg = TrainConfig(epochs=1, batch_size=32, lr=0.3, seed=0)
    for _ in range(15):
        params, state, _ = afl_round(params, clients, state, cfg)
    lam = dict(zip(state.client_ids, state.lam))
    assert lam[1] > lam[0]


def test_afl_state_must_cover_clients(shards):
    state = AFLState.uniform((0, 1))  # missing client 2
    with pytest.raises(ConfigError, match="cover"):
        afl_round(ModelParams.zeros(3), shards, state, TrainConfig(seed=0))


def test_afl_round_is_deterministic(shards):
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=2)
    state = AFLState.uniform((0, 1, 2))
    a, sa, _ = afl_round(ModelParams.zeros(3), shards, state, cfg)
    b, sb, _ = afl_round(ModelParams.zeros(3), shards, state, cfg)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    assert sa.lam == sb.lam


def test_afl_equals_fedavg_on_identical_clients():
    # identical shards, one full-batch epoch, same rate: the uniform mixture
    # gradient step and the average of local steps are the same update
    shard = coverage_dataset(50, 2, seed=23)
    clients = [ClientProfile(client_id=i, behavior="cooperative", data=shard) for i in range(3)]
    cfg = TrainConfig(epochs=1, batch_size=64, lr=0.1, seed=2)
    start = random_params(2, seed=11)
    state = AFLState.uniform((0, 1, 2))
    for _ in range(4):
        next_afl, state, info = afl_round(start, clients, state, cfg)
        next_avg, _ = fedavg_round(start, clients, cfg)
        assert np.max(np.abs(_flat(next_afl) - _flat(next_avg))) <= 1e-12
        assert info.weights.p == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)
        start = next_afl
