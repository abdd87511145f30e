import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedval.data import (
    GROUP_A,
    GROUP_D,
    ClientProfile,
    ClientSpec,
    TabularDataset,
    generate_synthetic,
    partition,
    split_validation,
)
from fedval.errors import (
    ConfigError,
    DegenerateWeightsError,
    MissingGroupError,
    MissingPositivesError,
    NumericOverflowError,
    ShapeError,
)
from fedval.metrics import ObjectiveSpec, ScoreVector, accuracy, composite_score, eod, objective_score, spd
from fedval.model import ModelParams, TrainConfig, classify, client_update, loss
from fedval.server import (
    AggregationWeights,
    RankingConfig,
    RankState,
    aggregate,
    fedval_round,
    make_weights,
    rank_update,
    score_clients,
    temp_aggregate,
)
from helpers import (
    UNIT_MODEL,
    client_cfg,
    coverage_dataset,
    pattern_dataset,
    random_params,
    reference_accuracy,
    reference_eod,
    reference_spd,
    written_report,
)

ALL_THREE = ObjectiveSpec((("accuracy", 1.0), ("spd", 1.0), ("eod", 1.0)))


def _sv(ids, composites):
    return ScoreVector(tuple(ids), tuple(composites), tuple({} for _ in ids))


# ---------------------------------------------------------------------------
# configs and state containers
# ---------------------------------------------------------------------------


def test_ranking_config_validation():
    with pytest.raises(ConfigError):
        RankingConfig(initial_step=0.0)
    with pytest.raises(ConfigError):
        RankingConfig(step_size=-1.0)


def test_ranking_config_warns_on_inverted_geometry():
    with pytest.warns(UserWarning, match="rewards worse") as record:
        RankingConfig(enabled=True, step_size=0.5)
    # the warning points at the caller, not at the dataclass's generated __init__
    assert [w.filename for w in record] == [__file__]


def test_ranking_config_silent_when_disabled():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        RankingConfig(enabled=False, step_size=0.5)


def test_rank_state_zeros_and_validation():
    state = RankState.zeros([3, 1, 2])
    assert state.rs == {1: 0.0, 2: 0.0, 3: 0.0}
    with pytest.raises(ConfigError):
        RankState({0: -1.0})


def test_aggregation_weights_must_be_a_simplex():
    AggregationWeights((0, 1), (0.25, 0.75))
    with pytest.raises(DegenerateWeightsError):
        AggregationWeights((0, 1), (0.6, 0.6))
    with pytest.raises(DegenerateWeightsError):
        AggregationWeights((0, 1), (-0.2, 1.2))
    with pytest.raises(ConfigError):
        AggregationWeights((0, 0), (0.5, 0.5))
    with pytest.raises(ConfigError):
        AggregationWeights((), ())


_ENTRIES = st.lists(
    st.one_of(
        st.sampled_from((0.0, -0.0, 0.5, 1e308, -1e-300, math.nan, math.inf, -math.inf)),
        st.floats(0.0, 10.0),
    ),
    min_size=1,
    max_size=8,
)


def _check(build, error, message):
    if message is None:
        build()
        return
    with pytest.raises(error) as got:
        build()
    assert type(got.value) is error and str(got.value) == message


@settings(max_examples=200, deadline=None)
@given(values=_ENTRIES)
@example(values=[1e308, 1e308])  # finite entries whose sum overflows
@example(values=[0.25, 0.75])
@example(values=[0.5, math.nan, -1.0])
def test_validation_names_the_first_invalid_entry(values):
    # ScoreVector, RankState and AggregationWeights (AFL's mixture too) accept
    # every finite entry >= 0 and otherwise name the first entry that is not, as
    # a per-entry loop does; weights must also sum to 1 within 1e-12
    bad = next(((i, v) for i, v in enumerate(values) if not (math.isfinite(v) and v >= 0)), None)
    ids = tuple(range(len(values)))
    _check(lambda: ScoreVector(ids, tuple(values), tuple({} for _ in ids)), ConfigError,
           None if bad is None else f"composite scores must be finite and >= 0, got {bad[1]}")
    _check(lambda: RankState(dict(zip(ids, values))), ConfigError,
           None if bad is None else f"rank mass for client {bad[0]} must be finite and >= 0, got {bad[1]}")
    if bad is not None:
        message = f"aggregation weight {bad[1]} outside [0, 1]"
    elif abs(sum(values) - 1.0) > 1e-12:
        message = f"aggregation weights sum to {sum(values)!r}, not 1"
    else:
        message = None
    _check(lambda: AggregationWeights(ids, tuple(values)), DegenerateWeightsError, message)


def test_aggregation_weights_reject_duplicate_or_misaligned_clients():
    with pytest.raises(ConfigError, match=re.escape("duplicate client ids in weights: (0, 0)")):
        AggregationWeights((0, 0), (0.5, 0.5))
    for ids, p in [((0, 1), (1.0,)), ((), ())]:
        with pytest.raises(ConfigError, match="^weights must align with a non-empty client list$"):
            AggregationWeights(ids, p)


# ---------------------------------------------------------------------------
# temp aggregation (scoring blend)
# ---------------------------------------------------------------------------


def test_temp_aggregate_midpoint():
    g = ModelParams(np.array([2.0, 0.0]), 1.0)
    c = ModelParams(np.array([0.0, 4.0]), 3.0)
    mid = temp_aggregate(g, c, alpha=0.5)
    assert mid.weights.tolist() == [1.0, 2.0]
    assert mid.bias == 2.0


def test_temp_aggregate_endpoints():
    g = ModelParams(np.array([2.0]), 1.0)
    c = ModelParams(np.array([-2.0]), -1.0)
    assert temp_aggregate(g, c, alpha=0.0).weights[0] == 2.0
    assert temp_aggregate(g, c, alpha=1.0).weights[0] == -2.0


def test_temp_aggregate_alpha_bounds():
    g = ModelParams(np.array([1.0]), 0.0)
    with pytest.raises(ConfigError):
        temp_aggregate(g, g, alpha=-0.1)
    with pytest.raises(ConfigError):
        temp_aggregate(g, g, alpha=1.1)


def test_temp_aggregate_dim_mismatch():
    with pytest.raises(ShapeError):
        temp_aggregate(ModelParams.zeros(2), ModelParams.zeros(3))


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

# validation set with hand-countable metrics (see test_metrics EIGHT)
VAL = pattern_dataset(
    preds=[1, 0, 1, 1, 0, 0, 1, 0],
    labels=[1, 0, 0, 1, 1, 0, 1, 1],
    groups=[GROUP_A, GROUP_A, GROUP_A, GROUP_A, GROUP_D, GROUP_D, GROUP_D, GROUP_D],
)


def test_score_clients_matches_composite_oracle():
    flipped = ModelParams(np.array([-1.0]), 0.0)
    # alpha=1 means each client is scored on exactly its own params
    sv = score_clients(ModelParams.zeros(1), [(0, UNIT_MODEL), (1, flipped)], VAL, ALL_THREE, alpha=1.0)
    assert sv.client_ids == (0, 1)
    assert sv.composite[0] == pytest.approx(composite_score(UNIT_MODEL, VAL, ALL_THREE), abs=1e-15)
    assert sv.composite[1] == pytest.approx(composite_score(flipped, VAL, ALL_THREE), abs=1e-15)
    assert set(sv.per_objective[0]) == {"accuracy", "spd", "eod"}


def test_score_clients_applies_the_blend():
    # alpha=0 ignores the client entirely: both clients score like the global
    g = UNIT_MODEL
    flipped = ModelParams(np.array([-1.0]), 0.0)
    sv = score_clients(g, [(0, flipped), (1, g)], VAL, ALL_THREE, alpha=0.0)
    assert sv.composite[0] == sv.composite[1]


def test_score_clients_error_names_client_and_objective():
    # no positive labels in group d, so eod is undefined
    broken = pattern_dataset([1, 0, 1], [1, 1, 0], [GROUP_A, GROUP_A, GROUP_D])
    with pytest.raises(MissingPositivesError, match="'eod' failed for client 7"):
        score_clients(ModelParams.zeros(1), [(7, UNIT_MODEL)], broken, ALL_THREE, alpha=1.0)


def test_score_clients_missing_group_names_client_and_objective():
    only_a = pattern_dataset([1, 0, 1], [1, 0, 1], [GROUP_A, GROUP_A, GROUP_A])
    with pytest.raises(MissingGroupError, match="objective 'spd' failed for client 3: spd: .* group 'd'"):
        score_clients(ModelParams.zeros(1), [(3, UNIT_MODEL), (4, UNIT_MODEL)], only_a, ALL_THREE)


_REFERENCE_SCORES = {
    "accuracy": reference_accuracy,
    "spd": lambda params, ds: 1.0 - reference_spd(params, ds),
    "eod": lambda params, ds: 1.0 - reference_eod(params, ds),
}


def _per_model_scores(global_params, models, validation, spec, alpha):
    """The per-model reference: the plain metrics on each blend, as
    objective_score maps them, composite summed in spec order."""
    raw, composites = [], []
    for _, params in models:
        blended = temp_aggregate(global_params, params, alpha)
        scores = {kind: _REFERENCE_SCORES[kind](blended, validation) for kind, _ in spec.entries}
        total = 0.0
        for kind, weight in spec.entries:
            total += weight * scores[kind]
        raw.append(scores)
        composites.append(total)
    return tuple(raw), tuple(composites)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 12),
    dim=st.integers(1, 6),
    n=st.integers(4, 120),
    alpha=st.floats(0.0, 1.0),
    entries=st.lists(
        st.tuples(st.sampled_from(("accuracy", "spd", "eod")), st.sampled_from((0.0, 0.5, 1.0, 2.5))),
        min_size=1,
        max_size=3,
        unique_by=lambda e: e[0],
    ).filter(lambda es: any(w > 0 for _, w in es)),
    seed=st.integers(0, 2**16),
)
def test_score_clients_equals_per_model_oracle_bitwise(k, dim, n, alpha, entries, seed):
    # exactness bound: none; batched counts must reproduce every float64 bit
    spec = ObjectiveSpec(tuple(entries))
    validation = coverage_dataset(n, dim, seed)
    global_params = random_params(dim, seed + 1)
    models = [(10 * i + 3, random_params(dim, seed + 2 + i, scale=2.0)) for i in range(k)]
    sv = score_clients(global_params, models, validation, spec, alpha)
    raw, composites = _per_model_scores(global_params, models, validation, spec, alpha)
    assert sv.client_ids == tuple(cid for cid, _ in models)
    assert sv.per_objective == raw
    assert [list(d) for d in sv.per_objective] == [list(spec.kinds)] * k
    assert sv.composite == composites
    # the per-model public path shares the count formulas and agrees too
    for (_, params), scores in zip(models, sv.per_objective):
        blended = temp_aggregate(global_params, params, alpha)
        assert scores == {kind: objective_score(kind, blended, validation) for kind in spec.kinds}


def test_score_clients_counts_a_tiny_negative_logit_as_positive():
    # w=(1, 0), b=0: the first row's logit is exactly -1e-17, whose sigmoid
    # rounds to 0.5 and so counts positive; a sign test would call it negative
    model = ModelParams(np.array([1.0, 0.0]), 0.0)
    rows = np.array([[-1e-17, 5.0], [-1e-17, 5.0], [10.0, 0.0], [-10.0, 0.0], [-1e-17, 1.0], [10.0, 1.0]])
    validation = TabularDataset(rows, np.array([1, 0, 1, 0, 1, 1]), np.array([1, 1, 1, 0, 0, 0]))
    assert classify(model, rows)[0] == 1
    for k in (1, 3):
        models = [(i, model) for i in range(k)]
        sv = score_clients(model, models, validation, ALL_THREE, alpha=0.5)
        raw, composites = _per_model_scores(model, models, validation, ALL_THREE, 0.5)
        assert sv.per_objective == raw
        assert sv.composite == composites
        # only the row at -10 is predicted negative; calling the -1e-17 rows
        # negative instead would give 4/6
        assert sv.per_objective[0]["accuracy"] == 5 / 6


def test_score_clients_empty_and_shape_errors():
    empty = score_clients(UNIT_MODEL, [], VAL, ALL_THREE)
    assert empty == ScoreVector((), (), ())
    with pytest.raises(ShapeError):
        score_clients(ModelParams.zeros(2), [(0, ModelParams.zeros(2))], VAL, ALL_THREE)
    with pytest.raises(ShapeError):
        score_clients(UNIT_MODEL, [(0, UNIT_MODEL), (1, ModelParams.zeros(2))], VAL, ALL_THREE)
    with pytest.raises(ConfigError):
        score_clients(UNIT_MODEL, [(0, UNIT_MODEL)], VAL, ALL_THREE, alpha=1.5)


def test_score_clients_names_the_first_client_whose_composite_overflows():
    # every objective weight is finite, so the spec is valid, but a composite
    # of w * accuracy + w * (1 - spd) is finite only while accuracy < 0.5:
    # the zero model predicts every row positive (accuracy p < 0.5, spd 0),
    # the bias -1 model every row negative (accuracy 1 - p > 0.5, spd 0)
    val = coverage_dataset(60, 2, seed=12, positive_rate=0.3)
    assert float(val.labels.mean()) <= 0.45
    w = np.finfo(np.float64).max / 1.5
    spec = ObjectiveSpec((("accuracy", w), ("spd", w)))
    negative = ModelParams(np.zeros(2), -1.0)
    models = [(2, ModelParams.zeros(2)), (4, negative), (7, negative)]
    with pytest.raises(NumericOverflowError, match="^composite score of client 4 overflows the float range$"):
        score_clients(ModelParams.zeros(2), models, val, spec)
    assert math.isfinite(score_clients(ModelParams.zeros(2), models[:1], val, spec).composite[0])


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def test_rank_update_geometric_oracle():
    # mu=0.001, rho=10, three clients sorted worst-first by composite:
    # one round gives (0.001, 0.01, 0.1); a second identical round doubles it
    cfg = RankingConfig(enabled=True, initial_step=0.001, step_size=10.0)
    scores = _sv((0, 1, 2), (0.2, 0.5, 0.9))
    state = RankState.zeros((0, 1, 2))
    state = rank_update(scores, state, cfg)
    assert state.rs[0] == pytest.approx(0.001, abs=1e-18)
    assert state.rs[1] == pytest.approx(0.01, abs=1e-17)
    assert state.rs[2] == pytest.approx(0.1, abs=1e-16)
    state = rank_update(scores, state, cfg)
    assert state.rs[0] == pytest.approx(0.002, abs=1e-18)
    assert state.rs[1] == pytest.approx(0.02, abs=1e-17)
    assert state.rs[2] == pytest.approx(0.2, abs=1e-16)


def test_rank_update_orders_worst_first():
    cfg = RankingConfig(enabled=True, initial_step=1.0, step_size=2.0)
    # ids deliberately not in score order
    scores = _sv((7, 3), (0.9, 0.1))
    state = rank_update(scores, RankState.zeros((7, 3)), cfg)
    assert state.rs[3] == 1.0  # worst composite, position 0
    assert state.rs[7] == 2.0


def test_rank_update_breaks_ties_by_client_id():
    cfg = RankingConfig(enabled=True, initial_step=1.0, step_size=2.0)
    scores = _sv((5, 2, 9), (0.4, 0.4, 0.4))
    state = rank_update(scores, RankState.zeros((2, 5, 9)), cfg)
    assert (state.rs[2], state.rs[5], state.rs[9]) == (1.0, 2.0, 4.0)


def test_rank_update_total_mass_closed_form():
    # each round adds mu * (rho^K - 1) / (rho - 1) in total
    for mu, rho, k in ((2.0, 1.5, 3), (2.0, 1.5, 10), (0.001, 10.0, 3), (0.001, 10.0, 10)):
        cfg = RankingConfig(enabled=True, initial_step=mu, step_size=rho)
        ids = tuple(range(k))
        state = RankState.zeros(ids)
        rounds = 4
        for _ in range(rounds):
            state = rank_update(_sv(ids, tuple(0.1 * (i + 1) for i in ids)), state, cfg)
        expected = rounds * mu * (rho**k - 1.0) / (rho - 1.0)
        assert sum(state.rs.values()) == pytest.approx(expected, rel=1e-12)


def test_rank_update_overflow_is_a_numeric_error():
    # the health-fedval-10 step size: 10.0**position leaves the float range past 308
    ids = tuple(range(400))
    cfg = RankingConfig(enabled=True, initial_step=1.0, step_size=10.0)
    state = RankState.zeros(ids)
    with pytest.raises(NumericOverflowError, match="rank position 309"):
        rank_update(_sv(ids, [float(i) for i in ids]), state, cfg)
    assert state.rs == dict.fromkeys(ids, 0.0)
    # an overflowing sum with a representable increment is caught as well
    near_max = RankState({0: 1.7e308, 1: 0.0})
    with pytest.raises(NumericOverflowError, match="client 0"):
        rank_update(_sv((0, 1), (2.0, 1.0)), near_max, RankingConfig(initial_step=1e308, step_size=1.0))


def test_rank_update_never_loses_mass():
    cfg = RankingConfig(enabled=True, initial_step=0.5, step_size=3.0)
    state = RankState.zeros((0, 1))
    for t in range(5):
        before = dict(state.rs)
        scores = _sv((0, 1), (0.1 + 0.1 * (t % 2), 0.2))
        state = rank_update(scores, state, cfg)
        assert all(state.rs[c] > before[c] for c in before)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 8),
    mu=st.floats(1e-3, 10.0),
    rho=st.floats(1.0, 10.0),
    seed=st.integers(0, 2**31),
)
def test_rank_update_positions_property(k, mu, rho, seed):
    rng = np.random.default_rng(seed)
    composites = tuple(float(v) for v in rng.random(k))
    cfg = RankingConfig(enabled=True, initial_step=mu, step_size=rho)
    ids = tuple(range(k))
    state = rank_update(_sv(ids, composites), RankState.zeros(ids), cfg)
    # the sorted rank masses are exactly the geometric ladder
    ladder = sorted(mu * rho**i for i in range(k))
    assert sorted(state.rs.values()) == pytest.approx(ladder, rel=1e-12)
    # better composite never earns less mass
    by_score = sorted(ids, key=lambda c: (composites[c], c))
    masses = [state.rs[c] for c in by_score]
    assert masses == sorted(masses)


# ---------------------------------------------------------------------------
# weights + aggregation
# ---------------------------------------------------------------------------


def test_make_weights_normalizes_composites():
    w = make_weights(_sv((0, 1, 2), (1.0, 2.0, 5.0)))
    assert w.p == pytest.approx((0.125, 0.25, 0.625), abs=1e-15)
    assert sum(w.p) == pytest.approx(1.0, abs=1e-12)


def test_make_weights_uses_rank_state_when_given():
    scores = _sv((0, 1), (0.9, 0.1))  # would favor client 0...
    state = RankState({0: 1.0, 1: 3.0})  # ...but the mass says otherwise
    w = make_weights(scores, state)
    assert w.p == pytest.approx((0.25, 0.75), abs=1e-15)


def test_make_weights_zero_total_is_degenerate():
    with pytest.raises(DegenerateWeightsError):
        make_weights(_sv((0, 1), (0.0, 0.0)))
    with pytest.raises(DegenerateWeightsError):
        make_weights(_sv((0, 1), (0.5, 0.5)), RankState.zeros((0, 1)))


def test_aggregate_weighted_average_oracle():
    m0 = ModelParams(np.array([1.0, 0.0]), 4.0)
    m1 = ModelParams(np.array([0.0, 2.0]), 0.0)
    out = aggregate([m0, m1], AggregationWeights((0, 1), (0.25, 0.75)))
    assert out.weights.tolist() == [0.25, 1.5]
    assert out.bias == 1.0


def test_aggregate_is_order_independent_bitwise():
    rng = np.random.default_rng(0)
    models = [ModelParams(rng.standard_normal(3), float(rng.standard_normal())) for _ in range(4)]
    p = (0.1, 0.2, 0.3, 0.4)
    a = aggregate(models, AggregationWeights((0, 1, 2, 3), p))
    # present the same pairs in reverse order
    b = aggregate(models[::-1], AggregationWeights((3, 2, 1, 0), p[::-1]))
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_aggregate_shape_errors():
    with pytest.raises(ShapeError):
        aggregate([ModelParams.zeros(2)], AggregationWeights((0, 1), (0.5, 0.5)))
    with pytest.raises(ShapeError):
        aggregate(
            [ModelParams.zeros(2), ModelParams.zeros(3)],
            AggregationWeights((0, 1), (0.5, 0.5)),
        )


def test_aggregate_identity_when_one_client_has_all_weight():
    m0, m1 = random_params(2, seed=1), random_params(2, seed=2)
    out = aggregate([m0, m1], AggregationWeights((0, 1), (0.0, 1.0)))
    assert np.array_equal(out.weights, m1.weights) and out.bias == m1.bias


# ---------------------------------------------------------------------------
# full round
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_world():
    data = generate_synthetic(300, 4, (0.6, 0.4), seed=99)
    train, validation = split_validation(data, 0.2, seed=1)
    clients = partition(train, [ClientSpec() for _ in range(3)], seed=2)
    return clients, validation


def test_fedval_round_report_shape(small_world):
    clients, validation = small_world
    cfg = TrainConfig(epochs=1, batch_size=32, lr=0.1, seed=5)
    new_global, state, info = fedval_round(
        ModelParams.zeros(4), clients, validation, ALL_THREE, cfg,
        RankingConfig(), RankState.zeros([c.client_id for c in clients]),
    )
    assert info.rank is None  # ranking off
    report = written_report(3, new_global, validation, clients, info)
    assert report["round"] == 3
    records = report["clients"]
    assert [c["client_id"] for c in records] == [0, 1, 2]
    assert sum(c["p"] for c in records) == pytest.approx(1.0, abs=1e-12)
    assert all(c["p"] >= 0 for c in records)
    assert all(c["composite"] is not None and c["scores"] is not None for c in records)
    assert all(c["rs"] is None for c in records)  # ranking off
    assert report["rs_spread"] is None
    assert 0.0 <= report["global"]["accuracy"] <= 1.0
    assert 0.0 <= report["global"]["spd"] <= 1.0
    assert 0.0 <= report["global"]["eod"] <= 1.0
    assert new_global.dim == 4


def test_fedval_round_is_deterministic(small_world):
    clients, validation = small_world
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.1, seed=11)
    args = (ModelParams.zeros(4), clients, validation, ALL_THREE, cfg)
    state0 = RankState.zeros([c.client_id for c in clients])
    a_global, _, a_info = fedval_round(*args, RankingConfig(), state0)
    b_global, _, b_info = fedval_round(*args, RankingConfig(), state0)
    assert np.array_equal(a_global.weights, b_global.weights)
    assert a_global.bias == b_global.bias
    a_report = written_report(1, a_global, validation, clients, a_info)
    b_report = written_report(1, b_global, validation, clients, b_info)
    assert a_report == b_report


def test_fedval_round_client_order_does_not_matter(small_world):
    clients, validation = small_world
    cfg = TrainConfig(epochs=1, batch_size=32, lr=0.1, seed=7)
    state0 = RankState.zeros([c.client_id for c in clients])
    a, _, ia = fedval_round(ModelParams.zeros(4), clients, validation, ALL_THREE, cfg, RankingConfig(), state0)
    b, _, ib = fedval_round(ModelParams.zeros(4), clients[::-1], validation, ALL_THREE, cfg, RankingConfig(), state0)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias
    ra = written_report(1, a, validation, clients, ia)
    rb = written_report(1, b, validation, clients[::-1], ib)
    assert ra == rb


def test_fedval_round_ranking_accumulates(small_world):
    clients, validation = small_world
    cfg = TrainConfig(epochs=1, batch_size=32, lr=0.1, seed=9)
    rank_cfg = RankingConfig(enabled=True, initial_step=1.0, step_size=2.0)
    state = RankState.zeros([c.client_id for c in clients])
    params = ModelParams.zeros(4)
    params, state, info1 = fedval_round(params, clients, validation, ALL_THREE, cfg, rank_cfg, state)
    report1 = written_report(1, params, validation, clients, info1)
    assert sorted(state.rs.values()) == [1.0, 2.0, 4.0]
    assert report1["rs_spread"] == 4.0
    assert all(c["rs"] is not None for c in report1["clients"])
    params, state, info2 = fedval_round(params, clients, validation, ALL_THREE, cfg, rank_cfg, state)
    report2 = written_report(2, params, validation, clients, info2)
    assert sum(state.rs.values()) == pytest.approx(14.0, abs=1e-12)
    # weights now come from the mass, not the raw scores
    expected = {c.client_id: state.rs[c.client_id] / 14.0 for c in clients}
    got = {c["client_id"]: c["p"] for c in report2["clients"]}
    assert got == pytest.approx(expected, abs=1e-12)


def test_fedval_round_uniform_when_clients_are_identical():
    # same shard everywhere + full-batch training means identical updates,
    # identical scores, and therefore exactly uniform weights
    shard = coverage_dataset(60, 3, seed=13)
    clients = [ClientProfile(client_id=i, behavior="cooperative", data=shard) for i in range(3)]
    validation = coverage_dataset(40, 3, seed=14)
    cfg = TrainConfig(epochs=2, batch_size=60, lr=0.2, seed=3)
    new_global, _, info = fedval_round(
        ModelParams.zeros(3), clients, validation, ALL_THREE, cfg,
        RankingConfig(), RankState.zeros([0, 1, 2]),
    )
    report = written_report(1, new_global, validation, clients, info)
    for c in report["clients"]:
        assert c["p"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_fedval_round_replays_as_published_pipeline(small_world):
    # the round must be exactly the documented composition: update every
    # client, score, rank, normalize, aggregate, with nothing hidden
    clients, validation = small_world
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.15, seed=77)
    rank_cfg = RankingConfig(enabled=True, initial_step=0.5, step_size=2.0)
    ids = sorted(c.client_id for c in clients)
    start = random_params(4, seed=21)
    state0 = RankState.zeros(ids)

    new_global, new_state, info = fedval_round(
        start, clients, validation, ALL_THREE, cfg, rank_cfg, state0, alpha=0.4,
    )
    report = written_report(3, new_global, validation, clients, info)

    ordered = sorted(clients, key=lambda c: c.client_id)
    updated = [
        (c.client_id, client_update(start, c.data, client_cfg(cfg, c.client_id)))
        for c in ordered
    ]
    scores = score_clients(start, updated, validation, ALL_THREE, 0.4)
    state1 = rank_update(scores, state0, rank_cfg)
    weights = make_weights(scores, state1)
    expected = aggregate([m for _, m in updated], weights)

    assert np.array_equal(new_global.weights, expected.weights)
    assert new_global.bias == expected.bias
    assert new_state.rs == state1.rs
    assert info.weights == weights
    assert info.scores == scores
    assert info.rank.rs == state1.rs

    assert report["round"] == 3
    assert report["global"] == {
        "accuracy": accuracy(expected, validation),
        "spd": spd(expected, validation),
        "eod": eod(expected, validation),
    }
    masses = [state1.rs[c] for c in ids]
    assert report["rs_spread"] == max(masses) / min(masses)
    assert len(report["clients"]) == len(updated)
    for i, record in enumerate(report["clients"]):
        cid, model = updated[i]
        assert record == {
            "client_id": cid,
            "behavior": ordered[i].behavior,
            "n": ordered[i].n,
            "local_loss": loss(model, ordered[i].data),
            "scores": scores.per_objective[i],
            "composite": scores.composite[i],
            "p": weights.p[i],
            "rs": state1.rs[cid],
        }


@given(
    rows=st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        min_size=1,
        max_size=7,
    ),
    rho=st.floats(1.1, 10.0),
)
def test_rank_update_dominance_across_rounds(rows, rho):
    # a client whose composite strictly beats another's in every round must
    # end with strictly more mass (rho > 1 pays better ranks more)
    ids = (0, 1, 2, 3)
    cfg = RankingConfig(enabled=True, initial_step=1.0, step_size=rho)
    state = RankState.zeros(ids)
    history = []
    for row in rows:
        composites = [2.0 + v for v in row]
        composites[0] = 1.0
        composites[3] = 4.5
        history.append(tuple(composites))
        state = rank_update(_sv(ids, composites), state, cfg)

    dominant_pairs = [
        (x, y)
        for x in ids
        for y in ids
        if x != y and all(h[x] > h[y] for h in history)
    ]
    assert (3, 0) in dominant_pairs
    for x, y in dominant_pairs:
        assert state.rs[x] > state.rs[y]
