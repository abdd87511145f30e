"""End-to-end acceptance checks.

Every test prints one verdict line (visible in the live terminal even under
capture) so a log scan shows the whole checklist:

    [acceptance] <criterion>: PASS|FAIL

The trend/downweighting/determinism criteria share one sweep, executed once
per session by the module-scoped fixture.
"""

from time import perf_counter

import numpy as np
import pytest

from fedval.baselines import (
    QConfig,
    afl_round,
    fedavg_round,
    qfedavg_round,
    qfedsgd_round,
)
from fedval.data import (
    GROUP_A,
    GROUP_D,
    ClientProfile,
    ClientSpec,
    SkewSpec,
    TabularDataset,
    generate_synthetic,
    partition,
    split_validation,
)
from fedval.harness import (
    ExperimentConfig,
    SweepSpec,
    SweepVariant,
    SyntheticSpec,
    run_experiment,
    run_sweep,
)
from fedval.metrics import ObjectiveSpec, ScoreVector, accuracy, eod, spd
from fedval.model import ModelParams, TrainConfig, classify, client_update, gradient, loss
from fedval.reporting import read_jsonl
from fedval.server import RankingConfig, RankState, fedval_round, rank_update
from helpers import client_cfg, coverage_dataset, uniform_mixture

ALL_THREE = ObjectiveSpec((("accuracy", 1.0), ("spd", 1.0), ("eod", 1.0)))


def _verdict(capsys, name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _flat(params):
    return np.concatenate([params.weights, [params.bias]])


def _random_world(rng, k=None):
    k = int(k if k is not None else rng.integers(2, 6))
    dim = int(rng.integers(2, 5))
    n = int(rng.integers(140, 260))
    data = generate_synthetic(
        n,
        dim,
        (float(rng.uniform(0.45, 0.65)), float(rng.uniform(0.35, 0.55))),
        seed=int(rng.integers(2**31)),
    )
    train, validation = split_validation(data, 0.3, seed=int(rng.integers(2**31)))
    clients = partition(train, [ClientSpec() for _ in range(k)], seed=int(rng.integers(2**31)))
    params = ModelParams(0.3 * rng.standard_normal(dim), float(0.3 * rng.standard_normal()))
    return clients, validation, params


# ---------------------------------------------------------------------------
# 1. metric oracle equivalence
# ---------------------------------------------------------------------------


def _counted_metrics(preds, labels, groups):
    """Brute-force per-row recount, pure Python."""
    rows = list(zip(preds, labels, groups))
    acc = sum(1 for p, y, _ in rows if p == y) / len(rows)

    def rate(group):
        got = [p for p, _, g in rows if g == group]
        return sum(got) / len(got)

    def tpr(group):
        got = [p for p, y, g in rows if g == group and y == 1]
        return sum(got) / len(got)

    return acc, abs(rate(GROUP_A) - rate(GROUP_D)), abs(tpr(GROUP_A) - tpr(GROUP_D))


def test_criterion_metric_oracle(capsys):
    rng = np.random.default_rng(8101)
    start = perf_counter()
    exact = True
    for _ in range(100):
        n = int(rng.integers(8, 501))
        dim = int(rng.integers(1, 7))
        labels = rng.integers(0, 2, n)
        groups = rng.integers(0, 2, n)
        labels[:4] = (1, 0, 1, 0)
        groups[:4] = (GROUP_A, GROUP_A, GROUP_D, GROUP_D)
        ds = TabularDataset(rng.standard_normal((n, dim)), labels, groups)
        params = ModelParams(rng.standard_normal(dim), float(rng.standard_normal()))

        preds = classify(params, ds.features).tolist()
        want_acc, want_spd, want_eod = _counted_metrics(preds, labels.tolist(), groups.tolist())
        exact &= accuracy(params, ds) == want_acc
        exact &= spd(params, ds) == want_spd
        exact &= eod(params, ds) == want_eod
    elapsed = perf_counter() - start
    _verdict(
        capsys,
        "metric oracle equivalence (bit-exact, 100 cases)",
        exact and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. gradient finite differences
# ---------------------------------------------------------------------------


def test_criterion_gradient_check(capsys):
    rng = np.random.default_rng(8102)
    start = perf_counter()
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        dim = int(rng.integers(1, 7))
        ds = TabularDataset(rng.standard_normal((n, dim)), rng.integers(0, 2, n), rng.integers(0, 2, n))
        params = ModelParams(0.7 * rng.standard_normal(dim), float(0.7 * rng.standard_normal()))

        gw, gb = gradient(params, ds)
        analytic = np.concatenate([gw, [gb]])
        fd = np.empty(dim + 1)
        for j in range(dim):
            hi = params.weights.copy()
            lo = params.weights.copy()
            hi[j] += eps
            lo[j] -= eps
            fd[j] = (loss(ModelParams(hi, params.bias), ds) - loss(ModelParams(lo, params.bias), ds)) / (2 * eps)
        fd[dim] = (
            loss(ModelParams(params.weights, params.bias + eps), ds)
            - loss(ModelParams(params.weights, params.bias - eps), ds)
        ) / (2 * eps)
        rel = float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8))
        worst = max(worst, rel)
    elapsed = perf_counter() - start
    _verdict(
        capsys,
        "analytic gradient vs central differences (rel <= 1e-5, 100 cases)",
        worst <= 1e-5 and elapsed < 5.0,
        f"worst rel {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. fedval reduces to fedavg
# ---------------------------------------------------------------------------


def test_criterion_fedavg_reduction(capsys):
    # identical shards, equal sizes, full-batch updates: scores tie, so the
    # validation weighting must coincide with the n_k/n average
    shard = coverage_dataset(80, 3, seed=31)
    validation = coverage_dataset(60, 3, seed=32)
    clients = [ClientProfile(i, "cooperative", shard) for i in range(4)]
    state = RankState.zeros(range(4))

    fv = fa = ModelParams.zeros(3)
    worst = 0.0
    for t in range(1, 11):
        cfg = TrainConfig(epochs=1, batch_size=128, lr=0.1, seed=t)
        fv, state, _ = fedval_round(fv, clients, validation, ALL_THREE, cfg, RankingConfig(), state)
        fa, _ = fedavg_round(fa, clients, cfg)
        worst = max(worst, float(np.max(np.abs(_flat(fv) - _flat(fa)))))
    _verdict(
        capsys,
        "fedval == fedavg under tied scores (10 rounds, <= 1e-12)",
        worst <= 1e-12,
        f"max coordinate gap {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. ranking arithmetic
# ---------------------------------------------------------------------------


def test_criterion_ranking_arithmetic(capsys):
    rng = np.random.default_rng(8104)
    ok = True
    worst = 0.0
    for mu, rho in ((2.0, 1.5), (0.001, 10.0)):
        for k in (3, 10):
            cfg = RankingConfig(enabled=True, initial_step=mu, step_size=rho)
            ids = tuple(range(k))
            per_round_total = mu * (rho**k - 1.0) / (rho - 1.0)
            state = RankState.zeros(ids)
            rounds = 3
            for _ in range(rounds):
                composites = tuple(float(v) for v in rng.random(k))
                new = rank_update(ScoreVector(ids, composites, tuple({} for _ in ids)), state, cfg)
                increments = {c: new.rs[c] - state.rs[c] for c in ids}
                order = sorted(ids, key=lambda c: (composites[c], c))
                for position, cid in enumerate(order):
                    gap = abs(increments[cid] - mu * rho**position)
                    worst = max(worst, gap)
                    ok &= gap <= 1e-9
                gap = abs(sum(increments.values()) - per_round_total)
                worst = max(worst, gap)
                ok &= gap <= 1e-9
                state = new
            gap = abs(sum(state.rs.values()) - rounds * per_round_total)
            worst = max(worst, gap)
            ok &= gap <= 1e-9
    _verdict(
        capsys,
        "geometric rank increments and closed-form mass (<= 1e-9)",
        ok,
        f"worst gap {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. weight simplex across strategies
# ---------------------------------------------------------------------------


def test_criterion_weight_simplex(capsys):
    rng = np.random.default_rng(8105)
    checked = 0
    ok = True
    for scenario in range(40):
        clients, validation, params = _random_world(rng)
        ids = tuple(c.client_id for c in clients)
        cfg = TrainConfig(epochs=1, batch_size=32, lr=0.1, seed=int(rng.integers(2**31)))

        collected = []
        ranking = RankingConfig(enabled=bool(scenario % 2), initial_step=1.0, step_size=1.5)
        _, _, info = fedval_round(
            params, clients, validation, ALL_THREE, cfg, ranking, RankState.zeros(ids)
        )
        collected.append(info.weights.p)

        _, info = fedavg_round(params, clients, cfg)
        collected.append(info.weights.p)
        _, info = qfedsgd_round(params, clients, QConfig(q=float(rng.uniform(0, 4))))
        collected.append(info.weights.p)
        _, info = qfedavg_round(params, clients, cfg, QConfig(q=float(rng.uniform(0, 4))))
        collected.append(info.weights.p)
        _, _, info = afl_round(params, clients, uniform_mixture(ids), cfg, 0.1)
        collected.append(info.weights.p)

        for p in collected:
            checked += 1
            ok &= abs(sum(p) - 1.0) <= 1e-12
            ok &= all(v >= 0 for v in p)
    _verdict(
        capsys,
        "aggregation weights form a simplex (all strategies, 200 rounds)",
        ok and checked == 200,
        f"{checked} rounds",
    )


# ---------------------------------------------------------------------------
# 6. q = 0 reductions
# ---------------------------------------------------------------------------


def test_criterion_q0_reductions(capsys):
    rng = np.random.default_rng(8106)
    worst_sgd = worst_avg = 0.0
    for _ in range(10):
        clients, _, params = _random_world(rng)
        k = len(clients)
        L = float(rng.uniform(0.5, 4.0))
        cfg = TrainConfig(epochs=1, batch_size=32, lr=0.1, seed=int(rng.integers(2**31)))

        got, _ = qfedsgd_round(params, clients, QConfig(q=0.0, lipschitz=L))
        summed = np.sum(
            [np.concatenate([gw, [gb]]) for gw, gb in (gradient(params, c.data) for c in clients)],
            axis=0,
        )
        expected = _flat(params) - summed / (k * L)
        worst_sgd = max(worst_sgd, float(np.max(np.abs(_flat(got) - expected))))

        got, _ = qfedavg_round(params, clients, cfg, QConfig(q=0.0, lipschitz=L))
        locals_ = [client_update(params, c.data, client_cfg(cfg, c.client_id)) for c in clients]
        mean = np.mean([_flat(m) for m in locals_], axis=0)
        worst_avg = max(worst_avg, float(np.max(np.abs(_flat(got) - mean))))
    _verdict(
        capsys,
        "q=0 reductions: mean-gradient step and mean of local models (<= 1e-10)",
        worst_sgd <= 1e-10 and worst_avg <= 1e-10,
        f"qfedsgd {worst_sgd:.2e}, qfedavg {worst_avg:.2e}",
    )


# ---------------------------------------------------------------------------
# 7. objective-weight scale invariance
# ---------------------------------------------------------------------------


def test_criterion_weight_scale_invariance(capsys):
    rng = np.random.default_rng(8107)
    ok = True
    worst = 0.0
    for _ in range(20):
        clients, validation, params = _random_world(rng)
        ids = tuple(c.client_id for c in clients)
        cfg = TrainConfig(epochs=1, batch_size=32, lr=0.1, seed=int(rng.integers(2**31)))
        base_weights = tuple(float(v) for v in rng.uniform(0.25, 2.0, size=3))
        base = ObjectiveSpec(tuple(zip(("accuracy", "spd", "eod"), base_weights)))

        _, _, base_info = fedval_round(
            params, clients, validation, base, cfg, RankingConfig(), RankState.zeros(ids)
        )
        rank_cfg = RankingConfig(enabled=True, initial_step=1.0, step_size=1.5)
        _, base_state, _ = fedval_round(
            params, clients, validation, base, cfg, rank_cfg, RankState.zeros(ids)
        )

        for alpha in (0.1, 3.0, 100.0):
            scaled = ObjectiveSpec(
                tuple((kind, alpha * w) for kind, w in zip(("accuracy", "spd", "eod"), base_weights))
            )
            _, _, scaled_info = fedval_round(
                params, clients, validation, scaled, cfg, RankingConfig(), RankState.zeros(ids)
            )
            for b, s in zip(base_info.weights.p, scaled_info.weights.p):
                gap = abs(b - s)
                worst = max(worst, gap)
                ok &= gap <= 1e-12
            _, scaled_state, _ = fedval_round(
                params, clients, validation, scaled, cfg, rank_cfg, RankState.zeros(ids)
            )
            # identical orderings produce identical geometric masses
            ok &= scaled_state.rs == base_state.rs
    _verdict(
        capsys,
        "objective-weight scaling leaves weights and rank order unchanged",
        ok,
        f"worst p gap {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 8-10. desk-scale trend sweep
# ---------------------------------------------------------------------------

COUNTS = (0, 3, 5, 8, 10)
SEEDS = (101, 202, 303)


@pytest.fixture(scope="module")
def trend_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("trend_sweep")
    base = ExperimentConfig(
        strategy="fedval",
        rounds=60,
        seed=0,
        data=SyntheticSpec(n=4000, dim=8, positive_rates=(0.5, 0.5)),
        clients=tuple(ClientSpec("uncooperative", SkewSpec(ratio=0.2)) for _ in range(10)),
        train=TrainConfig(epochs=1, batch_size=32, lr=0.2, seed=0),
        validation_fraction=0.25,
        objectives=ALL_THREE,
        ranking=RankingConfig(enabled=True, initial_step=2.0, step_size=1.5),
        out_dir=str(out),
    )
    spec = SweepSpec(
        cooperative_counts=COUNTS,
        variants=(SweepVariant("rank", True), SweepVariant("norank", False)),
        replicate_seeds=SEEDS,
    )
    start = perf_counter()
    result = run_sweep(spec, base, out_dir=out)
    return result, perf_counter() - start


def _final_spd(result, count, variant, seed):
    cell = next(
        c
        for c in result.cells
        if c.cooperative_count == count and c.variant == variant and c.seed == seed
    )
    assert cell.final is not None, cell.error
    return cell.final["spd"]


def test_criterion_bias_trend(capsys, trend_sweep):
    result, elapsed = trend_sweep
    ok = all(c.error is None for c in result.cells)

    drops = 0
    for seed in SEEDS:
        curve = [_final_spd(result, count, "rank", seed) for count in COUNTS]
        ok &= all(b <= a + 0.02 for a, b in zip(curve, curve[1:]))
        if curve[0] - curve[-1] >= 0.05:
            drops += 1
    ok &= drops >= 2

    rank_at_3 = float(np.mean([_final_spd(result, 3, "rank", s) for s in SEEDS]))
    norank_at_3 = float(np.mean([_final_spd(result, 3, "norank", s) for s in SEEDS]))
    ok &= rank_at_3 <= norank_at_3
    ok &= elapsed < 180.0
    _verdict(
        capsys,
        "bias drops with cooperative share (ranking sweep)",
        ok,
        f"endpoint drops {drops}/3, rank@3 {rank_at_3:.3f} vs norank@3 {norank_at_3:.3f}, {elapsed:.0f}s",
    )


def test_criterion_adversary_downweighting(capsys, trend_sweep):
    result, _ = trend_sweep
    ok = True
    detail = []
    for seed in SEEDS:
        cell = next(
            c
            for c in result.cells
            if c.cooperative_count == 8 and c.variant == "rank" and c.seed == seed
        )
        reports = read_jsonl(cell.run_dir / "rounds.jsonl")[-10:]
        skewed, coop = [], []
        for report in reports:
            for client in report.clients:
                (skewed if client.behavior == "uncooperative" else coop).append(client.p)
        mean_skewed = float(np.mean(skewed))
        mean_coop = float(np.mean(coop))
        ok &= mean_skewed < 1.0 / 10.0 < mean_coop
        detail.append(f"{mean_skewed:.3f}<0.1<{mean_coop:.3f}")
    _verdict(
        capsys,
        "skewed clients average below uniform weight (count=8, final 10 rounds)",
        ok,
        "; ".join(detail),
    )


def test_criterion_determinism(capsys, trend_sweep, tmp_path):
    result, _ = trend_sweep
    cell = next(c for c in result.cells if c.cooperative_count == 3 and c.variant == "rank")
    cfg = ExperimentConfig.load(cell.run_dir / "resolved_config.json")
    replay = run_experiment(cfg, out_dir=tmp_path / "replay")
    same_csv = (cell.run_dir / "rounds.csv").read_bytes() == (replay / "rounds.csv").read_bytes()
    same_jsonl = (cell.run_dir / "rounds.jsonl").read_bytes() == (replay / "rounds.jsonl").read_bytes()
    _verdict(
        capsys,
        "identical resolved config replays byte-identical outputs",
        same_csv and same_jsonl,
        f"csv {'==' if same_csv else '!='}, jsonl {'==' if same_jsonl else '!='}",
    )
