import csv
import json
import math
import re
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

import fedval.baselines
import fedval.harness
import fedval.metrics
import fedval.model
import fedval.reporting
import fedval.server

from fedval.data import ClientSpec, SkewSpec
from fedval.errors import ConfigError, DataError, NumericOverflowError, UnknownPresetError
from fedval.harness import (
    STRATEGIES,
    CsvSpec,
    ExperimentConfig,
    SweepSpec,
    SweepVariant,
    SyntheticSpec,
    preset,
    preset_names,
    run_experiment,
    run_sweep,
)
from fedval.metrics import ObjectiveSpec
from fedval.model import ModelParams, TrainConfig
from fedval.reporting import CSV_COLUMNS, read_jsonl
from fedval.server import RankingConfig
from fedval.baselines import QConfig
from helpers import CLIENT_KEYS, GLOBAL_KEYS, ROUND_KEYS

ALL_THREE = ObjectiveSpec((("accuracy", 1.0), ("spd", 1.0), ("eod", 1.0)))


def tiny_config(strategy="fedval", rounds=2, k=3, **kw):
    defaults = dict(
        strategy=strategy,
        rounds=rounds,
        seed=12345,
        data=SyntheticSpec(n=120, dim=3, positive_rates=(0.6, 0.4)),
        clients=tuple(ClientSpec() for _ in range(k)),
        train=TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=0),
        validation_fraction=0.25,
        objectives=ALL_THREE,
    )
    if strategy in ("qfedsgd", "qfedavg"):
        defaults["qfed"] = QConfig(q=2.0)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# config validation + serialization
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_strategy():
    with pytest.raises(ConfigError, match="strategy"):
        tiny_config(strategy="fedprox")


def test_config_requires_clients_and_rounds():
    with pytest.raises(ConfigError):
        tiny_config(rounds=0)
    with pytest.raises(ConfigError):
        tiny_config(k=0)


def test_config_fraction_and_alpha_bounds():
    with pytest.raises(ConfigError):
        tiny_config(validation_fraction=0.0)
    with pytest.raises(ConfigError):
        tiny_config(validation_fraction=1.0)
    with pytest.raises(ConfigError):
        tiny_config(temp_alpha=1.5)


def test_fedval_requires_objectives():
    with pytest.raises(ConfigError, match="objectives"):
        tiny_config(objectives=None)


def test_qfed_strategies_require_qfed_section():
    with pytest.raises(ConfigError, match="qfed"):
        tiny_config(strategy="qfedsgd", qfed=None)
    with pytest.raises(ConfigError, match="qfed"):
        tiny_config(strategy="qfedavg", qfed=None)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
def test_config_rejects_an_afl_ascent_rate_that_is_not_positive_and_finite(rate):
    with pytest.raises(ConfigError, match=f"^afl lambda_lr must be positive, got {rate}$"):
        tiny_config(strategy="afl", afl_lambda_lr=rate)


def test_config_rejects_a_train_seed_it_would_not_read():
    # each round's seed derives from cfg.seed and to_dict writes no
    # train.seed, so a nonzero one would neither act nor survive a round trip
    with pytest.raises(ConfigError, match=r"^train\.seed must be 0 \(round seeds derive from seed\), got 5$"):
        tiny_config(train=TrainConfig(lr=0.1, seed=5))
    cfg = tiny_config(train=TrainConfig(lr=0.1, seed=0))
    assert "seed" not in cfg.to_dict()["train"]
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_dict_roundtrip():
    cfg = tiny_config(
        strategy="fedval",
        ranking=RankingConfig(enabled=True, initial_step=2.0, step_size=1.5),
        clients=(ClientSpec(), ClientSpec("uncooperative", SkewSpec(0.2, retain=0.9))),
        note="roundtrip",
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_roundtrip_covers_every_strategy():
    for strategy in STRATEGIES:
        cfg = tiny_config(strategy=strategy)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_from_dict_ignores_the_retired_qfed_lr_and_rounds():
    # configs resolved before QConfig dropped its unread lr/rounds still load
    cfg = tiny_config(strategy="qfedavg")
    raw = cfg.to_dict()
    assert set(raw["qfed"]) == {"q", "lipschitz"}
    raw["qfed"].update(lr=0.01, rounds=1000)
    assert ExperimentConfig.from_dict(raw) == cfg


def test_from_dict_accepts_bare_string_clients():
    raw = tiny_config().to_dict()
    raw["clients"] = ["cooperative", {"behavior": "uncooperative", "skew": {"ratio": 0.5}}]
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.clients[0] == ClientSpec(behavior="cooperative", skew=None)
    assert cfg.clients[1].behavior == "uncooperative"
    assert cfg.clients[1].skew.ratio == 0.5


def test_from_dict_rejects_non_mapping_client_entries():
    raw = tiny_config().to_dict()
    raw["clients"] = [42, "cooperative"]
    with pytest.raises(ConfigError, match="malformed config"):
        ExperimentConfig.from_dict(raw)


def test_from_dict_rejects_unknown_keys():
    raw = tiny_config().to_dict()
    raw["typo_key"] = 1
    with pytest.raises(ConfigError, match="typo_key"):
        ExperimentConfig.from_dict(raw)


def test_from_dict_rejects_missing_csv():
    raw = tiny_config().to_dict()
    raw["data"] = {"csv": {"path": "/nonexistent/file.csv", "schema": {
        "features": [{"name": "x", "kind": "numeric"}],
        "label": {"column": "y", "positive": "1"},
        "sensitive": {"column": "g", "advantaged": "a"},
    }}}
    with pytest.raises(ConfigError, match="does not exist"):
        ExperimentConfig.from_dict(raw)


def test_from_dict_wraps_malformed_input():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"strategy": "fedval"})  # missing everything
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([1, 2, 3])


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(n=1), "synthetic data n must be >= 2, got 1"),
        (dict(dim=0), "synthetic data dim must be >= 1, got 0"),
        (dict(positive_rates=(1.5, 0.3)), r"synthetic data positive_rates\[0\] must lie in \[0, 1\], got 1.5"),
        (dict(positive_rates=(0.6, -0.1)), r"synthetic data positive_rates\[1\] must lie in \[0, 1\], got -0.1"),
    ],
)
def test_synthetic_spec_out_of_range_is_a_config_error(fields, message):
    # generate_synthetic's own checks, made when the config is built, before a run touches its directory
    with pytest.raises(ConfigError, match=f"^{message}$"):
        SyntheticSpec(**{"n": 120, "dim": 3, "positive_rates": (0.6, 0.4), **fields})


@pytest.mark.parametrize(
    "client, message",
    [
        ({"behavior": "uncooperative", "skew": {"ratio": 1.5}}, "clients[1].skew is invalid: skew ratio"),
        ({"behavior": "uncooperative", "skew": {"ratio": 0.5, "group": "x"}}, "clients[1].skew is invalid: skew group"),
        ("sleepy", "clients[1] is invalid: unknown behavior 'sleepy'"),
    ],
)
def test_from_dict_reports_an_out_of_range_client_as_a_config_error_naming_it(client, message):
    raw = tiny_config().to_dict()
    raw["clients"] = ["cooperative", client]
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(raw)
    assert str(info.value).startswith(f"malformed config: {message}")
    # built in Python, the same values stay data errors
    with pytest.raises(DataError):
        SkewSpec(ratio=1.5)
    with pytest.raises(DataError):
        ClientSpec("sleepy")


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        ExperimentConfig.load(bad)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_run_experiment_artifacts(tmp_path):
    out = run_experiment(tiny_config(rounds=3), out_dir=tmp_path / "run")
    assert (out / "resolved_config.json").exists()
    assert (out / "final_model.json").exists()
    reports = read_jsonl(out / "rounds.jsonl")
    assert [r["round"] for r in reports] == [1, 2, 3]

    rows = _read_csv(out / "rounds.csv")
    assert rows[0] == list(CSV_COLUMNS)
    # per round: one row per client plus one global row
    assert len(rows) - 1 == 3 * (3 + 1)
    # saved model parses
    final = ModelParams.load(out / "final_model.json")
    assert final.dim == 3


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_experiment_every_strategy(tmp_path, strategy):
    out = run_experiment(tiny_config(strategy=strategy), out_dir=tmp_path / strategy)
    reports = read_jsonl(out / "rounds.jsonl")
    assert len(reports) == 2
    for r in reports:
        ps = [c["p"] for c in r["clients"]]
        assert sum(ps) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for p in ps)
        assert 0.0 <= r["global"]["accuracy"] <= 1.0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_read_jsonl_returns_each_round_as_the_writer_wrote_it(tmp_path, strategy):
    # exactly the writer's keys in the writer's order, and nothing lost:
    # json.dumps of the objects gives back the file
    out = run_experiment(tiny_config(strategy=strategy, rounds=3), out_dir=tmp_path / strategy)
    reports = read_jsonl(out / "rounds.jsonl")
    assert [r["round"] for r in reports] == [1, 2, 3]
    for r in reports:
        assert tuple(r) == ROUND_KEYS
        assert tuple(r["global"]) == GLOBAL_KEYS
        assert [tuple(c) for c in r["clients"]] == [CLIENT_KEYS] * 3
        for c in r["clients"]:
            assert (c["scores"] is None) == (strategy != "fedval")
            assert c["scores"] is None or tuple(c["scores"]) == ("accuracy", "spd", "eod")
    assert "".join(json.dumps(r) + "\n" for r in reports) == (out / "rounds.jsonl").read_text()


def test_run_experiment_replay_is_byte_identical(tmp_path):
    first = run_experiment(tiny_config(rounds=3), out_dir=tmp_path / "a")
    cfg = ExperimentConfig.load(first / "resolved_config.json")
    second = run_experiment(cfg, out_dir=tmp_path / "b")
    assert (first / "rounds.csv").read_bytes() == (second / "rounds.csv").read_bytes()
    assert (first / "rounds.jsonl").read_bytes() == (second / "rounds.jsonl").read_bytes()
    assert (first / "final_model.json").read_bytes() == (second / "final_model.json").read_bytes()


@pytest.mark.parametrize("strategy", ["afl", "qfedsgd"])
def test_afl_and_qfedsgd_read_no_train_field_but_lr(tmp_path, strategy):
    # neither runs local SGD: epochs and batch_size must not reach a written byte
    runs = [
        run_experiment(
            tiny_config(strategy=strategy, rounds=3, train=TrainConfig(epochs=epochs, batch_size=batch_size, lr=0.1)),
            out_dir=tmp_path / f"e{epochs}b{batch_size}",
        )
        for epochs, batch_size in ((1, 16), (4, 3))
    ]
    for name in ("rounds.jsonl", "rounds.csv", "final_model.json"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_run_experiment_seed_changes_results(tmp_path):
    a = run_experiment(tiny_config(rounds=2), out_dir=tmp_path / "a")
    from dataclasses import replace

    b = run_experiment(replace(tiny_config(rounds=2), seed=999), out_dir=tmp_path / "b")
    assert (a / "rounds.csv").read_bytes() != (b / "rounds.csv").read_bytes()


def test_run_experiment_overwrites_stale_outputs(tmp_path):
    out_dir = tmp_path / "run"
    run_experiment(tiny_config(rounds=2), out_dir=out_dir)
    first = (out_dir / "rounds.csv").read_bytes()
    run_experiment(tiny_config(rounds=2), out_dir=out_dir)
    assert (out_dir / "rounds.csv").read_bytes() == first  # replaced, not appended


# Python-built configs that no config file could state, by how they change
# tiny_config, and the key each names: a run reads its config back from its
# JSON form, so each is refused as that file would be
_UNSTATABLE = [
    (dict(rounds=np.int64(2)), "rounds must be an integer", np.int64(2)),
    (dict(rounds=2.5), "rounds must be an integer", 2.5),
    (dict(seed="x"), "seed must be an integer", "x"),
    (dict(train=TrainConfig(epochs=1.5, batch_size=16, lr=0.1)), "train.epochs must be an integer", 1.5),
    (dict(ranking=RankingConfig(enabled=np.bool_(True))), "ranking.enabled must be true or false", np.bool_(True)),
    (dict(data=SyntheticSpec(n=100.5, dim=3, positive_rates=(0.6, 0.4))),
     "data.synthetic.n must be an integer", 100.5),
    (dict(temp_alpha=True), "temp_alpha must be a number", True),
    (dict(temp_alpha=np.True_), "temp_alpha must be a number", np.True_),
]


@pytest.mark.parametrize(
    "change, message, value", _UNSTATABLE,
    ids=[
        "rounds-int64", "rounds-float", "seed-str", "epochs-float", "enabled-bool_", "synthetic-n-float",
        "temp_alpha-bool", "temp_alpha-bool_",
    ],
)
def test_a_config_no_file_could_state_is_refused_before_the_run_before(tmp_path, change, message, value):
    run = run_experiment(tiny_config(), out_dir=tmp_path / "run")
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert len(before) == 4
    with pytest.raises(ConfigError, match=f"^{re.escape(f'malformed config: {message}, got {value!r}')}$"):
        run_experiment(tiny_config(**change), out_dir=run)
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_a_numpy_float_runs_as_the_float_it_equals(tmp_path):
    want = run_experiment(tiny_config(temp_alpha=0.5), out_dir=tmp_path / "float")
    got = run_experiment(tiny_config(temp_alpha=np.float32(0.5)), out_dir=tmp_path / "float32")
    assert {p.name: p.read_bytes() for p in got.iterdir()} == {p.name: p.read_bytes() for p in want.iterdir()}


@pytest.mark.parametrize(
    "change, variant, message",
    [
        (dict(rounds=2.5), SweepVariant("rank", True), "malformed config: rounds must be an integer, got 2.5"),
        ({}, SweepVariant("rank", np.bool_(True)),
         f"malformed sweep spec: variants[0].ranking_enabled must be true or false, got {np.bool_(True)!r}"),
    ],
    ids=["base-rounds-float", "ranking_enabled-bool_"],
)
def test_a_sweep_no_file_could_state_is_refused_before_any_directory(tmp_path, change, variant, message):
    spec = SweepSpec((0, 3), (variant,), (1,))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_sweep(spec, tiny_config(**change), out_dir=tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


def test_run_experiment_fixed_data_seed_survives_master_reseed(tmp_path):
    # pinning the data seed keeps the dataset fixed while training reseeds
    base = tiny_config(rounds=1, data=SyntheticSpec(n=120, dim=3, positive_rates=(0.6, 0.4), seed=7))
    from dataclasses import replace

    a = run_experiment(base, out_dir=tmp_path / "a")
    b = run_experiment(replace(base, seed=54321), out_dir=tmp_path / "b")
    cfg_a = json.loads((a / "resolved_config.json").read_text())
    cfg_b = json.loads((b / "resolved_config.json").read_text())
    assert cfg_a["data"]["synthetic"]["seed"] == cfg_b["data"]["synthetic"]["seed"] == 7
    assert (a / "rounds.csv").read_bytes() != (b / "rounds.csv").read_bytes()


class _AtWriter(Exception):
    """Stops a run where the RoundWriter would be built: set-up is over."""


def _huge_step_config(strategy, lr, batch_size):
    """Two clients whose local SGD at `lr` ends in models with huge logits on their own shards."""
    return ExperimentConfig(
        strategy=strategy,
        rounds=1,
        seed=0,
        data=SyntheticSpec(n=400, dim=8, positive_rates=(0.6, 0.3)),
        clients=(ClientSpec(), ClientSpec()),
        train=TrainConfig(epochs=1, batch_size=batch_size, lr=lr),
        objectives=ObjectiveSpec((("accuracy", 1.0),)),
    )


@pytest.mark.parametrize("strategy", ["fedval", "fedavg"])
@pytest.mark.parametrize("lr, batch_size", [(5e306, 1), (1e307, 2)])
def test_local_losses_of_huge_models_warn_nothing(tmp_path, strategy, lr, batch_size):
    # each client's loss at its local model sees logits past the float range,
    # which the loss clamps; numpy must not warn about the overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run_experiment(_huge_step_config(strategy, lr, batch_size), out_dir=tmp_path / "run")
    [report] = read_jsonl(out / "rounds.jsonl")
    assert all(math.isfinite(c["local_loss"]) for c in report["clients"])


@pytest.mark.parametrize("strategy", ["fedval", "fedavg"])
def test_a_nan_local_logit_raises_naming_the_client_without_warnings(tmp_path, strategy):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError, match="^client 1: model logits overflowed to nan"):
            run_experiment(_huge_step_config(strategy, 1e307, 1), out_dir=tmp_path / "run")


def test_set_up_holds_at_most_two_and_a_half_copies_of_the_rows(tmp_path, monkeypatch):
    # partition runs beside the training and validation splits and the
    # growing shards, about two copies of the rows; with the generated
    # dataset still alive it would be about three (2.9x measured)
    cfg = preset("fedval-100")
    dataset_bytes = cfg.data.n * (cfg.data.dim + 2) * 8  # float64 features, int64 labels and groups

    def writer(out_dir):
        raise _AtWriter(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(fedval.harness, "RoundWriter", writer)
    tracemalloc.start()
    try:
        with pytest.raises(_AtWriter) as stop:
            run_experiment(cfg, out_dir=tmp_path / "run")
    finally:
        tracemalloc.stop()
    [peak] = stop.value.args
    assert peak <= 2.5 * dataset_bytes, peak / dataset_bytes


def test_generated_dataset_is_freed_before_partition(tmp_path, monkeypatch):
    made, alive_at_partition = [], []
    generate, partition = fedval.harness.generate_synthetic, fedval.harness.partition

    def tracked_generate(*args):
        dataset = generate(*args)
        made.append(weakref.ref(dataset))
        return dataset

    def checked_partition(train_data, *args):
        alive_at_partition.append(made[0]() is not None)
        return partition(train_data, *args)

    monkeypatch.setattr(fedval.harness, "generate_synthetic", tracked_generate)
    monkeypatch.setattr(fedval.harness, "partition", checked_partition)
    run_experiment(tiny_config(rounds=1), out_dir=tmp_path / "run")
    assert alive_at_partition == [False]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_names_are_sorted_and_buildable():
    names = preset_names()
    assert list(names) == sorted(names)
    for name in names:
        cfg = preset(name)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.out_dir.endswith(name)


def test_every_preset_reads_back_as_itself():
    # a run executes its config as read back from its JSON form: no shipped config changes by it
    for name in preset_names():
        cfg = preset(name)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg, name


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_runs_two_rounds(tmp_path, name):
    from dataclasses import replace

    cfg = replace(preset(name), rounds=2)
    reports = read_jsonl(run_experiment(cfg, out_dir=tmp_path / name) / "rounds.jsonl")
    assert [r["round"] for r in reports] == [1, 2]
    for report in reports:
        assert len(report["clients"]) == len(cfg.clients)
        assert abs(sum(c["p"] for c in report["clients"]) - 1.0) <= 1e-12


def test_unknown_preset_lists_known_names():
    with pytest.raises(UnknownPresetError) as err:
        preset("nope")
    assert "nope" in str(err.value)
    assert "adult-fedval-10" in str(err.value)


def test_preset_hyperparameters_spot_checks():
    adult = preset("adult-fedval-10")
    assert adult.strategy == "fedval"
    assert adult.rounds == 150
    assert adult.train.lr == 0.1
    assert adult.ranking.enabled
    assert (adult.ranking.initial_step, adult.ranking.step_size) == (2.0, 1.5)

    health = preset("health-fedval-10")
    assert health.rounds == 350
    assert (health.ranking.initial_step, health.ranking.step_size) == (0.001, 10.0)

    qfed = preset("adult-qfed")
    assert qfed.strategy == "qfedavg"
    assert qfed.qfed.q == 5.0
    assert qfed.rounds == 1000
    assert qfed.train.lr == 0.01

    afl = preset("adult-afl")
    assert afl.strategy == "afl"
    assert afl.afl_lambda_lr == 0.1
    assert afl.note  # carries the q=0 table caveat

    big = preset("fedval-100")
    assert len(big.clients) == 100
    assert big.data.n == 20000


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec((), (SweepVariant("a", True),), (1,))
    with pytest.raises(ConfigError):
        SweepSpec((1,), (), (1,))
    with pytest.raises(ConfigError, match="^sweep needs at least one replicate seed$"):
        SweepSpec((1,), (SweepVariant("a", True),), ())
    with pytest.raises(ConfigError):
        SweepSpec((1,), (SweepVariant("a", True), SweepVariant("a", False)), (1,))
    # the constructor takes only ints, by codec.INT as the JSON form does: no
    # float, string or bool is coerced
    for counts, seeds, field, value in (
        ((2.7, 3), (1,), r"cooperative_counts\[0\]", "2.7"),
        ((2, "3"), (1,), r"cooperative_counts\[1\]", "'3'"),
        ((True,), (1,), r"cooperative_counts\[0\]", "True"),
        ((2,), (1.9,), r"replicate_seeds\[0\]", "1.9"),
        ((2,), ("1",), r"replicate_seeds\[0\]", "'1'"),
        ((2,), (False,), r"replicate_seeds\[0\]", "False"),
    ):
        with pytest.raises(ConfigError, match=f"^malformed sweep spec: {field} must be an integer, got {value}$"):
            SweepSpec(counts, (SweepVariant("r", True),), seeds)
    spec = SweepSpec.from_dict(
        {
            "cooperative_counts": [0, 2],
            "variants": [{"name": "rank", "ranking_enabled": True}],
            "replicate_seeds": [7],
        }
    )
    assert spec.cooperative_counts == (0, 2)


def test_run_sweep_grid_and_summary(tmp_path):
    base = tiny_config(
        rounds=2,
        k=4,
        clients=tuple(ClientSpec("uncooperative", SkewSpec(ratio=0.3)) for _ in range(4)),
        data=SyntheticSpec(n=400, dim=3, positive_rates=(0.5, 0.5)),
        ranking=RankingConfig(enabled=True, initial_step=1.0, step_size=1.5),
    )
    spec = SweepSpec(
        cooperative_counts=(0, 4),
        variants=(SweepVariant("rank", True), SweepVariant("norank", False)),
        replicate_seeds=(11, 22),
    )
    result = run_sweep(spec, base, out_dir=tmp_path / "sweep")
    assert len(result.cells) == 2 * 2 * 2
    assert all(c.error is None for c in result.cells)
    for c in result.cells:  # each cell's final metrics are its last round's global object
        assert c.final == read_jsonl(c.run_dir / "rounds.jsonl")[-1]["global"]
        assert tuple(c.final) == ("accuracy", "spd", "eod")

    rows = _read_csv(result.summary_path)
    assert rows[0][:5] == [
        "cooperative_count", "cooperative_ratio", "variant", "ranking_enabled", "replicates_ok",
    ]
    assert len(rows) - 1 == 4  # counts x variants
    assert all(r[4] == "2" for r in rows[1:])  # both replicates succeeded

    # cooperative clients take the low ids in each cell config
    cell = next(c for c in result.cells if c.cooperative_count == 4 and c.variant == "rank")
    resolved = json.loads((cell.run_dir / "resolved_config.json").read_text())
    assert [c["behavior"] for c in resolved["clients"]] == ["cooperative"] * 4
    cell0 = next(c for c in result.cells if c.cooperative_count == 0 and c.variant == "norank")
    resolved0 = json.loads((cell0.run_dir / "resolved_config.json").read_text())
    assert [c["behavior"] for c in resolved0["clients"]] == ["uncooperative"] * 4
    assert all(c["skew"]["ratio"] == 0.3 for c in resolved0["clients"])  # template reused
    assert resolved0["ranking"]["enabled"] is False


def test_run_sweep_rejects_counts_beyond_population(tmp_path):
    base = tiny_config(k=3)
    spec = SweepSpec((5,), (SweepVariant("rank", True),), (1,))
    with pytest.raises(ConfigError, match="outside"):
        run_sweep(spec, base, out_dir=tmp_path / "s")


def test_run_sweep_records_failing_cells(tmp_path):
    # ratio so small the per-shard positive counts cannot honor it exactly:
    # with n=40 over 4 clients each shard has ~5 positives per group; a
    # near-zero ratio still rounds to feasible, so instead force failure
    # with a validation fraction that empties the training side
    base = tiny_config(
        k=2,
        rounds=1,
        data=SyntheticSpec(n=8, dim=2, positive_rates=(0.5, 0.5)),
        validation_fraction=0.9,
    )
    spec = SweepSpec((0,), (SweepVariant("rank", True),), (1, 2))
    result = run_sweep(spec, base, out_dir=tmp_path / "s")
    # Either the split succeeds by luck or the cell records its error;
    # the sweep itself must not raise.
    assert len(result.cells) == 2
    for c in result.cells:
        assert (c.final is not None) != (c.error is not None)


def test_run_sweep_records_rank_overflow_and_finishes(tmp_path):
    # step_size**2 leaves the float range, so every ranked cell overflows in
    # its first round; the unranked cells must still run and be summarised
    base = tiny_config(k=3, rounds=1, ranking=RankingConfig(enabled=True, step_size=1e200))
    spec = SweepSpec((0, 3), (SweepVariant("rank", True), SweepVariant("norank", False)), (1,))
    result = run_sweep(spec, base, out_dir=tmp_path / "s")
    assert len(result.cells) == 4
    for cell in result.cells:
        if cell.variant == "rank":
            assert cell.final is None and "rank mass" in cell.error
        else:
            assert cell.error is None and cell.final is not None
    assert [row["replicates_ok"] for row in result.summary_rows] == [0, 1, 0, 1]


def test_run_sweep_records_q_overflow_and_finishes(tmp_path):
    # a near-zero Lipschitz estimate makes q-FedAvg adopt the mean of local
    # models trained with a huge step; with seed 1 a client's loss at round 3
    # raised to q=400 leaves the float range, with seed 2 no loss grows that far
    base = tiny_config(
        strategy="qfedavg",
        rounds=3,
        qfed=QConfig(q=400.0, lipschitz=1e-9),
        train=TrainConfig(epochs=3, batch_size=16, lr=100.0, seed=0),
    )
    spec = SweepSpec((1,), (SweepVariant("norank", False),), (1, 2))
    result = run_sweep(spec, base, out_dir=tmp_path / "s")
    failed, finished = result.cells
    assert failed.final is None and failed.error.startswith("F**q overflowed for client ")
    assert finished.error is None and finished.final is not None
    assert result.summary_rows[0]["replicates_ok"] == 1


def test_run_sweep_records_degenerate_q_weights_and_finishes(tmp_path):
    # q=1500 with a near-zero Lipschitz estimate: L * F**q stays above the
    # smallest float at ln 2, but with seed 5 every client's loss falls far
    # enough in round 2 that every h_k underflows to 0; seed 4 finishes
    base = tiny_config(
        strategy="qfedavg",
        rounds=3,
        qfed=QConfig(q=1500.0, lipschitz=1e-9),
        train=TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=0),
    )
    spec = SweepSpec((3,), (SweepVariant("norank", False),), (4, 5))
    result = run_sweep(spec, base, out_dir=tmp_path / "s")
    finished, failed = result.cells
    assert failed.final is None and failed.error.startswith("q-FFL weights sum to 0.0 at q=1500.0")
    assert finished.error is None and finished.final is not None
    assert result.summary_rows[0]["replicates_ok"] == 1


@pytest.mark.parametrize("strategy", ["afl", "qfedavg", "fedval"])
def test_round_protocol_call_counts(tmp_path, monkeypatch, strategy):
    # The benchmark counts these calls exactly at the modules that bind them.
    # A refactor that fuses loss with gradient, or the three global metrics
    # into one call, must re-key those benchmark hooks first; this fails
    # before it gets that far.
    calls = Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for module in (fedval.server, fedval.baselines, fedval.harness, fedval.reporting):
        for name in ("loss", "gradient", "accuracy", "spd", "eod"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    # the work beneath them is shared: loss and gradient of one shard at one
    # model take one probability pass, and accuracy, spd and eod of one
    # model one classification of the validation split
    monkeypatch.setattr(fedval.model, "_proba", counting("proba", fedval.model._proba))
    counted_counts = counting("positive_counts", fedval.metrics.positive_counts)
    for module in (fedval.metrics, fedval.server):
        monkeypatch.setattr(module, "positive_counts", counted_counts)
    k, rounds = 3, 2
    run_experiment(tiny_config(strategy, rounds=rounds, k=k), tmp_path / strategy)
    assert calls["loss"] == k * rounds
    assert calls["gradient"] == (k * rounds if strategy == "afl" else 0)
    for metric in ("accuracy", "spd", "eod"):
        assert calls[metric] == rounds
    assert calls["proba"] == k * rounds
    # one more per round for fedval: score_clients counts every client's blend at once
    assert calls["positive_counts"] == (2 * rounds if strategy == "fedval" else rounds)


def test_package_exports_exactly_its_public_api():
    import fedval

    assert fedval.__all__ == [
        "AggregationWeights", "ClientProfile", "ClientSpec", "DatasetSchema",
        "ExperimentConfig", "ModelParams", "ObjectiveSpec", "QConfig", "RankState",
        "RankingConfig", "ScoreVector", "SkewSpec", "SweepSpec", "SweepVariant",
        "TabularDataset", "TrainConfig", "accuracy", "afl_round", "aggregate", "client_update",
        "composite_score", "eod", "fedavg_round", "fedval_round", "generate_synthetic",
        "gradient", "load_csv", "loss", "make_weights", "partition", "predict_proba", "preset",
        "preset_names", "project_simplex", "qfedavg_round", "qfedsgd_round", "rank_update",
        "read_jsonl", "run_experiment", "run_sweep", "score_clients", "skew", "spd",
        "split_validation", "temp_aggregate",
    ]
