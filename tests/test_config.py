"""The config codec: resolved-config bytes, round trips and strict reading.

`json.dumps(cfg.to_dict(), indent=2)` is the body of every run's
resolved_config.json.  Its sha256 is pinned below for every preset and for
the golden configs of test_golden.py.  The digests were recorded from the
hand-written `to_dict` that the section tables of `fedval.harness`
replaced, so a table that writes other bytes (a key renamed, reordered or
retyped) fails here.  The same holds for a dataset schema file written by
`fedval gen-data` and for a run's resolved_config.json with a CSV source,
pinned from the hand-written schema reader and writer that preceded
`data.SCHEMA_TABLE`.
"""

import hashlib
import json
from pathlib import Path
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedval.harness as harness
from fedval.baselines import QConfig
from fedval.cli import main
from fedval.codec import FLOAT, INT, Section, read_json, write_json
from fedval.data import ClientSpec, SkewSpec
from fedval.errors import ConfigError
from fedval.harness import (
    STRATEGIES, ExperimentConfig, SweepSpec, SyntheticSpec, preset, preset_names, run_experiment,
)
from fedval.metrics import ObjectiveSpec
from fedval.model import TrainConfig
from fedval.server import RankingConfig

from test_golden import golden_config

PRESET_DIGESTS = {
    "adult-afl": "09237e04ef82bdc214312741e689e2e6bfe32b5fcb8b0ddba134d889ea7832fb",
    "adult-fedavg": "01a053eed7e352bb95cd24301306d37a8fdbbcdebcd76123358292a0fdabc06c",
    "adult-fedval-10": "7f145c3b4ec707d894d4d7db9f01ccabd2beb5db754ce00405cc9c866d5887f1",
    "adult-qfed": "375590dc6af0ed31a032a546978b3fd593047f3f7759e6bf460a004ddd059e4e",
    "fedval-100": "66ba128f6647e36676fea9fa090625027e3d6a8d033372f9bcfcdbe58101c5ad",
    "health-afl": "6eab5a734160c5ac247ab36a8cc7c6ea4bfa327d60348a9f7e43525366c3f00e",
    "health-fedavg": "dd8d830a04e53437e513b573fbc9b00661ce3d0f2cb0df327e5b178af86955dc",
    "health-fedval-10": "5c28c52d852abbccea74e92b4ed100498a98194d6421dfcd1402cf77677f2b05",
    "health-qfed": "48463b5dc353944d3a520b94e0cabf815b890bb1e7a9a24131cd6425eddf494a",
}

GOLDEN_CONFIG_DIGESTS = {
    "afl": "c70db66bae0fb7905d79386bae34cd39a64e853c53658c09e55e3ed70682bd61",
    "fedavg": "9df0da6c79ff741460e2a41e4f899e8c84fa4985b5fa1020609b284cbd2092ee",
    "fedval": "a8fa4b1c52e52e8ce4922c0f682de3e64d42d132ec8dcd0096528c49d782aa8d",
    "qfedavg": "9b2c25ccdfbf704ab2253de9d17d4431166822e48e6d3c9026da06809c374f07",
    "qfedsgd": "f43622c5df38136a2f12f4719f96806f59ec73100cc94834eac6f1a9201841d7",
}


def resolved_digest(cfg):
    return hashlib.sha256(json.dumps(cfg.to_dict(), indent=2).encode()).hexdigest()


def test_the_pins_cover_every_preset_and_strategy():
    assert sorted(PRESET_DIGESTS) == sorted(preset_names())
    assert sorted(GOLDEN_CONFIG_DIGESTS) == sorted(STRATEGIES)


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_resolves_to_the_pinned_bytes(name):
    assert resolved_digest(preset(name)) == PRESET_DIGESTS[name]


@pytest.mark.parametrize("strategy", sorted(GOLDEN_CONFIG_DIGESTS))
def test_golden_config_resolves_to_the_pinned_bytes(strategy):
    assert resolved_digest(golden_config(strategy)) == GOLDEN_CONFIG_DIGESTS[strategy]


def round_trip(cfg):
    return ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))


@pytest.mark.parametrize(
    "cfg",
    [preset(name) for name in preset_names()] + [golden_config(s) for s in STRATEGIES],
    ids=[*preset_names(), *(f"golden-{s}" for s in STRATEGIES)],
)
def test_every_preset_and_strategy_round_trips_through_json(cfg):
    assert round_trip(cfg) == cfg


_finite = st.floats(min_value=0.01, max_value=0.99)


@st.composite
def experiment_configs(draw):
    strategy = draw(st.sampled_from(STRATEGIES))
    skews = st.none() | st.builds(
        SkewSpec, ratio=_finite, retain=_finite, group=st.sampled_from(("a", "d"))
    )
    clients = draw(st.lists(
        st.builds(ClientSpec, st.sampled_from(("cooperative", "normal", "uncooperative")), skews),
        min_size=1, max_size=4,
    ))
    kinds = draw(st.lists(st.sampled_from(("accuracy", "spd", "eod")), min_size=1, unique=True))
    objectives = ObjectiveSpec(tuple((kind, draw(st.floats(0.5, 4.0))) for kind in kinds))
    return ExperimentConfig(
        strategy=strategy,
        rounds=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(-(2**70), 2**70)),
        data=SyntheticSpec(
            n=draw(st.integers(2, 10**6)), dim=draw(st.integers(1, 50)),
            positive_rates=(draw(_finite), draw(_finite)),
            seed=draw(st.none() | st.integers(0, 2**64)),
        ),
        clients=tuple(clients),
        train=TrainConfig(
            epochs=draw(st.integers(1, 5)), batch_size=draw(st.integers(1, 512)),
            lr=draw(st.floats(1e-6, 10.0)),
        ),
        validation_fraction=draw(_finite),
        objectives=objectives if strategy == "fedval" or draw(st.booleans()) else None,
        ranking=RankingConfig(
            enabled=draw(st.booleans()), initial_step=draw(st.floats(1e-3, 10.0)),
            step_size=draw(st.floats(1.0, 10.0)),
        ),
        temp_alpha=draw(st.floats(0.0, 1.0)),
        qfed=QConfig(q=draw(st.floats(0.0, 10.0)), lipschitz=draw(st.floats(0.1, 10.0)))
        if strategy in ("qfedsgd", "qfedavg") or draw(st.booleans()) else None,
        afl_lambda_lr=draw(st.floats(1e-3, 10.0)),
        out_dir=draw(st.text(max_size=12)),
        note=draw(st.text(max_size=12)),
    )


@settings(max_examples=150, deadline=None)
@given(cfg=experiment_configs())
def test_any_config_round_trips_through_json(cfg):
    again = round_trip(cfg)
    assert again == cfg
    assert json.dumps(again.to_dict(), indent=2) == json.dumps(cfg.to_dict(), indent=2)


def test_a_csv_source_round_trips_and_writes_its_schema_as_before(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x,c,y,g\n1.0,u,1,a\n2.0,v,0,d\n")
    schema = {
        "features": [
            {"name": "x", "kind": "numeric"},
            {"name": "c", "kind": "categorical", "categories": ["u", "v"]},
        ],
        "label": {"column": "y", "positive": "1"},
        "sensitive": {"column": "g", "advantaged": "a"},
    }
    raw = base_raw()
    raw["data"] = {"csv": {"path": str(data), "schema": schema}}
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.to_dict()["data"] == raw["data"]
    assert round_trip(cfg) == cfg


# sha256 of the schema file `fedval gen-data` writes for a 3-column spec, and
# of resolved_config.json for a run of the CSV-sourced config below
GEN_DATA_SCHEMA_DIGEST = "d176e2d9b089f69c895b62702427f9ff3486820982f705eb5a96e793a81c4174"
CSV_CONFIG_DIGEST = "ec73c346262422d541e944fb42147c062727e53f2c086e8ce7dca6e9e4d1c0c8"


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_gen_data_writes_the_pinned_schema_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_json("spec.json", {"n": 40, "dim": 3, "positive_rates": [0.6, 0.4], "seed": 2})
    assert main(["gen-data", "spec.json", "synth.csv"]) == 0
    assert file_digest("synth.schema.json") == GEN_DATA_SCHEMA_DIGEST


def test_a_csv_sourced_run_resolves_to_the_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the config names its CSV by a relative path
    rows = ["age,work,income,sex"] + [
        f"{20 + (i * 7) % 40},{'ab'[i % 2]}{'xy'[(i // 2) % 2]},{'>50K' if i % 3 else '<=50K'},{'MF'[(i // 3) % 2]}"
        for i in range(24)
    ]
    Path("adult.csv").write_text("\n".join(rows) + "\n")
    raw = {
        "strategy": "fedval", "rounds": 1, "seed": 3, "out_dir": "run",
        "data": {"csv": {"path": "adult.csv", "schema": {
            "features": [
                {"name": "age", "kind": "numeric"},
                {"name": "work", "kind": "categorical", "categories": ["ax", "bx", "ay", "by"]},
            ],
            "label": {"column": "income", "positive": ">50K"},
            "sensitive": {"column": "sex", "advantaged": "M"},
        }}},
        "clients": ["cooperative", "normal"],
        "objectives": [{"kind": "accuracy", "weight": 1.0}, {"kind": "eod", "weight": 0.5}],
        "train": {"lr": 0.1, "batch_size": 4},
        "validation_fraction": 0.25,
    }
    out = run_experiment(ExperimentConfig.from_dict(raw))
    assert file_digest(out / "resolved_config.json") == CSV_CONFIG_DIGEST


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("label", "positive"), 1.0, "malformed config: data.csv.schema.label.positive must be a string, got 1.0"),
        (("features", 1, "categories", 0), 1, "malformed config: data.csv.schema.features[1].categories[0] must be a string"),
        (("sensitive", "advantaged"), None, "malformed config: data.csv.schema.sensitive.advantaged must be a string"),
        (("label", "typo"), 1, "unknown config keys in data.csv.schema.label: ['typo']"),
    ],
)
def test_a_schema_fault_in_a_config_is_named_by_its_path(tmp_path, path, value, message):
    data = tmp_path / "data.csv"
    data.write_text("x,c,y,g\n1.0,u,1,a\n2.0,v,0,d\n")
    schema = {
        "features": [
            {"name": "x", "kind": "numeric"},
            {"name": "c", "kind": "categorical", "categories": ["u", "v"]},
        ],
        "label": {"column": "y", "positive": "1"},
        "sensitive": {"column": "g", "advantaged": "a"},
    }
    raw = base_raw()
    raw["data"] = {"csv": {"path": str(data), "schema": set_path(schema, path, value)}}
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(raw)
    assert str(info.value).startswith(message)


def _tables():
    return [(name, table) for name, table in vars(harness).items() if isinstance(table, Section)]


@pytest.mark.parametrize("name, table", _tables(), ids=[name for name, _ in _tables()])
def test_every_table_key_fills_an_attribute_of_its_class(name, table):
    if table.cls is None:
        return
    attributes = {f.name for f in fields(table.cls)}
    assert {attr for attr in table.attrs.values() if attr is not None} <= attributes


# ---------------------------------------------------------------------------
# strict reading
# ---------------------------------------------------------------------------


def base_raw():
    return golden_config("fedval").to_dict()


def test_absent_keys_take_the_dataclass_defaults():
    raw = base_raw()
    for key in ("validation_fraction", "ranking", "temp_alpha", "qfed", "afl", "out_dir", "note"):
        del raw[key]
    del raw["train"]["epochs"], raw["train"]["batch_size"]
    raw["clients"] = ["normal", {"skew": {"ratio": 0.5}}]
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg == replace(
        golden_config("fedval"),
        validation_fraction=0.2, ranking=RankingConfig(), temp_alpha=0.5, qfed=None,
        afl_lambda_lr=0.1, out_dir="runs/experiment", note="",
        train=TrainConfig(lr=0.1),
        clients=(ClientSpec("normal"), ClientSpec(skew=SkewSpec(ratio=0.5))),
    )
    assert cfg.clients[1] == ClientSpec("cooperative", SkewSpec(0.5, retain=1.0, group="d"))


def test_an_empty_afl_or_ranking_section_takes_the_defaults():
    raw = base_raw()
    raw["afl"], raw["ranking"] = {}, {}
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.afl_lambda_lr == 0.1 and cfg.ranking == RankingConfig()


def set_path(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("ranking", "enabled"), "false", "ranking.enabled must be true or false, got 'false'"),
        (("ranking", "enabled"), 0, "ranking.enabled must be true or false, got 0"),
        (("rounds",), True, "rounds must be an integer, got True"),
        (("rounds",), 2.0, "rounds must be an integer, got 2.0"),
        (("train", "batch_size"), 2.9, "train.batch_size must be an integer, got 2.9"),
        (("train", "lr"), "0.1", "train.lr must be a number, got '0.1'"),
        (("train", "lr"), True, "train.lr must be a number, got True"),
        (("train", "lr"), 10**400, "train.lr must be a number"),
        (("train", "lr"), None, "train.lr must be a number, got None"),
        (("clients", 3, "skew", "ratio"), [0.2], "clients[3].skew.ratio must be a number"),
        (("clients", 0), 42, "clients[0] must be an object, got 42"),
        (("data", "synthetic", "positive_rates"), [0.5], "data.synthetic.positive_rates must be a list of 2"),
        (("data",), {}, "data must hold one of ['synthetic', 'csv']"),
        (("objectives", 1, "weight"), "1", "objectives[1].weight must be a number"),
        (("note",), None, "note must be a string, got None"),
    ],
)
def test_a_value_of_the_wrong_kind_is_a_malformed_config(path, value, message):
    with pytest.raises(ConfigError, match="^malformed config: ") as info:
        ExperimentConfig.from_dict(set_path(base_raw(), path, value))
    assert message in str(info.value)


def test_a_missing_required_key_is_named_by_its_path():
    raw = base_raw()
    del raw["train"]["lr"]  # TrainConfig.lr has a default, but a config must state it
    with pytest.raises(ConfigError, match=r"^malformed config: train\.lr is missing$"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "path, key",
    [
        ((), "round"),
        (("data",), "synth"),
        (("data", "synthetic"), "sed"),
        (("clients", 3), "behaviour"),
        (("clients", 3, "skew"), "ration"),
        (("objectives", 0), "wieght"),
        (("train",), "learning_rate"),
        (("ranking",), "enable"),
        (("qfed",), "lipshitz"),
        (("afl",), "lr"),
    ],
)
def test_an_unknown_key_in_any_section_is_rejected(path, key):
    raw = base_raw()
    node = raw
    for step in path:
        node = node[step]
    node[key] = 1
    # `data` holds one key that names the source; any other is reported as such
    expected = "data must hold one of" if path == ("data",) else "unknown config keys"
    with pytest.raises(ConfigError, match=f"{expected}.*'{key}'"):
        ExperimentConfig.from_dict(raw)


def test_null_is_read_where_the_default_is_none():
    raw = base_raw()
    raw["data"]["synthetic"]["seed"] = None
    raw["clients"][3]["skew"] = None
    raw["qfed"] = None
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.data.seed is None and cfg.clients[3].skew is None and cfg.qfed is None
    with pytest.raises(ConfigError, match="ranking must be an object, got None"):
        ExperimentConfig.from_dict(set_path(base_raw(), ("ranking",), None))


def test_an_integer_where_a_float_is_expected_reads_as_a_float():
    cfg = ExperimentConfig.from_dict(set_path(base_raw(), ("train", "lr"), 1))
    assert type(cfg.train.lr) is float and cfg.to_dict()["train"]["lr"] == 1.0


def test_sweep_spec_reading_is_strict():
    good = {
        "cooperative_counts": [0, 2],
        "variants": [{"name": "rank", "ranking_enabled": True}],
        "replicate_seeds": [7],
    }
    assert SweepSpec.from_dict(good).variants[0].ranking_enabled is True
    for path, value, message in [
        (("variants", 0, "ranking_enabled"), "false", "variants[0].ranking_enabled must be true or false"),
        (("cooperative_counts", 1), True, "cooperative_counts[1] must be an integer"),
        (("replicate_seeds", 0), 7.0, "replicate_seeds[0] must be an integer"),
    ]:
        with pytest.raises(ConfigError, match="^malformed sweep spec: ") as info:
            SweepSpec.from_dict(set_path(json.loads(json.dumps(good)), path, value))
        assert message in str(info.value)
    with pytest.raises(ConfigError, match=r"unknown sweep spec keys in variants\[0\]: \['enabled'\]"):
        SweepSpec.from_dict({**good, "variants": [{"name": "r", "ranking_enabled": True, "enabled": 1}]})


def test_scalar_kinds_accept_exactly_their_json_kinds():
    assert INT.decode(3, "config", "k") == 3
    assert FLOAT.decode(3, "config", "k") == 3.0
    for kind, value in ((INT, True), (INT, 3.0), (FLOAT, False), (FLOAT, "3"), (FLOAT, 2**1024)):
        with pytest.raises(ConfigError, match="^malformed config: k must be"):
            kind.decode(value, "config", "k")


@pytest.mark.parametrize(
    "content, fault",
    [
        (b"{oops", "Expecting property name"),
        (b'{"n": ' + b"7" * 5000 + b"}", "Exceeds the limit"),
        (b"[" * 200_000 + b"]" * 200_000, "recursion"),
        (b'{"note": "\xff"}', "utf-8"),
    ],
    ids=["syntax", "long-integer", "deep-nesting", "not-utf8"],
)
def test_read_json_turns_every_malformed_file_into_a_config_error(tmp_path, content, fault):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="is not valid JSON") as info:
        read_json(path, "config")
    assert fault in str(info.value)


def test_read_json_of_a_missing_file():
    with pytest.raises(ConfigError, match="config file not found"):
        read_json("/nonexistent/config.json", "config")
    with pytest.raises(FileNotFoundError):
        read_json("/nonexistent/model.json")
