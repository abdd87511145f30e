import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedval
from fedval.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from fedval.data import DatasetSchema, load_csv
from fedval.harness import STRATEGIES, preset_names
from fedval.model import ModelParams


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


@pytest.fixture
def tiny_config_file(tmp_path):
    return write_json(
        tmp_path / "config.json",
        {
            "strategy": "fedval",
            "rounds": 2,
            "seed": 7,
            "out_dir": str(tmp_path / "run"),
            "data": {"synthetic": {"n": 120, "dim": 3, "positive_rates": [0.6, 0.4]}},
            "clients": [{"behavior": "cooperative"}, {"behavior": "cooperative"}, {"behavior": "cooperative"}],
            "objectives": [
                {"kind": "accuracy", "weight": 1.0},
                {"kind": "spd", "weight": 1.0},
                {"kind": "eod", "weight": 1.0},
            ],
            "train": {"epochs": 1, "batch_size": 16, "lr": 0.1},
            "validation_fraction": 0.25,
        },
    )


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_executes_and_prints_out_dir(tiny_config_file, tmp_path, capsys):
    assert main(["run", str(tiny_config_file)]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed == str(tmp_path / "run")
    assert (tmp_path / "run" / "rounds.csv").exists()


def test_run_honors_overrides(tiny_config_file, tmp_path, capsys):
    override_dir = tmp_path / "elsewhere"
    code = main([
        "run", str(tiny_config_file),
        "--rounds", "4", "--seed", "99", "--out-dir", str(override_dir),
    ])
    assert code == EXIT_OK
    resolved = json.loads((override_dir / "resolved_config.json").read_text())
    assert resolved["rounds"] == 4
    assert resolved["seed"] == 99
    lines = (override_dir / "rounds.jsonl").read_text().strip().splitlines()
    assert len(lines) == 4


def test_run_missing_config_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_run_invalid_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["run", str(bad)]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_run_semantic_config_error(tiny_config_file, tmp_path, capsys):
    raw = json.loads(tiny_config_file.read_text())
    raw["strategy"] = "mystery"
    bad = write_json(tmp_path / "bad_strategy.json", raw)
    assert main(["run", str(bad)]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_run_negative_synthetic_seed_is_config_error(tiny_config_file, tmp_path, capsys):
    raw = json.loads(tiny_config_file.read_text())
    raw["data"]["synthetic"]["seed"] = -5
    bad = write_json(tmp_path / "negative_seed.json", raw)
    assert main(["run", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "-5" in err


# a config that every strategy runs in milliseconds, with every section set
def _fuzz_base(strategy):
    return {
        "strategy": strategy,
        "rounds": 2,
        "seed": 7,
        "out_dir": "run",
        "data": {"synthetic": {"n": 160, "dim": 3, "positive_rates": [0.6, 0.4], "seed": 11}},
        "validation_fraction": 0.25,
        "clients": [
            {"behavior": "cooperative"},
            {"behavior": "uncooperative", "skew": {"ratio": 0.5, "retain": 1.0, "group": "d"}},
            "normal",
        ],
        "objectives": [{"kind": "accuracy", "weight": 1.0}, {"kind": "spd", "weight": 1.0}],
        "train": {"epochs": 1, "batch_size": 16, "lr": 0.1},
        "ranking": {"enabled": True, "initial_step": 1.0, "step_size": 1.5},
        "temp_alpha": 0.5,
        "qfed": {"q": 1.0, "lipschitz": 1.0},
        "afl": {"lambda_lr": 0.1},
        "note": "",
    }


def _paths(obj, prefix=()):
    """Every key path in a config, to containers as well as to values."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_FUZZ_PATHS = tuple(_paths(_fuzz_base("fedval")))
_DELETE = "<delete>"
_WRONG_TYPES = ("x", "", "x\x00y", [], {}, None, True, [1, 2], {"a": 1}, 1.5)
_NEGATIVE = (-1, -5, -0.5, -1e9, -math.inf)
_HUGE = (2**64, 10**30, 1e308, math.inf, math.nan)
# values that set how long a run takes never become huge, so every case
# stays small; a negative or wrongly typed one must still be rejected
_COST_PATHS = {("rounds",), ("data", "synthetic", "n"), ("data", "synthetic", "dim"), ("train", "epochs")}


@st.composite
def _mutations(draw):
    path = draw(st.sampled_from(_FUZZ_PATHS))
    huge = () if path in _COST_PATHS else _HUGE
    values = st.sampled_from((_DELETE, *_WRONG_TYPES, *_NEGATIVE, *huge))
    if path == ("qfed", "lipschitz"):  # any positive estimate is valid; q-FFL's terms scale with it
        values = values | st.floats(0.0, 1e308, exclude_min=True)
    return path, draw(values)


def _mutate(raw, path, value):
    """Set (or delete) `path` in `raw`; a path an earlier mutation removed is skipped."""
    node = raw
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(node, dict):
        present = key in node
    else:
        present = isinstance(node, list) and isinstance(key, int) and key < len(node)
    if not present:
        return
    if value == _DELETE:
        del node[key]
    else:
        node[key] = value


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    mutations=st.lists(_mutations(), min_size=1, max_size=3),
)
@example(strategy="fedval", mutations=[(("data", "synthetic", "seed"), -5)])
@example(strategy="qfedsgd", mutations=[(("qfed", "lipschitz"), 5e-324)])
def test_run_of_a_mutated_config_exits_cleanly(strategy, mutations):
    # wrong types, negative or huge numbers and missing keys: the CLI
    # reports each as a config (2) or runtime (3) error, never a traceback
    raw = _fuzz_base(strategy)
    for path, value in mutations:
        _mutate(raw, path, value)
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative out_dir values, the default one included, land here
        try:
            Path("config.json").write_text(json.dumps(raw))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", "config.json"])
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
    assert "Traceback" not in err.getvalue()


# a sweep of two one-round cells that every mutation below keeps small
def _fuzz_sweep():
    base = _fuzz_base("fedval")
    base.update(rounds=1, out_dir="sweep")
    return {
        "base": base,
        "cooperative_counts": [0, 3],
        "variants": [{"name": "rank", "ranking_enabled": True}],
        "replicate_seeds": [5],
    }


_WHOLE_SPEC = ()  # a mutation at this path replaces the whole spec
_SWEEP_PATHS = (_WHOLE_SPEC, *_paths(_fuzz_sweep()))
_SWEEP_COST_PATHS = {("base", *path) for path in _COST_PATHS}


@st.composite
def _sweep_mutations(draw):
    path = draw(st.sampled_from(_SWEEP_PATHS))
    huge = () if path in _SWEEP_COST_PATHS else _HUGE
    return path, draw(st.sampled_from((_DELETE, *_WRONG_TYPES, *_NEGATIVE, *huge)))


@settings(max_examples=60, deadline=None)
@given(mutations=st.lists(_sweep_mutations(), min_size=1, max_size=3))
@example(mutations=[(("replicate_seeds", 0), "x")])
@example(mutations=[(_WHOLE_SPEC, 1.5)])
def test_sweep_of_a_mutated_spec_exits_cleanly(mutations):
    # as for `fedval run`: a malformed sweep spec is a config (2) or runtime
    # (3) error, never a traceback
    raw = _fuzz_sweep()
    for path, value in mutations:
        if path == _WHOLE_SPEC:
            raw = value
        elif isinstance(raw, dict):
            _mutate(raw, path, value)
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative out_dir values land here
        try:
            Path("sweep.json").write_text(json.dumps(raw))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["sweep", "sweep.json"])
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME)
    assert "Traceback" not in err.getvalue()


# wrong JSON kinds for each kind of typed leaf: the base configs above hold
# every int leaf as an int, every float leaf as a float and every flag as a bool
_WRONG_KIND = {
    bool: ("false", 0, 1),
    int: (True, 2.5, "3"),
    float: (True, "0.1"),
}


def _typed_leaves(obj, prefix=()):
    """(path, type) of every int, float and bool value in a config."""
    for path in _paths(obj, prefix):
        node = obj
        for key in path[len(prefix):]:
            node = node[key]
        if type(node) in _WRONG_KIND:
            yield path, type(node)


def _sections(obj, prefix=()):
    """(path, keys) of every JSON object in a config, the config itself included."""
    if isinstance(obj, dict):
        yield prefix, list(obj)
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _sections(value, prefix + (key,))


def _exit_code(command, filename, raw):
    """`fedval <command> <filename>` on `raw`, in a fresh directory: (exit code, stderr)."""
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path(filename).write_text(json.dumps(raw))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, filename])
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


def _spec_for(command):
    return (_fuzz_base("fedval"), "config.json") if command == "run" else (_fuzz_sweep(), "sweep.json")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_typed_leaf_of_the_wrong_json_kind_exits_2(command):
    # every int, float and bool leaf of a config (and, for sweep, of the
    # spec around it), set in turn to each value of another JSON kind: each
    # is a malformed config, where a lenient read would run with, say,
    # `"ranking": {"enabled": "false"}` taken as ranking on
    spec, filename = _spec_for(command)
    wrong = []
    for path, kind in _typed_leaves(spec):
        for value in _WRONG_KIND[kind]:
            raw = json.loads(json.dumps(spec))
            _mutate(raw, path, value)
            code, err = _exit_code(command, filename, raw)
            if code != EXIT_CONFIG or "config error: malformed" not in err or "Traceback" in err:
                wrong.append((path, value, code, err))
    assert wrong == []


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_misspelt_key_in_any_section_exits_2(command):
    # each key of each section in turn loses its last letter ("enabled"
    # becomes "enable"); the misspelling is rejected, not read as absent
    spec, filename = _spec_for(command)
    wrong = []
    for path, keys in _sections(spec):
        for key in keys:
            raw = json.loads(json.dumps(spec))
            node = raw
            for step in path:
                node = node[step]
            node[key[:-1]] = node.pop(key)
            code, err = _exit_code(command, filename, raw)
            if code != EXIT_CONFIG or "Traceback" in err:
                wrong.append((path, key, code, err))
    assert wrong == []


_MALFORMED_FILES = {
    "5000-digit-integer": b'{"rounds": ' + b"9" * 5000 + b"}",
    "200000-deep-array": b"[" * 200_000 + b"]" * 200_000,
    "not-utf8": b'{"note": "caf\xe9"}',
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_FILES))
@pytest.mark.parametrize("command", ["run", "sweep", "gen-data", "eval-schema"])
def test_a_malformed_json_file_is_a_config_error(tmp_path, capsys, command, case):
    bad = tmp_path / "bad.json"
    bad.write_bytes(_MALFORMED_FILES[case])
    if command == "gen-data":
        argv = ["gen-data", str(bad), str(tmp_path / "out.csv")]
    elif command == "eval-schema":
        model = write_json(tmp_path / "model.json", {"weights": [0.5], "bias": 0.0})
        argv = ["eval", str(model), str(tmp_path / "data.csv"), str(bad)]
    else:
        argv = [command, str(bad)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {bad} is not valid JSON" in err and "Traceback" not in err


def _generated_csv(tmp_path):
    spec = write_json(tmp_path / "spec.json", {"n": 40, "dim": 2, "positive_rates": [0.5, 0.5], "seed": 1})
    out_csv = tmp_path / "synth.csv"
    assert main(["gen-data", str(spec), str(out_csv)]) == EXIT_OK
    return out_csv, out_csv.with_suffix(".schema.json")


def test_eval_of_a_model_file_that_is_not_json_is_a_config_error(tmp_path, capsys):
    data, schema = _generated_csv(tmp_path)
    model = tmp_path / "model.json"
    model.write_text("weights: [0.5, 0.5]\n")
    capsys.readouterr()
    assert main(["eval", str(model), str(data), str(schema)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {model} is not valid JSON" in err and "Traceback" not in err


def test_eval_of_a_csv_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    data, schema = _generated_csv(tmp_path)
    data.write_bytes(data.read_bytes().replace(b"label", b"lab\xe9l", 1))
    model = write_json(tmp_path / "model.json", {"weights": [0.5, -0.25], "bias": 0.1})
    capsys.readouterr()
    assert main(["eval", str(model), str(data), str(schema)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"error: {data}: not UTF-8 text" in err and "Traceback" not in err


# a CSV with a numeric and a categorical feature, and its schema
_CSV_ROWS = ["age,work,income,sex"] + [
    f"{20 + (i * 7) % 40},{'ab'[i % 2]}{'xy'[(i // 2) % 2]},{'>50K' if i % 3 else '<=50K'},{'MF'[(i // 3) % 2]}"
    for i in range(120)
]


def _csv_schema():
    return {
        "features": [
            {"name": "age", "kind": "numeric"},
            {"name": "work", "kind": "categorical", "categories": ["ax", "bx", "ay", "by"]},
        ],
        "label": {"column": "income", "positive": ">50K"},
        "sensitive": {"column": "sex", "advantaged": "M"},
    }


# wrong JSON kinds for each kind of value in a schema or model file
_WRONG_JSON_KIND = {
    str: (1, 1.0, True, None, ["x"], {"x": "y"}),
    float: ("1", True, None, [1.0], {"x": 1.0}),
    list: ("x", 1, {"x": 1}, None),
    dict: ("x", 1, [], None),
}


def _faults(obj):
    """Every (path, value) that gives one value of `obj` a wrong JSON kind, or one of its objects an unknown key."""
    for path in ((), *_paths(obj)):
        node = obj
        for key in path:
            node = node[key]
        for value in _WRONG_JSON_KIND[type(node)]:
            yield path, value
        if isinstance(node, dict):
            yield path + ("extra",), 1


def _with_fault(obj, path, value):
    obj = json.loads(json.dumps(obj))
    if not path:
        return value
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


def _run_quietly(argv):
    """`main(argv)` in the current directory: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_eval_of_a_mutated_schema_or_model_exits_2(tmp_path, monkeypatch):
    # as for `fedval run`: every value of the schema and model files set to
    # another JSON kind, and an unknown key in each of their objects, is a
    # config error (2) with nothing on stdout, where a lenient read would
    # score the model under a schema whose `"positive": 1.0` matches no row
    monkeypatch.chdir(tmp_path)
    Path("data.csv").write_text("\n".join(_CSV_ROWS) + "\n")
    files = {"schema.json": _csv_schema(), "model.json": {"weights": [0.5, -0.25, 0.25, 0.0, 1.0], "bias": 0.1}}
    for name, obj in files.items():
        Path(name).write_text(json.dumps(obj))
    assert _run_quietly(["eval", "model.json", "data.csv", "schema.json"])[0] == EXIT_OK
    wrong = []
    for name, obj in files.items():
        for path, value in _faults(obj):
            Path(name).write_text(json.dumps(_with_fault(obj, path, value)))
            code, out, err = _run_quietly(["eval", "model.json", "data.csv", "schema.json"])
            if code != EXIT_CONFIG or out or "config error: " not in err or "Traceback" in err:
                wrong.append((name, path, value, code, out, err))
        Path(name).write_text(json.dumps(obj))
    assert wrong == []


def _names_path(err, dotted):
    """Whether `err` names the config path `dotted` (list indices written as `[i]`)."""
    return re.sub(r"\.(\d+)", r"[\1]", dotted) in err


def test_csv_run_of_a_mutated_schema_exits_2(tmp_path, monkeypatch):
    # the same faults in the `csv` source of a run config, each named by its path
    monkeypatch.chdir(tmp_path)
    Path("data.csv").write_text("\n".join(_CSV_ROWS) + "\n")
    base = _fuzz_base("fedval")
    base["data"] = {"csv": {"path": "data.csv", "schema": _csv_schema()}}
    Path("config.json").write_text(json.dumps(base))
    assert _run_quietly(["run", "config.json"])[0] == EXIT_OK
    wrong = []
    for path, value in _faults(base["data"]["csv"]):
        raw = json.loads(json.dumps(base))
        raw["data"]["csv"] = _with_fault(raw["data"]["csv"], path, value)
        Path("config.json").write_text(json.dumps(raw))
        code, _, err = _run_quietly(["run", "config.json"])
        named = ".".join(["data", "csv", *(str(key) for key in path if key != "extra")])
        if code != EXIT_CONFIG or "Traceback" in err or not _names_path(err, named):
            wrong.append((path, value, code, err))
    assert wrong == []


def _eval_csv(rows):
    """`fedval eval` of a 5-weight model on `rows` under `_csv_schema()`: (exit code, stdout, stderr)."""
    Path("data.csv").write_text("\n".join(rows) + "\n")
    write_json(Path("schema.json"), _csv_schema())
    write_json(Path("model.json"), {"weights": [0.5, -0.25, 0.25, 0.0, 1.0], "bias": 0.1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        return _run_quietly(["eval", "model.json", "data.csv", "schema.json"])


@pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
def test_eval_of_a_non_finite_cell_is_a_row_error(tmp_path, monkeypatch, cell):
    monkeypatch.chdir(tmp_path)
    rows = list(_CSV_ROWS)
    rows[2] = cell + rows[2][rows[2].index(","):]  # row 2's age
    code, out, err = _eval_csv(rows)
    assert (code, out) == (EXIT_RUNTIME, "")
    assert f"error: data.csv: row 2: column 'age': cannot parse '{cell}' as a finite number" in err
    assert "Traceback" not in err


def test_eval_of_a_csv_with_a_byte_order_mark_reads_as_without_it(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = _eval_csv(_CSV_ROWS)
    assert want[0] == EXIT_OK
    Path("data.csv").write_bytes(b"\xef\xbb\xbf" + Path("data.csv").read_bytes())
    assert _run_quietly(["eval", "model.json", "data.csv", "schema.json"]) == want


def test_eval_and_run_of_a_cell_over_the_csv_field_limit_exit_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = list(_CSV_ROWS)
    rows[2] += "," + "x" * (csv.field_size_limit() + 1)  # row 2 gains an oversized fifth cell
    code, out, err = _eval_csv(rows)
    assert (code, out) == (EXIT_RUNTIME, "")
    assert "error: data.csv: row 2: field larger than field limit" in err and "Traceback" not in err
    config = _fuzz_base("fedval")
    config["data"] = {"csv": {"path": "data.csv", "schema": _csv_schema()}}
    Path("config.json").write_text(json.dumps(config))
    code, out, err = _run_quietly(["run", "config.json"])
    assert (code, out) == (EXIT_RUNTIME, "")
    assert "error: data.csv: row 2: field larger than field limit" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("features", 0, "categories"), ["young"], "column 'age': numeric columns take no categories"),
        (("features", 1, "categories"), ["ax", "ax"], "column 'work': duplicate categories"),
        (("features",), [], "schema declares no feature columns"),
        (("features", 1, "name"), "age", "duplicate feature column names"),
    ],
)
def test_eval_under_an_invalid_schema_is_a_config_error(tmp_path, monkeypatch, path, value, message):
    # well-formed JSON whose columns contradict each other
    monkeypatch.chdir(tmp_path)
    Path("data.csv").write_text("\n".join(_CSV_ROWS) + "\n")
    write_json(Path("schema.json"), _with_fault(_csv_schema(), path, value))
    write_json(Path("model.json"), {"weights": [0.5, -0.25, 0.25, 0.0, 1.0], "bias": 0.1})
    assert _run_quietly(["eval", "model.json", "data.csv", "schema.json"]) == (
        EXIT_CONFIG, "", f"config error: {message}\n"
    )


def test_eval_of_a_header_naming_a_schema_column_twice_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = _eval_csv([_CSV_ROWS[0] + ",sex"] + [row + ",F" for row in _CSV_ROWS[1:]])
    assert (code, out) == (EXIT_CONFIG, "")
    assert "config error: data.csv: column 'sex' appears more than once in header" in err
    assert "Traceback" not in err


def test_eval_of_a_column_whose_z_score_overflows_is_a_data_error(tmp_path, monkeypatch):
    # finite cells whose sum leaves the float range: the mean and spread of
    # the column overflow, which is named, without a numpy warning
    monkeypatch.chdir(tmp_path)
    rows = list(_CSV_ROWS)
    for i, age in enumerate(["1e308", "1.5e308", "-1e308", "1"], start=1):
        rows[i] = age + rows[i][rows[i].index(","):]
    code, out, err = _eval_csv(rows)
    assert (code, out) == (EXIT_RUNTIME, "")
    assert "error: data.csv: column 'age': values too large to standardize" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_eval_of_a_model_file_with_a_non_finite_literal_is_a_config_error(tmp_path, monkeypatch, literal):
    # Python's json reads these literals as floats; the codec names the key
    monkeypatch.chdir(tmp_path)
    Path("data.csv").write_text("\n".join(_CSV_ROWS) + "\n")
    write_json(Path("schema.json"), _csv_schema())
    Path("model.json").write_text(f'{{"weights": [{literal}, 0, 0, 0, 0], "bias": 0}}\n')
    code, out, err = _run_quietly(["eval", "model.json", "data.csv", "schema.json"])
    assert (code, out) == (EXIT_CONFIG, "")
    assert "config error: malformed model parameters: weights[0] must be a number, got " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_run_with_a_non_finite_literal_is_a_config_error(tmp_path, monkeypatch, literal):
    monkeypatch.chdir(tmp_path)
    text = json.dumps(_fuzz_base("fedval")).replace('"lr": 0.1', f'"lr": {literal}')
    Path("config.json").write_text(text)
    code, _, err = _run_quietly(["run", "config.json"])
    assert code == EXIT_CONFIG
    assert "config error: malformed config: train.lr must be a number, got " in err
    assert "Traceback" not in err and not Path("run").exists()


def test_eval_that_fails_on_a_metric_prints_nothing(tmp_path, capsys):
    # a label value that no row holds: accuracy and SPD can be computed, EOD cannot
    data, schema = _generated_csv(tmp_path)
    raw = json.loads(schema.read_text())
    raw["label"]["positive"] = "2"
    write_json(schema, raw)
    model = write_json(tmp_path / "model.json", {"weights": [0.5, -0.25], "bias": 0.1})
    capsys.readouterr()
    assert main(["eval", str(model), str(data), str(schema)]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: eod: no positive-label rows" in captured.err and "Traceback" not in captured.err


def test_run_with_a_nul_byte_in_out_dir_is_config_error(tmp_path, capsys):
    raw = _fuzz_base("fedval")
    raw["out_dir"] = str(tmp_path / "x\x00y")
    config = write_json(tmp_path / "config.json", raw)
    assert main(["run", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "null byte" in err and "Traceback" not in err


def test_sweep_records_a_variant_with_a_nul_byte_as_a_failed_cell(tmp_path, capsys):
    raw = _fuzz_sweep()
    raw["base"]["out_dir"] = str(tmp_path / "sweep")
    raw["variants"] = [{"name": "a\x00b", "ranking_enabled": True}, {"name": "ok", "ranking_enabled": False}]
    spec = write_json(tmp_path / "sweep.json", raw)
    assert main(["sweep", str(spec)]) == EXIT_OK
    with open(tmp_path / "sweep" / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ok = {row["variant"]: int(row["replicates_ok"]) for row in rows if row["cooperative_count"] == "0"}
    assert ok == {"a\x00b": 0, "ok": 1}
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [
        "coop000_ok_seed5", "coop003_ok_seed5", "summary.csv"
    ]


def test_sweep_records_a_cell_whose_directory_cannot_be_made_as_a_failed_cell(tmp_path, capsys):
    raw = _fuzz_sweep()
    raw["base"]["out_dir"] = str(tmp_path / "sweep")
    (tmp_path / "sweep").mkdir()
    (tmp_path / "sweep" / "coop000_rank_seed5").write_text("not a directory")  # mkdir: File exists
    spec = write_json(tmp_path / "sweep.json", raw)
    assert main(["sweep", str(spec)]) == EXIT_OK
    with open(tmp_path / "sweep" / "summary.csv", newline="", encoding="utf-8") as fh:
        ok = {row["cooperative_count"]: row["replicates_ok"] for row in csv.DictReader(fh)}
    assert ok == {"0": "0", "3": "1"}
    assert (tmp_path / "sweep" / "coop003_rank_seed5" / "rounds.jsonl").exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("blocked", ["sweep", "sweep/summary.csv"])
def test_sweep_whose_own_directory_or_summary_cannot_be_written_is_a_runtime_error(tmp_path, capsys, blocked):
    raw = _fuzz_sweep()
    raw["base"]["out_dir"] = str(tmp_path / "sweep")
    if blocked == "sweep":
        (tmp_path / "sweep").write_text("not a directory")
    else:
        (tmp_path / blocked).mkdir(parents=True)  # open() of summary.csv: Is a directory
    spec = write_json(tmp_path / "sweep.json", raw)
    assert main(["sweep", str(spec)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / blocked) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "key, values, message",
    [
        ("replicate_seeds", [3, 3], "duplicate replicate seeds: [3, 3]"),
        ("cooperative_counts", [1, 0, 1], "duplicate cooperative counts: [1, 0, 1]"),
    ],
)
def test_sweep_with_a_duplicate_count_or_seed_is_a_config_error(tmp_path, capsys, key, values, message):
    # a duplicate would run the same cell twice and average over copies
    raw = _fuzz_sweep()
    raw["base"]["out_dir"] = str(tmp_path / "sweep")
    raw[key] = values
    spec = write_json(tmp_path / "sweep.json", raw)
    assert main(["sweep", str(spec)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("name", ["a/b", "", "../../escape", "..", "a\\b"])
def test_sweep_with_a_variant_name_that_is_not_one_path_component_is_a_config_error(tmp_path, capsys, name):
    # the name is part of each cell's directory name: "a/b" made a nested
    # directory and "../../escape" one outside the sweep's own
    raw = _fuzz_sweep()
    raw["base"]["out_dir"] = str(tmp_path / "out" / "sweep")
    raw["variants"] = [{"name": "ok", "ranking_enabled": True}, {"name": name, "ranking_enabled": False}]
    spec = write_json(tmp_path / "sweep.json", raw)
    assert main(["sweep", str(spec)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: variant name {name!r} must be one plain path component\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "strategy, q, message",
    [
        ("qfedavg", 1.0, "h overflowed for client 0; reduce q or the loss scale"),
        ("qfedsgd", 1.0, "q-FFL server step overflowed at q=1.0; reduce q or the Lipschitz estimate"),
        ("qfedsgd", 50.0, None),
    ],
)
def test_qfed_run_with_the_largest_lipschitz_estimate_warns_nothing(tmp_path, capsys, strategy, q, message):
    # L = 1e308 drives |L (w - w_k)|^2 and the sum of the h_k past the float
    # range; numpy's overflow warnings (errors under this suite's settings)
    # must not reach the user ahead of the error that names the term
    raw = _fuzz_base(strategy)
    raw["out_dir"] = str(tmp_path / "run")
    raw["qfed"] = {"q": q, "lipschitz": 1e308}
    config = write_json(tmp_path / "config.json", raw)
    assert main(["run", str(config)]) == (EXIT_OK if message is None else EXIT_RUNTIME)
    assert capsys.readouterr().err == ("" if message is None else f"error: {message}\n")


@pytest.mark.parametrize("strategy", ["fedval", "fedavg", "qfedavg", "afl"])
def test_diverging_local_sgd_is_a_runtime_error_naming_client_and_rate(strategy, tmp_path, capsys):
    raw = _fuzz_base(strategy)
    raw["out_dir"] = str(tmp_path / "run")
    raw["train"]["lr"] = 1e308
    config = write_json(tmp_path / "config.json", raw)
    # AFL's global metrics of round 1 evaluate a huge but finite model, with
    # no numpy warning, before round 2's step diverges
    assert main(["run", str(config)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    # AFL takes one server step per round and no local SGD, so no client is named
    expected = {"afl": "error: AFL model step diverged at learning rate 1e+308"}
    assert expected.get(strategy, "error: client 0: local SGD diverged at learning rate 1e+308") in err


def test_failed_rerun_leaves_no_final_model_of_the_run_before(tmp_path, capsys):
    raw = _fuzz_base("fedval")
    raw["out_dir"] = str(tmp_path / "run")
    assert main(["run", str(write_json(tmp_path / "ok.json", raw))]) == EXIT_OK
    assert (tmp_path / "run" / "final_model.json").exists()
    raw["train"]["lr"] = 1e308
    assert main(["run", str(write_json(tmp_path / "diverges.json", raw))]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: client 0: local SGD diverged at learning rate 1e+308\n"
    run = tmp_path / "run"
    assert sorted(p.name for p in run.iterdir()) == ["resolved_config.json", "rounds.csv", "rounds.jsonl"]
    assert json.loads((run / "resolved_config.json").read_text())["train"]["lr"] == 1e308
    assert (run / "rounds.jsonl").read_bytes() == b""


def _huge_step_config(tmp_path, strategy, lr):
    """Two clients whose one-row SGD steps at `lr` end in models with huge logits on their own shards."""
    raw = {
        "strategy": strategy,
        "rounds": 1,
        "seed": 0,
        "out_dir": str(tmp_path / "run"),
        "data": {"synthetic": {"n": 400, "dim": 8, "positive_rates": [0.6, 0.3]}},
        "clients": ["cooperative", "cooperative"],
        "objectives": [{"kind": "accuracy", "weight": 1.0}],
        "train": {"epochs": 1, "batch_size": 1, "lr": lr},
    }
    return str(write_json(tmp_path / "config.json", raw))


@pytest.mark.parametrize("strategy", ["fedval", "fedavg"])
def test_run_to_huge_local_models_warns_nothing(tmp_path, capsys, strategy):
    # the clients' losses at their local models see logits past the float
    # range; numpy's overflow warnings (errors under this suite's settings)
    # must not reach the user
    assert main(["run", _huge_step_config(tmp_path, strategy, 5e306)]) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("strategy", ["fedval", "fedavg"])
def test_run_to_a_nan_local_logit_is_one_error_line_naming_the_client(tmp_path, capsys, strategy):
    assert main(["run", _huge_step_config(tmp_path, strategy, 1e307)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (
        "error: client 1: model logits overflowed to nan: the weights are too large for these features\n"
    )


# each value the config reader turns down, by its path in _fuzz_base, and the message naming it
_OUT_OF_RANGE = [
    (("data", "synthetic", "n"), 1, "synthetic data n must be >= 2, got 1"),
    (("data", "synthetic", "dim"), 0, "synthetic data dim must be >= 1, got 0"),
    (("data", "synthetic", "positive_rates"), [0.6, 1.5],
     "synthetic data positive_rates[1] must lie in [0, 1], got 1.5"),
    (("clients", 1, "skew", "ratio"), 1.5,
     "malformed config: clients[1].skew is invalid: skew ratio must lie in (0, 1], got 1.5"),
    (("clients", 2), "sleepy", "malformed config: clients[2] is invalid: unknown behavior 'sleepy'"),
]


@pytest.mark.parametrize("path, value, message", _OUT_OF_RANGE)
def test_run_with_an_out_of_range_value_exits_2_and_keeps_the_run_before(tmp_path, capsys, path, value, message):
    # checked as the config is read: the previous run's four files keep their bytes
    raw = _fuzz_base("fedval")
    raw["out_dir"] = str(tmp_path / "run")
    assert main(["run", str(write_json(tmp_path / "ok.json", raw))]) == EXIT_OK
    run = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert len(before) == 4
    capsys.readouterr()
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert main(["run", str(write_json(tmp_path / "bad.json", raw))]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_gen_data_with_an_out_of_range_n_is_a_config_error(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"n": 1, "dim": 2, "positive_rates": [0.5, 0.5]})
    assert main(["gen-data", str(spec), str(tmp_path / "out.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: synthetic data n must be >= 2, got 1\n"
    assert not (tmp_path / "out.csv").exists()


def test_sweep_whose_base_has_an_out_of_range_value_is_a_config_error(tmp_path, capsys):
    base = _fuzz_base("fedval")
    base["out_dir"] = str(tmp_path / "sweep")
    base["data"]["synthetic"]["n"] = 1
    spec = write_json(tmp_path / "sweep.json", {
        "base": base,
        "cooperative_counts": [0, 3],
        "variants": [{"name": "rank", "ranking_enabled": True}],
        "replicate_seeds": [1],
    })
    # every cell would fail the same way; the spec is refused before any is run
    assert main(["sweep", str(spec)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: synthetic data n must be >= 2, got 1\n"
    assert not (tmp_path / "sweep").exists()


def _overflow_config(tmp_path, **change):
    """The 3-client config of the overflow tests below, with `change` applied."""
    raw = {
        "strategy": "fedval",
        "rounds": 3,
        "seed": 7,
        "out_dir": str(tmp_path / "run"),
        "data": {"synthetic": {"n": 400, "dim": 3, "positive_rates": [0.6, 0.4]}},
        "clients": ["cooperative"] * 3,
        "objectives": [{"kind": "accuracy", "weight": 1.0}, {"kind": "spd", "weight": 1.0}],
        "train": {"epochs": 1, "batch_size": 16, "lr": 0.1},
        **change,
    }
    return str(write_json(tmp_path / "config.json", raw))


_OVERFLOWING_MASS = [
    ({"ranking": {"enabled": True, "initial_step": 1e308, "step_size": 1.0}}, "rank"),
    ({"objectives": [{"kind": "accuracy", "weight": 1e308}, {"kind": "spd", "weight": 1e308}]}, "score"),
]


@pytest.mark.parametrize("change, mass", _OVERFLOWING_MASS)
def test_run_whose_total_mass_overflows_names_it(tmp_path, capsys, change, mass):
    # every client's mass is finite but their sum is not; dividing by that
    # sum made every weight 0, reported as weights that sum to 0.0
    assert main(["run", _overflow_config(tmp_path, rounds=2, **change)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: total {mass} mass of 3 clients overflows the float range\n"


def test_run_whose_composite_score_overflows_names_the_client(tmp_path, capsys):
    # each objective weight is finite, so the config is valid; the weighted
    # sum of a client's scores is not, which is a runtime overflow
    weights = [{"kind": "accuracy", "weight": 1.79e308}, {"kind": "spd", "weight": 1.79e308}]
    config = _overflow_config(tmp_path, objectives=weights, ranking={"enabled": False})
    assert main(["run", config]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: composite score of client 0 overflows the float range\n"


def test_qfedsgd_run_to_a_huge_model_warns_nothing(tmp_path, capsys):
    # steps of about grad / L take the model to weights near 1e307, whose
    # logits overflow: the losses clamp them and the global metrics take
    # them by sign, with no numpy warning (an error under this suite's settings)
    config = _overflow_config(tmp_path, strategy="qfedsgd", qfed={"q": 2.2e-309, "lipschitz": 2.2e-309})
    assert main(["run", config]) == EXIT_OK
    assert capsys.readouterr().err == ""
    run = tmp_path / "run"
    assert max(map(abs, json.loads((run / "final_model.json").read_text())["weights"])) > 1e307
    reports = [json.loads(line) for line in (run / "rounds.jsonl").read_text().splitlines()]
    assert len(reports) == 3
    for r in reports:
        assert all(0.0 <= v <= 1.0 for v in r["global"].values())
        assert all(math.isfinite(c["local_loss"]) for c in r["clients"])


_NO_MEMORY = "Unable to allocate 36.4 TiB for an array with shape (10000000000000, 3) and data type float64"


def _exhausted(*args, **kwargs):
    raise MemoryError(_NO_MEMORY)


def test_run_out_of_memory_is_one_runtime_error_line(tiny_config_file, monkeypatch, capsys):
    monkeypatch.setattr(fedval.harness, "generate_synthetic", _exhausted)
    assert main(["run", str(tiny_config_file)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: out of memory: {_NO_MEMORY}\n"


def test_sweep_records_a_cell_out_of_memory_as_a_failed_cell(tmp_path, monkeypatch, capsys):
    raw = _fuzz_sweep()
    raw["base"]["out_dir"] = str(tmp_path / "sweep")
    generate = fedval.harness.generate_synthetic
    calls = []

    def first_cell_exhausted(*args, **kwargs):
        calls.append(args)
        return _exhausted() if len(calls) == 1 else generate(*args, **kwargs)

    monkeypatch.setattr(fedval.harness, "generate_synthetic", first_cell_exhausted)
    result = fedval.run_sweep(*fedval.harness.load_sweep(write_json(tmp_path / "sweep.json", raw)))
    assert [cell.error for cell in result.cells] == [f"out of memory: {_NO_MEMORY}", None]
    assert [row["replicates_ok"] for row in result.summary_rows] == [0, 1]
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_list(capsys):
    assert main(["preset", "list"]) == EXIT_OK
    listed = capsys.readouterr().out.split()
    assert listed == list(preset_names())


def test_preset_show_emits_loadable_json(capsys):
    assert main(["preset", "show", "adult-fedval-10"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["strategy"] == "fedval"
    assert obj["ranking"]["enabled"] is True


def test_preset_show_unknown_name(capsys):
    assert main(["preset", "show", "mystery"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "mystery" in err


# ---------------------------------------------------------------------------
# gen-data + eval
# ---------------------------------------------------------------------------


def test_gen_data_writes_csv_and_schema(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"n": 50, "dim": 2, "positive_rates": [0.7, 0.3], "seed": 5})
    out_csv = tmp_path / "data" / "synth.csv"
    assert main(["gen-data", str(spec), str(out_csv)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [str(out_csv), str(out_csv.with_suffix(".schema.json"))]

    schema = DatasetSchema.from_dict(json.loads(out_csv.with_suffix(".schema.json").read_text()))
    ds = load_csv(out_csv, schema)
    assert ds.n == 50 and ds.dim == 2
    assert set(ds.labels.tolist()) <= {0, 1}


def test_gen_data_is_seed_deterministic(tmp_path):
    spec = write_json(tmp_path / "spec.json", {"n": 30, "dim": 2, "positive_rates": [0.5, 0.5], "seed": 9})
    main(["gen-data", str(spec), str(tmp_path / "a.csv")])
    main(["gen-data", str(spec), str(tmp_path / "b.csv")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_gen_data_malformed_spec(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"n": 50})  # missing dim/rates
    assert main(["gen-data", str(spec), str(tmp_path / "out.csv")]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_gen_data_negative_seed_is_config_error(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"n": 50, "dim": 2, "positive_rates": [0.5, 0.5], "seed": -5})
    assert main(["gen-data", str(spec), str(tmp_path / "out.csv")]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_eval_reports_all_three_metrics(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"n": 80, "dim": 2, "positive_rates": [0.6, 0.4], "seed": 3})
    out_csv = tmp_path / "synth.csv"
    main(["gen-data", str(spec), str(out_csv)])
    capsys.readouterr()

    model = tmp_path / "model.json"
    write_json(model, {"weights": [0.5, -0.25], "bias": 0.1})
    code = main(["eval", str(model), str(out_csv), str(out_csv.with_suffix(".schema.json"))])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    for metric in ("accuracy:", "spd:", "eod:"):
        assert metric in out


def test_eval_dimension_mismatch_is_runtime_error(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"n": 40, "dim": 3, "positive_rates": [0.5, 0.5], "seed": 1})
    out_csv = tmp_path / "synth.csv"
    main(["gen-data", str(spec), str(out_csv)])
    capsys.readouterr()

    model = tmp_path / "model.json"
    write_json(model, {"weights": [1.0], "bias": 0.0})  # 1-d model, 3-d data
    code = main(["eval", str(model), str(out_csv), str(out_csv.with_suffix(".schema.json"))])
    assert code == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def test_eval_missing_model_file_is_runtime_error(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"n": 40, "dim": 2, "positive_rates": [0.5, 0.5], "seed": 1})
    out_csv = tmp_path / "synth.csv"
    main(["gen-data", str(spec), str(out_csv)])
    capsys.readouterr()
    code = main(["eval", str(tmp_path / "ghost.json"), str(out_csv), str(out_csv.with_suffix(".schema.json"))])
    assert code == EXIT_RUNTIME


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_runs_from_embedded_base(tmp_path, capsys):
    base = {
        "strategy": "fedval",
        "rounds": 1,
        "seed": 3,
        "out_dir": str(tmp_path / "sweep"),
        "data": {"synthetic": {"n": 200, "dim": 2, "positive_rates": [0.5, 0.5]}},
        "clients": [{"behavior": "uncooperative", "skew": {"ratio": 0.3}}] * 2,
        "objectives": [{"kind": "accuracy", "weight": 1.0}, {"kind": "spd", "weight": 1.0}],
        "train": {"epochs": 1, "batch_size": 16, "lr": 0.1},
    }
    spec = write_json(
        tmp_path / "sweep.json",
        {
            "base": base,
            "cooperative_counts": [0, 2],
            "variants": [{"name": "rank", "ranking_enabled": True}],
            "replicate_seeds": [5],
        },
    )
    assert main(["sweep", str(spec)]) == EXIT_OK
    summary = capsys.readouterr().out.strip()
    assert summary.endswith("summary.csv")
    assert (tmp_path / "sweep" / "summary.csv").exists()


def test_sweep_without_base_is_config_error(tmp_path, capsys):
    spec = write_json(
        tmp_path / "sweep.json",
        {"cooperative_counts": [0], "variants": [{"name": "r", "ranking_enabled": True}], "replicate_seeds": [1]},
    )
    assert main(["sweep", str(spec)]) == EXIT_CONFIG
    assert "base" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def _child_modules(code, *argv):
    """The module names a fresh interpreter holds after running `code` with `argv`."""
    package_root = str(Path(fedval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sorted(sys.modules)))", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())  # the last line: after what `code` prints


def test_a_run_does_not_import_numpy_ma(tiny_config_file, tmp_path):
    # numpy.ma costs a run about 15 ms and 1 MB; np.unique would import it
    if "numpy.ma" in _child_modules("import numpy"):
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    modules = _child_modules(
        "import sys\nfrom fedval.cli import main\nassert main(['run', sys.argv[1]]) == 0", str(tiny_config_file)
    )
    assert "fedval.harness" in modules
    assert "numpy.ma" not in modules
    assert (tmp_path / "run" / "final_model.json").exists()


def test_installed_script_smoke():
    # the child imports the same fedval as this process, installed or not
    package_root = str(Path(fedval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fedval.cli", "preset", "list"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "adult-fedval-10" in proc.stdout
