import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedval
from fedval.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from fedval.data import DatasetSchema, load_csv
from fedval.harness import preset_names
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
    assert "error:" in capsys.readouterr().err


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
