"""The scripts under scripts/: the committed ratio sweep and the strategy comparison."""

import os
import subprocess
import sys
from pathlib import Path

from fedval.data import ClientSpec, SkewSpec
from fedval.harness import ExperimentConfig, SweepSpec, SweepVariant, SyntheticSpec, load_sweep
from fedval.metrics import ObjectiveSpec
from fedval.model import TrainConfig
from fedval.server import RankingConfig

import fedval

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_ratio_sweep_json_is_the_ratio_sweep_grid():
    # the grid that scripts/run_ratio_sweep.py built from its default
    # arguments, which `fedval sweep scripts/ratio_sweep.json` now runs
    expected_base = ExperimentConfig(
        strategy="fedval",
        rounds=60,
        seed=0,
        data=SyntheticSpec(n=4000, dim=8, positive_rates=(0.5, 0.5)),
        clients=tuple(ClientSpec("uncooperative", SkewSpec(ratio=0.2)) for _ in range(10)),
        train=TrainConfig(epochs=1, batch_size=32, lr=0.2, seed=0),
        validation_fraction=0.25,
        objectives=ObjectiveSpec((("accuracy", 1.0), ("spd", 1.0), ("eod", 1.0))),
        ranking=RankingConfig(enabled=True, initial_step=2.0, step_size=1.5),
        out_dir="runs/ratio_sweep",
    )
    expected_spec = SweepSpec(
        cooperative_counts=(0, 3, 5, 8, 10),
        variants=(SweepVariant("rank", True), SweepVariant("norank", False)),
        replicate_seeds=(101, 202, 303),
    )
    spec, base = load_sweep(SCRIPTS / "ratio_sweep.json")
    assert base == expected_base
    assert spec == expected_spec

    def cells(spec):
        return [
            (count, variant.name, variant.ranking_enabled, seed)
            for count in spec.cooperative_counts
            for variant in spec.variants
            for seed in spec.replicate_seeds
        ]

    assert len(cells(spec)) == 30
    assert cells(spec) == cells(expected_spec)


def test_compare_strategies_runs_every_strategy_at_a_tiny_size(tmp_path):
    package_root = str(Path(fedval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "compare_strategies.py"), "--rounds", "1", "--n", "200",
         "--clients", "4", "--skewed", "1", "--out-dir", str(tmp_path / "compare")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()
    assert [row.split()[0] for row in rows[1:6]] == ["afl", "fedavg", "fedval", "qfedavg", "qfedsgd"]
    for strategy in ("afl", "fedavg", "fedval", "qfedavg", "qfedsgd"):
        assert (tmp_path / "compare" / strategy / "rounds.jsonl").exists()
