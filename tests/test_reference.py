"""`run_experiment` against the plain reference run of `reference.py`, byte for byte."""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedval.baselines import QConfig
from fedval.data import BEHAVIORS, ClientSpec, SkewSpec
from fedval.errors import FedValError
from fedval.harness import STRATEGIES, ExperimentConfig, SyntheticSpec, run_experiment
from fedval.metrics import OBJECTIVE_KINDS, ObjectiveSpec
from fedval.model import TrainConfig
from fedval.server import RankingConfig
from reference import reference_files

# skews that most shards of the drawn sizes can meet at positive rates (0.6, 0.4), so
# few examples end in set-up; each thins its shard to its own, ragged size
_SKEW = st.sampled_from([SkewSpec(0.2), SkewSpec(0.5, retain=0.8), SkewSpec(0.9, group="a")])
_CLIENT = st.builds(ClientSpec, st.sampled_from(BEHAVIORS), st.none() | _SKEW)


@st.composite
def small_configs(draw):
    """Configs of every strategy, 1-6 clients on skewed shards, d on both sides of `_CONTIGUOUS_DIM`."""
    strategy, k = draw(st.sampled_from(STRATEGIES)), draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(OBJECTIVE_KINDS), min_size=1, max_size=3, unique=True))
    q, lipschitz = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0])), draw(st.sampled_from([0.1, 1.0, 10.0]))
    return ExperimentConfig(
        strategy=strategy,
        rounds=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32)),
        data=SyntheticSpec(n=k * draw(st.integers(40, 120)), dim=draw(st.integers(1, 20)), positive_rates=(0.6, 0.4)),
        clients=tuple(draw(st.lists(_CLIENT, min_size=k, max_size=k))),
        train=TrainConfig(
            epochs=draw(st.integers(1, 2)), batch_size=draw(st.integers(1, 32)), lr=draw(st.sampled_from([0.05, 0.5]))
        ),
        objectives=ObjectiveSpec(tuple((kind, draw(st.sampled_from([0.5, 1.0, 2.0]))) for kind in kinds)),
        ranking=RankingConfig(
            enabled=draw(st.booleans()),
            initial_step=draw(st.sampled_from([0.5, 1.0])),
            step_size=draw(st.sampled_from([1.0, 1.5, 3.0])),
        ),
        temp_alpha=draw(st.sampled_from([0.0, 0.5, 0.8, 1.0])),
        qfed=QConfig(q, lipschitz) if strategy in ("qfedsgd", "qfedavg") else None,
        afl_lambda_lr=draw(st.sampled_from([0.01, 0.1, 1.0])),
    )


def _three_rounds_of(strategy):
    """A fixed three-round config of `strategy` that sets up and runs, so each tier-1 run checks every strategy.

    Three rounds, because AFL's mixture is still uniform after round 1: every
    client's loss at the zero model is ln 2.
    """
    return ExperimentConfig(
        strategy=strategy,
        rounds=3,
        seed=7,
        data=SyntheticSpec(n=240, dim=5, positive_rates=(0.6, 0.4)),
        clients=(ClientSpec(), ClientSpec("uncooperative", SkewSpec(0.5, retain=0.8)), ClientSpec()),
        train=TrainConfig(epochs=1, batch_size=8, lr=0.5),
        objectives=ObjectiveSpec((("accuracy", 1.0), ("spd", 1.0), ("eod", 1.0))),
        ranking=RankingConfig(enabled=True),
        qfed=QConfig(2.0, 1.0) if strategy in ("qfedsgd", "qfedavg") else None,
    )


@settings(max_examples=25, deadline=None)
@given(small_configs())
@example(_three_rounds_of("fedval"))
@example(_three_rounds_of("fedavg"))
@example(_three_rounds_of("qfedsgd"))
@example(_three_rounds_of("qfedavg"))
@example(_three_rounds_of("afl"))
def test_a_run_writes_the_reference_runs_files_byte_for_byte(cfg):
    try:
        want = reference_files(cfg)
    except FedValError as exc:  # a config that fails fails the same way in a run
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"), tempfile.TemporaryDirectory() as tmp:
            run_experiment(cfg, out_dir=tmp)
        return
    with tempfile.TemporaryDirectory() as tmp:
        run = run_experiment(cfg, out_dir=Path(tmp))
        for name, data in want.items():
            assert (run / name).read_bytes() == data, name
