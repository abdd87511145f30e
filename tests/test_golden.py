"""Golden output digests: a short run of every strategy, byte for byte.

`rounds.jsonl`, `rounds.csv` and `final_model.json` are the deterministic
outputs of a run.  The sha256 of each, for one short run per strategy, is
pinned here, so a change that alters any written byte of any strategy
fails even where no benchmark workload runs that strategy (fedavg and
qfedsgd).  The digests were recorded with numpy 2.4 and OpenBLAS on
x86-64; a platform whose BLAS sums in another order may differ in the
last bit and needs its own recording.
"""

import hashlib

import pytest

from fedval.baselines import QConfig
from fedval.data import ClientSpec, SkewSpec
from fedval.harness import ExperimentConfig, SyntheticSpec, run_experiment
from fedval.metrics import ObjectiveSpec
from fedval.model import TrainConfig
from fedval.server import RankingConfig

OUTPUT_FILES = ("rounds.jsonl", "rounds.csv", "final_model.json")


def golden_config(strategy):
    return ExperimentConfig(
        strategy=strategy,
        rounds=4,
        seed=2024,
        data=SyntheticSpec(n=400, dim=4, positive_rates=(0.6, 0.3)),
        clients=(
            ClientSpec(),
            ClientSpec(),
            ClientSpec(),
            ClientSpec("uncooperative", SkewSpec(ratio=0.2)),
        ),
        train=TrainConfig(epochs=1, batch_size=16, lr=0.1, seed=0),
        validation_fraction=0.25,
        objectives=ObjectiveSpec((("accuracy", 1.0), ("spd", 0.5), ("eod", 0.5))),
        ranking=RankingConfig(enabled=True, initial_step=2.0, step_size=1.5),
        qfed=QConfig(q=2.0),
    )


GOLDEN = {
    "fedval": (
        "47be6b65f62b839982fa5c49c0895b7e915babc8a2f845565da225cf1552d97f",
        "0c956a31f5ba388be6cd731a1e5a8d2b62a611ef6190bec53968a2c688256f84",
        "921d6ac38930ae6bd116915a977980621527bd27b1236045c2b677591015a4b8",
    ),
    "fedavg": (
        "23950509d4d7bbba661356ebd0b9c19616ffd9d2dec89a3d136949e4b813ef73",
        "19b4d0be1f5945401fa662e8a5b8dc9ac0d3aeed52ad9e7645a3b57086ee1ff1",
        "78f8190bef520749d092e29b593102fc0608d1c9c12750bb13e38b837356e097",
    ),
    "qfedsgd": (
        "914f66edbb144ff3bda2c48e133a6d07a729a26b4dedb5411d440b6733e0a439",
        "4c5cb7f29cfbb5c2d50cc7967531ec3073f51b4621d1372f7c501fbd76a66c74",
        "26864470e7b5cd9ea78ddf3a80860f8185d81a1afd2f8dc61d08540d5d04fd43",
    ),
    "qfedavg": (
        "c6956fc9b48d9d9a99f8c53aea097128a23dddd3e7e6e42c035a8a4cdb75042c",
        "00e68b1e4c79c947c0fe9a007aebcfd6749d9355be062b45a9658915a3274f1b",
        "c64e973b35c1f36266e27cb4c7ca19c05ccf3d56b58663d0f175500df1f88b54",
    ),
    "afl": (
        "040ddd25fe43e184191aaa50bc9ecee41446cb3368643c9b6d7d62e3772cc29d",
        "b45f43c901e62ee75dfb4dbb359370d95fa8ff581504a37e095c75548a9d20c3",
        "9db88278a28eb0bfb19d53753f9ff3cb3631abdcc41e4f241406801173366d22",
    ),
}


def output_digests(run_dir):
    return tuple(hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in OUTPUT_FILES)


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_outputs_match_the_golden_digests(tmp_path, strategy):
    run_dir = run_experiment(golden_config(strategy), out_dir=tmp_path / strategy)
    assert dict(zip(OUTPUT_FILES, output_digests(run_dir))) == dict(zip(OUTPUT_FILES, GOLDEN[strategy]))
