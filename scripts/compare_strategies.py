#!/usr/bin/env python3
"""Run every aggregation strategy on one shared scenario and compare.

All strategies see the same synthetic dataset, client partition, and skew
pattern (the data seed is pinned, only the strategy changes), so the final
rows differ only through aggregation.  Prints a final-round table and keeps
each run's artifacts under --out-dir/<strategy>.

Usage:
    python3 scripts/compare_strategies.py --out-dir runs/compare
    python3 scripts/compare_strategies.py --skewed 5 --rounds 120
"""

import argparse
from dataclasses import replace

from fedval.baselines import QConfig
from fedval.data import ClientSpec, SkewSpec
from fedval.harness import STRATEGIES, ExperimentConfig, SyntheticSpec, run_experiment
from fedval.metrics import ObjectiveSpec
from fedval.model import TrainConfig
from fedval.reporting import read_jsonl
from fedval.server import RankingConfig


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out-dir", default="runs/compare")
    p.add_argument("--clients", type=int, default=10)
    p.add_argument("--skewed", type=int, default=3,
                   help="how many clients get label-rate skew")
    p.add_argument("--skew-ratio", type=float, default=0.2)
    p.add_argument("--rounds", type=int, default=60)
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--q", type=float, default=2.0, help="fairness exponent for qfed runs")
    return p.parse_args()


def main():
    args = parse_args()
    if not 0 <= args.skewed <= args.clients:
        raise SystemExit(f"--skewed must be within [0, {args.clients}]")

    cooperative = args.clients - args.skewed
    clients = tuple(ClientSpec("cooperative") for _ in range(cooperative)) + tuple(
        ClientSpec("uncooperative", SkewSpec(ratio=args.skew_ratio))
        for _ in range(args.skewed)
    )
    # one fully populated config; per-strategy runs only swap the strategy
    base = ExperimentConfig(
        strategy="fedval",
        rounds=args.rounds,
        seed=args.seed,
        data=SyntheticSpec(n=args.n, dim=args.dim, positive_rates=(0.5, 0.5),
                           seed=args.seed),
        clients=clients,
        train=TrainConfig(epochs=1, batch_size=32, lr=0.2, seed=0),
        validation_fraction=0.25,
        objectives=ObjectiveSpec((("accuracy", 1.0), ("spd", 1.0), ("eod", 1.0))),
        ranking=RankingConfig(enabled=True, initial_step=2.0, step_size=1.5),
        qfed=QConfig(q=args.q, lipschitz=1.0),
        out_dir=args.out_dir,
    )

    print(f"{'strategy':>8} {'acc':>7} {'spd':>7} {'eod':>7}")
    for strategy in sorted(STRATEGIES):
        cfg = replace(base, strategy=strategy, out_dir=f"{args.out_dir}/{strategy}")
        run_dir = run_experiment(cfg)
        final = read_jsonl(run_dir / "rounds.jsonl")[-1]["global"]
        print(f"{strategy:>8} {final['accuracy']:7.4f} {final['spd']:7.4f} {final['eod']:7.4f}")
    print(f"\nartifacts under {args.out_dir}/<strategy>/")


if __name__ == "__main__":
    main()
