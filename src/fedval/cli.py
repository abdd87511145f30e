"""Command-line entry point.

    fedval run <config.json> [--seed N] [--out-dir DIR] [--rounds N]
    fedval sweep <sweep.json> [--out-dir DIR]
    fedval preset list
    fedval preset show <name>
    fedval gen-data <spec.json> <out.csv>
    fedval eval <model.json> <data.csv> <schema.json>

Exit codes: 0 success, 2 configuration error, 3 runtime error (out of memory too).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .codec import read_json, write_json
from .data import GROUP_A, ColumnSpec, DatasetSchema, generate_synthetic, load_csv
from .errors import ConfigError, FedValError
from .harness import (
    ExperimentConfig,
    SyntheticSpec,
    load_sweep,
    preset,
    preset_names,
    run_experiment,
    run_sweep,
)
from .metrics import accuracy, eod, spd
from .model import ModelParams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _cmd_run(args) -> int:
    overrides = {"seed": args.seed, "rounds": args.rounds, "out_dir": args.out_dir}
    cfg = ExperimentConfig.load(args.config)
    cfg = replace(cfg, **{name: value for name, value in overrides.items() if value is not None})
    out = run_experiment(cfg)
    print(out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec, base = load_sweep(args.spec)
    result = run_sweep(spec, base, out_dir=args.out_dir)
    print(result.summary_path)
    return EXIT_OK


def _cmd_preset(args) -> int:
    if args.action == "list":
        for name in preset_names():
            print(name)
        return EXIT_OK
    cfg = preset(args.name)
    print(json.dumps(cfg.to_dict(), indent=2))
    return EXIT_OK


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec.from_dict(read_json(args.spec, "data spec"))
    # a spec without a seed has no master seed to derive one from
    dataset = generate_synthetic(spec.n, spec.dim, spec.positive_rates, spec.seed or 0)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    columns = tuple(ColumnSpec(f"f{j}", "numeric") for j in range(dataset.dim))
    schema = DatasetSchema(columns, "label", "1", "group", "a")
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in columns] + [schema.label, schema.sensitive])
        writer.writerows(
            [*map(str, x.tolist()), str(y), "a" if g == GROUP_A else "d"]
            for x, y, g in zip(dataset.features, dataset.labels.tolist(), dataset.sensitive)
        )
    schema_path = out.with_suffix(".schema.json")
    write_json(schema_path, schema.to_dict())
    print(out)
    print(schema_path)
    return EXIT_OK


def _cmd_eval(args) -> int:
    params = ModelParams.load(args.model)
    schema = DatasetSchema.from_dict(read_json(args.schema, "schema"))
    dataset = load_csv(args.data, schema)
    # all three first, so that a metric that fails leaves nothing on stdout
    scores = accuracy(params, dataset), spd(params, dataset), eod(params, dataset)
    print("accuracy: {:.6f}\nspd: {:.6f}\neod: {:.6f}".format(*scores))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedval",
        description="Deterministic federated-learning simulator with fairness-aware aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument("--out-dir", default=None, help="override the output directory")
    run_p.add_argument("--rounds", type=int, default=None, help="override the round count")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a cooperative-count sweep")
    sweep_p.add_argument("spec")
    sweep_p.add_argument("--out-dir", default=None)
    sweep_p.set_defaults(func=_cmd_sweep)

    preset_p = sub.add_parser("preset", help="inspect registered experiment presets")
    preset_sub = preset_p.add_subparsers(dest="action", required=True)
    preset_sub.add_parser("list").set_defaults(func=_cmd_preset, action="list")
    show_p = preset_sub.add_parser("show")
    show_p.add_argument("name")
    show_p.set_defaults(func=_cmd_preset, action="show")

    gen_p = sub.add_parser("gen-data", help="write a synthetic dataset as CSV plus schema")
    gen_p.add_argument("spec")
    gen_p.add_argument("out")
    gen_p.set_defaults(func=_cmd_gen_data)

    eval_p = sub.add_parser("eval", help="report accuracy/spd/eod for a saved model")
    eval_p.add_argument("model")
    eval_p.add_argument("data")
    eval_p.add_argument("schema")
    eval_p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FedValError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
