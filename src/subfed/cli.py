"""Command line entry points: run, compare, partition-dump, flops, cost."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import VALUE_TYPES, ConfigError, ExperimentConfig, parse_config, run_flag
from .engine import SpecError, builtin_spec
from .metrics import comm_cost_closed_form, conv_flops

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="INI config file (flags override it)")
    for f in fields(ExperimentConfig):
        flag = run_flag(f)
        if flag:
            p.add_argument(flag, dest=f.name, type=VALUE_TYPES.get(f.type),
                           choices=f.metadata.get("choices"), default=None)
    p.add_argument("--quiet", action="store_true")


def _config_from_args(args) -> ExperimentConfig:
    """Every parsed option named after a config field overrides it (options
    left unset are None and do not)."""
    names = {f.name for f in fields(ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in names}
    return parse_config(args.config, overrides)


def cmd_run(args) -> int:
    from .experiment import run_experiment

    cfg = _config_from_args(args)

    def progress(record):
        if not args.quiet:
            print(
                f"round {record['round']:4d}  "
                f"acc(local) {record['mean_local_accuracy']:6.2f}  "
                f"acc(served) {record['mean_served_accuracy']:6.2f}  "
                f"sparsity {record['mean_sparsity_unstructured']:5.3f}/"
                f"{record['mean_sparsity_channel']:5.3f}"
            )

    run_dir = run_experiment(cfg, progress=progress)
    print(f"run complete: {run_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from .experiment import compare_runs

    _, table = compare_runs(args.runs)
    print(table)
    return EXIT_OK


def cmd_partition_dump(args) -> int:
    from .data import partition_shards
    from .experiment import load_datasets

    cfg = _config_from_args(args)
    train, test = load_datasets(cfg)
    partition = partition_shards(
        train, test, cfg.clients, cfg.shards_per_client, cfg.resolved_shard_size(), cfg.seed
    )
    payload = partition.to_json_dict()
    payload["dataset"] = cfg.dataset
    payload["seed"] = cfg.seed
    text = json.dumps(payload, sort_keys=True)
    if args.dump_out:
        Path(args.dump_out).write_text(text)
        print(f"partition written to {args.dump_out}")
    else:
        print(text)
    return EXIT_OK


def cmd_flops(args) -> int:
    from .engine import Conv, walk_shapes

    if not 0 <= args.channel_prune < 100:
        raise ConfigError(f"--channel-prune: must lie in [0, 100), got {args.channel_prune}")
    try:
        spec = builtin_spec(args.model)
    except SpecError as exc:
        raise ConfigError(f"--model: {exc}") from None
    keep_sets = None
    if args.channel_prune:
        keep_sets = {}
        for name, desc, _i, _o in walk_shapes(spec):
            if isinstance(desc, Conv):
                pruned = int(desc.out_channels * args.channel_prune / 100)
                kept = max(1, desc.out_channels - pruned)
                keep = np.zeros(desc.out_channels, dtype=bool)
                keep[:kept] = True
                keep_sets[name] = keep
    profile = conv_flops(spec, keep_sets)
    for name, dense, current in profile.per_layer:
        print(f"{name}: dense {dense} FLOPs, current {current} FLOPs")
    print(f"total: dense {profile.dense_total}, current {profile.current_total}, "
          f"reduction {profile.reduction_factor:.4f}x")
    return EXIT_OK


def cmd_cost(args) -> int:
    try:
        cost = comm_cost_closed_form(args.rounds, args.bits, args.params)
    except ValueError as exc:  # a negative argument, named as its flag is
        raise ConfigError(f"--{exc}") from None
    print(f"bits: {cost.bits}")
    print(f"bytes: {cost.total_bytes}")
    print(f"MB: {cost.megabytes}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subfed",
        description="Federated learning with per-client subnetwork pruning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment")
    _add_run_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="side-by-side table over finished runs")
    cmp_p.add_argument("runs", nargs="+", help="run directories or summary.csv files")
    cmp_p.set_defaults(func=cmd_compare)

    part_p = sub.add_parser("partition-dump", help="dump the shard partition as JSON")
    _add_run_flags(part_p)
    part_p.add_argument("--dump-out", default=None, help="write JSON here instead of stdout")
    part_p.set_defaults(func=cmd_partition_dump)

    flops_p = sub.add_parser("flops", help="conv FLOP profile for a model spec")
    flops_p.add_argument("--model", required=True)
    flops_p.add_argument("--channel-prune", type=float, default=0.0,
                         help="uniform per-layer channel prune percentage")
    flops_p.set_defaults(func=cmd_flops)

    cost_p = sub.add_parser("cost", help="closed-form communication cost")
    cost_p.add_argument("--rounds", type=int, required=True)
    cost_p.add_argument("--bits", type=int, default=32)
    cost_p.add_argument("--params", type=int, required=True)
    cost_p.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures exit 2 with a structured report
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
