#!/usr/bin/env python3
"""sha256 of every byte-identical artifact of the benchmark workloads.

    python3 scripts/artifact_digests.py [--workload NAME [NAME ...] ...] [--seed N [N ...] ...]
                                        [--parallelism P] [--set KEY=VALUE ...]

Runs each perfbench workload config (perfbench/workloads.py) for each seed
into a temporary directory and prints one line per artifact:

    <workload> seed=<n> parallelism=<p> [KEY=VALUE ...] <artifact> <sha256>

`--set` overrides one config key on top of the workload's config, for
identity checks beyond the workloads (`--set aggregation=strict-intersection`,
`--set algorithm=standalone`, `--set batch_size=3`). The value is read as an
INI value is (`subfed.config.parse_value`); an unknown key or a value that
does not parse is a usage error naming the key.

Run it from the root of two checkouts and diff the outputs to show that a
change keeps results byte-identical. config.ini is left out: it records the
output directory and the parallelism. BLAS is pinned to one thread, as in
perfbench.
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  perfbench/workloads.py
from subfed.config import ConfigError, parse_config, parse_value  # noqa: E402
from subfed.experiment import run_experiment  # noqa: E402

ARTIFACTS = (
    "summary.csv", "client_accuracy.csv", "cost_ledger.json", "rounds.ndjson",
    "plot_accuracy_vs_round.csv", "plot_accuracy_vs_sparsity.csv",
)

def config_setting(text: str) -> tuple[str, object]:
    """KEY=VALUE, the value read as the key's config field type."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        return key, parse_value(key, raw)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


DEFAULT_SEEDS = (1, 2, 3)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # "extend" would add to a list default, so the defaults apply in main
    ap.add_argument("--workload", nargs="+", action="extend", choices=sorted(workloads.WORKLOADS),
                    help="repeatable; default: every workload")
    ap.add_argument("--seed", type=int, nargs="+", action="extend",
                    help=f"repeatable; default: {' '.join(map(str, DEFAULT_SEEDS))}")
    ap.add_argument("--parallelism", type=int,
                    help="override the workload's parallelism (0 = every usable CPU)")
    ap.add_argument("--set", dest="settings", action="append", type=config_setting,
                    default=[], metavar="KEY=VALUE",
                    help="repeatable; override one config key of every workload")
    return ap


def main() -> int:
    ap = build_parser()
    args = ap.parse_args()
    echo = "".join(f" {key}={value}" for key, value in args.settings)

    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or sorted(workloads.WORKLOADS):
            for seed in args.seed or DEFAULT_SEEDS:
                overrides = workloads.overrides(name, seed, tmp)
                if args.parallelism is not None:
                    overrides["parallelism"] = args.parallelism
                overrides.update(args.settings)
                try:
                    cfg = parse_config(overrides=overrides)
                except ConfigError as exc:
                    ap.error(str(exc))
                run_dir = run_experiment(cfg)
                for artifact in ARTIFACTS:
                    sha = hashlib.sha256((run_dir / artifact).read_bytes()).hexdigest()
                    print(f"{name} seed={seed} parallelism={overrides['parallelism']}"
                          f"{echo} {artifact} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
