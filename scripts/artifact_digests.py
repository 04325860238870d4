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
output directory and the parallelism. BLAS runs on one thread, as in
perfbench: `import subfed` pins it. tests/test_artifact_digests.py checks
four variants of these lines against tests/digest_pins.json.
"""

import argparse
import ctypes
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402  perfbench/workloads.py
from subfed.config import ConfigError, parse_config, parse_value  # noqa: E402
from subfed.engine import openblas_function  # noqa: E402
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


def environment_key() -> str:
    """The numpy version and the build and CPU kernels of numpy's OpenBLAS,
    which a run's bits depend on."""
    get_config = openblas_function("get_config")
    if get_config is None:
        return f"numpy {np.__version__}; no bundled OpenBLAS"
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return f"numpy {np.__version__}; {get_config().decode()}"


def digest_lines(names, seeds, parallelism=None, settings=()):
    """Run each workload in `names` at each seed, with `parallelism` (None:
    the workload's own) and the config `settings` (KEY, VALUE pairs) on top,
    and yield one line per artifact. Raises ConfigError for a bad setting."""
    echo = "".join(f" {key}={value}" for key, value in settings)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for seed in seeds:
                overrides = workloads.overrides(name, seed, tmp)
                if parallelism is not None:
                    overrides["parallelism"] = parallelism
                overrides.update(settings)
                run_dir = run_experiment(parse_config(overrides=overrides))
                for artifact in ARTIFACTS:
                    sha = hashlib.sha256((run_dir / artifact).read_bytes()).hexdigest()
                    yield (f"{name} seed={seed} parallelism={overrides['parallelism']}"
                           f"{echo} {artifact} {sha}")


def main() -> int:
    ap = build_parser()
    args = ap.parse_args()
    lines = digest_lines(args.workload or sorted(workloads.WORKLOADS),
                         args.seed or DEFAULT_SEEDS, args.parallelism, args.settings)
    try:
        for line in lines:
            print(line, flush=True)
    except ConfigError as exc:
        ap.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
