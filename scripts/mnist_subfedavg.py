#!/usr/bin/env python3
"""Paper-scale MNIST run: 100 clients, non-IID shards, unstructured pruning.

Needs raw (un-gzipped) MNIST IDX files under $SUBFED_DATA_ROOT/mnist/.
Heavy on CPU; trim --rounds or --sampling-rate for a quicker pass.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from subfed.config import parse_config
from subfed.experiment import run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=50)
    ap.add_argument("--sampling-rate", type=float, default=0.1)
    ap.add_argument("--target", type=float, default=30.0, help="p_us percent")
    ap.add_argument("--algorithm", default="sub-fedavg-un")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="runs/mnist")
    ap.add_argument("--parallelism", type=int, default=0)
    args = ap.parse_args()

    cfg = parse_config(overrides=dict(
        dataset="mnist", algorithm=args.algorithm, clients=100,
        sampling_rate=args.sampling_rate, rounds=args.rounds,
        target_unstructured=args.target, seed=args.seed,
        output_dir=args.out, parallelism=args.parallelism,
    ))

    def progress(record):
        print(
            f"round {record['round']:4d}  local {record['mean_local_accuracy']:6.2f}  "
            f"served {record['mean_served_accuracy']:6.2f}  "
            f"sparsity {record['mean_sparsity_unstructured']:5.3f}"
        )

    run_dir = run_experiment(cfg, progress=progress)
    print(f"artifacts: {run_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
