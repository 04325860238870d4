"""Benchmark workloads: config overrides for `subfed.config.parse_config`.

Every workload uses synthetic data at batch size 10. The workload seed from
the command line becomes the config seed. Shard sizes and eval-set sizes are
fixed, so the timed work per round does not depend on the seed.
"""

from __future__ import annotations

import math

# the configuration the acceptance criteria C07-C10 run (tests/test_acceptance.py)
_ACCEPTANCE = dict(
    dataset="synthetic", clients=10, sampling_rate=1.0,
    synth_classes=10, synth_per_class=100, synth_test_per_class=50,
    synth_separation=0.5, shard_size=25, parallelism=1,
    rate_unstructured=5.0, target_unstructured=91.0,
    acc_threshold=50.0, eps_unstructured=1e-4,
)

WORKLOADS: dict[str, dict] = {
    "accept-un": dict(_ACCEPTANCE, algorithm="sub-fedavg-un", rounds=10, batch_size=10),
    # the two paper-shape workloads use separation 1.0 rather than the
    # acceptance value 0.5: at 0.5 the final accuracy varies by 8% (lenet5-hy)
    # and 30% (cnn5-fedavg-p2, 32-46%) between seeds, so final_acc could not
    # guard the result; tensor shapes and timed work are the same
    "lenet5-hy": dict(
        _ACCEPTANCE, model="lenet5-cifar", algorithm="sub-fedavg-hy", rounds=5,
        batch_size=10, sampling_rate=0.5, synth_separation=1.0,
        rate_unstructured=10.0, target_unstructured=50.0,
        rate_structured=10.0, target_structured=50.0,
    ),
    "cnn5-fedavg-p2": dict(
        _ACCEPTANCE, model="cnn5-mnist", algorithm="fedavg", rounds=10, batch_size=10,
        clients=40, sampling_rate=0.25, shard_size=10, synth_per_class=150,
        synth_separation=1.0, local_epochs=2, parallelism=2,
    ),
}

# the host-speed probe (hostprobe.py) of each workload: shaped like its model
# and split between train and eval about as its rounds are
PROBES: dict[str, dict] = {
    "accept-un": dict(shape=(1, 20, 20), channels=(8, 16), hidden=(32,),
                      train_steps=10, eval_examples=100),
    "lenet5-hy": dict(shape=(3, 32, 32), channels=(6, 16), hidden=(120, 84),
                      train_steps=4, eval_examples=40),
    "cnn5-fedavg-p2": dict(shape=(1, 32, 32), channels=(10, 20), hidden=(50,),
                           train_steps=3, eval_examples=150),
}
# the probe's median time on the 2-vCPU host of README.md; end-to-end timings
# are reported as if every probe reading had been this
PROBE_NOMINAL_S = {"accept-un": 0.039, "lenet5-hy": 0.062, "cnn5-fedavg-p2": 0.090}

# every scalar of cnn5-mnist (30,900 learnables + 60 BN running statistics);
# fedavg sends all of them up and down each round at 32 bits
CNN5_MNIST_SCALARS = 30_960


def overrides(workload: str, seed: int, output_dir: str, rounds: int | None = None) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    cfg = dict(WORKLOADS[workload], seed=seed, output_dir=output_dir)
    if rounds is not None:
        cfg["rounds"] = rounds
    return cfg


def sampled_clients(cfg: dict) -> int:
    n = cfg["clients"]
    return min(n, max(1, round(cfg["sampling_rate"] * n)))


def steps_per_round(cfg: dict) -> int:
    """Client SGD steps in one round, as the round protocol takes them: every
    sampled client trains local_epochs epochs over its shards minus the
    validation split, in batches of batch_size."""
    examples = cfg["shard_size"] * cfg.get("shards_per_client", 2)
    n_val = max(1, int(round(cfg.get("val_fraction", 0.1) * examples)))
    steps = cfg.get("local_epochs", 5) * math.ceil((examples - n_val) / cfg["batch_size"])
    return sampled_clients(cfg) * steps


def closed_form_comm_mb(workload: str, cfg: dict) -> float | None:
    """Exact communication for workloads where it has a closed form (fedavg)."""
    if workload != "cnn5-fedavg-p2":
        return None
    return sampled_clients(cfg) * cfg["rounds"] * 64 * CNN5_MNIST_SCALARS / 8 / 1e6
