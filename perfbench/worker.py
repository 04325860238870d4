"""One benchmark experiment, or only its set-up, in a fresh interpreter.

    python3 perfbench/worker.py --workload accept-un --seed 1 --out DIR [--setup-only]
                                [--spans FILE] [--rounds N]

Runs from the root of a checkout and imports `subfed` from its `src/`. It
goes through the public path `subfed.config.parse_config` ->
`subfed.experiment.run_experiment` and prints one JSON object as the last
line of stdout. With --spans, it wraps the public functions as their
callers bind them, records spans and writes them to FILE.

The host-speed probe (hostprobe.py) is read before the first round, after
every round and after run_experiment returns, outside the round spans. Its
own time is left out of run_s and cpu_s; run.py divides the readings out of
the timings.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracing  # perfbench/tracing.py: this file's directory is on sys.path
import workloads

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HostSpeed:
    """Reads the host-speed probe before the first round and after each round
    of the wrapped function, and when asked; keeps count of the wall and CPU
    time the probe itself takes."""

    def __init__(self, shape: dict):
        self.shape = shape
        self.probe = None
        self.readings: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def measure(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        if self.probe is None:
            # imported only now, so that numpy's import stays part of setup_s
            import hostprobe

            self.probe = hostprobe.Probe(**self.shape)
            self.probe.run()  # warm-up
        self.readings.append(self.probe.reading())
        self.spent_s += time.perf_counter() - w0
        self.spent_cpu_s += time.process_time() - c0

    def wrap(self, module, attr: str) -> None:
        fn = getattr(module, attr)

        def probed(*args, **kwargs):
            if not self.readings:
                self.measure()
            try:
                return fn(*args, **kwargs)
            finally:
                self.measure()

        setattr(module, attr, probed)


def _examples(args, _result):
    return len(args[2])


def _adopted(_args, result):
    return int(result.pruned_unstructured) + int(result.pruned_structured)


def install_full_trace(tracer, federation, experiment) -> None:
    """Spans at every layer boundary the round protocol and the experiment
    driver cross, named by layer (see tracing.py for the names' use)."""
    wraps = [
        (federation, "forward", "engine.forward_train", _examples),
        (federation, "backward", "engine.backward", None),
        (federation, "sgd_step", "engine.sgd_step", None),
        (federation, "evaluate_accuracy", "engine.eval", _examples),
        (federation, "derive_unstructured_mask", "pruning.derive", None),
        (federation, "derive_channel_mask", "pruning.derive", None),
        (federation, "client_update", "federation.client_update", _adopted),
        (federation, "aggregate_fedavg", "federation.aggregate", None),
        (federation, "aggregate_sub_fedavg", "federation.aggregate", None),
        (federation, "sample_clients", "federation.sample", None),
        (federation, "conv_flops", "metrics.conv_flops", None),
        (experiment, "run_experiment", "experiment.run_experiment", None),
        (experiment, "evaluate_accuracy", "experiment.final_eval", _examples),
        (experiment, "apply_mask", "experiment.final_mask_op", None),
        (experiment, "_write_csv", "experiment.write_csv", None),
        (experiment, "synth_dataset", "data.synth", None),
        (experiment, "split_per_class", "data.synth", None),
        (experiment, "partition_shards", "data.partition", None),
        (experiment, "init_params", "engine.init", None),
        (experiment, "make_client", "federation.make_client", None),
    ]
    for op in ("apply_mask", "mask_distance", "combine_masks",
               "channel_component", "unstructured_component"):
        wraps.append((federation, op, "pruning.mask_op", None))
    for module, attr, name, size in wraps:
        tracer.wrap(module, attr, name, size)


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()
    unpinned = [var for var in BLAS_PINS if os.environ.get(var) != "1"]
    if unpinned:
        print(f"BLAS threads must be pinned to 1: set {', '.join(unpinned)}=1", file=sys.stderr)
        return 2

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    overrides = workloads.overrides(args.workload, args.seed, args.out, args.rounds)

    t_import = time.perf_counter()
    import subfed
    from subfed import experiment, federation
    from subfed.config import parse_config

    if Path(subfed.__file__).resolve().parent != (src / "subfed").resolve():
        print(f"imported subfed from {subfed.__file__}, not from {src}", file=sys.stderr)
        return 2
    cfg = parse_config(overrides=overrides)
    if args.setup_only:
        experiment.build_experiment(cfg)
        print(json.dumps({"setup_s": time.perf_counter() - t_import}))
        return 0

    tracer = tracing.Tracer()
    tracer.wrap(experiment, "build_experiment", "experiment.build")
    tracer.wrap(experiment, "run_round", tracing.ROUND)
    if args.spans:
        install_full_trace(tracer, federation, experiment)
    host = HostSpeed(workloads.PROBES[args.workload])
    host.wrap(experiment, "run_round")  # outermost, so probe time stays out of round spans
    run_dir = experiment.run_experiment(cfg)
    t_end = time.perf_counter()
    tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    probe_s, probe_cpu_s = host.spent_s, host.spent_cpu_s
    host.measure()  # the reading after the final per-client table

    import numpy as np
    from subfed.engine import builtin_spec
    from subfed.metrics import conv_flops

    build = next(s for s in tracer.spans if s[tracing.NAME] == "experiment.build")
    rounds = sorted(
        (s for s in tracer.spans if s[tracing.NAME] == tracing.ROUND), key=lambda s: s[tracing.START]
    )
    result = {
        "run_dir": str(run_dir),
        "setup_s": (build[tracing.END] * 1e-9 - t_import),
        "run_s": t_end - t_import - probe_s,
        "round_s": [(s[tracing.END] - s[tracing.START]) / 1e9 for s in rounds],
        "probe_s": host.readings,
        "cpu_s": usage.ru_utime + usage.ru_stime - probe_cpu_s,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_info(np),
            "blas_threads": {var: os.environ[var] for var in BLAS_PINS},
        },
    }
    if args.spans:
        tracer.write(args.spans)
        dense = conv_flops(builtin_spec(cfg.resolved_model())).dense_total
        result["layers"] = tracing.layer_metrics(tracer.spans, dense)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
