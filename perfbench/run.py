"""Sub-FedAvg round benchmark: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload accept-un --seed 1 --seconds 35 --trace 0

`--workload all` runs every workload in turn, each for --seconds.

Run from the root of a checkout; `subfed` is imported from its `src/`.
Experiments run one at a time, each in a fresh interpreter
(perfbench/worker.py) with BLAS pinned to one thread, until the next one
would overrun --seconds (at least two run, so determinism is checked). Every
experiment's artifacts are checked; a failed check or a crash counts as a
failed experiment. The metrics declared in BENCHMARK.json are printed by
name with their units, and the last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

End-to-end timings are reported at nominal host speed: each is multiplied by
PROBE_NOMINAL_S / the host-speed probe's reading next to it (hostprobe.py),
which takes out the drift of a shared host. The raw timings are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
OUT_ROOT = HERE / "out"
REFERENCE_DIGESTS = HERE / "reference_digests.json"
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 7  # set-up only interpreters per run, after one warm-up
MIN_EXPERIMENTS = 2
WORKER_TIMEOUT_S = 120
MIN_ROUND_COVERAGE = 0.95
TIMINGS = ("setup_s", "run_s", "cpu_s", "round_s", "probe_s")  # raw, kept in result.json


def run_worker(root: Path, argv: list[str]) -> tuple[dict | None, str]:
    """Run worker.py in a fresh interpreter; (parsed last line, error text)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    env = dict(os.environ, **BLAS_PINS)
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"worker printed no result: {proc.stdout[-500:]!r}"


def host_steal_s() -> float | None:
    """CPU time the hypervisor gave to others while this machine's CPUs
    wanted to run, summed over CPUs since boot (Linux); None elsewhere."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_experiments(root: Path, args, out: Path) -> list[dict]:
    """Closed loop: each experiment starts when the previous one has ended."""
    cfg = workloads.overrides(args.workload, args.seed, str(out / "runs"), args.rounds)
    expected_mb = workloads.closed_form_comm_mb(args.workload, cfg)
    steps = workloads.steps_per_round(cfg) * cfg["rounds"]
    base = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out / "runs")]
    if args.rounds is not None:
        base += ["--rounds", str(args.rounds)]

    runs: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        argv = base + (["--spans", str(out / f"spans-{len(runs)}.ndjson")] if traced else [])
        t0, steal0 = time.perf_counter(), host_steal_s()
        result, error = run_worker(root, argv)
        steal1 = host_steal_s()
        run = {"traced": traced, "wall_s": time.perf_counter() - t0, "result": result,
               "steal_s": None if steal0 is None else steal1 - steal0,
               "problems": [error] if error else []}
        if result is not None:
            problems, facts = checks.check_run(Path(result["run_dir"]), expected_mb)
            run["problems"] += problems
            run["facts"] = facts
            layers = result.get("layers")
            if layers is not None:
                if layers["engine.train_steps"] != steps:
                    run["problems"].append(
                        f"traced {layers['engine.train_steps']} SGD steps, config gives {steps}"
                    )
                if layers["trace.round_coverage"] < MIN_ROUND_COVERAGE:
                    run["problems"].append(
                        f"named spans cover {layers['trace.round_coverage']:.3f} of round time"
                    )
        runs.append(run)
        spent = time.perf_counter() - started
        typical = statistics.median(r["wall_s"] for r in runs)
        if len(runs) >= MIN_EXPERIMENTS and spent + typical > args.seconds:
            return runs


def check_determinism(runs: list[dict]) -> str | None:
    """All experiments of one invocation share config and seed, so their
    artifacts must be byte-identical; later runs that differ from the first
    are marked failed. Returns the invocation's digest."""
    digests = [r["facts"]["digest"] for r in runs if "facts" in r]
    if not digests:
        return None
    for r in runs:
        if "facts" in r and r["facts"]["digest"] != digests[0]:
            r["problems"].append(f"artifact digest {r['facts']['digest'][:12]} differs from "
                                 f"the first run's {digests[0][:12]}")
    return digests[0]


def reference_note(workload: str, seed: int, digest: str | None) -> str:
    """Information only: a PR may change results on purpose."""
    refs = json.loads(REFERENCE_DIGESTS.read_text()) if REFERENCE_DIGESTS.exists() else {}
    ref = refs.get(workload, {}).get(str(seed))
    if digest is None or ref is None:
        return "no reference digest for this workload and seed"
    if ref == digest:
        return "matches the reference digest"
    return f"differs from the reference digest {ref[:12]} (information only)"


def at_nominal_speed(result: dict, nominal_s: float) -> dict:
    """An experiment's timings at nominal host speed.

    The probe is read before the first round, after each round and after the
    experiment. Each part of run_s is scaled by the readings next to it: the
    set-up by the first, a round by the mean of those on either side, and
    the rest (the final per-client table, artifacts) by the mean of the last
    two. cpu_s is scaled by the factor this gives run_s.
    """
    probe, rounds_raw = result["probe_s"], result["round_s"]
    setup = result["setup_s"] * nominal_s / probe[0]
    rounds = [t * 2 * nominal_s / (a + b) for t, a, b in zip(rounds_raw, probe, probe[1:])]
    rest = result["run_s"] - result["setup_s"] - sum(rounds_raw)
    run_s = setup + sum(rounds) + rest * 2 * nominal_s / (probe[-2] + probe[-1])
    return {
        "setup_s": setup,
        "round_s": rounds,
        "run_s": run_s,
        "cpu_s": result["cpu_s"] * run_s / result["run_s"],
    }


def end_to_end(ok: list[dict], setups: list[float], cfg: dict, nominal_s: float | None):
    """The end-to-end metrics, at nominal host speed unless nominal_s is None."""
    results = [r["result"] for r in ok]
    facts = ok[0]["facts"]
    if nominal_s is not None:
        results = [dict(res, **at_nominal_speed(res, nominal_s)) for res in results]
    rounds = [t for res in results for t in res["round_s"]]
    steps = workloads.steps_per_round(cfg) * len(rounds)
    return {
        "setup_s": statistics.median(setups + [res["setup_s"] for res in results]),
        "round_s_p50": statistics.median(rounds),
        "steps_per_s": steps / sum(rounds),
        "run_s": statistics.median(res["run_s"] for res in results),
        "cpu_s": statistics.median(res["cpu_s"] for res in results),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        "final_acc": facts["final_acc"],
        "comm_mb": facts["comm_mb"],
    }


def per_layer(ok: list[dict], nominal_s: float) -> dict[str, float]:
    traced = [r["result"]["layers"] for r in ok if r["traced"]]
    plain = [at_nominal_speed(r["result"], nominal_s)["run_s"] for r in ok if not r["traced"]]
    if not traced or not plain:
        raise RuntimeError("the traced run needs one passing traced and one untraced experiment")
    metrics = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    traced_run_s = statistics.median(
        at_nominal_speed(r["result"], nominal_s)["run_s"] for r in ok if r["traced"]
    )
    metrics["trace.overhead_frac"] = traced_run_s / statistics.median(plain) - 1.0
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, help="override the workload's round count (smoke runs)")
    args = ap.parse_args()
    if args.workload == "all":  # one run per workload, each ending in its own JSON line
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.rounds is not None:
            rest += ["--rounds", str(args.rounds)]
        return max(subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
                   for w in workloads.WORKLOADS)

    os.environ.update(BLAS_PINS)  # before numpy loads, so the probe runs here as in the workers
    root = Path.cwd()
    declared = root / "BENCHMARK.json"
    if not (root / "src" / "subfed" / "__init__.py").is_file() or not declared.is_file():
        print(f"{root} lacks src/subfed or BENCHMARK.json; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(declared.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    setup_only = ["--workload", args.workload, "--seed", str(args.seed),
                  "--out", str(out / "setup"), "--setup-only"]
    run_worker(root, setup_only)  # warm-up: byte-compiles src/ and fills the file cache
    nominal_s = workloads.PROBE_NOMINAL_S[args.workload]
    setup_runs = []  # raw set-up time and the probe readings on either side
    if not args.trace:
        import hostprobe  # loads numpy, after the BLAS pin

        speed = hostprobe.Probe(**workloads.PROBES[args.workload])
        speed.run()  # warm-up
        for _ in range(SETUP_RUNS):
            before = speed.reading()
            result, error = run_worker(root, setup_only)
            after = speed.reading()
            if result is None:
                print(f"set-up run failed: {error}", file=sys.stderr)
                return 1
            setup_runs.append({"setup_s": result["setup_s"], "probe_s": [before, after]})
    raw_setups = [s["setup_s"] for s in setup_runs]
    setups = [s["setup_s"] * 2 * nominal_s / sum(s["probe_s"]) for s in setup_runs]

    runs = run_experiments(root, args, out)
    digest = check_determinism(runs)
    ok = [r for r in runs if not r["problems"]]
    for i, r in enumerate(runs):
        for problem in r["problems"]:
            print(f"experiment {i} failed: {problem}", file=sys.stderr)
    if not ok:
        print("no experiment passed its checks", file=sys.stderr)
        return 1

    cfg = workloads.overrides(args.workload, args.seed, "", args.rounds)
    if args.trace:
        metrics, raw = per_layer(ok, nominal_s), {}
    else:
        metrics, raw = end_to_end(ok, setups, cfg, nominal_s), end_to_end(ok, raw_setups, cfg, None)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 1
    failed = len(runs) - len(ok)
    env = ok[0]["result"]["env"]
    rounds = sum(len(r["result"]["round_s"]) for r in ok)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(runs)} experiments, "
          f"{failed} failed ({100.0 * failed / len(runs):.1f}%), {rounds} rounds measured")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"artifact digest {digest}: {reference_note(args.workload, args.seed, digest)}")
    steal = [r["steal_s"] for r in runs if r["steal_s"] is not None]
    if steal:
        print(f"host steal during the experiments: {sum(steal):.2f} CPU s in "
              f"{sum(r['wall_s'] for r in runs):.1f} s of wall time")
    probes = [p for r in ok for p in r["result"]["probe_s"]]
    print(f"host-speed probe: median {statistics.median(probes):.4g} s over {len(probes)} "
          f"readings, nominal {nominal_s} s; " + ("per-layer times are raw" if args.trace else
                                                  "timings are at nominal speed, raw in ()"))
    for name, unit in units.items():
        shown = f"  {name:34s} {metrics[name]:14.6g}"
        if name in raw and raw[name] != metrics[name]:
            shown += f" ({raw[name]:.6g})"
        print(f"{shown} {unit}")
    report = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (out / "result.json").write_text(json.dumps(
        dict(report, workload=args.workload, seed=args.seed, trace=args.trace, env=env,
             digest=digest, raw_metrics=raw, setup_runs=setup_runs, experiments=[
                 dict({k: r[k] for k in ("traced", "wall_s", "steal_s", "problems")}, **{
                     k: r["result"][k] for k in TIMINGS if r["result"] is not None
                 }) for r in runs
             ]), indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
