#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs, with the gain verdict per metric.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds S [S ...]

PARENT_DIR and CHANGE_DIR are the roots of two checkouts. For each seed the
script runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
in both, T being `run_seconds` of PARENT_DIR's BENCHMARK.json: the parent
first for the 1st, 3rd, ... seed and the change first for the others. It
reads each run's perfbench/out/<W>-seed<S>-trace0/result.json.

For every end-to-end metric of BENCHMARK.json it prints each pair's
nominal-speed values, each next to its raw value (result.json's
raw_metrics) and its run's median host-speed probe reading (over its
experiments' probe_s), then each side's median and quartiles
(statistics.quantiles, n=4), each side's median raw value, and the change's
win count, ties counting for neither side. Each side's median probe reading
over all its runs is printed once: the probe runs in the program's process,
so a change that moves the probe shows there, and per pair a nominal win
can be told from a raw one. The verdict, on nominal-speed values only:

- "gain": at least 10 pairs, the change wins at least nine tenths of them,
  its median is better than the parent's by more than the parent's
  quartile spread, and it failed no larger share of its experiments;
- "better, too few pairs": the same with fewer than 10 pairs;
- "better, more failures": the same, but the change failed a larger share
  of its experiments than the parent;
- "worse": the change's median is worse than the parent's by more than the
  metric's bound (a fraction of the parent's median);
- "unresolved": either side's quartile spread is wider than that bound and
  not every change run is better than every parent run;
- "within bound": none of these.

A pair counts only when both of its runs wrote a result; the failed share of
experiments is printed per side, and a pair whose two sides' artifact
digests or env records differ is named on stderr. The exit code is 0 unless
a run could not be read.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_trajectory import spread  # scripts/bench_trajectory.py

MIN_PAIRS = 10  # the fewest pairs a gain may rest on


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One untraced perfbench run in `checkout`; its result, or None if it wrote none."""
    path = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0" / "result.json"
    path.unlink(missing_ok=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"  {checkout} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}",
              file=sys.stderr)
    return json.loads(path.read_text()) if path.is_file() else None


def probe_median(result: dict) -> float:
    """The median of a run's host-speed probe readings; NaN if none of its
    experiments finished (a failed experiment has no readings)."""
    probes = [p for e in result["experiments"] for p in e.get("probe_s", ())]
    return statistics.median(probes) if probes else float("nan")


def verdict(metric: dict, parent: list[float], change: list[float],
            failed_shares: tuple[float, float]) -> dict:
    """Win count, both sides' spreads and the verdict for one metric over the pairs.

    `failed_shares` is the (parent, change) share of experiments that failed.
    """
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    ps, cs = spread(parent), spread(change)
    gap = cs["median"] - ps["median"]
    better_by = -gap if lower else gap
    bound = metric["bound"] * abs(ps["median"])
    every_run_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if 10 * wins >= 9 * len(parent) and better_by > ps["q3"] - ps["q1"]:
        if failed_shares[1] > failed_shares[0]:
            call = "better, more failures"
        else:
            call = "gain" if len(parent) >= MIN_PAIRS else "better, too few pairs"
    elif -better_by > bound:
        call = "worse"
    elif max(ps["q3"] - ps["q1"], cs["q3"] - cs["q1"]) > bound and not every_run_better:
        call = "unresolved"
    else:
        call = "within bound"
    return {"wins": wins, "losses": losses, "pairs": len(parent), "parent": ps,
            "change": cs, "gap": gap, "verdict": call}


def report(metrics: list[dict], pairs: list[tuple[int, dict, dict]]) -> None:
    """Print every end-to-end metric's pairs and verdict."""
    failed_shares = []
    for side, i in (("parent", 1), ("change", 2)):
        attempted = sum(pair[i]["attempted"] for pair in pairs)
        failed = sum(pair[i]["failed"] for pair in pairs)
        print(f"{side}: {failed} of {attempted} experiments failed")
        failed_shares.append(failed / attempted if attempted else 0.0)
    for side, i in (("parent", 1), ("change", 2)):
        # a failed experiment has no readings
        probes = [p for pair in pairs for e in pair[i]["experiments"] for p in e.get("probe_s", ())]
        if probes:
            print(f"{side}: host-speed probe median {statistics.median(probes):.6g} s "
                  f"over {len(probes)} readings")
    for metric in metrics:
        name = metric["name"]
        parent = [p["metrics"][name]["value"] for _, p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, _, c in pairs]
        v = verdict(metric, parent, change, tuple(failed_shares))
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']})")
        for seed, *sides in pairs:
            print(f"  seed {seed:<6d}" + "".join(
                f" {side} {res['metrics'][name]['value']:<12.6g} raw "
                f"{res['raw_metrics'][name]:<12.6g} probe {probe_median(res):<10.6g}"
                for side, res in zip(("parent", "change"), sides)).rstrip())
        for side in ("parent", "change"):
            s = v[side]
            print(f"  {side} median {s['median']:.6g}  quartiles {s['q1']:.6g} .. {s['q3']:.6g}")
        raw = [statistics.median(pair[i]["raw_metrics"][name] for pair in pairs) for i in (1, 2)]
        print(f"  raw medians: parent {raw[0]:.6g}  change {raw[1]:.6g}")
        rel = v["gap"] / v["parent"]["median"] if v["parent"]["median"] else float("nan")
        print(f"  change wins {v['wins']} of {v['pairs']} pairs ({v['losses']} lost); "
              f"median gap {v['gap']:+.6g} ({rel:+.1%}) against the parent's quartile "
              f"spread {v['parent']['q3'] - v['parent']['q1']:.6g}: {v['verdict']}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", action="extend", required=True,
                    help="repeatable")
    return ap


def main() -> int:
    args = build_parser().parse_args()
    declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    pairs, missing = [], 0
    for i, seed in enumerate(args.seeds):
        order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        got = {checkout: run_perfbench(checkout, args.workload, seed, declared["run_seconds"])
               for checkout in order}
        parent, change = got[args.parent], got[args.change]
        if parent is None or change is None:
            missing += 1
            print(f"seed {seed}: no result from "
                  f"{' and '.join(str(c) for c in order if got[c] is None)}", file=sys.stderr)
            continue
        if parent["env"] != change["env"]:
            print(f"seed {seed}: env differs: {parent['env']} against {change['env']}",
                  file=sys.stderr)
        if parent["digest"] != change["digest"]:
            print(f"seed {seed}: artifact digest differs: {parent['digest']} against "
                  f"{change['digest']}", file=sys.stderr)
        pairs.append((seed, parent, change))
    if pairs:
        print(f"workload {args.workload}: {len(pairs)} pairs, seeds {[s for s, _, _ in pairs]}")
        report(declared["end_to_end"], pairs)
    return 1 if missing or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
