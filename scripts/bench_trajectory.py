#!/usr/bin/env python3
"""Summarise perfbench runs of one commit into a BENCH_<sha>.json trajectory point.

    python3 scripts/bench_trajectory.py SHA RESULT_JSON [RESULT_JSON ...] [--out PATH]

Each RESULT_JSON is the result.json of one untraced perfbench run
(perfbench/out/<workload>-seed<n>-trace0/result.json), this commit's side of
one alternating parent/change pair. Runs are grouped by workload. For every
end-to-end metric the output holds the median and quartiles
(statistics.quantiles, n=4) over the runs, at nominal host speed and raw,
with the seeds, the pair count, the experiments attempted and failed, and
perfbench's env record, which must be the same for every run. The output
goes to BENCH_<sha>.json in the working directory unless --out is given.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles; one value is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def trajectory_point(sha: str, results: list[dict]) -> dict:
    if not results:
        raise ValueError("no result.json given")
    env = results[0]["env"]
    by_workload: dict[str, list[dict]] = {}
    for result in results:
        if result["trace"]:
            raise ValueError(f"{result['workload']} seed {result['seed']} is a traced run")
        if result["env"] != env:
            raise ValueError(f"env differs between runs: {env} against {result['env']}")
        by_workload.setdefault(result["workload"], []).append(result)
    workloads = {}
    for name, runs in sorted(by_workload.items()):
        seeds = sorted(r["seed"] for r in runs)
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"{name}: a seed is given twice: {seeds}")
        metrics = {}
        for metric, entry in runs[0]["metrics"].items():
            row = {"unit": entry["unit"],
                   "nominal": spread([r["metrics"][metric]["value"] for r in runs])}
            raw = [r["raw_metrics"][metric] for r in runs if metric in r["raw_metrics"]]
            if raw:
                row["raw"] = spread(raw)
            metrics[metric] = row
        workloads[name] = {
            "seeds": seeds,
            "pairs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    return {"sha": sha, "env": env, "workloads": workloads}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sha", help="the commit the runs measured")
    ap.add_argument("results", nargs="+", type=Path, help="perfbench result.json files")
    ap.add_argument("--out", type=Path, help="default: BENCH_<sha>.json")
    args = ap.parse_args()
    try:
        point = trajectory_point(args.sha, [json.loads(p.read_text()) for p in args.results])
    except ValueError as err:
        print(f"bench_trajectory: {err}", file=sys.stderr)
        return 2
    out = args.out or Path(f"BENCH_{args.sha}.json")
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}: " + ", ".join(
        f"{name} ({w['pairs']} runs)" for name, w in point["workloads"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
