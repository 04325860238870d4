import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)

ENV = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31",
       "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}}


def result(workload, seed, run_s, raw_run_s, failed=0, trace=0, env=ENV):
    """A perfbench result.json cut down to the fields the tool reads."""
    return {
        "correct": failed == 0, "attempted": 3, "failed": failed,
        "metrics": {"run_s": {"value": run_s, "unit": "s"},
                    "final_acc": {"value": 90.0, "unit": "%"}},
        "workload": workload, "seed": seed, "trace": trace, "env": env,
        "raw_metrics": {"run_s": raw_run_s, "final_acc": 90.0},
    }


def test_medians_quartiles_seeds_pairs_env(tmp_path):
    runs = [result("w", seed, v, 2 * v) for seed, v in ((3, 4.0), (1, 1.0), (2, 3.0), (4, 2.0))]
    runs.append(result("other", 7, 5.0, 6.0, failed=1))
    paths = []
    for i, run in enumerate(runs):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(run))
    out = tmp_path / "BENCH_abc.json"
    subprocess.run([sys.executable, str(SCRIPT), "abc", *map(str, paths), "--out", str(out)],
                   check=True, capture_output=True)
    point = json.loads(out.read_text())
    assert point["sha"] == "abc" and point["env"] == ENV
    w = point["workloads"]["w"]
    assert w["seeds"] == [1, 2, 3, 4] and w["pairs"] == 4
    assert (w["attempted"], w["failed"]) == (12, 0)
    # statistics.quantiles(n=4) of 1..4: 1.25, 2.5, 3.75
    assert w["metrics"]["run_s"] == {
        "unit": "s",
        "nominal": {"median": 2.5, "q1": 1.25, "q3": 3.75},
        "raw": {"median": 5.0, "q1": 2.5, "q3": 7.5},
    }
    other = point["workloads"]["other"]
    assert other["pairs"] == 1 and other["failed"] == 1
    assert other["metrics"]["run_s"]["nominal"] == {"median": 5.0, "q1": 5.0, "q3": 5.0}


@pytest.mark.parametrize("bad", [
    [result("w", 1, 1.0, 1.0, trace=1)],
    [result("w", 1, 1.0, 1.0), result("w", 2, 1.0, 1.0, env=dict(ENV, nproc=4))],
    [result("w", 1, 1.0, 1.0), result("w", 1, 2.0, 2.0)],
    [],
])
def test_rejects_traced_mixed_env_repeated_seed_or_none(bad):
    with pytest.raises(ValueError):
        bench_trajectory.trajectory_point("abc", bad)
