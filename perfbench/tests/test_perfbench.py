"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload for two rounds through run.py from the
root of the checkout, so they take a minute or two.
"""

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import hostprobe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(sid, name, start, end, parent=0, thread=1, size=0):
    return (sid, name, start, end, parent, thread, size)


class TestSelfTime:
    def test_nested_spans_on_two_threads(self):
        spans = [
            span(1, "round", 0, 100),
            span(2, "client", 10, 40, parent=1, thread=1),
            span(3, "client", 30, 90, parent=1, thread=2),  # overlaps span 2
            span(4, "train", 15, 25, parent=2, thread=1),
            span(5, "train", 35, 95, parent=3, thread=2),  # runs past its parent's end
        ]
        selfs = tracing.self_times(spans)
        assert selfs[1] == 100 - 80  # children's union [10, 90] counts once
        assert selfs[2] == 30 - 10
        assert selfs[3] == 60 - 55  # only the part inside [30, 90] is covered
        assert selfs[4] == 10 and selfs[5] == 60

    def test_covered_ns_merges_and_clips(self):
        assert tracing.covered_ns(0, 10, []) == 0
        assert tracing.covered_ns(0, 10, [(2, 4), (3, 6), (8, 20)]) == 4 + 2
        assert tracing.covered_ns(5, 10, [(0, 5), (10, 12)]) == 0

    def test_tracer_parents_pool_threads_under_the_caller(self):
        mod = SimpleNamespace()
        mod.inner = lambda x: time.sleep(0.05) or x

        def outer():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(lambda x: mod.inner(x), [1, 2]))

        mod.outer = outer
        tracer = tracing.Tracer()
        tracer.wrap(mod, "inner", "inner", size=lambda args, result: result)
        tracer.wrap(mod, "outer", "outer")
        assert mod.outer() == [1, 2]
        tracer.uninstall()
        assert mod.outer is outer

        (root,) = [s for s in tracer.spans if s[tracing.NAME] == "outer"]
        inner = [s for s in tracer.spans if s[tracing.NAME] == "inner"]
        assert len(inner) == 2
        assert all(s[tracing.PARENT] == root[tracing.ID] for s in inner)
        assert len({s[tracing.TID] for s in inner}) == 2
        assert sorted(s[tracing.SIZE] for s in inner) == [1, 2]
        selfs = tracing.self_times(tracer.spans)
        duration = root[tracing.END] - root[tracing.START]
        assert 0 <= selfs[root[tracing.ID]] < duration - 0.04e9


class TestPhaseShares:
    def test_shares_of_round_self_time(self):
        shares = tracing.phase_shares({
            "engine.forward_train": 30, "engine.backward": 20, "engine.sgd_step": 10,
            "engine.eval": 25, "pruning.derive": 5, "pruning.mask_op": 2,
            "federation.aggregate": 1, "federation.run_round": 4,
            "federation.client_update": 3,
        })
        assert shares == pytest.approx(
            {"train": 0.60, "eval": 0.25, "mask": 0.07, "aggregate": 0.01, "other": 0.07}
        )
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_empty_round_is_an_error(self):
        with pytest.raises(ValueError):
            tracing.phase_shares({})


class TestWorkloads:
    def test_step_counts(self):
        # 10 clients x 5 epochs x ceil(45 / 10) steps
        assert workloads.steps_per_round(workloads.WORKLOADS["accept-un"]) == 250
        # 5 of 10 clients, same shards
        assert workloads.steps_per_round(workloads.WORKLOADS["lenet5-hy"]) == 125
        # 10 of 40 clients x 2 epochs x ceil(18 / 10) steps
        assert workloads.steps_per_round(workloads.WORKLOADS["cnn5-fedavg-p2"]) == 40

    def test_fedavg_closed_form(self):
        cfg = workloads.overrides("cnn5-fedavg-p2", 1, "out")
        assert cfg["rounds"] == 10
        assert workloads.closed_form_comm_mb("cnn5-fedavg-p2", cfg) == pytest.approx(24.768)
        assert workloads.closed_form_comm_mb("accept-un", cfg) is None

    def test_rate_grid(self):
        assert checks.on_rate_grid(0.0, 5.0, 91.0)
        assert checks.on_rate_grid(45.0, 5.0, 91.0)
        assert checks.on_rate_grid(91.0, 5.0, 91.0)
        assert not checks.on_rate_grid(47.5, 5.0, 91.0)
        assert not checks.on_rate_grid(95.0, 5.0, 91.0)
        assert not checks.on_rate_grid(5.0, 0.0, 0.0)


class TestHostSpeed:
    def test_rounds_scale_by_the_readings_on_either_side(self):
        result = {"setup_s": 0.3, "round_s": [1.0, 2.0], "probe_s": [0.1, 0.3, 0.2, 0.05],
                  "run_s": 4.0, "cpu_s": 5.0}
        at = run.at_nominal_speed(result, 0.1)
        assert at["setup_s"] == pytest.approx(0.3)  # the first reading is nominal
        assert at["round_s"] == pytest.approx([1.0 * 0.1 / 0.2, 2.0 * 0.1 / 0.25])
        rest = (4.0 - 0.3 - 3.0) * 0.1 / 0.125  # after the last round
        assert at["run_s"] == pytest.approx(0.3 + 0.5 + 0.8 + rest)
        assert at["cpu_s"] == pytest.approx(5.0 * at["run_s"] / 4.0)

    @pytest.mark.parametrize("workload", sorted(workloads.PROBES))
    def test_probe_trains_every_workload_shape(self, workload):
        probe = hostprobe.Probe(**workloads.PROBES[workload])
        before = [p.copy() for p in probe.convs + probe.dense]
        assert probe.reading() > 0
        after = probe.convs + probe.dense
        assert all(a.shape == b.shape and not (a == b).all() for a, b in zip(before, after))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_two_round_smoke_run_prints_every_metric(trace):
    proc = run_bench(ROOT, "--workload", "all", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    blocks, block = [], []
    for line in proc.stdout.strip().splitlines():
        block.append(line)
        if line.startswith("{"):  # each workload's run ends in its JSON line
            blocks.append(block)
            block = []
    assert len(blocks) == len(DECLARED["workloads"])
    for block, workload in zip(blocks, DECLARED["workloads"]):
        assert block[0].startswith(f"workload {workload['name']} ")
        report = json.loads(block[-1])
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 2
        assert set(report["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert report["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(report["metrics"][m["name"]]["value"], (int, float))
            assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                       for line in block[:-1]), (workload["name"], m["name"])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "accept-un", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
