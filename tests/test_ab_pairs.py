import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "ab_pairs.py"
sys.path.insert(0, str(SCRIPTS))  # ab_pairs imports bench_trajectory
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

ROUND = {"name": "round_s_p50", "unit": "s", "better": "lower", "bound": 0.25}
STEPS = {"name": "steps_per_s", "unit": "steps/s", "better": "higher", "bound": 0.25}
ENV = {"nproc": 2, "numpy": "2.4.6"}


def result(round_s, steps, failed=0, digest="d0", raw=1.5, probe=0.03):
    """A perfbench result.json cut down to the fields the tool reads: raw
    values `raw` times the nominal ones, and two probe readings per
    experiment that ran, `probe` and twice it."""
    return {"attempted": 4, "failed": failed, "env": ENV, "digest": digest, "metrics": {
        "round_s_p50": {"value": round_s, "unit": "s"},
        "steps_per_s": {"value": steps, "unit": "steps/s"}},
        "raw_metrics": {"round_s_p50": raw * round_s, "steps_per_s": raw * steps},
        "experiments": [{"problems": ["exit 1"]}] * failed
        + [{"problems": [], "probe_s": [probe, 2 * probe]}] * (4 - failed)}


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


NO_FAILURES = (0.0, 0.0)


@pytest.mark.parametrize("change, wins, call", [
    ([v - 0.09 for v in PARENT], 10, "gain"),
    # 9 of 10 is enough
    ([v - 0.09 for v in PARENT[:9]] + [1.05], 9, "gain"),
    # 8 of 10 is not, however large the gap
    ([v - 0.09 for v in PARENT[:8]] + [1.05, 1.05], 8, "within bound"),
    # every pair won, but by less than the parent's quartile spread
    ([v - 0.01 for v in PARENT], 10, "within bound"),
    # a tie counts for neither side
    ([v - 0.09 for v in PARENT[:9]] + [PARENT[9]], 9, "gain"),
    ([v * 1.3 for v in PARENT], 0, "worse"),
    ([v * 1.2 for v in PARENT], 0, "within bound"),
])
def test_verdict_lower_is_better(change, wins, call):
    v = ab_pairs.verdict(ROUND, PARENT, change, NO_FAILURES)
    assert (v["wins"], v["pairs"], v["verdict"]) == (wins, 10, call)


def test_fewer_than_ten_pairs_claim_no_gain():
    v = ab_pairs.verdict(ROUND, PARENT[:9], [p - 0.09 for p in PARENT[:9]], NO_FAILURES)
    assert (v["wins"], v["verdict"]) == (9, "better, too few pairs")


def test_more_failures_withhold_the_gain():
    change = [v - 0.09 for v in PARENT]
    assert ab_pairs.verdict(ROUND, PARENT, change, (0.0, 0.025))["verdict"] == (
        "better, more failures")
    # an equal or smaller failed share keeps it
    assert ab_pairs.verdict(ROUND, PARENT, change, (0.025, 0.025))["verdict"] == "gain"
    assert ab_pairs.verdict(ROUND, PARENT, change, (0.05, 0.0))["verdict"] == "gain"


WIDE = [0.6, 0.7, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.3, 1.4]  # quartile spread 0.4 > 0.25


@pytest.mark.parametrize("parent, change, call", [
    # the parent's runs spread wider than the bound
    (WIDE, [v + 0.01 for v in WIDE], "unresolved"),
    # the change's runs do
    (PARENT, [v - 0.35 if i % 2 else v + 0.15 for i, v in enumerate(PARENT)], "unresolved"),
    # wide, but every change run is better than every parent run (by less
    # than the parent's quartile spread, so no gain either)
    ([1.0] * 5 + [1.6] * 5, [0.99] * 10, "within bound"),
    # wide and worse by more than the bound still reads worse
    (WIDE, [v * 1.4 for v in WIDE], "worse"),
])
def test_spread_wider_than_the_bound_is_unresolved(parent, change, call):
    assert ab_pairs.verdict(ROUND, parent, change, NO_FAILURES)["verdict"] == call


def test_verdict_higher_is_better():
    parent = [100.0 + i for i in range(10)]

    def call(change):
        return ab_pairs.verdict(STEPS, parent, change, NO_FAILURES)

    assert call([p + 20 for p in parent])["verdict"] == "gain"
    assert call([p - 20 for p in parent])["wins"] == 0
    assert call([p * 0.7 for p in parent])["verdict"] == "worse"


def test_spreads_and_gap():
    v = ab_pairs.verdict(ROUND, [1.0, 2.0, 3.0, 4.0], [0.5, 1.5, 2.5, 3.5], NO_FAILURES)
    # statistics.quantiles(n=4) of 1..4: 1.25, 2.5, 3.75
    assert v["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75}
    assert v["change"]["median"] == 2.0 and v["gap"] == -0.5
    assert (v["wins"], v["losses"]) == (4, 0) and v["verdict"] == "unresolved"


FAKE_RUN = '''import pathlib, sys
args = sys.argv[1:]
workload, seed, seconds, trace = (
    args[args.index(flag) + 1] for flag in ("--workload", "--seed", "--seconds", "--trace"))
root = pathlib.Path.cwd()
with open(root.parent / "order.log", "a") as log:
    log.write(f"{root.name} {seed} {seconds} {trace}\\n")
canned = root / "canned" / f"{seed}.json"
if canned.is_file():
    out = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0"
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(canned.read_text())
'''


def checkout(root: Path, results: dict[int, dict]) -> str:
    """A checkout whose stand-in perfbench/run.py logs each call and writes
    the canned result of its seed, or nothing for a seed without one."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 35,
                                                     "end_to_end": [ROUND, STEPS]}))
    (root / "canned").mkdir()
    for seed, res in results.items():
        (root / "canned" / f"{seed}.json").write_text(json.dumps(res))
    return str(root)


def ab(parent: str, change: str, seeds) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), parent, change, "--workload", "w",
                           "--seeds", *map(str, seeds)], capture_output=True, text=True)


def test_summarise_canned_results(tmp_path):
    seeds = list(range(951, 961))
    parent = checkout(tmp_path / "p", {s: result(PARENT[i], 400.0 + i)
                                       for i, s in enumerate(seeds)})
    change = checkout(tmp_path / "c", {s: result(PARENT[i] - 0.09, 430.0 + i,
                                                 digest="d1" if i == 5 else "d0")
                                       for i, s in enumerate(seeds)})
    proc = ab(parent, change, seeds)
    assert proc.returncode == 0
    out = proc.stdout
    assert "workload w: 10 pairs" in out
    assert "parent: 0 of 40 experiments failed" in out and "change: 0 of 40" in out
    assert ("seed 951    parent 1            raw 1.5          probe 0.045      "
            "change 0.91         raw 1.365        probe 0.045\n") in out
    assert out.count("change wins 10 of 10 pairs (0 lost)") == 2
    assert out.count(": gain") == 2
    assert proc.stderr == "seed 956: artifact digest differs: d0 against d1\n"


def test_raw_medians_and_probe_readings(tmp_path):
    """Raw medians and probe readings are printed per side; the verdict
    stays on the nominal values, though the raw ones favour the parent."""
    seeds = list(range(951, 961))
    parent = checkout(tmp_path / "p", {s: result(PARENT[i], 400.0 + i, raw=1.0, probe=0.01)
                                       for i, s in enumerate(seeds)})
    change = checkout(tmp_path / "c", {s: result(PARENT[i] - 0.09, 430.0 + i, raw=2.0,
                                                 failed=i == 0, probe=0.02)
                                       for i, s in enumerate(seeds)})
    out = ab(parent, change, seeds).stdout
    assert "parent: host-speed probe median 0.015 s over 80 readings" in out
    # the change's failed experiment has no readings
    assert "change: host-speed probe median 0.03 s over 78 readings" in out
    assert "raw medians: parent 1  change 1.82" in out  # round_s_p50
    assert "raw medians: parent 404.5  change 869" in out  # steps_per_s
    assert out.count(": better, more failures") == 2


def test_pair_lines_carry_raw_values_and_probe_medians(tmp_path):
    """Each pair's line shows both sides' raw values and run probe medians,
    so a nominal win that rests on the probe can be told from a raw one:
    here the change wins every pair at nominal speed while its raw values
    are the parent's, because its runs drew a slower host."""
    seeds = [951, 952, 953]
    parent = checkout(tmp_path / "p", {s: result(1.0, 400.0, raw=1.0, probe=0.01 * (i + 1))
                                       for i, s in enumerate(seeds)})
    change = checkout(tmp_path / "c", {s: result(0.8, 500.0, raw=1.25, probe=0.02 * (i + 1),
                                                 failed=4 if i == 2 else 0)
                                       for i, s in enumerate(seeds)})
    lines = ab(parent, change, seeds).stdout.splitlines()
    first = lines.index("round_s_p50 (s, lower is better, bound 0.25)")
    assert lines[first + 1:first + 4] == [
        "  seed 951    parent 1            raw 1            probe 0.015      "
        "change 0.8          raw 1            probe 0.03",
        "  seed 952    parent 1            raw 1            probe 0.03       "
        "change 0.8          raw 1            probe 0.06",
        # every experiment of the change's run failed: no probe reading
        "  seed 953    parent 1            raw 1            probe 0.045      "
        "change 0.8          raw 1            probe nan",
    ]
    assert "change wins 3 of 3 pairs (0 lost)" in lines[first + 7]


def test_a_failed_experiment_withholds_the_printed_gain(tmp_path):
    seeds = list(range(951, 961))
    parent = checkout(tmp_path / "p", {s: result(PARENT[i], 400.0 + i)
                                       for i, s in enumerate(seeds)})
    change = checkout(tmp_path / "c", {s: result(PARENT[i] - 0.09, 430.0 + i, failed=i == 3)
                                       for i, s in enumerate(seeds)})
    out = ab(parent, change, seeds).stdout
    assert "parent: 0 of 40 experiments failed" in out and "change: 1 of 40" in out
    assert out.count(": better, more failures") == 2 and ": gain" not in out


def test_missing_result_drops_the_pair(tmp_path):
    parent = checkout(tmp_path / "p", {1: result(1.0, 400.0), 2: result(1.0, 400.0)})
    change = checkout(tmp_path / "c", {1: result(0.9, 420.0)})
    proc = ab(parent, change, [1, 2])
    assert proc.returncode == 1
    assert "workload w: 1 pairs, seeds [1]" in proc.stdout
    assert "seed 2: no result from" in proc.stderr


def test_runs_alternate_which_side_goes_first(tmp_path):
    parent = checkout(tmp_path / "p", {s: result(1.0, 400.0) for s in (5, 6, 7)})
    change = checkout(tmp_path / "c", {s: result(0.9, 420.0) for s in (5, 6, 7)})
    proc = ab(parent, change, [5, 6, 7])
    assert proc.returncode == 0
    assert (tmp_path / "order.log").read_text().splitlines() == [
        "p 5 35 0", "c 5 35 0", "c 6 35 0", "p 6 35 0", "p 7 35 0", "c 7 35 0"]
    assert "workload w: 3 pairs, seeds [5, 6, 7]" in proc.stdout
    assert "change wins 3 of 3 pairs (0 lost)" in proc.stdout


@pytest.mark.parametrize("flags", [["--seeds", "1", "2"], ["--seeds", "1", "--seeds", "2"]])
def test_repeated_seed_flags_add_up(flags):
    args = ab_pairs.build_parser().parse_args(["parent", "change", "--workload", "w", *flags])
    assert args.seeds == [1, 2]
