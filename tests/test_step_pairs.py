import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "step_pairs.py"


def step_pairs(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=300)


def test_one_checkout_against_itself():
    proc = step_pairs(str(ROOT), str(ROOT), "--model", "synth-cnn", "--batch", "2",
                      "--blocks", "3", "--steps", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "model synth-cnn batch 2: 3 pairs of 2 steps"
    for side, line in zip(("parent", "change"), lines[1:3]):
        assert re.fullmatch(rf"{side} median [\d.]+ us/step  quartiles [\d.]+ \.\. [\d.]+", line)
    wins, lost = map(int, re.match(r"change wins (\d+) of 3 pairs \((\d+) lost\)",
                                   lines[3]).groups())
    assert wins + lost <= 3
    # the same engine on the same data ends on the same bits
    assert lines[4] == "final params bit-identical: yes"


def test_evals_of_one_checkout_against_itself():
    proc = step_pairs(str(ROOT), str(ROOT), "--model", "synth-cnn", "--eval", "7",
                      "--blocks", "3", "--steps", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "model synth-cnn eval 7: 3 pairs of 2 evals"
    for side, line in zip(("parent", "change"), lines[1:3]):
        assert re.fullmatch(rf"{side} median [\d.]+ us/example  quartiles [\d.]+ \.\. [\d.]+",
                            line)
    assert re.match(r"change wins \d+ of 3 pairs", lines[3])
    assert lines[4] == "eval logits bit-identical: yes"


def test_counts_must_be_positive():
    for count in (("--steps", "0"), ("--eval", "0")):
        proc = step_pairs(str(ROOT), str(ROOT), "--model", "synth-cnn", *count)
        assert proc.returncode == 2 and "must be at least 1" in proc.stderr
