"""scripts/artifact_digests.py, and the benchmark workloads' artifact digests
pinned per environment in digest_pins.json.

A run's bits depend on numpy and on the kernels its OpenBLAS picks for the
CPU, so the pins are keyed by `artifact_digests.environment_key()`; on an
environment with no pins the pin tests skip and name its key. A change that
moves results on purpose rewrites this environment's pins in the same diff,
and says why:

    PYTHONPATH=src python3 tests/test_artifact_digests.py
"""

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_digests.py"
_spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
artifact_digests = importlib.util.module_from_spec(_spec)
# the script puts perfbench/ on the import path when loaded; keep that to
# this import
with mock.patch.object(sys, "path", list(sys.path)):
    _spec.loader.exec_module(artifact_digests)

PINS = Path(__file__).with_name("digest_pins.json")
# each variant's (workloads, parallelism, settings) on top of two rounds at
# seeds 1 and 2; None is every workload, or the workload's own parallelism
PIN_VARIANTS = {
    "own-parallelism": (None, None, ()),
    "parallelism-1": (None, 1, ()),
    "batch-size-3": (None, None, (("batch_size", 3),)),
    "accept-un-hybrid": (("accept-un",), None, (("algorithm", "sub-fedavg-hy"),)),
}


def pinned_lines(variant: str) -> list[str]:
    """The lines `artifact_digests.py --seed 1 2 --set rounds=2` prints for
    `variant`."""
    names, parallelism, settings = PIN_VARIANTS[variant]
    return list(artifact_digests.digest_lines(
        names or sorted(artifact_digests.workloads.WORKLOADS), (1, 2), parallelism,
        (("rounds", 2), *settings),
    ))


@pytest.mark.parametrize("variant", PIN_VARIANTS)
def test_digests_match_the_pins(variant):
    key = artifact_digests.environment_key()
    pins = json.loads(PINS.read_text()).get(key)
    if pins is None:
        pytest.skip(f"no digest pins for environment {key!r}")
    assert pinned_lines(variant) == pins[variant]


def test_setting_read_as_the_field_type():
    assert artifact_digests.config_setting("batch_size=3") == ("batch_size", 3)
    assert artifact_digests.config_setting("learning_rate=0.5") == ("learning_rate", 0.5)
    assert artifact_digests.config_setting("aggregation=strict-intersection") == (
        "aggregation", "strict-intersection"
    )


@pytest.mark.parametrize("text, message", [
    ("batch_size=three", "key 'batch_size': cannot parse 'three' as int"),
    ("batch_sise=3", "unknown config key 'batch_sise'"),
    ("batch_size", "expected KEY=VALUE"),
])
def test_bad_setting_named(text, message):
    with pytest.raises(argparse.ArgumentTypeError, match=message):
        artifact_digests.config_setting(text)


@pytest.mark.parametrize("argv", [["--seed", "1", "2"], ["--seed", "1", "--seed", "2"]])
def test_repeated_seed_flags_add_up(argv):
    assert artifact_digests.build_parser().parse_args(argv).seed == [1, 2]


@pytest.mark.parametrize("argv", [
    ["--workload", "lenet5-hy", "cnn5-fedavg-p2"],
    ["--workload", "lenet5-hy", "--workload", "cnn5-fedavg-p2"],
])
def test_repeated_workload_flags_add_up(argv):
    assert artifact_digests.build_parser().parse_args(argv).workload == [
        "lenet5-hy", "cnn5-fedavg-p2"]


def test_unknown_workload_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        artifact_digests.build_parser().parse_args(["--workload", "lenet5-hy", "lenet5"])
    assert "invalid choice: 'lenet5'" in capsys.readouterr().err


def test_no_seed_flag_leaves_the_default_to_main():
    assert artifact_digests.build_parser().parse_args([]).seed is None
    assert artifact_digests.DEFAULT_SEEDS == (1, 2, 3)


if __name__ == "__main__":
    # rewrite this environment's pins
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[artifact_digests.environment_key()] = {v: pinned_lines(v) for v in PIN_VARIANTS}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
