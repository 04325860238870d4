import argparse
import importlib.util
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
