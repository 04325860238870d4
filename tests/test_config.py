import hashlib
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from subfed.cli import main
from subfed.config import ConfigError, ExperimentConfig, config_to_ini, parse_config, run_flag

from helpers import workloads

ROOT = Path(__file__).resolve().parents[1]
# the paper's defaults on a file dataset, whose size shows only when it is
# read; on synthetic data they ask for more shards than its train split holds
PAPER = {"dataset": "mnist", "data_root": "data"}


class TestDefaults:
    def test_paper_hyperparameters(self):
        cfg = parse_config(overrides=PAPER)
        assert cfg.clients == 100
        assert cfg.batch_size == 10
        assert cfg.local_epochs == 5
        assert cfg.learning_rate == 0.01
        assert cfg.momentum == 0.5
        assert cfg.eps_unstructured == 1e-4
        assert cfg.eps_structured == 0.05

    def test_shard_size_defaults(self):
        assert ExperimentConfig(dataset="mnist").resolved_shard_size() == 250
        assert ExperimentConfig(dataset="cifar100").resolved_shard_size() == 125
        assert ExperimentConfig(dataset="mnist", shard_size=40).resolved_shard_size() == 40

    def test_model_defaults_follow_dataset(self):
        assert ExperimentConfig(dataset="mnist").resolved_model() == "cnn5-mnist"
        assert ExperimentConfig(dataset="cifar10").resolved_model() == "lenet5-cifar"
        assert ExperimentConfig(dataset="synthetic").resolved_model() == "synth-cnn"


class TestFileParsing:
    def test_empty_file_plus_dataset_gives_defaults(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("")
        cfg = parse_config(path, overrides=PAPER)
        assert cfg == parse_config(overrides=PAPER)

    def test_values_read_from_sections(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nalgorithm = fedavg\nrounds = 7\n"
            "[data]\ndataset = synthetic\nclients = 4\n"
            "[training]\nlearning_rate = 0.2\n"
        )
        cfg = parse_config(path)
        assert cfg.algorithm == "fedavg"
        assert cfg.rounds == 7
        assert cfg.clients == 4
        assert cfg.learning_rate == 0.2

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[data]\ndataset = synthetic\nshard_size = 25\n"
                        "[training]\nlearning_rate = 0.01\n")
        cfg = parse_config(path, overrides={"learning_rate": 0.1})
        assert cfg.learning_rate == 0.1

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[training]\nlearning_rte = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rte"):
            parse_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[trainings]\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="trainings"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_unparseable_value_names_key(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nrounds = soon\n")
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(path)

    def test_model_section_uses_name_key(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[data]\ndataset = synthetic\nshard_size = 25\n"
                        "[model]\nname = cnn5-mnist\n")
        assert parse_config(path).model == "cnn5-mnist"

    def test_readme_example_parses(self, tmp_path):
        example = (ROOT / "README.md").read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(example)
        cfg = parse_config(path)
        assert (cfg.rounds, cfg.parallelism, cfg.model) == (30, 1, "synth-cnn")


class TestValidation:
    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            parse_config(overrides={"dataset": "synthetic", "algorithm": "fedprox"})

    def test_file_dataset_requires_root(self, monkeypatch):
        monkeypatch.delenv("SUBFED_DATA_ROOT", raising=False)
        with pytest.raises(ConfigError, match="data root"):
            parse_config(overrides={"dataset": "mnist"})

    def test_env_var_provides_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SUBFED_DATA_ROOT", str(tmp_path))
        cfg = parse_config(overrides={"dataset": "mnist"})
        assert cfg.resolved_data_root() == tmp_path

    def test_unknown_model_named(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config(overrides={"dataset": "synthetic", "model": "vgg"})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig) if f.type == "float"])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}': must be a finite number"):
            parse_config(overrides={"dataset": "synthetic", key: value})

    def test_non_finite_float_in_file_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[data]\ndataset = synthetic\n[training]\nlearning_rate = nan\n")
        with pytest.raises(ConfigError, match="'learning_rate': must be a finite number"):
            parse_config(path)

    @pytest.mark.parametrize("split", [
        dict(shard_size=1, shards_per_client=1),
        dict(shard_size=2, shards_per_client=1, val_fraction=0.9),
        dict(shard_size=5, shards_per_client=2, val_fraction=0.95),
    ])
    def test_split_leaving_no_training_example_rejected(self, split):
        with pytest.raises(ConfigError, match="'shard_size'/'shards_per_client'/'val_fraction'"):
            parse_config(overrides=dict(dataset="synthetic", **split))

    def test_split_leaving_one_training_example_accepted(self):
        cfg = parse_config(overrides=dict(dataset="synthetic", shard_size=1))
        assert cfg.validation_size(2) == 1

    @pytest.mark.parametrize("test_per_class", [100, 300])
    def test_synthetic_test_split_taking_every_example_rejected(self, test_per_class):
        with pytest.raises(ConfigError, match="keys 'synth_per_class'/'synth_test_per_class': "
                           f"holding out {test_per_class} test examples of each class's 100"):
            parse_config(overrides=dict(synth_per_class=100, synth_test_per_class=test_per_class))

    # the acceptance config deals exactly the 20 shards of 25 that its
    # synthetic train split of 10 classes x 50 examples holds
    ACCEPTANCE = dict(dataset="synthetic", clients=10, shard_size=25,
                      synth_per_class=100, synth_test_per_class=50)

    @pytest.mark.parametrize("change, need, size, holds", [
        (dict(clients=11), 22, 25, 20),
        (dict(shards_per_client=3), 30, 25, 20),
        (dict(shard_size=26), 20, 26, 19),
        (dict(synth_classes=9), 20, 25, 18),
        (dict(synth_per_class=99), 20, 25, 19),
        (dict(synth_test_per_class=51), 20, 25, 19),
        (dict(shard_size=0), 20, 250, 2),
    ])
    def test_synthetic_train_split_short_of_shards_rejected(self, change, need, size, holds):
        with pytest.raises(ConfigError, match=(
                "keys 'clients'/'shards_per_client'/'shard_size'/'synth_classes'/"
                f"'synth_per_class'/'synth_test_per_class': .* need {need} shards of {size}, "
                f"and the synthetic train split of .* holds {holds}$")):
            parse_config(overrides=dict(self.ACCEPTANCE, **change))

    def test_synthetic_train_split_dealing_every_shard_accepted(self):
        cfg = parse_config(overrides=self.ACCEPTANCE)
        assert cfg.clients * cfg.shards_per_client * cfg.shard_size == 10 * 50

    def test_file_dataset_split_left_to_the_data(self):
        cfg = parse_config(overrides=dict(PAPER, synth_per_class=100, synth_test_per_class=300))
        assert cfg.clients * cfg.shards_per_client * cfg.resolved_shard_size() == 50_000

    def test_run_with_a_split_short_of_shards_exits_1(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["run", "--dataset", "synthetic", "--out", str(out), "--quiet"]) == 1
        assert "config error: keys 'clients'/" in capsys.readouterr().err
        assert not out.exists()


class TestOverrideTypes:
    """An override keeps its value as given, of a type its field takes: an
    int field an int, a float field an int or a float, a str field a str;
    no field a bool."""

    @pytest.mark.parametrize("key, value, got", [
        ("rounds", 2.5, "float 2.5"),
        ("rounds", "5", "str '5'"),
        ("rounds", True, "bool True"),
        ("seed", 1.0, "float 1.0"),
        ("learning_rate", "0.1", "str '0.1'"),
        ("sampling_rate", False, "bool False"),
        ("model", 5, "int 5"),
    ])
    def test_wrong_type_rejected(self, key, value, got):
        kind = FIELDS[key].type
        message = f"key '{key}': expected {kind}, got {got}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(overrides={**PAPER, key: value})

    def test_int_for_a_float_kept_as_given(self):
        cfg = parse_config(overrides={**PAPER, "sampling_rate": 1, "learning_rate": 0.5})
        assert type(cfg.sampling_rate) is int and type(cfg.learning_rate) is float
        assert "sampling_rate = 1\n" in config_to_ini(cfg)


def below(x):
    return math.nextafter(x, -math.inf)


def above(x):
    return math.nextafter(x, math.inf)


# Each bounded key: its bounds, the values accepted at each bound and inside
# the range, and the nearest value outside each bound. val_fraction's upper
# edge stops short of 1, because a fraction that rounds every example of a
# client into its validation split is rejected by the split check.
RANGES = {
    "rounds": (dict(ge=1), [1, 50], [0]),
    "parallelism": (dict(ge=0), [0, 2], [-1]),
    "clients": (dict(ge=1), [1, 100], [0]),
    "shard_size": (dict(ge=0), [0, 40], [-1]),
    "shards_per_client": (dict(ge=1), [1, 3], [0]),
    "val_fraction": (dict(gt=0, lt=1), [above(0.0), 0.1, 0.99], [0.0, 1.0]),
    "sampling_rate": (dict(gt=0, le=1), [above(0.0), 0.5, 1.0], [0.0, above(1.0)]),
    "local_epochs": (dict(ge=2), [2, 5], [1]),
    "batch_size": (dict(ge=1), [1, 10], [0]),
    "learning_rate": (dict(gt=0), [above(0.0), 0.01], [0.0]),
    "momentum": (dict(ge=0, lt=1), [0.0, 0.5, below(1.0)], [below(0.0), 1.0]),
    **{f"rate_{kind}": (dict(ge=0, le=100), [0.0, 10.0, 100.0], [below(0.0), above(100.0)])
       for kind in ("unstructured", "structured")},
    **{f"target_{kind}": (dict(ge=0, lt=100), [0.0, 50.0, below(100.0)],
                          [below(0.0), 100.0])
       for kind in ("unstructured", "structured")},
    **{f"eps_{kind}": (dict(ge=0), [0.0, 0.05], [below(0.0)])
       for kind in ("unstructured", "structured")},
    "acc_threshold": (dict(ge=0, le=101), [0.0, 50.0, 101.0], [below(0.0), above(101.0)]),
    "synth_classes": (dict(ge=2), [2, 10], [1]),
    "synth_per_class": (dict(ge=1), [1, 600], [0]),
    "synth_test_per_class": (dict(ge=1), [1, 100], [0]),
    "synth_separation": (dict(ge=0), [0.0, 0.35], [below(0.0)]),
}
FIELDS = {f.name: f for f in fields(ExperimentConfig)}
ACCEPTED = [(key, v) for key, (_, accepted, _) in RANGES.items() for v in accepted]
REJECTED = [(key, v) for key, (_, _, rejected) in RANGES.items() for v in rejected]


class TestRanges:
    @pytest.mark.parametrize("key, value", ACCEPTED)
    def test_value_at_or_inside_bound_accepted(self, key, value):
        assert getattr(parse_config(overrides={**PAPER, key: value}), key) == value

    @pytest.mark.parametrize("key, value", REJECTED)
    def test_nearest_value_outside_bound_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_config(overrides={"dataset": "synthetic", key: value})

    @pytest.mark.parametrize("key, value", REJECTED)
    def test_run_with_value_outside_bound_exits_1(self, tmp_path, capsys, key, value):
        flag = run_flag(FIELDS[key])
        ini = tmp_path / "exp.ini"
        args = ["run", "--dataset", "synthetic", "--out", str(tmp_path / "runs"), "--quiet"]
        if flag:
            args.append(f"{flag}={value}")  # with `=`, as argparse takes -5e-324 for an option
        else:
            ini.write_text(f"[{FIELDS[key].metadata['section']}]\n{key} = {value}\n")
            args += ["--config", str(ini)]
        assert main(args) == 1
        assert f"config error: key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key, value", REJECTED)
    def test_range_error_names_value(self, key, value):
        with pytest.raises(ConfigError, match=f"got {value}$"):
            parse_config(overrides={"dataset": "synthetic", key: value})

    def test_bounds_declared_on_fields(self):
        """Each field declaring a bound declares exactly the ones above."""
        declared = {
            name: {b: f.metadata[b] for b in ("ge", "gt", "le", "lt") if b in f.metadata}
            for name, f in FIELDS.items()
        }
        assert {name: b for name, b in declared.items() if b} == {
            key: bounds for key, (bounds, _, _) in RANGES.items()
        }


class TestEcho:
    def test_ini_round_trip(self, tmp_path):
        cfg = parse_config(overrides={
            "dataset": "synthetic", "shard_size": 25, "rounds": 9, "learning_rate": 0.3,
            "model": "synth-cnn", "algorithm": "standalone",
        })
        path = tmp_path / "echo.ini"
        path.write_text(config_to_ini(cfg))
        assert parse_config(path) == cfg

    def test_default_echo_bytes(self):
        assert config_to_ini(ExperimentConfig()) == (
            "[experiment]\n"
            "algorithm = sub-fedavg-un\n"
            "rounds = 50\n"
            "seed = 0\n"
            "output_dir = runs\n"
            "parallelism = 1\n"
            "\n"
            "[data]\n"
            "dataset = synthetic\n"
            "data_root = \n"
            "clients = 100\n"
            "shard_size = 0\n"
            "shards_per_client = 2\n"
            "val_fraction = 0.1\n"
            "synth_classes = 10\n"
            "synth_per_class = 600\n"
            "synth_test_per_class = 100\n"
            "synth_separation = 0.35\n"
            "\n"
            "[model]\n"
            "name = \n"
            "\n"
            "[training]\n"
            "sampling_rate = 0.1\n"
            "local_epochs = 5\n"
            "batch_size = 10\n"
            "learning_rate = 0.01\n"
            "momentum = 0.5\n"
            "\n"
            "[pruning]\n"
            "rate_unstructured = 10.0\n"
            "rate_structured = 10.0\n"
            "target_unstructured = 30.0\n"
            "target_structured = 50.0\n"
            "eps_unstructured = 0.0001\n"
            "eps_structured = 0.05\n"
            "acc_threshold = 50.0\n"
            "aggregation = per-position\n"
        )

    @pytest.mark.parametrize("workload, sha256", [
        ("accept-un", "266b32589f70c26d6b83ac5f39e3780e2e38b5373ae03e717a0b67d4eca98e98"),
        ("cnn5-fedavg-p2", "3404168c36e19ac16e909cec37419edac49c0e8c506e24817b31e0de48cc91f5"),
        ("lenet5-hy", "d2dac5ba89bf64c90c9b161658983bd3be271449879c3470bd2ec34bcee50f16"),
    ])
    def test_workload_echo_bytes(self, workload, sha256):
        """Each benchmark workload's config.ini, pinned by its digest at seed 1."""
        cfg = parse_config(overrides=workloads.overrides(workload, 1, "runs"))
        assert hashlib.sha256(config_to_ini(cfg).encode()).hexdigest() == sha256
