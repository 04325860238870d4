from dataclasses import fields

import pytest

from subfed.config import ConfigError, ExperimentConfig, config_to_ini, parse_config


class TestDefaults:
    def test_paper_hyperparameters(self):
        cfg = parse_config(overrides={"dataset": "synthetic"})
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
        cfg = parse_config(path, overrides={"dataset": "synthetic"})
        assert cfg == parse_config(overrides={"dataset": "synthetic"})

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
        path.write_text("[data]\ndataset = synthetic\n[training]\nlearning_rate = 0.01\n")
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
        path.write_text("[data]\ndataset = synthetic\n[model]\nname = cnn5-mnist\n")
        assert parse_config(path).model == "cnn5-mnist"


class TestValidation:
    def test_target_out_of_range(self):
        with pytest.raises(ConfigError, match="target_unstructured"):
            parse_config(overrides={"dataset": "synthetic", "target_unstructured": 120.0})

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            parse_config(overrides={"dataset": "synthetic", "algorithm": "fedprox"})

    def test_momentum_range(self):
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(overrides={"dataset": "synthetic", "momentum": 1.0})

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

    def test_epochs_minimum(self):
        with pytest.raises(ConfigError, match="local_epochs"):
            parse_config(overrides={"dataset": "synthetic", "local_epochs": 1})


class TestEcho:
    def test_ini_round_trip(self, tmp_path):
        cfg = parse_config(overrides={
            "dataset": "synthetic", "rounds": 9, "learning_rate": 0.3,
            "model": "synth-cnn", "algorithm": "standalone",
        })
        path = tmp_path / "echo.ini"
        path.write_text(config_to_ini(cfg))
        assert parse_config(path) == cfg
