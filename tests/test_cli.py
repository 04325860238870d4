import argparse
import json
from dataclasses import fields
from pathlib import Path

import pytest

from subfed.cli import _add_run_flags, _config_from_args, build_parser, main
from subfed.config import DATA_ROOT_ENV, ExperimentConfig, parse_config
from subfed.engine import builtin_spec
from subfed.experiment import compare_runs, run_experiment
from subfed.metrics import conv_flops

TINY = [
    "--dataset", "synthetic", "--clients", "4", "--rounds", "2",
    "--sampling-rate", "1.0", "--epochs", "2", "--synth-classes", "4",
    "--synth-per-class", "70", "--synth-test-per-class", "20",
    "--shard-size", "25", "--seed", "11", "--parallelism", "1", "--quiet",
]


def run_dirs(out: Path):
    return sorted(d for d in out.glob("run-*") if d.is_dir())


class TestRunVerb:
    def test_standalone_completes_with_zero_cost(self, tmp_path, capsys):
        code = main(["run", *TINY, "--algorithm", "standalone", "--out", str(tmp_path)])
        assert code == 0
        (run_dir,) = run_dirs(tmp_path)
        ledger = json.loads((run_dir / "cost_ledger.json").read_text())
        assert ledger["total_uplink_bits"] == 0
        assert ledger["total_downlink_bits"] == 0
        assert ledger["total_bytes"] == 0
        assert "run complete" in capsys.readouterr().out

    def test_progress_line_text(self, tmp_path, capsys):
        loud = [arg for arg in TINY if arg != "--quiet"]
        code = main(["run", *loud, "--rounds", "1", "--algorithm", "sub-fedavg-hy",
                     "--r-us", "20", "--r-s", "20", "--acc-th", "0", "--out", str(tmp_path)])
        assert code == 0
        (run_dir,) = run_dirs(tmp_path)
        assert capsys.readouterr().out.splitlines() == [
            "round    0  acc(local)  60.62  acc(served)  41.25  sparsity 0.200/0.042",
            f"run complete: {run_dir}",
        ]

    def test_artifacts_present(self, tmp_path):
        main(["run", *TINY, "--algorithm", "fedavg", "--out", str(tmp_path)])
        (run_dir,) = run_dirs(tmp_path)
        for name in (
            "summary.csv", "rounds.ndjson", "cost_ledger.json", "config.ini",
            "client_accuracy.csv", "plot_accuracy_vs_round.csv",
            "plot_accuracy_vs_sparsity.csv",
        ):
            assert (run_dir / name).exists(), name

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--dataset", "synthetic", "--p-us", "120",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_split_leaving_no_training_example_exit_code(self, tmp_path, capsys):
        code = main(["run", *TINY, "--shard-size", "1", "--shards-per-client", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "config error: keys 'shard_size'/'shards_per_client'/'val_fraction'" in (
            capsys.readouterr().err
        )
        assert not run_dirs(tmp_path)

    @pytest.mark.parametrize("flag, value", [("--eps-us", "nan"), ("--lr", "inf")])
    def test_non_finite_float_is_a_config_error(self, tmp_path, capsys, flag, value):
        code = main(["run", *TINY, flag, value, "--out", str(tmp_path)])
        assert code == 1
        assert "must be a finite number" in capsys.readouterr().err
        assert not run_dirs(tmp_path)

    def test_reruns_get_fresh_directories(self, tmp_path):
        for _ in range(2):
            assert main(["run", *TINY, "--algorithm", "standalone",
                         "--out", str(tmp_path)]) == 0
        assert [d.name for d in run_dirs(tmp_path)] == ["run-0001", "run-0002"]

    def test_identical_config_reruns_byte_identical(self, tmp_path):
        for _ in range(2):
            main(["run", *TINY, "--algorithm", "sub-fedavg-un", "--p-us", "40",
                  "--r-us", "20", "--acc-th", "0", "--out", str(tmp_path)])
        a, b = run_dirs(tmp_path)
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        assert (a / "client_accuracy.csv").read_bytes() == (
            b / "client_accuracy.csv"
        ).read_bytes()

    def test_ndjson_embeds_config_and_rounds(self, tmp_path):
        main(["run", *TINY, "--algorithm", "fedavg", "--out", str(tmp_path)])
        (run_dir,) = run_dirs(tmp_path)
        lines = (run_dir / "rounds.ndjson").read_text().splitlines()
        head = json.loads(lines[0])
        assert head["config"]["dataset"] == "synthetic"
        assert "parallelism" not in head["config"]  # execution detail, not provenance
        assert [json.loads(l)["round"] for l in lines[1:]] == [0, 1]

    def test_failed_run_leaves_no_artifacts(self, tmp_path):
        from subfed.federation import TrainingDivergedError

        cfg = parse_config(overrides=dict(
            dataset="synthetic", clients=4, rounds=2, algorithm="standalone",
            sampling_rate=1.0, synth_classes=4, synth_per_class=70,
            synth_test_per_class=20, shard_size=25, seed=11,
            output_dir=str(tmp_path), parallelism=1,
            learning_rate=1e30,  # guaranteed divergence
        ))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(TrainingDivergedError):
                run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []  # fully written or absent


class TestCompareVerb:
    def make_run(self, tmp_path, algorithm):
        main(["run", *TINY, "--algorithm", algorithm, "--out", str(tmp_path)])
        return run_dirs(tmp_path)[-1]

    def test_self_comparison_zero_deltas(self, tmp_path, capsys):
        run = self.make_run(tmp_path, "standalone")
        assert main(["compare", str(run), str(run)]) == 0
        out = capsys.readouterr().out
        entries, _ = compare_runs([run, run])
        assert entries[1]["delta_local_acc"] == 0.0
        assert entries[1]["delta_total_mb"] == 0.0
        assert "delta_local_acc" in out

    def test_two_algorithms_table(self, tmp_path):
        a = self.make_run(tmp_path, "standalone")
        b = self.make_run(tmp_path, "fedavg")
        entries, table = compare_runs([a, b])
        assert entries[0]["algorithm"] == "standalone"
        assert entries[1]["algorithm"] == "fedavg"
        assert entries[1]["total_mb"] > 0.0
        assert str(a) in table

    def test_flop_reduction_is_dense_over_last_round_mean(self, tmp_path):
        pruned = tmp_path / "hy"
        main(["run", *TINY, "--algorithm", "sub-fedavg-hy", "--acc-th", "0",
              "--eps-s", "0", "--r-s", "20", "--p-s", "50", "--out", str(pruned)])
        main(["run", *TINY, "--algorithm", "fedavg", "--out", str(tmp_path / "fedavg")])
        (hy,) = run_dirs(pruned)
        (dense,) = run_dirs(tmp_path / "fedavg")
        last = json.loads((hy / "rounds.ndjson").read_text().splitlines()[-1])
        per_client = [c["conv_flops"] for c in last["clients"]]
        dense_flops = conv_flops(builtin_spec("synth-cnn")).dense_total
        assert sum(per_client) < dense_flops * len(per_client)  # channels were pruned
        entries, _ = compare_runs([hy, dense])
        assert entries[0]["flop_reduction"] == pytest.approx(
            dense_flops / (sum(per_client) / len(per_client)), rel=1e-12
        )
        assert entries[1]["flop_reduction"] == 1.0

    def test_missing_file_is_clear_error(self, tmp_path, capsys):
        run = self.make_run(tmp_path, "standalone")
        code = main(["compare", str(run), str(tmp_path / "absent")])
        assert code == 2
        assert "no summary" in capsys.readouterr().err

    def test_needs_two_runs(self, tmp_path):
        run = self.make_run(tmp_path, "standalone")
        assert main(["compare", str(run)]) == 2


class TestSmallVerbs:
    def test_cost_calculator(self, capsys):
        assert main(["cost", "--rounds", "1000", "--bits", "32",
                     "--params", "65520"]) == 0
        out = capsys.readouterr().out
        assert "MB: 524.16" in out

    @pytest.mark.parametrize("flag", ["--rounds", "--bits", "--params"])
    def test_cost_rejects_negative_arguments(self, capsys, flag):
        args = {"--rounds": "10", "--bits": "32", "--params": "10"}
        args[flag] = "-1"
        code = main(["cost", *(item for pair in args.items() for item in pair)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert f"config error: {flag} must be non-negative, got -1" in err

    def test_cost_accepts_zero(self, capsys):
        assert main(["cost", "--rounds", "0", "--bits", "0", "--params", "0"]) == 0
        assert "bits: 0" in capsys.readouterr().out

    def test_flops_lenet_half(self, capsys):
        assert main(["flops", "--model", "lenet5-cifar", "--channel-prune", "50"]) == 0
        out = capsys.readouterr().out
        assert "reduction 2.5076x" in out

    @pytest.mark.parametrize("percent, accepted", [
        ("-50", False), ("100", False), ("250", False), ("nan", False),
        ("0", True), ("50", True),
    ])
    def test_flops_channel_prune_range(self, capsys, percent, accepted):
        code = main(["flops", "--model", "synth-cnn", "--channel-prune", percent])
        out, err = capsys.readouterr()
        if accepted:
            assert code == 0 and "reduction" in out
        else:
            assert code == 1 and out == ""
            assert "config error: --channel-prune: must lie in [0, 100)" in err

    def test_flops_unknown_model_is_a_config_error(self, capsys):
        code = main(["flops", "--model", "bogus"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "config error: --model: unknown model spec 'bogus'" in err

    def test_flops_dense(self, capsys):
        assert main(["flops", "--model", "cnn5-mnist"]) == 0
        assert "reduction 1.0000x" in capsys.readouterr().out

    def test_partition_dump(self, tmp_path, capsys):
        out_file = tmp_path / "part.json"
        assert main([
            "partition-dump", *TINY, "--out", str(tmp_path),
            "--dump-out", str(out_file),
        ]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["shard_size"] == 25
        assert len(payload["assignment"]) == 4
        assert all(len(v) == 50 for v in payload["assignment"].values())


class TestReductionEquivalence:
    def test_pruning_disabled_matches_fedavg_summary(self, tmp_path):
        shared = ["--p-us", "0", "--p-s", "0"]
        main(["run", *TINY, *shared, "--algorithm", "sub-fedavg-un",
              "--out", str(tmp_path / "a")])
        main(["run", *TINY, *shared, "--algorithm", "fedavg",
              "--out", str(tmp_path / "b")])

        def normalized(root):
            (run_dir,) = run_dirs(root)
            rows = []
            for line in (run_dir / "summary.csv").read_text().splitlines():
                if line.startswith("#"):
                    continue
                cells = line.split(",")
                del cells[1]  # algorithm label necessarily differs
                rows.append(",".join(cells))
            return "\n".join(rows)

        assert normalized(tmp_path / "a") == normalized(tmp_path / "b")


class TestRunFlags:
    """Every `run` option is a config override: a flag whose dest is not a
    config field, or whose value does not reach the config, fails here."""

    # values for the free-text fields; other fields derive theirs from the default
    TEXT_VALUES = {"data_root": "elsewhere", "model": "lenet5-cifar", "output_dir": "out"}

    def run_options(self):
        p = argparse.ArgumentParser()
        _add_run_flags(p)
        return [a for a in p._actions if a.dest not in ("help", "config", "quiet")]

    def non_default(self, action, default):
        if action.choices:
            return next(c for c in action.choices if c != default)
        if action.type is int:
            return default + 1
        if action.type is float:
            return default / 2
        return self.TEXT_VALUES[action.dest]

    def test_every_dest_is_a_config_field(self):
        names = {f.name for f in fields(ExperimentConfig)}
        options = self.run_options()
        assert options
        assert [a.dest for a in options if a.dest not in names] == []

    def test_every_flag_reaches_the_config(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path))  # non-synthetic datasets need one
        defaults = ExperimentConfig()
        for action in self.run_options():
            value = self.non_default(action, getattr(defaults, action.dest))
            assert value != getattr(defaults, action.dest)
            args = build_parser().parse_args(["run", action.option_strings[0], str(value)])
            cfg = _config_from_args(args)
            assert getattr(cfg, action.dest) == value, action.option_strings[0]

    # (option strings, dest, type, choices, default) of every `run` option
    RUN_OPTIONS = [
        (("--acc-th",), "acc_threshold", float, None, None),
        (("--aggregation",), "aggregation", None, ("per-position", "strict-intersection"), None),
        (("--algorithm",), "algorithm", None,
         ("sub-fedavg-un", "sub-fedavg-hy", "fedavg", "standalone"), None),
        (("--batch-size",), "batch_size", int, None, None),
        (("--clients",), "clients", int, None, None),
        (("--config",), "config", None, None, None),
        (("--data-root",), "data_root", None, None, None),
        (("--dataset",), "dataset", None,
         ("mnist", "emnist", "cifar10", "cifar100", "synthetic"), None),
        (("--epochs",), "local_epochs", int, None, None),
        (("--eps-s",), "eps_structured", float, None, None),
        (("--eps-us",), "eps_unstructured", float, None, None),
        (("--lr",), "learning_rate", float, None, None),
        (("--model",), "model", None, None, None),
        (("--momentum",), "momentum", float, None, None),
        (("--out",), "output_dir", None, None, None),
        (("--p-s",), "target_structured", float, None, None),
        (("--p-us",), "target_unstructured", float, None, None),
        (("--parallelism",), "parallelism", int, None, None),
        (("--quiet",), "quiet", None, None, False),
        (("--r-s",), "rate_structured", float, None, None),
        (("--r-us",), "rate_unstructured", float, None, None),
        (("--rounds",), "rounds", int, None, None),
        (("--sampling-rate",), "sampling_rate", float, None, None),
        (("--seed",), "seed", int, None, None),
        (("--shard-size",), "shard_size", int, None, None),
        (("--shards-per-client",), "shards_per_client", int, None, None),
        (("--synth-classes",), "synth_classes", int, None, None),
        (("--synth-per-class",), "synth_per_class", int, None, None),
        (("--synth-separation",), "synth_separation", float, None, None),
        (("--synth-test-per-class",), "synth_test_per_class", int, None, None),
    ]

    @pytest.mark.parametrize("verb, extra", [
        ("run", []),
        ("partition-dump", [(("--dump-out",), "dump_out", None, None, None)]),
    ])
    def test_options_pinned(self, verb, extra):
        """The options of `run` and `partition-dump`; only their order in
        --help is free."""
        (verbs,) = [a for a in build_parser()._actions if a.dest == "command"]
        table = sorted(
            (tuple(a.option_strings), a.dest, a.type,
             tuple(a.choices) if a.choices else None, a.default)
            for a in verbs.choices[verb]._actions if a.dest != "help"
        )
        assert table == sorted(self.RUN_OPTIONS + extra)
