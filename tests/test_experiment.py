import json
import math
import os

import pytest

from subfed import experiment
from subfed.config import ALGORITHM_CHOICES, parse_config
from subfed.engine import evaluate_accuracy
from subfed.experiment import (
    build_experiment, resolve_parallelism, run_experiment, write_round_artifacts,
)
from subfed.federation import sample_clients
from subfed.pruning import apply_mask

from helpers import workloads

ARTIFACTS = (
    "summary.csv", "client_accuracy.csv", "plot_accuracy_vs_round.csv",
    "plot_accuracy_vs_sparsity.csv", "rounds.ndjson", "cost_ledger.json",
)

# 8 clients on synth-cnn; the gates are open, so the sub-fedavg runs prune
SMALL = dict(
    dataset="synthetic", clients=8, synth_classes=4, synth_per_class=60,
    synth_test_per_class=20, shard_size=10, local_epochs=2, batch_size=10,
    rate_unstructured=20.0, target_unstructured=40.0, eps_unstructured=0.0,
    rate_structured=20.0, target_structured=40.0, eps_structured=0.0,
    acc_threshold=0.0, seed=2, parallelism=1,
)
# 2 of 8 clients a round for 2 rounds: at least four are never sampled
FEW_SAMPLED = dict(SMALL, sampling_rate=0.25, rounds=2)
# 4 of 8 clients a round for 3 rounds: every client is sampled at some point
# here, and some of them not in the final round
HALF_SAMPLED = dict(SMALL, sampling_rate=0.5, rounds=3)


def run(tmp_path, cfg, **overrides):
    overrides["output_dir"] = str(tmp_path)
    return run_experiment(parse_config(overrides=dict(cfg, **overrides)))


def read_table(run_dir):
    lines = (run_dir / "client_accuracy.csv").read_text().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def sampled_per_round(run_dir):
    lines = (run_dir / "rounds.ndjson").read_text().splitlines()[1:]
    return [set(json.loads(line)["selected"]) for line in lines]


class TestFinalTable:
    """client_accuracy.csv reuses round scores where the inputs are unchanged;
    every entry must still be what a fresh evaluation gives."""

    @pytest.mark.parametrize("algorithm", ALGORITHM_CHOICES)
    @pytest.mark.parametrize("sampling", ["few", "half"])
    def test_matches_fresh_evaluation(self, tmp_path, monkeypatch, algorithm, sampling):
        built = []

        def capture(cfg):
            state = build(cfg)
            built.append(state)
            return state

        build = experiment.build_experiment
        monkeypatch.setattr(experiment, "build_experiment", capture)
        cfg = FEW_SAMPLED if sampling == "few" else HALF_SAMPLED
        run_dir = run(tmp_path, cfg, algorithm=algorithm)
        (server, clients), = built

        rounds = sampled_per_round(run_dir)
        ever = set().union(*rounds)
        if sampling == "few":
            assert ever != set(clients)  # some client was never sampled
        else:
            assert ever == set(clients)
        assert ever - rounds[-1]  # some client sat the final round out

        rows = read_table(run_dir)
        assert [int(r["client_id"]) for r in rows] == sorted(clients)
        for row in rows:
            client = clients[int(row["client_id"])]
            local = evaluate_accuracy(server.spec, client.params, client.x_eval, client.y_eval)
            served = local if algorithm == "standalone" else evaluate_accuracy(
                server.spec, apply_mask(server.params, client.mask),
                client.x_eval, client.y_eval,
            )
            assert float(row["local_accuracy"]) == local, row
            assert float(row["served_accuracy"]) == served, row


@pytest.mark.parametrize("algorithm", ALGORITHM_CHOICES)
def test_artifacts_identical_across_parallelism(tmp_path, algorithm):
    runs = [
        run(tmp_path / str(workers), HALF_SAMPLED, algorithm=algorithm, parallelism=workers)
        for workers in (1, 2)
    ]
    for name in ARTIFACTS:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


@pytest.mark.parametrize("algorithm, sampling_rate", [
    ("sub-fedavg-un", 1.0), ("sub-fedavg-un", 0.5), ("sub-fedavg-hy", 0.5),
])
def test_round_artifacts_rebuild_from_records(tmp_path, algorithm, sampling_rate):
    """summary.csv, both plot CSVs and cost_ledger.json are a projection of
    the round records: rounds.ndjson and config.ini reproduce them."""
    run_dir = run(tmp_path / "run", HALF_SAMPLED, algorithm=algorithm,
                  sampling_rate=sampling_rate)
    lines = (run_dir / "rounds.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    assert records[-1]["mean_sparsity_unstructured"] > 0.0  # the runs prune
    if algorithm == "sub-fedavg-hy":
        assert records[-1]["mean_sparsity_channel"] > 0.0
    rebuilt = tmp_path / "rebuilt"
    rebuilt.mkdir()
    write_round_artifacts(rebuilt, parse_config(run_dir / "config.ini"), records)
    derived = ("summary.csv", "plot_accuracy_vs_round.csv",
               "plot_accuracy_vs_sparsity.csv", "cost_ledger.json")
    assert sorted(p.name for p in rebuilt.iterdir()) == sorted(derived)
    for name in derived:
        assert (rebuilt / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_run_name_taken_before_the_rename_moves_to_the_next(tmp_path, monkeypatch):
    """Another run that takes run-0001 between this run's scan and its rename
    keeps that directory as it was; this run finishes as run-0002."""
    scan = experiment._next_run_name

    def scan_then_lose_the_name(out_root):
        name = scan(out_root)
        if name == "run-0001":
            (out_root / name).mkdir()
            (out_root / name / "summary.csv").write_text("the other run\n")
        return name

    monkeypatch.setattr(experiment, "_next_run_name", scan_then_lose_the_name)
    run_dir = run(tmp_path, SMALL, rounds=1, algorithm="standalone")
    assert run_dir == tmp_path / "run-0002"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run-0001", "run-0002"]
    assert [p.name for p in (tmp_path / "run-0001").iterdir()] == ["summary.csv"]
    assert (tmp_path / "run-0001" / "summary.csv").read_text() == "the other run\n"
    assert sorted(p.name for p in run_dir.iterdir()) == sorted((*ARTIFACTS, "config.ini"))


def test_every_client_trains_on_what_its_validation_split_leaves(tmp_path):
    """The smallest split the config accepts: two one-example shards, one of
    them held out."""
    cfg = parse_config(overrides=dict(SMALL, shard_size=1, output_dir=str(tmp_path)))
    _, clients = experiment.build_experiment(cfg)
    for client in clients.values():
        assert (len(client.x_train), len(client.x_val)) == (1, 1)


class TestResolveParallelism:
    def test_zero_means_every_usable_cpu(self):
        usable = (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        assert 1 <= resolve_parallelism(0) <= usable

    def test_explicit_count_kept(self):
        assert resolve_parallelism(1) == 1
        assert resolve_parallelism(3) == 3


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_perfbench_steps_per_round_counts_the_programs_steps(workload):
    """perfbench's steps_per_s divides by workloads.steps_per_round, which
    repeats the validation-split rule; the count must stay the SGD steps
    the built experiment takes in a round."""
    overrides = workloads.overrides(workload, 1, "runs")
    cfg = parse_config(overrides=overrides)
    server, clients = build_experiment(cfg)
    steps = sum(
        cfg.local_epochs * math.ceil(len(clients[cid].x_train) / cfg.batch_size)
        for cid in sample_clients(server, 0)
    )
    assert steps == workloads.steps_per_round(overrides)
