import json
import math
import os

import numpy as np
import pytest

from subfed import engine, experiment
from subfed.config import ALGORITHM_CHOICES, ExperimentConfig, parse_config
from subfed.data import partition_shards
from subfed.experiment import (
    build_experiment, run_experiment, write_round_artifacts,
)
from subfed.federation import sample_clients
from subfed.pruning import apply_mask

from helpers import block_score, workloads

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
            local = block_score(server.spec, client.params, client.eval_blocks)
            served = local if algorithm == "standalone" else block_score(
                server.spec, apply_mask(server.params, client.mask), client.eval_blocks
            )
            assert float(row["local_accuracy"]) == local, row
            assert float(row["served_accuracy"]) == served, row


    def test_fedavg_serves_each_label_once(self, tmp_path, monkeypatch):
        """Under fedavg every mask is dense: the table scores on the final
        model only the labels of the clients that sat the final round out
        that no client of that round holds, and the never-sampled clients,
        all still on the initial params, once per label."""
        scored, (server, clients), run_dir = self.scored_run(
            tmp_path, monkeypatch, FEW_SAMPLED, "fedavg")
        rounds = sampled_per_round(run_dir)
        never = set(clients) - set().union(*rounds)
        stale = set(clients) - rounds[-1]
        labels = set().union(*(clients[cid].eval_blocks for cid in stale))
        labels -= set().union(*(clients[cid].eval_blocks for cid in rounds[-1]))
        local_labels = set().union(*(clients[cid].eval_blocks for cid in never))
        assert len(scored) == len(labels) + len(local_labels)
        assert len(local_labels) < sum(len(clients[cid].eval_blocks) for cid in never)

    @pytest.mark.parametrize("algorithm", ALGORITHM_CHOICES)
    @pytest.mark.parametrize("sampling", ["few", "half"])
    def test_scores_each_model_label_pair_once(self, tmp_path, monkeypatch, algorithm,
                                               sampling):
        """The table scores each (params, label) pair of the never-sampled
        clients once, and each (mask, label) pair of the clients that missed
        the final round once, unless a client of that round held it."""
        cfg = FEW_SAMPLED if sampling == "few" else HALF_SAMPLED
        scored, (server, clients), run_dir = self.scored_run(
            tmp_path, monkeypatch, cfg, algorithm)
        rounds = sampled_per_round(run_dir)
        never = set(clients) - set().union(*rounds)

        def pairs(cids, key_of):
            return {(key_of(clients[cid]), label)
                    for cid in cids for label in clients[cid].eval_blocks}

        local = pairs(never, lambda client: client.params.flat.tobytes())
        served = set()
        if algorithm != "standalone":
            mask_bits = lambda client: client.mask.flat.tobytes()  # noqa: E731
            served = (pairs(set(clients) - rounds[-1], mask_bits)
                      - pairs(rounds[-1], mask_bits))
        assert len(scored) == len(local) + len(served)
        if never:
            assert len(local) < sum(len(clients[cid].eval_blocks) for cid in never)

    def test_clients_with_other_params_keep_their_own_scores(self, tmp_path, monkeypatch):
        """Never-sampled clients share local scores only by equal params:
        clients whose initial params favour different labels get their own
        scores."""
        build = experiment.build_experiment
        built = []

        def own_params(cfg):
            server, clients = build(cfg)
            for cid, client in clients.items():
                client.params = client.params.copy()
                client.params[("fc2", "bias")][cid % 4] = 100.0
            built.append((server, clients))
            return server, clients

        monkeypatch.setattr(experiment, "build_experiment", own_params)
        run_dir = run(tmp_path, FEW_SAMPLED, algorithm="standalone")
        (server, clients), = built
        never = set(clients) - set().union(*sampled_per_round(run_dir))
        local = {int(r["client_id"]): float(r["local_accuracy"]) for r in read_table(run_dir)}
        for cid in never:
            assert local[cid] == block_score(server.spec, clients[cid].params,
                                             clients[cid].eval_blocks)
        assert len({local[cid] for cid in never}) > 1

    @staticmethod
    def scored_run(tmp_path, monkeypatch, cfg, algorithm):
        """The labels `experiment.evaluate_accuracy` scored, one per call, the
        built (server, clients) and the run directory."""
        built, scored = [], []
        build = experiment.build_experiment
        evaluate = experiment.evaluate_accuracy

        def capture(cfg):
            built.append(build(cfg))
            return built[-1]

        def counting(spec, params, x, y):
            scored.append(int(y[0]))
            return evaluate(spec, params, x, y)

        monkeypatch.setattr(experiment, "build_experiment", capture)
        monkeypatch.setattr(experiment, "evaluate_accuracy", counting)
        run_dir = run(tmp_path, cfg, algorithm=algorithm)
        return scored, built[0], run_dir


@pytest.mark.parametrize("algorithm", ALGORITHM_CHOICES)
def test_artifacts_identical_across_parallelism(tmp_path, algorithm):
    runs = [
        run(tmp_path / str(workers), HALF_SAMPLED, algorithm=algorithm, parallelism=workers)
        for workers in (1, 2)
    ]
    for name in ARTIFACTS:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_eval_conv_block_keeps_artifacts(tmp_path, monkeypatch, workload):
    """Each benchmark workload, 2 rounds at parallelism 1, writes the same
    bytes whether eval pools before the bias add and batch norm or not."""
    admits, ran = engine._pools_first, []

    def spy(*args):
        admitted = admits(*args)
        ran.append(admitted)
        return admitted

    cfg = dict(workloads.overrides(workload, 5, "unused", rounds=2), parallelism=1)
    monkeypatch.setattr(engine, "_pools_first", spy)
    on = run(tmp_path / "on", cfg)
    assert any(ran)  # some conv pooled first
    monkeypatch.setattr(engine, "_pools_first", lambda *args: False)
    off = run(tmp_path / "off", cfg)
    for name in ARTIFACTS:
        assert (on / name).read_bytes() == (off / name).read_bytes(), name


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


def test_clients_share_the_experiments_label_blocks(tmp_path):
    """A label's test examples are held once, however many clients hold the
    label: their blocks are the same arrays, the test set's examples of that
    label in test order, and a client's labels are its partition's."""
    cfg = parse_config(overrides=dict(SMALL, output_dir=str(tmp_path)))
    _, clients = build_experiment(cfg)
    train, test = experiment.load_datasets(cfg)
    partition = partition_shards(
        train, cfg.clients, cfg.shards_per_client, cfg.resolved_shard_size(), cfg.seed
    )
    first = {}
    for cid, client in clients.items():
        assert sorted(client.eval_blocks) == list(partition.client_labels[cid])
        for label, (x, y) in client.eval_blocks.items():
            shared_x, shared_y = first.setdefault(label, (x, y))
            assert x is shared_x and y is shared_y
            assert np.array_equal(x, test.images[test.labels == label])
            assert np.array_equal(y, test.labels[test.labels == label])
    assert len(first) < sum(len(c.eval_blocks) for c in clients.values())  # labels are shared


class TestResolveParallelism:
    def test_zero_means_every_usable_cpu(self):
        usable = (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        assert 1 <= ExperimentConfig(parallelism=0).resolved_parallelism() <= usable

    def test_explicit_count_kept(self):
        assert ExperimentConfig(parallelism=1).resolved_parallelism() == 1
        assert ExperimentConfig(parallelism=3).resolved_parallelism() == 3


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
        for cid in sample_clients(server, cfg)
    )
    assert steps == workloads.steps_per_round(overrides)
