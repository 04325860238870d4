"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The personalization benchmark (criteria 7-10) trains
3 algorithms x 3 seeds at desk scale and takes a few minutes of CPU; those
tests carry the `slow` marker, so `pytest -m "not slow"` leaves them out.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from subfed import engine as E
from subfed.config import parse_config
from subfed.data import Dataset, load_idx, partition_shards
from subfed.engine import ModelSpec, ParamSet, builtin_spec, init_params
from subfed.experiment import run_experiment
from subfed.federation import ClientUpdateResult, aggregate_sub_fedavg
from subfed.metrics import comm_cost_closed_form, conv_flops
from subfed.pruning import SparsityMask, full_coverage

from helpers import finite_difference_grads, random_small_spec
from test_gradients import check_spec
from test_metrics import uniform_keep


def ok(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE C{criterion:02d} PASS - {text}")


# calibrated desk-scale benchmark (criteria 7-10); see notes in the repo README
BENCHMARK_SEEDS = (1, 2, 3)
BENCHMARK = dict(
    dataset="synthetic", clients=10, rounds=30, sampling_rate=1.0,
    synth_classes=10, synth_per_class=100, synth_test_per_class=50,
    synth_separation=0.5, shard_size=25, parallelism=1,
    rate_unstructured=5.0, target_unstructured=91.0,
    acc_threshold=50.0, eps_unstructured=1e-4,
)


def summary_rows(run_dir: Path):
    rows = []
    for line in (run_dir / "summary.csv").read_text().splitlines():
        if line.startswith("#") or line.startswith("round,"):
            continue
        c = line.split(",")
        rows.append(dict(
            round=int(c[0]), algorithm=c[1], local=float(c[2]), served=float(c[3]),
            sparsity_us=float(c[4]), sparsity_ch=float(c[5]),
            cumulative_bytes=float(c[6]),
        ))
    return rows


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("benchmark")
    runs = {}
    for seed in BENCHMARK_SEEDS:
        for algorithm in ("sub-fedavg-un", "fedavg", "standalone"):
            cfg = parse_config(overrides=dict(
                BENCHMARK, algorithm=algorithm, seed=seed,
                output_dir=str(root / f"{algorithm}-s{seed}"),
            ))
            start = time.time()
            runs[(algorithm, seed)] = run_experiment(cfg)
            assert time.time() - start < 600, "benchmark run exceeded 10 minutes"
    return runs


class TestC01GradientOracle:
    def test_gradient_oracle(self):
        start = time.time()
        seen = set()
        rng_master = np.random.default_rng(20)
        specs = []
        for i in range(20):
            spec = random_small_spec(rng_master, force_bn=(i % 3 == 0))
            specs.append(spec)
            for desc in spec.layers:
                name = type(desc).__name__
                if isinstance(desc, E.Conv):
                    name += "+bn" if desc.batch_norm else ""
                seen.add(name)
        assert {"Conv", "Conv+bn", "MaxPool", "Relu", "Flatten", "Dense"} <= seen
        for i, spec in enumerate(specs):
            check_spec(spec, seed=300 + i)
        elapsed = time.time() - start
        assert elapsed < 60
        ok(1, f"analytic grads match central differences (rtol 1e-3) on "
              f"{len(specs)} randomized specs covering every layer type "
              f"in {elapsed:.1f}s")


class TestC02ReductionEquivalence:
    def test_pruning_disabled_equals_fedavg(self, tmp_path):
        base = dict(
            dataset="synthetic", clients=5, rounds=10, sampling_rate=1.0,
            synth_classes=5, synth_per_class=60, synth_test_per_class=20,
            shard_size=20, seed=7, parallelism=1,
            target_unstructured=0.0, target_structured=0.0,
        )
        start = time.time()
        paths = {}
        for algorithm in ("sub-fedavg-un", "fedavg"):
            cfg = parse_config(overrides=dict(
                base, algorithm=algorithm, output_dir=str(tmp_path / algorithm)
            ))
            paths[algorithm] = run_experiment(cfg)

        def normalized(run_dir):
            rows = []
            for line in (run_dir / "summary.csv").read_text().splitlines():
                if line.startswith("#"):
                    continue  # config echo differs only in the algorithm label
                cells = line.split(",")
                del cells[1]
                rows.append(",".join(cells))
            return "\n".join(rows)

        a = normalized(paths["sub-fedavg-un"])
        b = normalized(paths["fedavg"])
        assert a == b
        elapsed = time.time() - start
        assert elapsed < 60
        ok(2, "sub-fedavg-un with pruning disabled reproduces fedavg summaries "
              f"bitwise over 10 rounds x 5 clients ({elapsed:.1f}s)")


class TestC03AggregationOracle:
    def test_against_brute_force(self):
        rng = np.random.default_rng(33)
        instances = 0
        for _ in range(100):
            n_clients = int(rng.integers(1, 6))
            size = int(rng.integers(1, 65))
            prev_arr = rng.normal(size=size).astype(np.float32)
            prev = ParamSet({("fc1", "weight"): prev_arr})
            results = []
            for cid in range(n_clients):
                params = ParamSet(
                    {("fc1", "weight"): rng.normal(size=size).astype(np.float32)}
                )
                bits = {("fc1", "weight"): rng.integers(0, 2, size=size).astype(bool)}
                mask = SparsityMask(bits, full_coverage(params), None)
                results.append(ClientUpdateResult(
                    client_id=cid, params=params, mask=mask,
                    validation_accuracy=0.0, local_accuracy=0.0,
                    delta_unstructured=0.0, delta_structured=0.0,
                    pruned_unstructured=False, pruned_structured=False,
                    uplink_bits=0, downlink_bits=0, conv_flops=0,
                ))
            out = aggregate_sub_fedavg(results, prev)[("fc1", "weight")]
            for q in range(size):
                acc, cnt = 0.0, 0
                for r in results:
                    if r.mask.bits[("fc1", "weight")][q]:
                        acc += float(r.params[("fc1", "weight")][q])
                        cnt += 1
                expected = np.float32(acc / cnt) if cnt else prev_arr[q]
                assert out[q] == expected, (q, out[q], expected)
            instances += 1
        assert instances == 100
        ok(3, "aggregate_sub_fedavg matches the per-position mean-over-keepers "
              "oracle exactly on 100 random instances")


class TestC04ClosedFormCost:
    def test_published_value_and_measured_ledger(self, tmp_path):
        cost = comm_cost_closed_form(1000, 32, 65520)
        assert cost.megabytes == 524.16
        assert cost.bits == 1000 * 32 * 65520 * 2

        cfg = parse_config(overrides=dict(
            dataset="synthetic", clients=4, rounds=3, algorithm="fedavg",
            sampling_rate=1.0, synth_classes=4, synth_per_class=60,
            synth_test_per_class=20, shard_size=20, seed=5,
            output_dir=str(tmp_path), parallelism=1,
        ))
        run_dir = run_experiment(cfg)
        ledger = json.loads((run_dir / "cost_ledger.json").read_text())
        w = init_params(builtin_spec("synth-cnn"), 5).flat.size
        per_client = comm_cost_closed_form(3, 32, w)
        for cid in range(4):
            client_bits = sum(
                sum(rnd[str(cid)]) for rnd in ledger["rounds"] if str(cid) in rnd
            )
            assert client_bits == per_client.bits
        total = ledger["total_uplink_bits"] + ledger["total_downlink_bits"]
        assert total == 4 * per_client.bits
        ok(4, f"closed form gives 524.16 MB for (1000, 32, 65520); dense FedAvg "
              f"ledger equals the closed form exactly at W={w}")


class TestC05FlopReduction:
    def test_lenet_half_channels(self):
        spec = builtin_spec("lenet5-cifar")
        profile = conv_flops(spec, uniform_keep(spec, 0.5))
        # hand computation: conv1 2*(3*5*5)*6*28*28=705600 dense, 352800 pruned
        #                   conv2 2*(6*5*5)*16*10*10=480000 dense,
        #                         2*(3*5*5)*8*10*10=120000 pruned
        assert profile.per_layer[0][1:] == (705600, 352800)
        assert profile.per_layer[1][1:] == (480000, 120000)
        expected = (705600 + 480000) / (352800 + 120000)
        assert profile.reduction_factor == pytest.approx(expected)
        assert profile.reduction_factor >= 2.0
        ok(5, f"LeNet-5 at 50% channels per conv layer: reduction "
              f"{profile.reduction_factor:.3f}x matches the hand computation")


MNIST_TRAIN_HISTOGRAM = (5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949)
MNIST_TEST_HISTOGRAM = (980, 1135, 1032, 1010, 982, 892, 958, 1028, 974, 1009)


def mnist_like_datasets():
    """Real MNIST IDX files when available; otherwise a dataset with MNIST's
    exact label layout (the partitioner only consumes labels)."""
    root = os.environ.get("SUBFED_DATA_ROOT", "")
    base = Path(root) / "mnist" if root else None
    if base and (base / "train-images-idx3-ubyte").exists():
        train = load_idx(base / "train-images-idx3-ubyte", base / "train-labels-idx1-ubyte")
        test = load_idx(base / "t10k-images-idx3-ubyte", base / "t10k-labels-idx1-ubyte")
        return train, test, "real IDX files"

    def surrogate(histogram):
        labels = np.concatenate([np.full(n, c, np.int64) for c, n in enumerate(histogram)])
        rng = np.random.default_rng(0)
        labels = labels[rng.permutation(len(labels))]
        return Dataset(np.zeros((len(labels), 1, 1, 1), np.float32), labels, 10)

    return surrogate(MNIST_TRAIN_HISTOGRAM), surrogate(MNIST_TEST_HISTOGRAM), "label surrogate"


class TestC06NonIidSeverity:
    def test_hundred_clients_label_skew(self):
        train, test, source = mnist_like_datasets()
        assert len(train) == 60000
        partition = partition_shards(train, 100, 2, 250, seed=0)
        sizes = [len(v) for v in partition.assignment.values()]
        assert sizes == [500] * 100
        label_counts = sorted(len(v) for v in partition.client_labels.values())
        median = label_counts[50]
        assert median <= 4
        ok(6, f"100 clients x 500 examples from {source}; median distinct "
              f"labels per client = {median} <= 4")


@pytest.mark.slow
class TestC07PersonalizationBenefit:
    def test_margins_over_baselines(self, benchmark_runs):
        finals = {"sub-fedavg-un": [], "fedavg": [], "standalone": []}
        for (algorithm, seed), run_dir in benchmark_runs.items():
            rows = summary_rows(run_dir)
            metric = "served" if algorithm == "fedavg" else "local"
            finals[algorithm].append(rows[-1][metric])
        sub = float(np.mean(finals["sub-fedavg-un"]))
        fed = float(np.mean(finals["fedavg"]))
        sta = float(np.mean(finals["standalone"]))
        assert sub >= fed + 5.0, (sub, fed)
        assert sub >= sta, (sub, sta)
        ok(7, f"mean final accuracy over {len(BENCHMARK_SEEDS)} seeds: "
              f"sub-fedavg-un {sub:.2f} >= fedavg {fed:.2f} + 5 and >= "
              f"standalone {sta:.2f}")


@pytest.mark.slow
class TestC08AccuracyVsSparsityShape:
    def test_rise_then_fall(self, benchmark_runs):
        checked = 0
        for seed in BENCHMARK_SEEDS:
            sub_rows = summary_rows(benchmark_runs[("sub-fedavg-un", seed)])
            fed_rows = summary_rows(benchmark_runs[("fedavg", seed)])
            near30 = min(
                (r for r in sub_rows if r["sparsity_us"] >= 0.25),
                key=lambda r: abs(r["sparsity_us"] - 0.30),
            )
            fed_at = fed_rows[near30["round"]]["served"]
            assert near30["local"] >= fed_at, (seed, near30, fed_at)
            peak = max(r["local"] for r in sub_rows)
            high = [r["local"] for r in sub_rows if r["sparsity_us"] >= 0.90]
            assert high, f"seed {seed} never reached 90% sparsity"
            assert max(high) < peak, (seed, max(high), peak)
            checked += 1
        assert checked == len(BENCHMARK_SEEDS)
        ok(8, "accuracy at ~30% sparsity beats the round-matched fedavg baseline "
              "and accuracy at >=90% sparsity sits below its own peak, all seeds")


@pytest.mark.slow
class TestC09MaskLifecycle:
    def test_audit_round_reports(self, benchmark_runs):
        audited = 0
        for seed in BENCHMARK_SEEDS:
            run_dir = benchmark_runs[("sub-fedavg-un", seed)]
            per_client_sparsity: dict[int, float] = {}
            for line in (run_dir / "rounds.ndjson").read_text().splitlines():
                record = json.loads(line)
                if "round" not in record:
                    continue
                for c in record["clients"]:
                    prev = per_client_sparsity.get(c["id"], 0.0)
                    assert c["sparsity_unstructured"] >= prev - 1e-12, (seed, c)
                    per_client_sparsity[c["id"]] = c["sparsity_unstructured"]
                    if c["pruned_unstructured"]:
                        assert c["validation_accuracy"] >= BENCHMARK["acc_threshold"]
                    audited += 1
            limit = (BENCHMARK["target_unstructured"]
                     + BENCHMARK["rate_unstructured"]) / 100
            assert all(s <= limit for s in per_client_sparsity.values())
        ok(9, f"zero-sets monotone, every prune event gated by validation "
              f"accuracy, final sparsity <= target + one increment "
              f"({audited} client-round records)")


@pytest.mark.slow
class TestC10Determinism:
    def test_byte_identical_rerun_across_parallelism(self, benchmark_runs, tmp_path):
        seed = BENCHMARK_SEEDS[0]
        reference = benchmark_runs[("sub-fedavg-un", seed)]
        cfg = parse_config(overrides=dict(
            BENCHMARK, algorithm="sub-fedavg-un", seed=seed,
            output_dir=str(tmp_path), parallelism=4,
        ))
        rerun = run_experiment(cfg)
        for name in ("summary.csv", "client_accuracy.csv",
                      "plot_accuracy_vs_round.csv", "plot_accuracy_vs_sparsity.csv"):
            assert (reference / name).read_bytes() == (rerun / name).read_bytes(), name
        ok(10, "criterion-7 run repeated with identical seed is byte-identical, "
               "parallelism 1 vs 4")
