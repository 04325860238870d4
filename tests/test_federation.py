import importlib.util
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from subfed import engine as E
from subfed import federation
from subfed.config import ALGORITHM_CHOICES
from subfed.data import label_blocks, partition_shards, split_per_class, synth_dataset
from subfed.engine import ModelSpec, ParamSet, builtin_spec, init_params
from subfed.federation import (
    ClientUpdateResult,
    ServerState,
    TrainingDivergedError,
    aggregate_fedavg,
    aggregate_sub_fedavg,
    client_update,
    make_client,
    map_clients,
    retained_scalar_count,
    run_round,
    sample_clients,
)
from subfed.metrics import conv_flops
from subfed.pruning import (
    PruneSchedule,
    SparsityMask,
    apply_mask,
    combine_masks,
    dense_mask,
    derive_channel_mask,
    derive_unstructured_mask,
    fc_coverage,
    full_coverage,
)

from helpers import block_score


def result_from(client_id, values, keep):
    params = ParamSet({("fc1", "weight"): np.asarray(values, dtype=np.float32)})
    bits = {("fc1", "weight"): np.asarray(keep, dtype=bool)}
    return result_of(client_id, params, SparsityMask(bits, full_coverage(params), None))


def result_of(client_id, params, mask):
    return ClientUpdateResult(
        client_id=client_id, params=params, mask=mask,
        validation_accuracy=0.0, local_accuracy=0.0,
        delta_unstructured=0.0, delta_structured=0.0,
        pruned_unstructured=False, pruned_structured=False,
        uplink_bits=0, downlink_bits=0, conv_flops=0,
    )


def make_server(n_clients, rate=1.0, seed=0):
    spec = builtin_spec("synth-cnn")
    return ServerState(
        spec=spec, params=init_params(spec, seed),
        client_ids=tuple(range(n_clients)), sampling_rate=rate, seed=seed,
    )


class TestSampling:
    def test_full_rate_selects_everyone(self):
        server = make_server(7, rate=1.0)
        assert sample_clients(server, 0) == list(range(7))

    def test_hundred_clients_ten_percent(self):
        server = make_server(100, rate=0.1, seed=5)
        picks = sample_clients(server, 3)
        assert len(picks) == 10
        assert len(set(picks)) == 10
        assert all(0 <= cid < 100 for cid in picks)

    def test_deterministic_per_round(self):
        server = make_server(50, rate=0.2, seed=9)
        assert sample_clients(server, 4) == sample_clients(server, 4)
        assert sample_clients(server, 4) != sample_clients(server, 5)

    def test_at_least_one_client(self):
        server = make_server(10, rate=0.01)
        assert len(sample_clients(server, 0)) == 1

    def test_empty_registry(self):
        server = make_server(0)
        with pytest.raises(ValueError, match="empty"):
            sample_clients(server, 0)


class TestAggregation:
    def test_mean_over_keepers_example(self):
        prev = ParamSet({("fc1", "weight"): np.array([9.0, 9.0, 9.0], np.float32)})
        a = result_from(0, [2.0, 4.0, 0.0], [1, 1, 0])
        b = result_from(1, [4.0, 0.0, 6.0], [1, 0, 1])
        out = aggregate_sub_fedavg([a, b], prev)
        assert out[("fc1", "weight")].tolist() == [3.0, 4.0, 6.0]

    def test_position_kept_by_nobody_falls_back(self):
        prev = ParamSet({("fc1", "weight"): np.array([9.0], np.float32)})
        a = result_from(0, [0.0], [0])
        b = result_from(1, [0.0], [0])
        out = aggregate_sub_fedavg([a, b], prev)
        assert out[("fc1", "weight")].tolist() == [9.0]

    def test_strict_intersection_mode(self):
        prev = ParamSet({("fc1", "weight"): np.array([9.0, 9.0, 9.0], np.float32)})
        a = result_from(0, [2.0, 4.0, 0.0], [1, 1, 0])
        b = result_from(1, [4.0, 0.0, 6.0], [1, 0, 1])
        out = aggregate_sub_fedavg([a, b], prev, mode="strict-intersection")
        # only position 0 is kept by every client
        assert out[("fc1", "weight")].tolist() == [3.0, 9.0, 9.0]

    def test_dense_masks_reduce_to_fedavg(self):
        rng = np.random.default_rng(3)
        prev = ParamSet({("fc1", "weight"): rng.normal(size=6).astype(np.float32)})
        results = [
            result_from(i, rng.normal(size=6).astype(np.float32), [1] * 6) for i in range(4)
        ]
        sub = aggregate_sub_fedavg(results, prev)
        fed = aggregate_fedavg(results)
        assert np.array_equal(sub[("fc1", "weight")], fed[("fc1", "weight")])

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(4)
        prev = ParamSet({("fc1", "weight"): rng.normal(size=8).astype(np.float32)})
        results = [
            result_from(i, rng.normal(size=8).astype(np.float32),
                        rng.integers(0, 2, size=8)) for i in range(5)
        ]
        out1 = aggregate_sub_fedavg(results, prev)
        out2 = aggregate_sub_fedavg(list(reversed(results)), prev)
        assert np.array_equal(out1[("fc1", "weight")], out2[("fc1", "weight")])

    def test_mean_containment(self):
        rng = np.random.default_rng(5)
        prev = ParamSet({("fc1", "weight"): np.zeros(16, np.float32)})
        results = [
            result_from(i, rng.normal(size=16).astype(np.float32),
                        rng.integers(0, 2, size=16)) for i in range(4)
        ]
        out = aggregate_sub_fedavg(results, prev)[("fc1", "weight")]
        stacked = np.stack([r.params[("fc1", "weight")] for r in results])
        keeps = np.stack([r.mask.bits[("fc1", "weight")] for r in results])
        for q in range(16):
            vals = stacked[keeps[:, q], q]
            if len(vals):
                assert vals.min() - 1e-6 <= out[q] <= vals.max() + 1e-6

    def test_fedavg_single_client_verbatim(self):
        r = result_from(0, [1.5, -2.5], [1, 1])
        out = aggregate_fedavg([r])
        assert out[("fc1", "weight")].tolist() == [1.5, -2.5]

    def test_fedavg_uniform_mean(self):
        out = aggregate_fedavg([result_from(0, [0.0], [1]), result_from(1, [2.0], [1])])
        assert out[("fc1", "weight")].tolist() == [1.0]

    def test_empty_results_rejected(self):
        prev = ParamSet({("fc1", "weight"): np.zeros(1, np.float32)})
        with pytest.raises(ValueError):
            aggregate_sub_fedavg([], prev)
        with pytest.raises(ValueError):
            aggregate_fedavg([])

    def test_brute_force_oracle_small_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            size = int(rng.integers(1, 65))
            prev_arr = rng.normal(size=size).astype(np.float32)
            prev = ParamSet({("fc1", "weight"): prev_arr})
            results = [
                result_from(i, rng.normal(size=size).astype(np.float32),
                            rng.integers(0, 2, size=size)) for i in range(n)
            ]
            out = aggregate_sub_fedavg(results, prev)[("fc1", "weight")]
            for q in range(size):
                acc, cnt = 0.0, 0
                for r in results:  # ascending client id
                    if r.mask.bits[("fc1", "weight")][q]:
                        acc += float(r.params[("fc1", "weight")][q])
                        cnt += 1
                expected = np.float32(acc / cnt) if cnt else prev_arr[q]
                assert out[q] == expected


class TestKeepRule:
    """Masking, exchange counting and aggregation agree on the BN running
    statistics a hybrid mask keeps: those of its kept channels."""

    STATS = (E.ROLE_BN_MEAN, E.ROLE_BN_VAR)

    def setup_method(self):
        self.rng = np.random.default_rng(21)
        self.params = init_params(builtin_spec("synth-cnn"), 21)
        for key, value in self.params.items():
            if key[1] == E.ROLE_BN_SCALE:  # spread the channel ranking over both convs
                value[...] = self.rng.uniform(0.1, 1.0, size=value.shape)
        self.params = self.with_fresh_stats(self.params)
        self.mask = combine_masks(
            derive_channel_mask(self.params, 25),
            derive_unstructured_mask(self.params, 40, fc_coverage(self.params)),
            self.params,
        )
        self.pruned = {
            layer: ~keep for layer, keep in self.mask.channel_keep.items() if not keep.all()
        }
        assert self.pruned

    def with_fresh_stats(self, params):
        """A copy with nonzero running statistics, distinct per call."""
        out = params.copy()
        for key, value in out.items():
            if key[1] in self.STATS:
                value[...] = self.rng.uniform(0.5, 1.5, size=value.shape)
        return out

    def stat_keys(self):
        return [(layer, role) for layer in self.pruned for role in self.STATS]

    def test_apply_mask_zeroes_statistics_of_pruned_channels(self):
        masked = apply_mask(self.params, self.mask)
        for key in self.stat_keys():
            pruned = self.pruned[key[0]]
            assert np.all(masked[key][pruned] == 0.0)
            assert np.array_equal(masked[key][~pruned], self.params[key][~pruned])

    def test_exchange_count_leaves_statistics_of_pruned_channels_out(self):
        every_channel = SparsityMask(
            self.mask.bits, self.mask.covered,
            {layer: np.ones_like(keep) for layer, keep in self.mask.channel_keep.items()},
        )
        kept_learnables = sum(int(bits.sum()) for bits in self.mask.bits.values())
        stats = sum(v.size for k, v in self.params.items() if k[1] in self.STATS)
        assert retained_scalar_count(self.params, every_channel) == kept_learnables + stats
        dropped = len(self.STATS) * sum(int(p.sum()) for p in self.pruned.values())
        assert retained_scalar_count(self.params, self.mask) == (
            kept_learnables + stats - dropped
        )

    def test_aggregation_averages_statistics_over_keepers_only(self):
        prev, a, b, c = (self.with_fresh_stats(self.params) for _ in range(4))
        every_channel = dense_mask(self.params, fc_coverage(self.params), with_channels=True)
        pruner_a = result_of(0, a, self.mask)
        keeper_b = result_of(1, b, every_channel)
        pruner_c = result_of(2, c, self.mask)

        out = aggregate_sub_fedavg([pruner_a, keeper_b], prev)
        for key in self.stat_keys():
            pruned = self.pruned[key[0]]
            both = ((a[key].astype(np.float64) + b[key]) / 2).astype(np.float32)
            assert np.array_equal(out[key][pruned], b[key][pruned])
            assert np.array_equal(out[key][~pruned], both[~pruned])

        out = aggregate_sub_fedavg([pruner_a, pruner_c], prev)
        for key in self.stat_keys():
            pruned = self.pruned[key[0]]
            both = ((a[key].astype(np.float64) + c[key]) / 2).astype(np.float32)
            assert np.array_equal(out[key][pruned], prev[key][pruned])
            assert np.array_equal(out[key][~pruned], both[~pruned])


def synthetic_client(cid=0, seed=0, spec_name="synth-cnn", hybrid=False, **sched_kw):
    spec = builtin_spec(spec_name)
    data = synth_dataset(4, 40, 1.0, seed=seed, image_shape=spec.input_shape)
    train, test = split_per_class(data, 10)
    schedule = PruneSchedule(**sched_kw) if sched_kw else PruneSchedule(
        target_unstructured=0.0, target_structured=0.0
    )
    theta0 = init_params(spec, seed)
    idx = np.arange(len(train))
    return make_client(
        cid, spec, theta0,
        train.images[idx[:80]], train.labels[idx[:80]],
        train.images[idx[80:]], train.labels[idx[80:]],
        label_blocks(test),
        schedule, learning_rate=0.05, momentum=0.5, hybrid=hybrid,
    )


class TestClientUpdate:
    def test_epochs_below_two_rejected(self):
        client = synthetic_client()
        with pytest.raises(ValueError, match="epochs"):
            client_update(
                client, client.params, 1, 10, rng=np.random.default_rng(0)
            )

    def test_drift_below_eps_means_no_prune(self):
        client = synthetic_client(
            rate_unstructured=10.0, target_unstructured=50.0,
            eps_unstructured=2.0,  # unreachable: normalized distance <= 1
            acc_threshold=0.0,
        )
        before = client.mask.copy()
        res = client_update(
            client, client.params, 2, 10, rng=np.random.default_rng(1)
        )
        assert not res.pruned_unstructured
        assert all(
            np.array_equal(before.bits[k], client.mask.bits[k]) for k in before.bits
        )

    def test_target_reached_stops_pruning(self):
        client = synthetic_client(
            rate_unstructured=10.0, target_unstructured=10.0,
            level_unstructured=10.0, acc_threshold=0.0, eps_unstructured=0.0,
        )
        zero_sets = []
        for r in range(4):
            res = client_update(
                client, client.params, 2, 10,
                rng=np.random.default_rng((2, r)), round_index=r,
            )
            assert not res.pruned_unstructured
            zero_sets.append(client.mask.zero_count())
        assert len(set(zero_sets)) == 1

    def test_prune_event_hits_scheduled_fraction(self):
        client = synthetic_client(
            rate_unstructured=5.0, target_unstructured=50.0,
            acc_threshold=0.0, eps_unstructured=0.0,
        )
        res = client_update(
            client, client.params, 2, 10, rng=np.random.default_rng(3)
        )
        assert res.pruned_unstructured
        governed = sum(client.mask.bits[k].size for k in client.mask.covered)
        assert client.mask.zero_count() == int(0.05 * governed)
        assert client.schedule.level_unstructured == 5.0
        # params respect the mask exactly
        for key in client.mask.covered:
            zeros = ~client.mask.bits[key]
            assert np.all(client.params[key][zeros] == 0.0)

    def test_accuracy_gate_blocks(self):
        client = synthetic_client(
            rate_unstructured=5.0, target_unstructured=50.0,
            acc_threshold=101.0, eps_unstructured=0.0,
        )
        res = client_update(
            client, client.params, 2, 10, rng=np.random.default_rng(4)
        )
        assert not res.pruned_unstructured
        assert client.mask.zero_count() == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_raises_with_context(self):
        client = synthetic_client()
        client.optimizer.learning_rate = 1e30
        with pytest.raises(TrainingDivergedError) as err:
            client_update(
                client, client.params, 2, 10,
                rng=np.random.default_rng(5), round_index=7,
            )
        assert err.value.client_id == 0
        assert err.value.round_index == 7

    def test_uplink_accounting_dense(self):
        client = synthetic_client()
        res = client_update(
            client, client.params, 2, 10, rng=np.random.default_rng(6)
        )
        total = client.params.flat.size
        assert res.uplink_bits == 32 * total
        assert res.downlink_bits == 32 * total

    def test_uplink_adds_mask_bits_on_prune(self):
        client = synthetic_client(
            rate_unstructured=10.0, target_unstructured=50.0,
            acc_threshold=0.0, eps_unstructured=0.0,
        )
        res = client_update(
            client, client.params, 2, 10, rng=np.random.default_rng(7)
        )
        assert res.pruned_unstructured
        retained = retained_scalar_count(client.params, client.mask)
        assert res.uplink_bits == 32 * retained + client.mask.bit_length()

    def test_uplink_mask_bits_use_the_declared_width(self, monkeypatch):
        monkeypatch.setattr(federation, "BITS_PER_MASK_POSITION", 2)
        client = synthetic_client(
            rate_unstructured=10.0, target_unstructured=50.0,
            acc_threshold=0.0, eps_unstructured=0.0,
        )
        res = client_update(
            client, client.params, 2, 10, rng=np.random.default_rng(7)
        )
        assert res.pruned_unstructured
        retained = retained_scalar_count(client.params, client.mask)
        assert res.uplink_bits == 32 * retained + 2 * client.mask.bit_length()

    def test_uplink_beats_dense_beyond_break_even(self):
        # mask overhead is 1 bit/position, so savings start past 1/32 sparsity
        client = synthetic_client(
            rate_unstructured=10.0, target_unstructured=50.0,
            acc_threshold=0.0, eps_unstructured=0.0,
        )
        res = client_update(
            client, client.params, 2, 10, rng=np.random.default_rng(12)
        )
        assert res.pruned_unstructured
        assert client.mask.sparsity() > 1 / 32
        dense_bits = 32 * client.params.flat.size
        assert res.uplink_bits < dense_bits


class TestHybridUpdate:
    def hybrid_client(self, **kw):
        base = dict(
            rate_unstructured=10.0, rate_structured=20.0,
            target_unstructured=50.0, target_structured=50.0,
            acc_threshold=0.0, eps_unstructured=0.0, eps_structured=0.0,
        )
        base.update(kw)
        return synthetic_client(hybrid=True, **base)

    def test_both_kinds_fire_and_compose(self):
        client = self.hybrid_client()
        res = client_update(
            client, client.params, 2, 10, rng=np.random.default_rng(8)
        )
        assert res.pruned_unstructured and res.pruned_structured
        assert client.schedule.level_unstructured == 10.0
        assert client.schedule.level_structured == 20.0
        assert client.mask.channel_sparsity() > 0.0
        assert client.mask.covered_sparsity() > 0.0
        assert all(layer.startswith("fc") for layer, _ in client.mask.covered)

    def test_only_structured_fires(self):
        client = self.hybrid_client(eps_unstructured=2.0)  # blocks unstructured
        res = client_update(
            client, client.params, 2, 10, rng=np.random.default_rng(9)
        )
        assert res.pruned_structured and not res.pruned_unstructured
        assert client.mask.channel_sparsity() > 0.0
        assert client.mask.covered_sparsity() == 0.0

    def test_neither_fires_leaves_mask(self):
        client = self.hybrid_client(eps_unstructured=2.0, eps_structured=2.0)
        res = client_update(
            client, client.params, 2, 10, rng=np.random.default_rng(10)
        )
        assert not res.pruned_structured and not res.pruned_unstructured
        assert client.mask.zero_count() == 0

    def test_union_of_zero_sets_when_both_fire(self):
        client = self.hybrid_client()
        client_update(client, client.params, 2, 10, rng=np.random.default_rng(11))
        from subfed.pruning import channel_component, unstructured_component

        ch = channel_component(client.mask, client.params)
        fc = unstructured_component(client.mask, client.params)
        for key in client.mask.bits:
            expected = ~ch.bits[key] | ~fc.bits[key]
            assert np.array_equal(~client.mask.bits[key], expected)


def build_population(n=4, algorithm="sub-fedavg-un", seed=0, **sched_kw):
    spec = builtin_spec("synth-cnn")
    full = synth_dataset(4, 60 * n // 2, 1.2, seed=seed, image_shape=spec.input_shape)
    train, test = split_per_class(full, 20)
    part = partition_shards(train, n, 2, 25, seed)
    blocks = label_blocks(test)
    theta0 = init_params(spec, seed)
    defaults = dict(target_unstructured=0.0, target_structured=0.0)
    defaults.update(sched_kw)
    schedule = PruneSchedule(**defaults)
    clients = {}
    for cid, idx in part.assignment.items():
        clients[cid] = make_client(
            cid, spec, theta0,
            train.images[idx[:40]], train.labels[idx[:40]],
            train.images[idx[40:]], train.labels[idx[40:]],
            {c: blocks[c] for c in part.client_labels[cid]},
            schedule, 0.05, 0.5, hybrid=(algorithm == "sub-fedavg-hy"),
        )
    server = ServerState(
        spec=spec, params=theta0.copy(), client_ids=tuple(range(n)),
        sampling_rate=1.0, seed=seed,
    )
    return server, clients


class TestRunRound:
    def test_standalone_keeps_global_and_zero_bytes(self):
        server, clients = build_population()
        before = server.params.copy()
        record = run_round(server, clients, "standalone", epochs=2, batch_size=10).to_json_dict()
        assert all(np.array_equal(before[k], server.params[k]) for k in before.keys())
        assert record["total_uplink_bits"] == 0
        assert record["total_downlink_bits"] == 0
        assert all(c["served_accuracy"] == c["local_accuracy"] for c in record["clients"])

    def test_fedavg_round_reports_zero_sparsity(self):
        server, clients = build_population()
        record = run_round(server, clients, "fedavg", epochs=2, batch_size=10).to_json_dict()
        assert all(c["sparsity"] == 0.0 for c in record["clients"])
        assert record["mean_sparsity_unstructured"] == 0.0

    def test_record_is_client_entries_with_means_and_totals(self):
        server, clients = build_population(
            algorithm="sub-fedavg-hy", rate_unstructured=20.0, rate_structured=20.0,
            target_unstructured=40.0, target_structured=40.0, acc_threshold=0.0,
            eps_unstructured=0.0, eps_structured=0.0,
        )
        record = run_round(server, clients, "sub-fedavg-hy", epochs=2, batch_size=10).to_json_dict()
        rows = record["clients"]
        assert [c["id"] for c in rows] == record["selected"] == [0, 1, 2, 3]
        assert all(set(c) == {
            "id", "validation_accuracy", "local_accuracy", "served_accuracy", "sparsity",
            "sparsity_unstructured", "sparsity_channel", "delta_unstructured",
            "delta_structured", "pruned_unstructured", "pruned_structured",
            "uplink_bits", "downlink_bits", "conv_flops",
        } for c in rows)
        for cid, c in zip(record["selected"], rows):
            mask = clients[cid].mask
            assert c["sparsity_channel"] == mask.channel_sparsity() > 0.0
            assert c["conv_flops"] == conv_flops(server.spec, mask.channel_keep).current_total
            assert c["served_accuracy"] == block_score(
                server.spec, apply_mask(server.params, mask), clients[cid].eval_blocks
            )
        for key in ("local_accuracy", "served_accuracy", "sparsity_unstructured",
                    "sparsity_channel"):
            assert record[f"mean_{key}"] == float(np.mean([c[key] for c in rows]))
        for key in ("uplink_bits", "downlink_bits", "conv_flops"):
            assert record[f"total_{key}"] == sum(c[key] for c in rows)

    def test_round_deterministic(self):
        reports = []
        for _ in range(2):
            server, clients = build_population(seed=5)
            reports.append(
                run_round(server, clients, "sub-fedavg-un", epochs=2, batch_size=10)
            )
        assert reports[0].to_json_dict() == reports[1].to_json_dict()

    def test_parallel_equals_serial(self):
        # more workers than clients and cores, switching threads often
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 4, 8):
                server, clients = build_population(seed=6)
                report = run_round(
                    server, clients, "sub-fedavg-un", epochs=2, batch_size=10,
                    parallelism=workers,
                )
                outputs.append((report.to_json_dict(), server.params))
        finally:
            sys.setswitchinterval(interval)
        for report, params in outputs[1:]:
            assert report == outputs[0][0]
            assert all(np.array_equal(params[k], outputs[0][1][k]) for k in params.keys())

    def test_masks_stable_after_target_reached(self):
        server, clients = build_population(
            rate_unstructured=25.0, target_unstructured=25.0,
            acc_threshold=0.0, eps_unstructured=0.0,
        )
        for _ in range(3):
            run_round(server, clients, "sub-fedavg-un", epochs=2, batch_size=10)
        snapshots = {cid: c.mask.copy() for cid, c in clients.items()}
        for _ in range(3):
            report = run_round(server, clients, "sub-fedavg-un", epochs=2, batch_size=10)
            assert not any(c["pruned_unstructured"] for c in report.to_json_dict()["clients"])
        for cid, client in clients.items():
            assert all(
                np.array_equal(snapshots[cid].bits[k], client.mask.bits[k])
                for k in client.mask.bits
            )

    def test_download_re_zeroes_client_positions(self):
        server, clients = build_population(
            rate_unstructured=30.0, target_unstructured=30.0,
            acc_threshold=0.0, eps_unstructured=0.0,
        )
        run_round(server, clients, "sub-fedavg-un", epochs=2, batch_size=10)
        # aggregation may resurrect positions globally, but each client's next
        # download re-applies its own mask
        run_round(server, clients, "sub-fedavg-un", epochs=2, batch_size=10)
        for client in clients.values():
            for key in client.mask.covered:
                zeros = ~client.mask.bits[key]
                assert np.all(client.params[key][zeros] == 0.0)

    def test_unknown_algorithm(self):
        server, clients = build_population()
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_round(server, clients, "fedprox", epochs=2, batch_size=10)


def open_gates(algorithm: str) -> dict:
    """A schedule under which the sub-fedavg algorithms prune in their first
    round; the others never prune, as `experiment.make_schedule` has it."""
    if not algorithm.startswith("sub-fedavg"):
        return {}
    return dict(
        rate_unstructured=20.0, rate_structured=20.0, target_unstructured=40.0,
        target_structured=40.0, acc_threshold=0.0, eps_unstructured=0.0, eps_structured=0.0,
    )


class TestLabelBlockScoring:
    """A client's accuracy is `100 * sum(correct) / sum(n)` over its label
    blocks; in the served phase, clients with bit-equal masks share a served
    model and each (mask, label) pair is scored once."""

    @pytest.mark.parametrize("algorithm", ALGORITHM_CHOICES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_accuracies_are_per_block_sums(self, algorithm, workers):
        server, clients = build_population(algorithm=algorithm, seed=3, **open_gates(algorithm))
        record = run_round(server, clients, algorithm, epochs=2, batch_size=10,
                           parallelism=workers).to_json_dict()
        for c in record["clients"]:
            client = clients[c["id"]]
            local = block_score(server.spec, client.params, client.eval_blocks)
            served = local if algorithm == "standalone" else block_score(
                server.spec, apply_mask(server.params, client.mask), client.eval_blocks
            )
            assert c["local_accuracy"] == local
            assert c["served_accuracy"] == served

    @pytest.mark.parametrize("algorithm", ["fedavg", "sub-fedavg-un"])
    def test_served_phase_scores_each_mask_label_pair_once(self, monkeypatch, algorithm):
        server, clients = build_population(n=6, algorithm=algorithm, seed=4,
                                          **open_gates(algorithm))
        served_calls = []
        aggregated = []
        evaluate = federation.evaluate_accuracy

        def counting(spec, params, x, y):
            if aggregated:
                served_calls.append(int(y[0]))
            return evaluate(spec, params, x, y)

        def flagging(aggregate):
            def wrapped(*args, **kwargs):
                aggregated.append(True)
                return aggregate(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(federation, "evaluate_accuracy", counting)
        for name in ("aggregate_fedavg", "aggregate_sub_fedavg"):
            monkeypatch.setattr(federation, name, flagging(getattr(federation, name)))
        record = run_round(server, clients, algorithm, epochs=2, batch_size=10).to_json_dict()

        pairs = {(clients[cid].mask.flat.tobytes(), label)
                 for cid in record["selected"] for label in clients[cid].eval_blocks}
        assert len(served_calls) == len(pairs)
        labels = set().union(*(clients[cid].eval_blocks for cid in record["selected"]))
        held = sum(len(clients[cid].eval_blocks) for cid in record["selected"])
        if algorithm == "fedavg":  # one served model
            assert sorted(served_calls) == sorted(labels)
            assert len(labels) < held
        else:  # the first round's prunes leave every client its own mask
            assert len(pairs) == held
        for c in record["clients"]:
            client = clients[c["id"]]
            assert c["served_accuracy"] == block_score(
                server.spec, apply_mask(server.params, client.mask), client.eval_blocks
            )


class TestMapClients:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_input_order_kept(self, workers):
        # later items finish first when they run concurrently
        def slow_first(i):
            time.sleep(0.002 * (5 - i))
            return i * i

        assert map_clients(slow_first, [0, 1, 2, 3, 4], workers) == [0, 1, 4, 9, 16]

    def test_runs_on_threads_only_when_asked(self):
        def thread(_):
            return threading.get_ident()

        main = threading.get_ident()
        assert set(map_clients(thread, range(3), 1)) == {main}
        assert set(map_clients(thread, [0], 2)) == {main}
        assert main not in map_clients(thread, range(3), 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_divergence_propagates(self, workers):
        def diverge_at_two(cid):
            if cid == 2:
                raise TrainingDivergedError(cid, 5)
            return cid

        with pytest.raises(TrainingDivergedError) as err:
            map_clients(diverge_at_two, range(4), workers)
        assert (err.value.client_id, err.value.round_index) == (2, 5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_round_divergence_propagates_from_a_worker(self):
        server, clients = build_population()
        clients[2].optimizer.learning_rate = 1e30
        with pytest.raises(TrainingDivergedError) as err:
            run_round(server, clients, "fedavg", epochs=2, batch_size=10, parallelism=2)
        assert err.value.client_id == 2


class TestPerfbenchTraceBindings:
    """perfbench/worker.py wraps module attributes of subfed.federation and
    subfed.experiment by name for traced runs; a renamed or removed one
    breaks `perfbench/run.py --trace 1`."""

    def test_every_wrapped_name_resolves(self, monkeypatch):
        from subfed import experiment, federation

        bench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(bench))  # the worker imports its siblings
        spec = importlib.util.spec_from_file_location("perfbench_worker", bench / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)

        class Recorder:
            def __init__(self):
                self.bound = []

            def wrap(self, module, attr, _name, _size):
                self.bound.append((module, attr))

        recorder = Recorder()
        worker.install_full_trace(recorder, federation, experiment)
        assert recorder.bound
        assert {module for module, _ in recorder.bound} <= {federation, experiment}
        missing = [(m.__name__, a) for m, a in recorder.bound if not hasattr(m, a)]
        assert missing == []
