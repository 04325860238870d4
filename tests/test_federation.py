import importlib.util
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import subfed
from subfed import engine as E
from subfed import federation
from subfed.config import (
    AGGREGATION_CHOICES, ALGORITHM_CHOICES, ConfigError, ExperimentConfig, parse_config,
)
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


def test_every_public_name_resolves():
    assert all(hasattr(subfed, name) for name in subfed.__all__)


def result_from(client_id, values, keep):
    params = ParamSet({("fc1", "weight"): np.asarray(values, dtype=np.float32)})
    bits = ParamSet({("fc1", "weight"): np.asarray(keep, dtype=bool)})
    return result_of(client_id, params, SparsityMask(bits, full_coverage(params), None))


def result_of(client_id, params, mask):
    return ClientUpdateResult(
        client_id=client_id, params=params, mask=mask,
        validation_accuracy=0.0, local_accuracy=0.0,
        delta_unstructured=0.0, delta_structured=0.0,
        pruned_unstructured=False, pruned_structured=False,
        uplink_bits=0, downlink_bits=0, conv_flops=0,
    )


def config(**overrides) -> ExperimentConfig:
    """A validated config for hand-built clients: two epochs of batch 10 at
    lr 0.05, every client sampled, and prune targets of 0 unless
    `overrides` sets them."""
    base = dict(local_epochs=2, batch_size=10, learning_rate=0.05, sampling_rate=1.0,
                target_unstructured=0.0, target_structured=0.0,
                shard_size=25)  # a split the default synthetic data can deal
    return parse_config(overrides={**base, **overrides})


def sample(n_clients, round_index, rate=1.0, seed=0):
    spec = builtin_spec("synth-cnn")
    server = ServerState(
        spec=spec, params=init_params(spec, seed),
        client_ids=tuple(range(n_clients)), round_index=round_index,
    )
    return sample_clients(server, config(sampling_rate=rate, seed=seed))


class TestSampling:
    def test_full_rate_selects_everyone(self):
        assert sample(7, 0, rate=1.0) == list(range(7))

    def test_hundred_clients_ten_percent(self):
        picks = sample(100, 3, rate=0.1, seed=5)
        assert len(picks) == 10
        assert len(set(picks)) == 10
        assert all(0 <= cid < 100 for cid in picks)

    def test_deterministic_per_round(self):
        assert sample(50, 4, rate=0.2, seed=9) == sample(50, 4, rate=0.2, seed=9)
        assert sample(50, 4, rate=0.2, seed=9) != sample(50, 5, rate=0.2, seed=9)

    def test_at_least_one_client(self):
        assert len(sample(10, 0, rate=0.01)) == 1

    def test_empty_registry(self):
        with pytest.raises(ValueError, match="empty"):
            sample(0, 0)


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

    @pytest.mark.parametrize("mode", AGGREGATION_CHOICES)
    def test_every_config_choice(self, mode):
        prev = ParamSet({("fc1", "weight"): np.array([9.0, 9.0, 9.0], np.float32)})
        a = result_from(0, [2.0, 4.0, 0.0], [1, 1, 0])
        b = result_from(1, [4.0, 0.0, 6.0], [1, 0, 1])
        out = aggregate_sub_fedavg([a, b], prev, mode=mode)
        expected = {"per-position": [3.0, 4.0, 6.0], "strict-intersection": [3.0, 9.0, 9.0]}
        assert out[("fc1", "weight")].tolist() == expected[mode]

    def test_unknown_mode_rejected(self):
        prev = ParamSet({("fc1", "weight"): np.zeros(1, np.float32)})
        with pytest.raises(ValueError, match="unknown aggregation mode 'union'"):
            aggregate_sub_fedavg([result_from(0, [1.0], [1])], prev, mode="union")

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
        # the mask's learnable bits, with every running statistic kept
        all_stats = ParamSet.over(self.params.layout, self.mask.flat.copy())
        for key in self.stat_keys():
            all_stats[key][...] = True
        every_channel = SparsityMask(
            all_stats, self.mask.covered,
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


SPEC = builtin_spec("synth-cnn")


def synthetic_client(cfg, cid=0, seed=0):
    data = synth_dataset(4, 40, 1.0, seed=seed, image_shape=SPEC.input_shape)
    train, test = split_per_class(data, 10)
    theta0 = init_params(SPEC, seed)
    idx = np.arange(len(train))
    return make_client(
        cid, cfg, theta0,
        train.images[idx[:80]], train.labels[idx[:80]],
        train.images[idx[80:]], train.labels[idx[80:]],
        label_blocks(test),
    )


def update(client, cfg, rng, round_index=0):
    """`client_update` in round `round_index`, downloading the client's own params."""
    server = ServerState(spec=SPEC, params=client.params, client_ids=(client.client_id,),
                         round_index=round_index)
    return client_update(client, server, cfg, rng=rng)


class TestClientUpdate:
    def test_epochs_below_two_rejected(self):
        # a client update needs a distinct first and last epoch; the config
        # it reads them from refuses fewer than two
        with pytest.raises(ConfigError, match="local_epochs"):
            config(local_epochs=1)

    def test_drift_below_eps_means_no_prune(self):
        cfg = config(
            rate_unstructured=10.0, target_unstructured=50.0,
            eps_unstructured=2.0,  # unreachable: normalized distance <= 1
            acc_threshold=0.0,
        )
        client = synthetic_client(cfg)
        before = client.mask.copy()
        res = update(client, cfg, np.random.default_rng(1))
        assert not res.pruned_unstructured
        assert all(
            np.array_equal(before.bits[k], client.mask.bits[k]) for k in before.bits
        )

    def test_target_reached_stops_pruning(self):
        cfg = config(
            rate_unstructured=10.0, target_unstructured=10.0,
            acc_threshold=0.0, eps_unstructured=0.0,
        )
        client = synthetic_client(cfg)
        client.level_unstructured = 10.0
        zero_sets = []
        for r in range(4):
            res = update(client, cfg, np.random.default_rng((2, r)), round_index=r)
            assert not res.pruned_unstructured
            zero_sets.append(client.mask.zero_count())
        assert len(set(zero_sets)) == 1

    def test_prune_event_hits_scheduled_fraction(self):
        cfg = config(
            rate_unstructured=5.0, target_unstructured=50.0,
            acc_threshold=0.0, eps_unstructured=0.0,
        )
        client = synthetic_client(cfg)
        res = update(client, cfg, np.random.default_rng(3))
        assert res.pruned_unstructured
        governed = sum(client.mask.bits[k].size for k in client.mask.covered)
        assert client.mask.zero_count() == int(0.05 * governed)
        assert client.level_unstructured == 5.0
        # params respect the mask exactly
        for key in client.mask.covered:
            zeros = ~client.mask.bits[key]
            assert np.all(client.params[key][zeros] == 0.0)

    def test_accuracy_gate_blocks(self):
        cfg = config(
            rate_unstructured=5.0, target_unstructured=50.0,
            acc_threshold=101.0, eps_unstructured=0.0,
        )
        client = synthetic_client(cfg)
        res = update(client, cfg, np.random.default_rng(4))
        assert not res.pruned_unstructured
        assert client.mask.zero_count() == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic is the point
    def test_divergence_raises_with_context(self):
        cfg = config()
        client = synthetic_client(cfg)
        client.x_train[0] = np.inf  # the client's own copy of its examples
        with pytest.raises(TrainingDivergedError) as err:
            update(client, cfg, np.random.default_rng(5), round_index=7)
        assert err.value.client_id == 0
        assert err.value.round_index == 7

    def test_uplink_accounting_dense(self):
        cfg = config()
        client = synthetic_client(cfg)
        res = update(client, cfg, np.random.default_rng(6))
        total = client.params.flat.size
        assert res.uplink_bits == 32 * total
        assert res.downlink_bits == 32 * total

    OPEN = dict(rate_unstructured=10.0, target_unstructured=50.0,
                acc_threshold=0.0, eps_unstructured=0.0)

    def test_uplink_adds_mask_bits_on_prune(self):
        cfg = config(**self.OPEN)
        client = synthetic_client(cfg)
        res = update(client, cfg, np.random.default_rng(7))
        assert res.pruned_unstructured
        retained = retained_scalar_count(client.params, client.mask)
        assert res.uplink_bits == 32 * retained + client.mask.bit_length()

    def test_uplink_mask_bits_use_the_declared_width(self, monkeypatch):
        monkeypatch.setattr(federation, "BITS_PER_MASK_POSITION", 2)
        cfg = config(**self.OPEN)
        client = synthetic_client(cfg)
        res = update(client, cfg, np.random.default_rng(7))
        assert res.pruned_unstructured
        retained = retained_scalar_count(client.params, client.mask)
        assert res.uplink_bits == 32 * retained + 2 * client.mask.bit_length()

    def test_uplink_beats_dense_beyond_break_even(self):
        # mask overhead is 1 bit/position, so savings start past 1/32 sparsity
        cfg = config(**self.OPEN)
        client = synthetic_client(cfg)
        res = update(client, cfg, np.random.default_rng(12))
        assert res.pruned_unstructured
        assert client.mask.sparsity() > 1 / 32
        dense_bits = 32 * client.params.flat.size
        assert res.uplink_bits < dense_bits


class TestHybridUpdate:
    def hybrid_update(self, seed, **kw):
        """A fresh sub-fedavg-hy client after one update; the client and its result."""
        base = dict(
            algorithm="sub-fedavg-hy", rate_unstructured=10.0, rate_structured=20.0,
            target_unstructured=50.0, target_structured=50.0,
            acc_threshold=0.0, eps_unstructured=0.0, eps_structured=0.0,
        )
        cfg = config(**{**base, **kw})
        client = synthetic_client(cfg)
        return client, update(client, cfg, np.random.default_rng(seed))

    def test_both_kinds_fire_and_compose(self):
        client, res = self.hybrid_update(8)
        assert res.pruned_unstructured and res.pruned_structured
        assert client.level_unstructured == 10.0
        assert client.level_structured == 20.0
        assert client.mask.channel_sparsity() > 0.0
        assert client.mask.covered_sparsity() > 0.0
        assert all(layer.startswith("fc") for layer, _ in client.mask.covered)

    def test_only_structured_fires(self):
        client, res = self.hybrid_update(9, eps_unstructured=2.0)  # blocks unstructured
        assert res.pruned_structured and not res.pruned_unstructured
        assert client.mask.channel_sparsity() > 0.0
        assert client.mask.covered_sparsity() == 0.0

    def test_neither_fires_leaves_mask(self):
        client, res = self.hybrid_update(10, eps_unstructured=2.0, eps_structured=2.0)
        assert not res.pruned_structured and not res.pruned_unstructured
        assert client.mask.zero_count() == 0

    def test_union_of_zero_sets_when_both_fire(self):
        client, _ = self.hybrid_update(11)
        from subfed.pruning import channel_component, unstructured_component

        ch = channel_component(client.mask, client.params)
        fc = unstructured_component(client.mask, client.params)
        for key in client.mask.bits:
            expected = ~ch.bits[key] | ~fc.bits[key]
            assert np.array_equal(~client.mask.bits[key], expected)


def build_population(n=4, algorithm="sub-fedavg-un", seed=0, **overrides):
    """A server and `n` clients on synth-cnn under `config(algorithm=algorithm,
    seed=seed, **overrides)`, which comes back third."""
    cfg = config(algorithm=algorithm, seed=seed, **overrides)
    full = synth_dataset(4, 60 * n // 2, 1.2, seed=seed, image_shape=SPEC.input_shape)
    train, test = split_per_class(full, 20)
    part = partition_shards(train, n, 2, 25, seed)
    blocks = label_blocks(test)
    theta0 = init_params(SPEC, seed)
    clients = {}
    for cid, idx in part.assignment.items():
        clients[cid] = make_client(
            cid, cfg, theta0,
            train.images[idx[:40]], train.labels[idx[:40]],
            train.images[idx[40:]], train.labels[idx[40:]],
            {c: blocks[c] for c in part.client_labels[cid]},
        )
    server = ServerState(spec=SPEC, params=theta0.copy(), client_ids=tuple(range(n)))
    return server, clients, cfg


# every prune gate open, so that the sub-fedavg algorithms prune in their first round
OPEN_GATES = dict(
    rate_unstructured=20.0, rate_structured=20.0, target_unstructured=40.0,
    target_structured=40.0, acc_threshold=0.0, eps_unstructured=0.0, eps_structured=0.0,
)


class TestRunRound:
    def test_standalone_keeps_global_and_zero_bytes(self):
        server, clients, cfg = build_population(algorithm="standalone")
        before = server.params.copy()
        record = run_round(server, clients, cfg)
        assert all(np.array_equal(before[k], server.params[k]) for k in before.keys())
        assert record["total_uplink_bits"] == 0
        assert record["total_downlink_bits"] == 0
        assert all(c["served_accuracy"] == c["local_accuracy"] for c in record["clients"])

    def test_fedavg_round_reports_zero_sparsity(self):
        server, clients, cfg = build_population(algorithm="fedavg")
        record = run_round(server, clients, cfg)
        assert all(c["sparsity"] == 0.0 for c in record["clients"])
        assert record["mean_sparsity_unstructured"] == 0.0

    def test_record_is_client_entries_with_means_and_totals(self):
        server, clients, cfg = build_population(algorithm="sub-fedavg-hy", **OPEN_GATES)
        record = run_round(server, clients, cfg)
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
        records = []
        for _ in range(2):
            server, clients, cfg = build_population(seed=5)
            records.append(run_round(server, clients, cfg))
        assert records[0] == records[1]

    def test_parallel_equals_serial(self):
        # more workers than clients and cores, switching threads often
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 4, 8):
                server, clients, cfg = build_population(seed=6, parallelism=workers)
                record = run_round(server, clients, cfg)
                outputs.append((record, server.params))
        finally:
            sys.setswitchinterval(interval)
        for record, params in outputs[1:]:
            assert record == outputs[0][0]
            assert all(np.array_equal(params[k], outputs[0][1][k]) for k in params.keys())

    def test_masks_stable_after_target_reached(self):
        server, clients, cfg = build_population(
            rate_unstructured=25.0, target_unstructured=25.0,
            acc_threshold=0.0, eps_unstructured=0.0,
        )
        for _ in range(3):
            run_round(server, clients, cfg)
        snapshots = {cid: c.mask.copy() for cid, c in clients.items()}
        for _ in range(3):
            record = run_round(server, clients, cfg)
            assert not any(c["pruned_unstructured"] for c in record["clients"])
        for cid, client in clients.items():
            assert all(
                np.array_equal(snapshots[cid].bits[k], client.mask.bits[k])
                for k in client.mask.bits
            )

    def test_download_re_zeroes_client_positions(self):
        server, clients, cfg = build_population(
            rate_unstructured=30.0, target_unstructured=30.0,
            acc_threshold=0.0, eps_unstructured=0.0,
        )
        run_round(server, clients, cfg)
        # aggregation may resurrect positions globally, but each client's next
        # download re-applies its own mask
        run_round(server, clients, cfg)
        for client in clients.values():
            for key in client.mask.covered:
                zeros = ~client.mask.bits[key]
                assert np.all(client.params[key][zeros] == 0.0)

    def test_unknown_algorithm(self):
        # a round runs the algorithm of its config, which refuses any other
        with pytest.raises(ConfigError, match="'algorithm'"):
            config(algorithm="fedprox")

    @pytest.mark.parametrize("algorithm", ALGORITHM_CHOICES)
    def test_algorithm_alone_decides_what_is_pruned(self, algorithm):
        server, clients, cfg = build_population(algorithm=algorithm, **OPEN_GATES)
        rows = run_round(server, clients, cfg)["clients"]
        pruned = {(c["pruned_unstructured"], c["pruned_structured"]) for c in rows}
        if algorithm == "sub-fedavg-hy":
            assert pruned == {(True, True)}
            assert all(c["sparsity_unstructured"] > 0.0 and c["sparsity_channel"] > 0.0
                       for c in rows)
        elif algorithm == "sub-fedavg-un":
            assert pruned == {(True, False)}
            assert all(c["sparsity_unstructured"] > 0.0 and c["sparsity_channel"] == 0.0
                       for c in rows)
        else:
            assert pruned == {(False, False)}
            assert all(c["delta_unstructured"] == c["delta_structured"] == 0.0 for c in rows)
            assert all(c["sparsity"] == 0.0 for c in rows)
            assert all(client.level_unstructured == client.level_structured == 0.0
                       for client in clients.values())

    @pytest.mark.parametrize("algorithm", ["fedavg", "sub-fedavg-un"])
    def test_served_counts_replaced_by_each_aggregation(self, algorithm):
        server, clients, cfg = build_population(algorithm=algorithm, **OPEN_GATES)
        held = []
        for _ in range(2):
            record = run_round(server, clients, cfg)
            counts = server.served_counts
            assert all(counts is not earlier for earlier in held)
            held.append(counts)
            # one count per (mask, label) pair of the round's sample, under
            # the params the round aggregated
            pairs = {(clients[cid].mask.flat.tobytes(), label): (clients[cid], label)
                     for cid in record["selected"] for label in clients[cid].eval_blocks}
            assert counts.keys() == pairs.keys()
            for key, (client, label) in pairs.items():
                x, y = client.eval_blocks[label]
                served = apply_mask(server.params, client.mask)
                assert counts[key] == round(E.evaluate_accuracy(server.spec, served, x, y)
                                            * len(x) / 100)

    def test_standalone_leaves_served_counts_empty(self):
        server, clients, cfg = build_population(algorithm="standalone")
        for _ in range(2):
            run_round(server, clients, cfg)
            assert server.served_counts == {}


class TestLabelBlockScoring:
    """A client's accuracy is `100 * sum(correct) / sum(n)` over its label
    blocks; in the served phase, clients with bit-equal masks share a served
    model and each (mask, label) pair is scored once."""

    @pytest.mark.parametrize("algorithm", ALGORITHM_CHOICES)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_accuracies_are_per_block_sums(self, algorithm, workers):
        server, clients, cfg = build_population(algorithm=algorithm, seed=3,
                                                parallelism=workers, **OPEN_GATES)
        record = run_round(server, clients, cfg)
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
        server, clients, cfg = build_population(n=6, algorithm=algorithm, seed=4,
                                                **OPEN_GATES)
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
        record = run_round(server, clients, cfg)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic is the point
    def test_round_divergence_propagates_from_a_worker(self):
        server, clients, cfg = build_population(algorithm="fedavg", parallelism=2)
        clients[2].x_train[0] = np.inf  # the client's own copy of its examples
        with pytest.raises(TrainingDivergedError) as err:
            run_round(server, clients, cfg)
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
