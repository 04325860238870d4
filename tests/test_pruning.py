import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subfed import engine as E
from subfed.engine import ParamSet, builtin_spec, init_params
from subfed.pruning import (
    MaskCongruenceError,
    SparsityMask,
    apply_mask,
    combine_masks,
    dense_mask,
    derive_channel_mask,
    derive_unstructured_mask,
    fc_coverage,
    full_coverage,
    mask_distance,
    next_level,
    should_prune,
)


def vector_params(values):
    return ParamSet({("fc1", "weight"): np.asarray(values, dtype=np.float32)})


def two_conv_params(scales1, scales2, seed=0):
    """Two BN convs feeding each other plus a dense head, with chosen BN scales."""
    c1, c2 = len(scales1), len(scales2)
    spec = E.ModelSpec(
        "t", (1, 8, 8),
        (E.Conv(1, c1, 3, batch_norm=True), E.Relu(),
         E.Conv(c1, c2, 3, batch_norm=True), E.Relu(),
         E.Flatten(), E.Dense(c2 * 16, 3)),
    )
    params = init_params(spec, seed)
    params[("conv1", "bn_scale")][...] = scales1
    params[("conv2", "bn_scale")][...] = scales2
    return spec, params


class TestUnstructured:
    def test_quarter_of_four_values(self):
        params = vector_params([0.5, -0.1, 0.3, -0.7])
        mask = derive_unstructured_mask(params, 25)
        assert mask.bits[("fc1", "weight")].tolist() == [True, False, True, True]

    def test_fraction_zero_is_dense(self):
        params = vector_params([1.0, 2.0, 3.0])
        mask = derive_unstructured_mask(params, 0)
        assert mask.bits[("fc1", "weight")].all()

    def test_fraction_at_or_above_100_rejected(self):
        params = vector_params([1.0])
        with pytest.raises(ValueError):
            derive_unstructured_mask(params, 100)

    def test_count_is_against_dense_size(self):
        rng = np.random.default_rng(0)
        params = vector_params(rng.normal(size=40))
        pruned = apply_mask(params, derive_unstructured_mask(params, 25))
        again = derive_unstructured_mask(pruned, 25)
        # still floor(25% of 40)=10 zeros, not 25% of the 30 survivors
        assert int((~again.bits[("fc1", "weight")]).sum()) == 10

    def test_zero_set_grows_to_superset(self):
        rng = np.random.default_rng(1)
        params = vector_params(rng.normal(size=64))
        m25 = derive_unstructured_mask(params, 25)
        pruned = apply_mask(params, m25)
        m50 = derive_unstructured_mask(pruned, 50)
        old_zeros = ~m25.bits[("fc1", "weight")]
        new_zeros = ~m50.bits[("fc1", "weight")]
        assert np.all(new_zeros[old_zeros])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=30).astype(np.float32)
        params = vector_params(values)
        mask = derive_unstructured_mask(params, 40)
        k = math.floor(0.40 * 30)
        expected_zero = sorted(range(30), key=lambda i: (abs(values[i]), i))[:k]
        zeros = set(np.nonzero(~mask.bits[("fc1", "weight")])[0].tolist())
        assert zeros == set(expected_zero)

    def test_matches_lamp_oracle(self):
        # score w^2 / sum(w'^2 for |w'| >= |w| in the same tensor), ranked over
        # all covered tensors, stable by flat index; values include exact ties
        rng = np.random.default_rng(4)
        for _ in range(20):
            params = ParamSet({
                (f"fc{i + 1}", "weight"):
                    rng.choice([0.0, 0.5, -1.0, 1.0, 2.0], size=int(rng.integers(1, 12)))
                    .astype(np.float32) * float(rng.choice([0.01, 1.0, 10.0]))
                for i in range(3)
            })
            fraction = float(rng.choice([10, 25, 50, 75, 91]))
            scores = []
            for _, w in params.items():
                mag = np.abs(w.astype(np.float64))
                scores += [x * x / (mag[mag >= x] ** 2).sum() if x else 0.0 for x in mag]
            n = len(scores)
            k = math.floor(fraction * n / 100)
            expected_zero = sorted(range(n), key=lambda i: (scores[i], i))[:k]
            mask = derive_unstructured_mask(params, fraction)
            kept = np.concatenate([b.ravel() for b in mask.bits.values()])
            assert set(np.flatnonzero(~kept).tolist()) == set(expected_zero)

    def test_ties_break_by_ascending_flat_index(self):
        params = vector_params([1.0, 1.0, 1.0, 1.0])
        mask = derive_unstructured_mask(params, 50)
        assert mask.bits[("fc1", "weight")].tolist() == [False, False, True, True]

    def test_small_scale_tensor_is_not_emptied(self):
        # conv tensors at 1/100 of the dense scale: ranking pooled |w| would
        # zero every conv entry before any dense one (layer collapse)
        rng = np.random.default_rng(3)
        params = ParamSet({
            ("conv1", "weight"): 0.01 * rng.normal(size=(4, 1, 5, 5)),
            ("conv1", "bias"): 0.001 * rng.normal(size=4),
            ("fc1", "weight"): rng.normal(size=(6, 48)),
            ("fc1", "bias"): 0.1 * rng.normal(size=6),
        })
        n_dense = params.layout.n_learnable
        previous = params
        zeros_before = {k: np.zeros(v.shape, dtype=bool) for k, v in params.items()}
        for fraction in (50, 91, 99):
            mask = derive_unstructured_mask(previous, fraction)
            for key, keep in mask.bits.items():
                assert keep.any(), (fraction, key)
                assert np.all(~keep[zeros_before[key]]), (fraction, key)
            assert mask.zero_count() == math.floor(fraction * n_dense / 100)
            zeros_before = {k: ~v for k, v in mask.bits.items()}
            previous = apply_mask(previous, mask)

    def test_fc_coverage_excludes_convs_and_bn(self):
        params = init_params(builtin_spec("synth-cnn"), 0)
        cov = fc_coverage(params)
        assert (("fc1", "weight") in cov) and (("fc2", "bias") in cov)
        assert all(not layer.startswith("conv") for layer, _ in cov)
        full = full_coverage(params)
        assert all(role in ("weight", "bias") for _, role in full)


class TestChannel:
    def test_global_percentile_example(self):
        _, params = two_conv_params([0.9, 0.1], [0.5, 0.05, 0.8])
        mask = derive_channel_mask(params, 40)  # floor(0.4*5)=2 channels
        assert mask.channel_keep["conv1"].tolist() == [True, False]
        assert mask.channel_keep["conv2"].tolist() == [True, False, True]

    def test_fraction_zero_keeps_all(self):
        _, params = two_conv_params([0.9, 0.1], [0.5, 0.05, 0.8])
        mask = derive_channel_mask(params, 0)
        assert mask.channel_keep["conv1"].all() and mask.channel_keep["conv2"].all()

    def test_equal_scales_tie_break(self):
        _, params = two_conv_params([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        mask = derive_channel_mask(params, 50)  # floor(3) pruned in (layer, idx) order
        assert mask.channel_keep["conv1"].tolist() == [False, False, True]
        assert mask.channel_keep["conv2"].tolist() == [False, True, True]

    def test_every_layer_keeps_one_channel(self):
        _, params = two_conv_params([1e-6, 2e-6], [1.0, 2.0, 3.0])
        mask = derive_channel_mask(params, 60)  # floor(3): both conv1 wiped without floor
        assert int(mask.channel_keep["conv1"].sum()) >= 1
        total_pruned = sum(int((~v).sum()) for v in mask.channel_keep.values())
        assert total_pruned == 3

    def test_propagation_zeroes_filter_bias_bn_and_next_input(self):
        _, params = two_conv_params([0.9, 0.001], [1.0, 1.0, 1.0])
        mask = derive_channel_mask(params, 20)  # floor(1): conv1 channel 1
        assert not mask.channel_keep["conv1"][1]
        assert not mask.bits[("conv1", "weight")][1].any()
        assert not mask.bits[("conv1", "bias")][1]
        assert not mask.bits[("conv1", "bn_scale")][1]
        assert not mask.bits[("conv1", "bn_shift")][1]
        assert not mask.bits[("conv2", "weight")][:, 1].any()
        assert mask.bits[("conv2", "weight")][:, 0].all()

    def test_counts_and_prunes_only_bn_conv_channels(self):
        spec = E.ModelSpec(
            "t", (1, 8, 8),
            (E.Conv(1, 4, 3, batch_norm=True), E.Relu(),
             E.Conv(4, 6, 3), E.Relu(),
             E.Flatten(), E.Dense(6 * 16, 3)),
        )
        params = init_params(spec, 0)
        params[("conv1", "bn_scale")][...] = [0.9, 0.1, 0.5, 0.05]
        params[("conv2", "weight")][...] = 1e-6  # the plain conv's filters are not ranked
        mask = derive_channel_mask(params, 50)  # floor(0.5*4)=2 of the BN conv's 4 channels
        assert mask.channel_keep["conv1"].tolist() == [True, False, True, False]
        assert mask.channel_keep["conv2"].all()
        assert mask.bits[("conv2", "bias")].all()

    def test_requires_a_bn_layer(self):
        params = vector_params([1.0, 2.0])
        with pytest.raises(MaskCongruenceError, match="BN"):
            derive_channel_mask(params, 10)


class TestDistance:
    def test_identical_masks(self):
        params = vector_params([1.0, -2.0, 3.0])
        m = derive_unstructured_mask(params, 30)
        assert mask_distance(m, m) == 0.0

    def test_complementary_masks(self):
        params = vector_params([1.0] * 8)
        a = derive_unstructured_mask(params, 0)
        b = a.copy()
        b.bits[("fc1", "weight")][:] = False
        assert mask_distance(a, b) == 1.0

    def test_three_bits_of_cnn5_domain(self):
        params = init_params(builtin_spec("cnn5-mnist"), 0)
        a = dense_mask(params)
        b = a.copy()
        b.bits[("fc1", "weight")].ravel()[:3] = False
        governed = sum(params[k].size for k in a.covered)
        assert governed == 30840  # weights+biases; BN parameters are structural
        assert mask_distance(a, b) == pytest.approx(3 / governed)
        assert mask_distance(a, b) < 1e-4  # below the unstructured threshold

    def test_channel_mask_distance_counts_channels(self):
        _, params = two_conv_params([0.9, 0.1], [0.5, 0.05, 0.8])
        a = derive_channel_mask(params, 0)
        b = derive_channel_mask(params, 40)
        assert mask_distance(a, b) == pytest.approx(2 / 5)

    def test_incongruent_masks_rejected(self):
        a = derive_unstructured_mask(vector_params([1.0, 2.0]), 0)
        b = derive_unstructured_mask(vector_params([1.0, 2.0, 3.0]), 0)
        with pytest.raises(MaskCongruenceError):
            mask_distance(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 12 - 1), st.integers(0, 2 ** 12 - 1), st.integers(0, 2 ** 12 - 1))
    def test_metric_properties(self, xa, xb, xc):
        params = vector_params(np.ones(12, np.float32))

        def mk(word):
            m = dense_mask(params)
            m.bits[("fc1", "weight")][:] = [(word >> i) & 1 for i in range(12)]
            return m

        a, b, c = mk(xa), mk(xb), mk(xc)
        dab, dba = mask_distance(a, b), mask_distance(b, a)
        assert dab == dba
        assert (dab == 0) == (xa == xb)
        assert dab <= mask_distance(a, c) + mask_distance(c, b) + 1e-12


class TestApply:
    def test_all_ones_unchanged(self):
        params = init_params(builtin_spec("synth-cnn"), 1)
        out = apply_mask(params, dense_mask(params))
        assert all(np.array_equal(out[k], params[k]) for k in params.keys())

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        params = vector_params(rng.normal(size=16))
        mask = derive_unstructured_mask(params, 50)
        once = apply_mask(params, mask)
        twice = apply_mask(once, mask)
        assert np.array_equal(once[("fc1", "weight")], twice[("fc1", "weight")])

    def test_masked_positions_exactly_zero(self):
        rng = np.random.default_rng(4)
        params = vector_params(rng.normal(size=16))
        mask = derive_unstructured_mask(params, 75)
        out = apply_mask(params, mask)
        zeros = ~mask.bits[("fc1", "weight")]
        assert np.all(out[("fc1", "weight")][zeros] == 0.0)
        observed = np.mean(out[("fc1", "weight")] == 0.0)
        assert observed >= mask.sparsity()

    def test_hybrid_composition_matches_single_combined_mask(self):
        _, params = two_conv_params([0.9, 0.1, 0.4], [0.5, 0.05, 0.8], seed=5)
        ch = derive_channel_mask(params, 30)
        fc = derive_unstructured_mask(params, 40, fc_coverage(params))
        combined = combine_masks(ch, fc, params)
        sequential = apply_mask(apply_mask(params, ch), fc)
        direct = apply_mask(params, combined)
        assert all(np.array_equal(sequential[k], direct[k]) for k in params.keys())

    def test_combined_zero_set_is_union(self):
        _, params = two_conv_params([0.9, 0.1, 0.4], [0.5, 0.05, 0.8], seed=6)
        ch = derive_channel_mask(params, 30)
        fc = derive_unstructured_mask(params, 40, fc_coverage(params))
        combined = combine_masks(ch, fc, params)
        for key in combined.bits:
            expected_zeros = ~ch.bits[key]
            if key in fc.covered:
                expected_zeros |= ~fc.bits[key]
            assert np.array_equal(~combined.bits[key], expected_zeros)

    def test_incongruent_rejected(self):
        params = vector_params([1.0, 2.0])
        mask = derive_unstructured_mask(vector_params([1.0, 2.0, 3.0]), 0)
        with pytest.raises(MaskCongruenceError):
            apply_mask(params, mask)


class TestScheduleGates:
    """The gate and the clamp on plain numbers: accuracy threshold 50, targets
    70 (unstructured) and 50 (structured), rates 10, eps 1e-4 and 0.05, with
    the unstructured level at 30 unless a case sets it."""

    def gate(self, accuracy, delta, level=30.0, target=70.0, eps=1e-4):
        return should_prune(accuracy, 50.0, level, target, delta, eps)

    def test_low_accuracy_blocks(self):
        assert not self.gate(49.9, delta=1.0)

    def test_target_reached_blocks(self):
        assert not self.gate(99.0, delta=1.0, level=70.0)

    def test_all_gates_open(self):
        assert self.gate(90.0, delta=2e-4)

    def test_drift_below_eps_blocks(self):
        assert not self.gate(90.0, delta=9e-5)

    def test_kinds_gate_independently(self):
        # the structured level has reached its target, the unstructured not
        assert self.gate(90.0, delta=1.0)
        assert not self.gate(90.0, delta=1.0, level=50.0, target=50.0, eps=0.05)

    def test_advance_clamps_at_target(self):
        assert next_level(65.0, 10.0, 70.0) == 70.0

    def test_advance_plain_step(self):
        assert next_level(0.0, 10.0, 70.0) == 10.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.1, 30.0), st.floats(0.0, 99.0),
        st.integers(1, 40),
    )
    def test_repeated_advances_never_exceed_target(self, rate, target, steps):
        level = 0.0
        for _ in range(steps):
            assert level <= target
            level = next_level(level, rate, target)
        assert level <= target
