import numpy as np
import pytest

from subfed.engine import builtin_spec, init_params, walk_shapes, Conv
from subfed.metrics import comm_cost_closed_form, conv_flops
from subfed.pruning import dense_mask, derive_channel_mask, derive_unstructured_mask


class TestClosedFormCost:
    def test_published_mnist_fedavg_entry(self):
        cost = comm_cost_closed_form(1000, 32, 65520)
        assert cost.bits == 4_193_280_000
        assert cost.total_bytes == 524_160_000
        assert cost.megabytes == 524.16

    def test_zero_rounds(self):
        assert comm_cost_closed_form(0, 32, 12345).bits == 0

    def test_linear_in_rounds(self):
        one = comm_cost_closed_form(7, 32, 999).bits
        two = comm_cost_closed_form(14, 32, 999).bits
        assert two == 2 * one

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            comm_cost_closed_form(-1, 32, 10)


def uniform_keep(spec, fraction_pruned):
    keep = {}
    for name, desc, _i, _o in walk_shapes(spec):
        if isinstance(desc, Conv):
            kept = max(1, desc.out_channels - int(desc.out_channels * fraction_pruned))
            bits = np.zeros(desc.out_channels, dtype=bool)
            bits[:kept] = True
            keep[name] = bits
    return keep


class TestConvFlops:
    def test_dense_reduction_is_one(self):
        profile = conv_flops(builtin_spec("lenet5-cifar"))
        assert profile.reduction_factor == 1.0
        assert profile.dense_total == profile.current_total

    def test_halving_channels_quarters_second_layer(self):
        spec = builtin_spec("synth-cnn")  # conv1 1->8, conv2 8->16
        profile = conv_flops(spec, uniform_keep(spec, 0.5))
        (n1, d1, c1), (n2, d2, c2) = profile.per_layer
        assert c1 == d1 // 2  # half the output channels
        assert c2 == d2 // 4  # half in, half out

    def test_lenet5_half_channels_hand_computation(self):
        spec = builtin_spec("lenet5-cifar")
        profile = conv_flops(spec, uniform_keep(spec, 0.5))
        # conv1: 2*(3*5*5)*6*28*28 dense, out channels 6->3
        assert profile.per_layer[0][1] == 2 * 3 * 25 * 6 * 28 * 28 == 705600
        assert profile.per_layer[0][2] == 352800
        # conv2: 2*(6*5*5)*16*10*10 dense, 6->3 in, 16->8 out
        assert profile.per_layer[1][1] == 2 * 6 * 25 * 16 * 10 * 10 == 480000
        assert profile.per_layer[1][2] == 2 * 3 * 25 * 8 * 10 * 10 == 120000
        assert profile.reduction_factor == pytest.approx(1185600 / 472800)
        assert 2.0 <= profile.reduction_factor <= 4.0

    def test_monotone_in_channel_removal(self):
        spec = builtin_spec("lenet5-cifar")
        totals = [
            conv_flops(spec, uniform_keep(spec, f)).current_total
            for f in (0.0, 0.25, 0.5, 0.75)
        ]
        assert totals == sorted(totals, reverse=True)


class TestParamReduction:
    def test_dense_mask_is_zero(self):
        params = init_params(builtin_spec("synth-cnn"), 0)
        assert dense_mask(params).sparsity() == 0.0

    def test_thirty_percent_target(self):
        params = init_params(builtin_spec("cnn5-mnist"), 0)
        mask = derive_unstructured_mask(params, 30)
        dense = params.layout.n_learnable
        assert mask.sparsity() == pytest.approx(0.30, abs=1.0 / dense + 0.004)

    def test_hybrid_counts_zeros_once(self):
        from subfed.pruning import combine_masks, fc_coverage

        params = init_params(builtin_spec("synth-cnn"), 1)
        ch = derive_channel_mask(params, 25)
        fc = derive_unstructured_mask(params, 40, fc_coverage(params))
        combined = combine_masks(ch, fc, params)
        # independent oracle: cardinality of the union of the two zero-sets
        union = 0
        for key in combined.bits:
            zeros = ~ch.bits[key]
            if key in fc.covered:
                zeros = zeros | ~fc.bits[key]
            union += int(zeros.sum())
        assert combined.sparsity() == union / params.layout.n_learnable
