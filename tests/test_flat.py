"""One flat vector per model and per mask.

`ParamSet` keeps every tensor as a view of one contiguous vector and a
`SparsityMask` is one bool vector in the same layout. These tests pin the
layout and check the whole-vector masking, SGD and aggregation bit for bit
against the per-tensor formulations in `tests/helpers.py`.
"""

import numpy as np
import pytest

from subfed import engine as E
from subfed.engine import OptimizerState, ParamSet, builtin_spec, forward, init_params, sgd_step
from subfed.federation import (
    ClientUpdateResult,
    aggregate_fedavg,
    aggregate_sub_fedavg,
    retained_scalar_count,
)
from subfed.pruning import (
    MaskCongruenceError,
    apply_mask,
    combine_masks,
    derive_channel_mask,
    derive_unstructured_mask,
    fc_coverage,
)

from helpers import (
    reference_apply_mask,
    reference_fold_mean,
    reference_keep,
    reference_sgd_step,
    same_bits,
)

DTYPES = [np.float32, np.float64]
# an unstructured synth-cnn mask, and a hybrid lenet5-cifar mask with pruned
# channels, so that running statistics are masked too
MASK_KINDS = ["synth-cnn-un", "lenet5-cifar-hy"]


def random_params(spec, dtype, rng):
    """Init params with every tensor, running statistics included, redrawn:
    BN scales spread so that channel pruning picks from every layer."""
    params = init_params(spec, int(rng.integers(1 << 16)), dtype=dtype)
    for key, value in params.items():
        if key[1] == E.ROLE_BN_VAR:
            value[...] = rng.uniform(0.5, 1.5, size=value.shape)
        elif key[1] in (E.ROLE_BN_SCALE, E.ROLE_WEIGHT, E.ROLE_BIAS):
            value[...] = rng.normal(size=value.shape)
        else:
            value[...] = rng.normal(scale=0.3, size=value.shape)
    return params


def client_mask(kind, params, rng):
    if kind == "synth-cnn-un":
        return derive_unstructured_mask(params, float(rng.uniform(30, 80)))
    mask = combine_masks(
        derive_channel_mask(params, float(rng.uniform(20, 45))),
        derive_unstructured_mask(params, float(rng.uniform(30, 80)), fc_coverage(params)),
        params,
    )
    assert any(not keep.all() for keep in mask.channel_keep.values())
    return mask


def make_case(kind, dtype, seed):
    rng = np.random.default_rng(seed)
    params = random_params(builtin_spec(kind.rsplit("-", 1)[0]), dtype, rng)
    return rng, params, client_mask(kind, params, rng)


class TestParamSetLayout:
    def test_every_view_shares_the_one_buffer_learnables_first(self):
        params = init_params(builtin_spec("lenet5-cifar"), 0)
        n = params.layout.n_learnable
        assert params.flat.flags.c_contiguous and params.flat.size == params.layout.size
        for key, view in params.items():
            part = params.flat[:n] if key[1] in E.LEARNABLE_ROLES else params.flat[n:]
            assert np.shares_memory(view, part), key
        params.flat[:] = np.arange(params.flat.size)
        seen = np.concatenate([view.ravel() for _, view in params.items()])
        assert sorted(seen.tolist()) == list(range(params.flat.size))  # views tile the buffer

    def test_copy_shares_nothing(self):
        params = init_params(builtin_spec("synth-cnn"), 0)
        twin = params.copy()
        assert not np.shares_memory(twin.flat, params.flat)
        for key, view in twin.items():
            assert not np.shares_memory(view, params.flat), key
            assert same_bits(view, params[key])
        twin.flat[:] = 7
        assert not (params.flat == 7).any()

    def test_train_forward_updates_running_statistics_in_flat(self):
        spec = builtin_spec("synth-cnn")
        params = init_params(spec, 0)
        n = params.layout.n_learnable
        before = params.flat.copy()
        x = np.random.default_rng(1).normal(size=(6, *spec.input_shape)).astype(np.float32)
        forward(spec, params, x, "train")
        assert same_bits(params.flat[:n], before[:n])
        assert not np.array_equal(params.flat[n:], before[n:])
        for key, view in params.items():
            assert same_bits(params.flat[params.layout.slots[key]], view.ravel()), key

    def test_packing_a_dict_keeps_key_order_and_dtype(self):
        rng = np.random.default_rng(2)
        entries = {
            ("conv1", E.ROLE_WEIGHT): rng.normal(size=(2, 1, 3, 3)),
            ("conv1", E.ROLE_BN_MEAN): rng.normal(size=2),
            ("conv1", E.ROLE_BN_SCALE): rng.normal(size=2),
            ("fc1", E.ROLE_WEIGHT): rng.normal(size=(3, 4)),
        }
        params = ParamSet(entries)
        assert list(params.keys()) == list(entries)
        assert params.flat.dtype == np.float64
        for key, value in entries.items():
            assert params[key].dtype == np.float64 and same_bits(params[key], value)
            assert not np.shares_memory(params[key], value)  # packed by copy
        n = params.layout.n_learnable
        assert n == 18 + 2 + 12
        assert same_bits(params.flat[n:], entries[("conv1", E.ROLE_BN_MEAN)])
        as_bool = ParamSet({k: v > 0 for k, v in entries.items()})
        assert as_bool.flat.dtype == bool and list(as_bool.keys()) == list(entries)


class TestMaskVector:
    @pytest.mark.parametrize("kind", MASK_KINDS)
    def test_every_position_follows_the_keep_rule(self, kind):
        _, params, mask = make_case(kind, np.float32, 3)
        assert mask.layout == params.layout and mask.flat.dtype == bool
        for key, value in params.items():
            expected = reference_keep(mask, key, value.shape)  # full-shaped for every tensor
            assert np.array_equal(mask.flat[params.layout.slots[key]], expected.ravel()), key
        for key, bits in mask.bits.items():
            assert np.shares_memory(bits, mask.flat), key

    def test_incongruent_params_rejected(self):
        _, params, mask = make_case("synth-cnn-un", np.float32, 5)
        other = init_params(builtin_spec("lenet5-cifar"), 0)
        with pytest.raises(MaskCongruenceError):
            retained_scalar_count(other, mask)
        with pytest.raises(MaskCongruenceError):
            apply_mask(other, mask)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", MASK_KINDS)
class TestMatchesPerTensorReference:
    def test_apply_mask(self, kind, dtype):
        _, params, mask = make_case(kind, dtype, 6)
        out, ref = apply_mask(params, mask), reference_apply_mask(params, mask)
        assert list(out.keys()) == list(ref.keys())
        for key in ref.keys():
            assert same_bits(out[key], ref[key]), key

    @pytest.mark.parametrize("masked", [True, False])
    def test_sgd_step(self, kind, dtype, masked):
        """Masked, a NaN or inf gradient at a pruned position too: with no
        re-mask after the step the params still get the reference's bits."""
        rng, params, mask = make_case(kind, dtype, 7)
        params = reference_apply_mask(params, mask)
        flat_params, ref_params = params.copy(), params.copy()
        flat_opt, ref_opt = OptimizerState(0.05, 0.9), OptimizerState(0.05, 0.9)
        pruned = np.flatnonzero(~mask.flat[:params.layout.n_learnable])
        for bad in (1.0, np.nan, np.inf, -np.inf):
            grads = params.zeros_like()
            grads.flat[:] = rng.normal(size=grads.flat.size)
            if masked:
                grads.flat[rng.choice(pruned, size=3, replace=False)] = bad
            with np.errstate(invalid="ignore"):  # inf * 0
                sgd_step(flat_params, grads, flat_opt, mask if masked else None)
                reference_sgd_step(ref_params, grads, ref_opt, mask if masked else None)
        assert np.isnan(flat_params.flat).any() == masked
        assert same_bits(flat_params.flat, ref_params.flat)
        velocity = ParamSet.over(params.layout, np.zeros_like(params.flat))
        velocity.flat[:params.layout.n_learnable] = flat_opt.velocity
        for key, ref_v in ref_opt.velocity.items():
            assert same_bits(velocity[key], ref_v), key

    @pytest.mark.parametrize("mode", ["per-position", "strict-intersection", "fedavg"])
    def test_fold_mean(self, kind, dtype, mode):
        rng, prev, _ = make_case(kind, dtype, 8)
        results = []
        for cid in (3, 0, 2, 1):  # folded in ascending client id either way
            params = prev.copy()
            params.flat[:] = rng.normal(size=params.flat.size)
            mask = client_mask(kind, params, rng)
            results.append(ClientUpdateResult(
                client_id=cid, params=reference_apply_mask(params, mask), mask=mask,
                validation_accuracy=0.0, local_accuracy=0.0,
                delta_unstructured=0.0, delta_structured=0.0,
                pruned_unstructured=False, pruned_structured=False,
                uplink_bits=0, downlink_bits=0, conv_flops=0,
            ))
        if mode == "fedavg":
            out = aggregate_fedavg(results)
            ref = reference_fold_mean(results, results[0].params, None, strict=False)
        else:
            out = aggregate_sub_fedavg(results, prev, mode=mode)
            ref = reference_fold_mean(results, prev, prev, strict=(mode == "strict-intersection"))
        assert out.flat.dtype == dtype
        for key in ref.keys():
            assert same_bits(out[key], ref[key]), key
