import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from subfed import engine as E
from subfed.engine import (
    Conv, Dense, Flatten, MaxPool, ModelSpec, OptimizerState, ParamSet, Relu,
    LabelError, ShapeError, SpecError,
    backward, builtin_spec, evaluate_accuracy, forward,
    init_params, sgd_step, walk_shapes,
)
from subfed.pruning import dense_mask, full_coverage

from helpers import (
    random_small_spec, reference_bn_backward, reference_bn_forward, reference_col2im,
    reference_conv_backward, reference_conv_forward, reference_eval_forward,
    reference_pool_backward, reference_pool_forward, same_bits, tiny_dense_spec,
    use_reference_kernels,
)


def zeroed(params):
    out = params.copy()
    for key, arr in out.learnable_items():
        if key[1] in ("weight", "bias"):
            arr[...] = 0.0
    return out


class TestParamCounts:
    def test_cnn5_counts_match_published_architecture(self):
        spec = builtin_spec("cnn5-mnist")
        params = init_params(spec, seed=7)
        assert params.layout.n_learnable == 30900

    def test_cnn5_layer_structure(self):
        spec = builtin_spec("cnn5-mnist")
        convs = [d for d in spec.layers if isinstance(d, Conv)]
        denses = [d for d in spec.layers if isinstance(d, Dense)]
        assert [c.out_channels for c in convs] == [10, 20]
        assert [d.out_features for d in denses] == [50, 10]

    def test_lenet5_counts(self):
        spec = builtin_spec("lenet5-cifar")
        params = init_params(spec, seed=0)
        # published figure rounds the 62006 weight+bias count to 62k; BN adds 44
        assert params.layout.n_learnable == 62050
        sans_bn = sum(v.size for k, v in params.items() if k[1] in ("weight", "bias"))
        assert sans_bn == 62006
        assert round(sans_bn, -3) == 62000
        assert sum(d.out_channels for d in spec.layers if isinstance(d, Conv)) == 22

    def test_unknown_spec(self):
        with pytest.raises(SpecError, match="unknown model spec"):
            builtin_spec("resnet-152")


class TestSpecValidation:
    def test_non_composing_dense_names_layer(self):
        spec = ModelSpec("bad", (1, 4, 4), (Flatten(), Dense(15, 3)))
        with pytest.raises(SpecError, match="fc1"):
            walk_shapes(spec)

    def test_non_composing_conv_channels(self):
        spec = ModelSpec("bad", (3, 8, 8), (Conv(1, 4, 3),))
        with pytest.raises(SpecError, match="conv1"):
            init_params(spec, 0)

    def test_pool_must_tile(self):
        spec = ModelSpec("bad", (1, 5, 5), (MaxPool(2),))
        with pytest.raises(SpecError, match="pool1"):
            walk_shapes(spec)

    def test_layers_named_by_kind(self):
        names = [name for name, *_ in walk_shapes(builtin_spec("lenet5-cifar"))]
        assert names == [
            "conv1", "pool1", "relu1", "conv2", "pool2", "relu2",
            "flatten", "fc1", "relu3", "fc2", "relu4", "fc3",
        ]

    def test_unknown_descriptor(self):
        spec = ModelSpec("bad", (1, 4, 4), (Flatten(), "dense"))
        with pytest.raises(SpecError, match="unknown layer descriptor 'dense'"):
            walk_shapes(spec)


class TestInit:
    def test_deterministic_bitwise(self):
        spec = builtin_spec("cnn5-mnist")
        a = init_params(spec, seed=7)
        b = init_params(spec, seed=7)
        assert all(np.array_equal(a[k], b[k]) for k in a.keys())

    def test_seed_changes_weights(self):
        spec = builtin_spec("synth-cnn")
        a = init_params(spec, seed=1)
        b = init_params(spec, seed=2)
        assert not np.array_equal(a[("conv1", "weight")], b[("conv1", "weight")])

    def test_bn_identity_init(self):
        params = init_params(builtin_spec("synth-cnn"), seed=3)
        assert np.all(params[("conv1", "bn_scale")] == 1.0)
        assert np.all(params[("conv1", "bn_shift")] == 0.0)
        assert np.all(params[("conv1", "bn_running_mean")] == 0.0)
        assert np.all(params[("conv1", "bn_running_var")] == 1.0)


class TestForward:
    def test_zero_params_give_zero_logits(self):
        spec = builtin_spec("synth-cnn")
        params = zeroed(init_params(spec, 0))
        x = np.random.default_rng(0).normal(size=(4, *spec.input_shape)).astype(np.float32)
        for mode in ("train", "eval"):
            logits, _ = forward(spec, params, x, mode)
            assert np.all(logits == 0.0)

    def test_eval_mode_is_pure(self):
        spec = builtin_spec("synth-cnn")
        params = init_params(spec, 5)
        x = np.random.default_rng(1).normal(size=(3, *spec.input_shape)).astype(np.float32)
        a, _ = forward(spec, params, x, "eval")
        b, _ = forward(spec, params, x, "eval")
        assert np.array_equal(a, b)
        assert np.all(params[("conv1", "bn_running_mean")] == 0.0)  # untouched

    def test_train_mode_updates_running_stats(self):
        spec = builtin_spec("synth-cnn")
        params = init_params(spec, 5)
        x = np.random.default_rng(1).normal(size=(8, *spec.input_shape)).astype(np.float32)
        forward(spec, params, x, "train")
        assert not np.all(params[("conv1", "bn_running_mean")] == 0.0)

    def test_single_conv_hand_computation(self):
        # the conv's own output, before its batch norm
        w = np.full((1, 1, 1, 1), 2.5, dtype=np.float32)
        b = np.full(1, 0.5, dtype=np.float32)
        x = np.array([[[[3.0]]]], dtype=np.float32)
        y, _ = E._conv_forward(x, w, b)
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == pytest.approx(2.5 * 3.0 + 0.5)

    def test_batch_shape_mismatch(self):
        spec = builtin_spec("synth-cnn")
        params = init_params(spec, 0)
        with pytest.raises(ShapeError, match="input"):
            forward(spec, params, np.zeros((2, 1, 19, 19), np.float32), "eval")

    def test_bad_mode(self):
        spec = tiny_dense_spec()
        with pytest.raises(ValueError, match="mode"):
            forward(spec, init_params(spec, 0), np.zeros((1, 1, 1, 8), np.float32), "test")


class TestBackward:
    def test_uniform_logits_loss_is_log_classes(self):
        spec = builtin_spec("synth-cnn")
        params = zeroed(init_params(spec, 0))
        x = np.random.default_rng(2).normal(size=(6, *spec.input_shape)).astype(np.float32)
        y = np.arange(6) % 10
        _, cache = forward(spec, params, x, "train")
        loss, _ = backward(cache, y)
        assert loss == pytest.approx(math.log(10), rel=1e-6)

    def test_duplicating_batch_preserves_loss_and_grads(self):
        spec = tiny_dense_spec(6, 4)
        params = init_params(spec, 3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 1, 1, 6)).astype(np.float32)
        y = np.array([0, 1, 2, 3, 0])
        _, cache = forward(spec, params, x, "train")
        loss1, g1 = backward(cache, y)
        _, cache = forward(spec, params, np.concatenate([x, x]), "train")
        loss2, g2 = backward(cache, np.concatenate([y, y]))
        assert loss2 == pytest.approx(loss1, rel=1e-5)
        for key, arr in g1.learnable_items():
            np.testing.assert_allclose(g2[key], arr, rtol=1e-4, atol=1e-7)

    def test_label_out_of_range(self):
        spec = tiny_dense_spec(4, 3)
        params = init_params(spec, 0)
        _, cache = forward(spec, params, np.zeros((2, 1, 1, 4), np.float32), "train")
        with pytest.raises(LabelError, match=r"\[0, 3\)"):
            backward(cache, np.array([0, 3]))

    def test_eval_forward_records_nothing(self):
        spec = builtin_spec("synth-cnn")
        params = init_params(spec, 0)
        x = np.random.default_rng(4).normal(size=(2, *spec.input_shape)).astype(np.float32)
        logits, cache = forward(spec, params, x, "eval")
        assert cache.mode == "eval" and cache.records == []
        assert same_bits(cache.logits, logits)

    def test_eval_cache_rejected(self):
        spec = tiny_dense_spec(4, 3)
        params = init_params(spec, 0)
        _, cache = forward(spec, params, np.zeros((1, 1, 1, 4), np.float32), "eval")
        with pytest.raises(ValueError, match="train-mode"):
            backward(cache, np.array([0]))


class TestSgd:
    def scalar_setup(self, theta=1.0):
        spec = tiny_dense_spec(1, 1)
        params = init_params(spec, 0)
        params[("fc1", "weight")][...] = theta
        return spec, params

    def test_zero_momentum_is_plain_sgd(self):
        _, params = self.scalar_setup(1.0)
        grads = params.copy()
        grads[("fc1", "weight")][...] = 2.0
        grads[("fc1", "bias")][...] = 0.0
        sgd_step(params, grads, OptimizerState(0.1, 0.0))
        assert params[("fc1", "weight")][0, 0] == pytest.approx(1.0 - 0.1 * 2.0)

    def test_two_step_momentum_recurrence(self):
        # v1=1, theta=0.99; v2=1.5, theta=0.99-0.015=0.975
        _, params = self.scalar_setup(1.0)
        grads = params.copy()
        grads[("fc1", "weight")][...] = 1.0
        grads[("fc1", "bias")][...] = 0.0
        opt = OptimizerState(0.01, 0.5)
        sgd_step(params, grads, opt)
        sgd_step(params, grads, opt)
        assert params[("fc1", "weight")][0, 0] == pytest.approx(0.975)

    def test_masked_position_stays_exactly_zero(self):
        spec = tiny_dense_spec(4, 2)
        params = init_params(spec, 1)
        mask = dense_mask(params)
        mask.bits[("fc1", "weight")][0, 0] = False
        params[("fc1", "weight")][0, 0] = 0.0
        grads = params.zeros_like()
        grads[("fc1", "weight")][...] = 5.0
        opt = OptimizerState(0.1, 0.9)
        for _ in range(3):
            sgd_step(params, grads, opt, mask)
            assert params[("fc1", "weight")][0, 0] == 0.0
        assert params[("fc1", "weight")][0, 1] != 0.0


class TestDeterminism:
    def test_training_trajectory_bitwise(self):
        spec = builtin_spec("synth-cnn")
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, *spec.input_shape)).astype(np.float32)
        y = (np.arange(20) % 10).astype(np.int64)

        def run():
            params = init_params(spec, 4)
            opt = OptimizerState(0.05, 0.5)
            for start in range(0, 20, 5):
                _, cache = forward(spec, params, x[start:start + 5], "train")
                _, grads = backward(cache, y[start:start + 5])
                sgd_step(params, grads, opt)
            return params

        a, b = run(), run()
        assert all(np.array_equal(a[k], b[k]) for k in a.keys())

    def test_evaluate_accuracy_batching_invariant(self, monkeypatch):
        spec = tiny_dense_spec(6, 3)
        params = init_params(spec, 2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(37, 1, 1, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=37)
        scores = []
        for batch in (8, 64):
            monkeypatch.setattr(E, "EVAL_BATCH", batch)
            scores.append(evaluate_accuracy(spec, params, x, y))
        assert scores[0] == scores[1]


def _check_conv(rng, x, o, k):
    """Forward and both backward forms of one conv match the reference bit for bit."""
    wt = rng.normal(size=(o, x.shape[1], k, k)).astype(x.dtype)
    b = rng.normal(size=o).astype(x.dtype)
    y, cols = E._conv_forward(x, wt, b)
    ref_y, ref_cols = reference_conv_forward(x, wt, b)
    assert same_bits(y, ref_y) and same_bits(cols, ref_cols)
    dy = rng.normal(size=y.shape).astype(x.dtype)
    got = E._conv_backward(dy, cols, wt, x.shape)
    ref = reference_conv_backward(dy, ref_cols, wt, x.shape)
    for name, a, r in zip(("dx", "dw", "db"), got, ref):
        assert same_bits(a, r), (name, x.shape, o, k)
    dx, dw, db = E._conv_backward(dy, cols, wt, x.shape, input_grad=False)
    assert dx is None and same_bits(dw, ref[1]) and same_bits(db, ref[2])


def _check_pool(x, window):
    y, idx = E._pool_forward(x, window)
    ref_y, ref_idx = reference_pool_forward(x, window)
    assert same_bits(y, ref_y)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(E._pool_max(x, window), ref_y, equal_nan=True)  # eval: values only
    dy = np.random.default_rng(x.size).normal(size=y.shape).astype(x.dtype)
    assert same_bits(E._pool_backward(dy, idx, window, x.shape),
                     reference_pool_backward(dy, ref_idx, window, x.shape))


class TestKernelsMatchReference:
    """The engine's kernels give the reference kernels' results bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_conv(self, k, dtype):
        rng = np.random.default_rng(k)
        for n in (1, 3, 10):
            for c in (1, 3, 8):
                h, w = (int(v) for v in rng.integers(k, k + 5, size=2))
                x = rng.normal(size=(n, c, h, w)).astype(dtype)
                _check_conv(rng, x, int(rng.integers(1, 7)), k)

    def test_conv_builtin_shapes(self):
        rng = np.random.default_rng(11)
        for model in ("synth-cnn", "lenet5-cifar", "cnn5-mnist"):
            for _name, desc, in_shape, _out in walk_shapes(builtin_spec(model)):
                if isinstance(desc, Conv):
                    x = rng.normal(size=(10, *in_shape)).astype(np.float32)
                    _check_conv(rng, x, desc.out_channels, desc.kernel)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, 0 * inf
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_conv_backward_small_outputs(self, k, dtype):
        """Every output with fewer positions than taps (oh*ow < k*k), as on
        synth-cnn's conv2: dx, dw and db keep the reference's bits, with signed
        zeros and infinities in `dy` and `w`. Where infinities make NaNs of
        both signs meet in one sum, only the NaN's place is compared (see
        `test_col2im_special_values`)."""
        rng = np.random.default_rng([k, np.dtype(dtype).itemsize])
        special = np.array([0.0, -0.0, np.inf, -np.inf], dtype)

        def sprinkle(a):
            kind = rng.integers(0, 3)  # plain, signed zeros, or infinities too
            where = rng.random(a.shape) < (0.3 if kind == 1 else 0.02 * (kind == 2))
            a[where] = rng.choice(special[:2] if kind == 1 else special, size=int(where.sum()))
            return a

        outputs = [(oh, ow) for oh in range(1, k * k) for ow in range(1, k * k) if oh * ow < k * k]
        for oh, ow in outputs:
            for n in (1, 3, 5, 10):
                for c in (1, 3, 8):
                    x_shape = (n, c, oh + k - 1, ow + k - 1)
                    cols = rng.normal(size=(n * oh * ow, c * k * k)).astype(dtype)
                    weights = sprinkle(rng.normal(size=(16, c, k, k)).astype(dtype))
                    grads = sprinkle(rng.normal(size=(n, 16, oh, ow)).astype(dtype))
                    for o in range(1, 17):
                        wt, dy = weights[:o], np.ascontiguousarray(grads[:, :o])
                        got = E._conv_backward(dy, cols, wt, x_shape)
                        ref = reference_conv_backward(dy, cols, wt, x_shape)
                        for name, a, r in zip(("dx", "dw", "db"), got, ref):
                            nan = np.isnan(r)
                            assert np.array_equal(np.isnan(a), nan), (name, x_shape, o)
                            assert same_bits(a[~nan], r[~nan]), (name, x_shape, o)

    def test_conv_backward_synth_cnn_conv2(self):
        """synth-cnn's conv2 (8x8 input, k = 5, 4x4 output) at batch 10, whose
        output has fewer positions than taps; 200 trials keep the reference's
        bits."""
        conv2 = [d for d in builtin_spec("synth-cnn").layers if isinstance(d, Conv)][1]
        rng = np.random.default_rng(200)
        x_shape = (10, conv2.in_channels, 8, 8)
        for _ in range(200):
            x = rng.normal(size=x_shape).astype(np.float32)
            _check_conv(rng, x, conv2.out_channels, conv2.kernel)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, oh, ow", [
        (5, 4, 4), (5, 1, 24), (5, 5, 5), (5, 1, 25), (5, 6, 6), (5, 10, 10),
        (3, 2, 4), (3, 3, 3), (3, 4, 3), (2, 1, 3), (1, 1, 1), (1, 2, 3),
    ])
    def test_col2im_special_values(self, k, oh, ow, dtype):
        """The scatter, on either side of oh*ow = k*k, gives the reference's
        bits for signed zeros and infinities, and +0 for an all -0 input.
        NaN lands in the same places. Where two NaNs of different sign meet
        in one sum, the reference's `+=` keeps the first operand's NaN in
        its vector body and the second's in its scalar tail, while
        `np.add.at` keeps the first's, so there only the NaN's place is
        compared; with one NaN kind and no opposite infinities every bit is."""
        rng = np.random.default_rng([k, oh, ow])
        shape = (3, oh, ow, 2, k, k)
        x_shape = (3, 2, oh + k - 1, ow + k - 1)

        finite = rng.normal(size=shape).astype(dtype)
        for special in ([0.0, -0.0, np.nan, np.inf, -np.inf, -np.nan], [0.0, -0.0, np.nan, np.inf]):
            dcols = finite.copy()
            where = rng.random(shape) < 0.4
            dcols[where] = rng.choice(np.array(special, dtype), size=int(where.sum()))
            with np.errstate(invalid="ignore"):  # inf + -inf
                got, ref = E._col2im(dcols, x_shape, k), reference_col2im(dcols, x_shape)
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(got), nan) and same_bits(got[~nan], ref[~nan])
        assert same_bits(got, ref)  # one NaN kind, no -inf
        zeros = np.full(shape, -0.0, dtype)
        assert same_bits(E._col2im(zeros, x_shape, k), np.zeros(x_shape, dtype))

    @pytest.mark.parametrize("window, index_dtype", [
        (1, np.uint8), (2, np.uint8), (3, np.uint8), (16, np.uint8), (17, np.uint16),
    ])
    def test_pool_index_is_the_smallest_unsigned_type(self, window, index_dtype):
        rng = np.random.default_rng(window)
        x = rng.normal(size=(2, 3, 2 * window, 2 * window)).astype(np.float32)
        x[0, 0, window - 1, window - 1] = 100.0  # the last tap wins one window
        _check_pool(x, window)
        _, idx = E._pool_forward(x, window)
        assert idx.dtype == index_dtype and idx.max() == window * window - 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [2, 3])
    def test_pool_random(self, window, dtype):
        rng = np.random.default_rng(window)
        for n in (1, 3, 10):
            for c in (1, 3, 8):
                oh, ow = (int(v) for v in rng.integers(1, 6, size=2))
                _check_pool(rng.normal(size=(n, c, oh * window, ow * window)).astype(dtype), window)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [2, 3])
    def test_pool_tied_maxima_keep_argmax_index(self, window, dtype):
        rng = np.random.default_rng(7)
        x = rng.integers(-1, 2, size=(10, 3, 4 * window, 5 * window)).astype(dtype)
        _check_pool(x, window)
        assert (reference_pool_forward(x, window)[1] > 0).any()  # ties off the first tap

    @pytest.mark.parametrize("window", [2, 3])
    def test_pool_signed_zeros(self, window):
        rng = np.random.default_rng(8)
        x = rng.choice(np.array([-0.0, 0.0, -1.0], np.float32), size=(3, 2, 4 * window, 4 * window))
        _check_pool(x, window)
        y, _ = E._pool_forward(x, window)
        assert np.signbit(y[y == 0]).any() and not np.signbit(y[y == 0]).all()

    @pytest.mark.parametrize("window", [2, 3])
    def test_pool_nan_propagates(self, window):
        # window t holds one NaN at tap t; the last window holds two
        taps = window * window
        x = np.random.default_rng(9).normal(size=(1, 1, window, window * (taps + 1)))
        x = x.astype(np.float32)
        for t in range(taps):
            x[0, 0, t // window, t * window + t % window] = np.nan
        x[0, 0, window - 1, taps * window + 1] = np.nan
        x[0, 0, 0, taps * window + window - 1] = np.nan
        y, _ = E._pool_forward(x, window)
        assert np.isnan(y).all()
        _check_pool(x, window)


    # two quiet NaNs per width, of different signs and payloads
    NAN_BITS = {4: (0x7FC00001, 0xFFC00002), 8: (0x7FF8000000000001, 0xFFF8000000000002)}

    def _nans(self, dtype):
        size = np.dtype(dtype).itemsize
        return np.array(self.NAN_BITS[size], f"u{size}").view(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [2, 3])
    def test_pool_first_nan_payload_wins(self, window, dtype):
        """Of two NaNs with different payloads in one window, the first in
        row-major window order is the maximum, bit for bit."""
        nans = self._nans(dtype)
        rng = np.random.default_rng([window, np.dtype(dtype).itemsize])
        x = rng.normal(size=(2, 3, 2 * window, 2 * window)).astype(dtype)
        first, later = 1, window * window - 1  # taps of window (0, 0, 0, 0)
        for nan, t in ((nans[0], first), (nans[1], later)):
            x[0, 0, t // window, t % window] = nan
        # the other order in window (1, 2, 1, 1)
        x[1, 2, window, window] = nans[1]
        x[1, 2, 2 * window - 1, 2 * window - 1] = nans[0]
        _check_pool(x, window)
        y, idx = E._pool_forward(x, window)
        assert same_bits(y[0, 0, 0, 0], nans[0]) and idx[0, 0, 0, 0] == first
        assert same_bits(y[1, 2, 1, 1], nans[1]) and idx[1, 2, 1, 1] == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [2, 3])
    def test_pool_backward_routes_gradient_bits(self, window, dtype):
        """A -0 gradient and a NaN-payload gradient reach their windows'
        winners bit for bit; every other input entry gets +0."""
        rng = np.random.default_rng([window, np.dtype(dtype).itemsize, 1])
        x = rng.normal(size=(2, 3, 3 * window, 2 * window)).astype(dtype)
        y, idx = E._pool_forward(x, window)
        dy = rng.normal(size=y.shape).astype(dtype)
        dy[0, 1, 2, 0], dy[1, 0, 0, 1] = -0.0, self._nans(dtype)[1]
        dx = E._pool_backward(dy, idx, window, x.shape)
        assert same_bits(dx, reference_pool_backward(dy, idx, window, x.shape))
        winners = np.zeros(x.shape, bool)
        for pos in np.ndindex(*y.shape):
            a, b = divmod(int(idx[pos]), window)
            n, c, i, j = pos
            winner = (n, c, i * window + a, j * window + b)
            winners[winner] = True
            assert same_bits(dx[winner], dy[pos])
        assert np.signbit(dx[0, 1, 2 * window:3 * window, :window]).sum() == 1  # the -0
        assert same_bits(dx[~winners], np.zeros(int((~winners).sum()), dtype))


class TestBatchNormMatchesReference:
    """Batch norm forms the batch mean once and gives numpy's mean/var
    formulation bit for bit, running statistics included. Eval works in
    place on its input and keeps no cache, so only its output and the
    parameters are compared."""

    SHAPES = [(1, 3, 1, 1), (1, 1, 1, 1), (2, 4, 1, 1), (10, 6, 28, 28),
              (10, 16, 10, 10), (3, 5, 7, 2), (1, 2, 1, 9)]

    @staticmethod
    def _params(rng, c, dtype):
        return ParamSet({
            ("bn", E.ROLE_BN_SCALE): rng.normal(size=c).astype(dtype),
            ("bn", E.ROLE_BN_SHIFT): rng.normal(size=c).astype(dtype),
            ("bn", E.ROLE_BN_MEAN): rng.normal(size=c).astype(dtype),
            ("bn", E.ROLE_BN_VAR): rng.uniform(0.5, 2.0, size=c).astype(dtype),
        })

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise(self, shape, dtype, mode):
        rng = np.random.default_rng(list(shape))
        x = (rng.normal(size=shape) * 7.0 + 3.0).astype(dtype)
        params = self._params(rng, shape[1], dtype)
        ref_params = params.copy()
        ref_y, ref_cache = reference_bn_forward(x, ref_params, "bn", mode)
        y, cache = E._bn_forward(x.copy(), params, "bn", mode)
        assert same_bits(y, ref_y)
        if mode == "train":
            (xhat, inv, _), (ref_xhat, ref_inv, _) = cache, ref_cache
            assert same_bits(xhat, ref_xhat) and same_bits(inv, ref_inv)
        else:
            assert cache is None
        for key in params.keys():  # the running-statistic updates
            assert same_bits(params[key], ref_params[key]), key

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_backward_bitwise(self, shape, dtype):
        rng = np.random.default_rng([*shape, 1])
        x = (rng.normal(size=shape) * 7.0 + 3.0).astype(dtype)
        _, cache = E._bn_forward(x, self._params(rng, shape[1], dtype), "bn", "train")
        dy = rng.normal(size=shape).astype(dtype)
        inputs = [dy.copy(), *(a.copy() for a in cache)]
        got, ref = E._bn_backward(dy, cache), reference_bn_backward(dy, cache)
        for name, a, r in zip(("dx", "dscale", "dshift"), got, ref):
            assert same_bits(a, r), name
        for before, after in zip(inputs, (dy, *cache)):  # neither dy nor the cache written
            assert same_bits(before, after)

    def test_strided_input(self):
        rng = np.random.default_rng(4)
        x = np.ascontiguousarray(rng.normal(size=(4, 6, 5, 3)).astype(np.float32))
        x = x.transpose(0, 3, 1, 2)  # NCHW view of NHWC memory
        params = self._params(rng, 3, np.float32)
        ref_params = params.copy()
        y, (xhat, _, _) = E._bn_forward(x, params, "bn", "train")
        ref_y, (ref_xhat, _, _) = reference_bn_forward(x, ref_params, "bn", "train")
        assert same_bits(y, ref_y) and same_bits(xhat, ref_xhat)
        for key in params.keys():
            assert same_bits(params[key], ref_params[key]), key


BUILTIN_MODELS = ("cnn5-mnist", "lenet5-cifar", "synth-cnn")

# Specs whose first in-place candidate is the caller's batch (a ReLU on it,
# or on its flattened view), and pools by windows of 3 and 1
EDGE_SPECS = {
    "relu-first": ModelSpec("relu-first", (2, 6, 6), (
        Relu(), Conv(2, 3, 3), MaxPool(2), Relu(), Flatten(), Dense(12, 4))),
    "flatten-relu-dense": ModelSpec("flatten-relu-dense", (1, 3, 3), (
        Flatten(), Relu(), Dense(9, 4))),
    "pool3-first": ModelSpec("pool3-first", (1, 6, 6), (
        MaxPool(3), Relu(), Conv(1, 2, 2), MaxPool(1), Relu(), Flatten(),
        Dense(2, 3))),
    # layer outputs that feed a layer of their own kind, and logits that no
    # dense layer makes
    "conv-conv": ModelSpec("conv-conv", (2, 9, 9), (
        Conv(2, 3, 3), Conv(3, 4, 2), Relu(), MaxPool(2), Relu(), Flatten(),
        Dense(36, 5))),
    "pool-pool": ModelSpec("pool-pool", (1, 12, 12), (
        MaxPool(2), MaxPool(3), Relu(), Conv(1, 3, 2), Relu(), Flatten(),
        Dense(3, 4))),
    "no-dense": ModelSpec("no-dense", (1, 8, 8), (
        Conv(1, 2, 3), MaxPool(2), Relu(), Flatten())),
}


SPECS = {
    **{name: builtin_spec(name) for name in BUILTIN_MODELS},
    **EDGE_SPECS,
    **{f"random-{seed}": random_small_spec(np.random.default_rng(seed)) for seed in range(6)},
}


def _eval_params(spec, dtype, rng):
    """Glorot weights; nonzero biases, BN shifts and running means; running
    variances off 1; BN scales that include zeros and negative values."""
    params = init_params(spec, 0, dtype)
    for (_name, role), arr in params.items():
        if role == E.ROLE_BN_VAR:
            arr[...] = rng.uniform(0.5, 2.0, arr.shape)
        elif role == E.ROLE_BN_SCALE:
            arr[...] = rng.normal(size=arr.shape)
            arr[::3] = 0.0
            arr[1::3] = -np.abs(arr[1::3])
        elif role != E.ROLE_WEIGHT:
            arr[...] = rng.normal(size=arr.shape) * 0.5
    return params


def _special_batch(spec, n, dtype, rng):
    """Normal inputs; each sample is plain, all signed zeros, half signed
    zeros with one +inf and one -inf, or holds one NaN, at random."""
    x = rng.normal(size=(n, *spec.input_shape)).astype(dtype)
    flat = x.reshape(n, -1)
    size = flat.shape[1]
    for row, kind in zip(flat, rng.integers(0, 4, size=n)):
        if kind == 1:
            row[...] = rng.choice(np.array([-0.0, 0.0], dtype), size)
        elif kind == 2:
            zeros = rng.random(size) < 0.5
            row[zeros] = rng.choice(np.array([-0.0, 0.0], dtype), int(zeros.sum()))
            row[rng.choice(size, 2, replace=False)] = [np.inf, -np.inf]
        elif kind == 3:
            row[rng.integers(size)] = np.nan
    return x


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, 0 * inf
class TestEvalForwardMatchesReference:
    """Eval logits equal the plain layer walk's as real numbers, with NaN in
    the same places, so argmax and every accuracy are the same. Only the sign
    of a zero or a NaN payload may differ, where pooling ties at zero."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", SPECS)
    def test_logits(self, name, dtype):
        spec = SPECS[name]
        rng = np.random.default_rng(list(SPECS).index(name))
        params = _eval_params(spec, dtype, rng)
        for n in (1, 3, 10, 100, 300, 7):
            x = _special_batch(spec, n, dtype, rng)
            ref = reference_eval_forward(spec, params, x)
            got, _ = forward(spec, params, x, "eval")
            assert got.dtype == ref.dtype and got.shape == ref.shape
            nan = np.isnan(ref)
            assert np.array_equal(np.isnan(got), nan), (name, n)
            assert np.array_equal(got[~nan], ref[~nan]), (name, n)
            assert np.array_equal(got.argmax(axis=1), ref.argmax(axis=1)), (name, n)
        # the special values reach the logits, and plain samples stay finite
        assert nan.any() and np.isfinite(ref).all(axis=1).any()


def _block_params(spec, dtype, rng):
    """`_eval_params` with every BN scale positive, so the eval conv block
    runs wherever a conv feeds a pool."""
    params = _eval_params(spec, dtype, rng)
    for (_name, role), arr in params.items():
        if role == E.ROLE_BN_SCALE:
            arr[...] = rng.uniform(0.25, 2.0, arr.shape)
    return params


def _pooled_convs(spec):
    """The conv layers followed directly by a pool."""
    layers = walk_shapes(spec)
    return [name for (name, desc, _, _), (_, nxt, _, _) in zip(layers, layers[1:])
            if isinstance(desc, Conv) and isinstance(nxt, MaxPool)]


def _spy_block(monkeypatch):
    """The names of the conv layers whose eval pass pools before the bias
    add and batch norm, call by call."""
    ran, admits = [], E._pools_first

    def spy(params, name, *args):
        admitted = admits(params, name, *args)
        if admitted:
            ran.append(name)
        return admitted

    monkeypatch.setattr(E, "_pools_first", spy)
    return ran


def _assert_same_reals(got, ref, what):
    assert got.dtype == ref.dtype and got.shape == ref.shape, what
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan), what
    assert np.array_equal(got[~nan], ref[~nan]), what


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEvalConvBlock:
    """The eval conv block pools before the bias add and batch norm where the
    params make those monotone maps, and gives the layer walk's logits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", SPECS)
    def test_logits_match_reference(self, name, dtype, monkeypatch):
        spec = SPECS[name]
        rng = np.random.default_rng(100 + list(SPECS).index(name))
        params = _block_params(spec, dtype, rng)
        ran = _spy_block(monkeypatch)
        sizes = (1, 3, 10, 100, 7)
        for n in sizes:
            x = _special_batch(spec, n, dtype, rng)
            ref = reference_eval_forward(spec, params, x)
            got, _ = forward(spec, params, x, "eval")
            _assert_same_reals(got, ref, (name, n))
            assert np.array_equal(got.argmax(axis=1), ref.argmax(axis=1)), (name, n)
        assert ran == _pooled_convs(spec) * len(sizes)

    @pytest.mark.parametrize("model", BUILTIN_MODELS)
    def test_runs_on_every_builtin_model(self, model, monkeypatch):
        spec = builtin_spec(model)
        ran = _spy_block(monkeypatch)
        x = np.random.default_rng(1).normal(size=(5, *spec.input_shape)).astype(np.float32)
        evaluate_accuracy(spec, init_params(spec, 0), x, np.zeros(5, np.int64))
        assert ran == ["conv1", "conv2"]

    @pytest.mark.parametrize("role, value", [
        (E.ROLE_BN_SCALE, 0.0), (E.ROLE_BN_SCALE, -0.5), (E.ROLE_BN_SCALE, np.nan),
        (E.ROLE_BN_SCALE, np.inf), (E.ROLE_BIAS, np.inf), (E.ROLE_BIAS, np.nan),
        (E.ROLE_BN_SHIFT, -np.inf), (E.ROLE_BN_MEAN, np.nan), (E.ROLE_BN_VAR, np.inf),
        (E.ROLE_BN_VAR, -1.0), (E.ROLE_BN_VAR, -E.BN_EPS),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_other_layers_take_the_walk(self, role, value, dtype, monkeypatch):
        """One channel's value in conv1 keeps the block off that layer only;
        conv2 still runs it, and the logits still match the reference."""
        spec = builtin_spec("synth-cnn")
        rng = np.random.default_rng(7)
        params = _block_params(spec, dtype, rng)
        params[("conv1", role)][3] = value
        ran = _spy_block(monkeypatch)
        x = _special_batch(spec, 40, dtype, rng)
        got, _ = forward(spec, params, x, "eval")
        _assert_same_reals(got, reference_eval_forward(spec, params, x), (role, value))
        assert ran == ["conv2"]

    def test_reference_kernels_replace_the_block(self, monkeypatch):
        """The reference stand-in for `_conv_forward` pools where `forward`
        asks it to, and the layer walk's logits come out."""
        spec = builtin_spec("synth-cnn")
        rng = np.random.default_rng(8)
        params = _block_params(spec, np.float32, rng)
        x = _special_batch(spec, 20, np.float32, rng)
        w, b = params[("conv1", E.ROLE_WEIGHT)], params[("conv1", E.ROLE_BIAS)]
        y, _ = reference_conv_forward(x, w, b)
        use_reference_kernels(monkeypatch)
        ran = _spy_block(monkeypatch)
        assert same_bits(E._conv_forward(x, w, b)[0], y)
        assert same_bits(E._conv_forward(x, w, b, pool=2)[0], reference_pool_forward(y, 2)[0])
        got, _ = forward(spec, params, x, "eval")
        _assert_same_reals(got, reference_eval_forward(spec, params, x), spec.name)
        assert ran == ["conv1", "conv2"]


def _spy_conv_calls(monkeypatch):
    """(examples, M·N, column bytes) of every conv GEMM, call by call."""
    calls, gemm = [], E._conv_gemm

    def spy(x, w):
        y, cols = gemm(x, w)
        calls.append((len(x), y.size, cols.nbytes))
        return y, cols

    monkeypatch.setattr(E, "_conv_gemm", spy)
    return calls


def _whole_batch(monkeypatch):
    """Lift the column budget, so eval runs every batch as one part."""
    monkeypatch.setattr(E, "EVAL_COLUMN_BUDGET", 1 << 62)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEvalParts:
    """Eval runs the layers before the first Flatten in near-equal parts of
    the batch: as few as keep each conv's im2col columns within
    EVAL_COLUMN_BUDGET, but none whose conv GEMMs fall below the BLAS path
    bound. Its logits equal the whole-batch walk's bit for bit. A budget of
    0 cuts each batch into parts of the fewest examples the bound allows."""

    @pytest.mark.parametrize("budget", [E.EVAL_COLUMN_BUDGET, 0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", [n for n in SPECS if n not in EDGE_SPECS])
    def test_parts_keep_the_bound_and_the_bits(self, name, dtype, budget, monkeypatch):
        spec = SPECS[name]
        rng = np.random.default_rng(200 + list(SPECS).index(name))
        params = _eval_params(spec, dtype, rng)
        convs = sum(isinstance(desc, Conv) for desc in spec.layers)
        spied = _spy_conv_calls(monkeypatch)
        for n in (50, 256, 300):
            x = _special_batch(spec, n, dtype, rng)
            monkeypatch.setattr(E, "EVAL_COLUMN_BUDGET", budget)
            spied.clear()
            got, _ = forward(spec, params, x, "eval")
            calls = list(spied)
            _whole_batch(monkeypatch)
            ref, _ = forward(spec, params, x, "eval")
            assert same_bits(got, ref), (name, n)
            sizes = [examples for examples, _, _ in calls[::convs]]
            assert sum(sizes) == n and max(sizes) - min(sizes) <= 1, sizes
            if len(sizes) > 1:
                assert min(mn for _, mn, _ in calls) >= TestBlasPathRule.BOUND, (name, n)
                if budget:
                    assert max(nbytes for _, _, nbytes in calls) <= budget, (name, n)

    @pytest.mark.parametrize("model, n, parts", [
        ("synth-cnn", 50, 1), ("synth-cnn", 81, 1), ("synth-cnn", 82, 2), ("synth-cnn", 256, 4),
        ("cnn5-mnist", 50, 3), ("lenet5-cifar", 50, 7), ("lenet5-cifar", 256, 32),
    ])
    def test_part_counts(self, model, n, parts, monkeypatch):
        """Float32 columns of 25.6 KB per example on `synth-cnn`, 100 KB on
        `cnn5-mnist` (conv2) and 235 KB on `lenet5-cifar` (conv1) fit 81,
        20 and 8 examples into the budget."""
        spec = builtin_spec(model)
        calls = _spy_conv_calls(monkeypatch)
        forward(spec, init_params(spec, 0), np.ones((n, *spec.input_shape), np.float32), "eval")
        assert len(calls) == 2 * parts

    @pytest.mark.parametrize("model", ["lenet5-cifar", "synth-cnn"])
    def test_peak_bytes_of_one_label_block(self, model, monkeypatch):
        """One 50-example eval allocates at most 3 MiB at its peak on
        `lenet5-cifar` (15.7 MB as one part), and as much on `synth-cnn`
        as one part does. The first pass fills the offset caches."""
        spec = builtin_spec(model)
        params = init_params(spec, 0)
        x = np.random.default_rng(9).normal(size=(50, *spec.input_shape)).astype(np.float32)

        def peak():
            forward(spec, params, x, "eval")
            tracemalloc.start()
            try:
                forward(spec, params, x, "eval")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        parts = peak()
        _whole_batch(monkeypatch)
        whole = peak()
        if model == "synth-cnn":
            assert parts == whole
        else:
            assert parts <= 3 << 20 < whole


def _strided_copy(x):
    """The values of `x` in a view that skips every other column."""
    wide = np.zeros((*x.shape[:-1], 2 * x.shape[-1]), x.dtype)
    wide[..., ::2] = x
    view = wide[..., ::2]
    assert not view.flags.c_contiguous
    return view


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestWindowMax:
    """One window-max kernel pools NCHW layers (`_pool_max`) and conv GEMM
    outputs in their (n, oh, ow, o) layout (`_conv_forward`'s `pool`); both
    give the reference pooling's values as real numbers, NaN in the same
    places, in a C-order array. The inputs are `_special_batch`es of 12x12
    images, in a C-order array or, `strided`, a view with gaps between its
    columns."""

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_nchw(self, window, dtype, strided):
        x = _special_batch(ModelSpec("nchw", (3, 12, 12), ()), 20, dtype,
                           np.random.default_rng(window))
        x = _strided_copy(x) if strided else x
        ref, _ = reference_pool_forward(x, window)
        assert np.isnan(ref).any() and np.isposinf(ref).any() and (ref == 0).any()
        y = E._pool_max(x, window)
        _assert_same_reals(y, ref, (window, dtype))
        assert y.flags.c_contiguous

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_gemm_layout(self, window, dtype, strided):
        """A 1x1 conv with power-of-two weights puts the specials, scaled
        exactly and of both signs, into every GEMM output channel."""
        rng = np.random.default_rng(10 + window)
        x = _special_batch(ModelSpec("gemm", (1, 12, 12), ()), 20, dtype, rng)
        x = _strided_copy(x) if strided else x
        w = np.array([1.0, -2.0, 0.5], dtype).reshape(3, 1, 1, 1)
        b = rng.normal(size=3).astype(dtype)
        ref, _ = reference_pool_forward(reference_conv_forward(x, w, b)[0], window)
        assert np.isnan(ref).any() and np.isposinf(ref).any()
        y, _ = E._conv_forward(x, w, b, pool=window)
        _assert_same_reals(y, ref, (window, dtype))
        assert y.flags.c_contiguous  # NCHW, as the next layer reads it


def _reference_accuracy(spec, params, x, y):
    correct = 0
    for start in range(0, len(x), 256):
        logits = reference_eval_forward(spec, params, x[start:start + 256])
        correct += int((logits.argmax(axis=1) == y[start:start + 256]).sum())
    return 100.0 * correct / len(x)


def _eval_jobs(sizes, seed):
    """(spec, params, x, y) per size and spec, the specs interleaved within
    each size; half the labels are the reference's argmax, so most
    examples' scores count."""
    rng = np.random.default_rng(seed)
    params = {name: _eval_params(spec, np.float32, rng) for name, spec in SPECS.items()}
    jobs = []
    for n in sizes:
        for name, spec in SPECS.items():
            x = _special_batch(spec, n, np.float32, rng)
            y = rng.integers(0, E.class_count(spec), size=n)
            hit = rng.random(n) < 0.5
            if hit.any():
                y[hit] = reference_eval_forward(spec, params[name], x[hit]).argmax(axis=1)
            jobs.append((spec, params[name], x, y))
    return jobs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEvaluateAccuracy:
    """`evaluate_accuracy` scores what the reference layer walk scores at
    batch 256, from any number of threads."""

    def test_matches_reference(self):
        for spec, params, x, y in _eval_jobs((1, 255, 256, 257, 600), seed=30):
            assert evaluate_accuracy(spec, params, x, y) == _reference_accuracy(
                spec, params, x, y), (spec.name, len(x))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_threads_score_what_the_serial_run_scores(self, threads):
        """More threads than cores, switching often: every score equals the
        serial one."""
        jobs = _eval_jobs((1, 257, 40), seed=31)
        serial = [evaluate_accuracy(*job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(threads) as pool:
                got = list(pool.map(lambda job: evaluate_accuracy(*job), jobs * 3, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == serial * 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestForwardLeavesInputsAlone:
    """Neither mode writes to the caller's batch or the parameters, apart
    from train mode's running-statistic update."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("name", [*BUILTIN_MODELS, *EDGE_SPECS])
    def test_batch_and_params_bitwise(self, name, mode):
        spec = SPECS[name]
        rng = np.random.default_rng(12)
        params = _eval_params(spec, np.float32, rng)
        x = _special_batch(spec, 12, np.float32, rng)
        x_before, params_before = x.copy(), params.copy()
        forward(spec, params, x, mode)
        assert same_bits(x, x_before)
        for key, arr in params.items():
            if mode == "train" and key[1] in E.RUNNING_ROLES:
                continue
            assert same_bits(arr, params_before[key]), key


def _random_mask(params, rng):
    mask = dense_mask(params, full_coverage(params))
    for key, bits in mask.bits.items():
        bits[...] = rng.random(bits.shape) < 0.7
    return mask


def _masked_trajectory(spec, steps=20, batch=10):
    rng = np.random.default_rng(21)
    params = init_params(spec, 3)
    mask = _random_mask(params, rng)
    for key, bits in mask.bits.items():
        params[key][...] *= bits
    opt = OptimizerState(0.05, 0.5)
    x = rng.normal(size=(steps * batch, *spec.input_shape)).astype(np.float32)
    y = rng.integers(0, 10, size=steps * batch)
    for s in range(0, steps * batch, batch):
        _, cache = forward(spec, params, x[s:s + batch], "train")
        _, grads = backward(cache, y[s:s + batch])
        sgd_step(params, grads, opt, mask)
    logits, _ = forward(spec, params, x[:3 * batch], "eval")
    return params, logits


@pytest.mark.parametrize("model", ["synth-cnn", "lenet5-cifar"])
def test_masked_trajectory_matches_reference_kernels(model, monkeypatch):
    spec = builtin_spec(model)
    params, logits = _masked_trajectory(spec)
    use_reference_kernels(monkeypatch)
    ref_params, ref_logits = _masked_trajectory(spec)
    for key in params.keys():
        assert same_bits(params[key], ref_params[key]), key
    assert same_bits(logits, ref_logits)


class TestTruncatedBackward:
    """`backward` stops at the lowest parameter layer and still returns every grad."""

    SPECS = {
        "conv-first": ModelSpec("conv-first", (2, 6, 6), (
            Conv(2, 3, 3), MaxPool(2), Relu(), Flatten(), Dense(12, 4))),
        "pool-before-conv": ModelSpec("pool-before-conv", (1, 8, 8), (
            MaxPool(2), Relu(), Conv(1, 2, 2), Relu(), Flatten(), Dense(18, 3))),
        "flatten-dense": ModelSpec("flatten-dense", (1, 3, 3), (
            Flatten(), Dense(9, 5), Relu(), Dense(5, 3))),
        "stacked-params": ModelSpec("stacked-params", (1, 5, 5), (
            Conv(1, 2, 2), Conv(2, 2, 2), Flatten(), Dense(18, 4), Dense(4, 3))),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_grads_match_reference(self, name, monkeypatch):
        spec = self.SPECS[name]
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, *spec.input_shape)).astype(np.float32)
        y = rng.integers(0, E.class_count(spec), size=4)

        def loss_and_grads():
            params = init_params(spec, 2)
            return backward(forward(spec, params, x, "train")[1], y)

        loss, grads = loss_and_grads()
        use_reference_kernels(monkeypatch)
        ref_loss, ref_grads = loss_and_grads()
        assert loss == ref_loss
        assert list(grads.keys()) == list(init_params(spec, 2).keys())
        for key, g in grads.items():
            assert same_bits(g, ref_grads[key]), key

    def test_spec_without_parameters(self):
        spec = ModelSpec("no-params", (1, 2, 6), (MaxPool(2), Relu(), Flatten()))
        params = init_params(spec, 0)
        x = np.random.default_rng(6).normal(size=(5, 1, 2, 6)).astype(np.float32)
        _, cache = forward(spec, params, x, "train")
        loss, grads = backward(cache, np.arange(5) % 3)
        assert math.isfinite(loss)
        assert list(grads.keys()) == []


def forward_gemm_shapes():
    """(model, layer, K, N) of every forward GEMM `A @ W.T` of the built-in
    models: a conv's im2col columns times its filters, a dense layer's input
    times its weights. 13 shapes."""
    shapes = []
    for name in ("cnn5-mnist", "lenet5-cifar", "synth-cnn"):
        for i, desc in enumerate(builtin_spec(name).layers):
            if isinstance(desc, Conv):
                shapes.append((name, i, desc.in_channels * desc.kernel ** 2, desc.out_channels))
            elif isinstance(desc, Dense):
                shapes.append((name, i, desc.in_features, desc.out_features))
    return shapes


class TestBlasPathRule:
    """Which rows of a forward GEMM keep their bits when the call's row count
    changes. OpenBLAS picks its kernel by M·N, the call's rows times outputs;
    at M·N >= 1280 every row of an M-row call equals the same row of a
    256-row call bit for bit. Below that the rule promises nothing: some
    shapes keep their bits, others lose them in every row. Measured on numpy
    2.4.6 with scipy-openblas 0.3.31, one BLAS thread; a BLAS that rounds
    otherwise fails here rather than as an unexplained change of results."""

    BOUND = 1280

    @pytest.mark.parametrize("model, layer, k, n", forward_gemm_shapes())
    def test_rows_keep_their_bits_at_or_above_the_bound(self, model, layer, k, n):
        rng = np.random.default_rng((layer, k, n))
        a = rng.standard_normal((256, k)).astype(np.float32)
        w = rng.standard_normal((n, k)).astype(np.float32)
        full = a @ w.T
        changed = [m for m in range(math.ceil(self.BOUND / n), 256)
                   if not same_bits(a[:m] @ w.T, full[:m])]
        assert changed == []

    def test_a_head_below_the_bound_changes_bits(self):
        # an N=10 head at K=50 (cnn5-mnist fc2): 100 rows make M·N = 1000
        rng = np.random.default_rng(50)
        a = rng.standard_normal((256, 50)).astype(np.float32)
        w = rng.standard_normal((10, 50)).astype(np.float32)
        assert not same_bits(a[:100] @ w.T, (a @ w.T)[:100])


class TestBlasThreads:
    """`import subfed` runs BLAS on one thread, so results do not depend on
    the host's core count or on the thread variables."""

    PROBE = "\n".join((
        "import hashlib, numpy as np, subfed",
        "from subfed.engine import *",
        "spec, opt = builtin_spec('cnn5-mnist'), OptimizerState(0.01, 0.5)",
        "params, rng = init_params(spec, 1), np.random.default_rng(1)",
        "for _ in range(3):",
        "    x = rng.normal(size=(10, *spec.input_shape)).astype(np.float32)",
        "    cache = forward(spec, params, x, 'train')[1]",
        "    sgd_step(params, backward(cache, rng.integers(0, 10, size=10))[1], opt)",
        "print(hashlib.sha256(params.flat.tobytes()).hexdigest())",
    ))

    def test_train_steps_do_not_depend_on_the_thread_variables(self):
        # cnn5-mnist's conv2 weight gradient changes bits under two OpenBLAS
        # threads at batch 10 unless the library is held at one
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = set()
        for threads in ("1", "2", None):
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            env["PYTHONPATH"] = src
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-c", self.PROBE], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1, digests

    def test_without_a_settable_blas_the_environment_must_pin_one_thread(self, monkeypatch):
        monkeypatch.setattr(E, "openblas_function", lambda stem: None)
        for var in E.BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        E.pin_blas_threads()
        monkeypatch.delenv("OMP_NUM_THREADS")
        with pytest.raises(RuntimeError, match="OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1"):
            E.pin_blas_threads()
