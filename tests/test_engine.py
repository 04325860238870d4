import math

import numpy as np
import pytest

from subfed import engine as E
from subfed.engine import (
    Conv, Dense, Flatten, MaxPool, ModelSpec, OptimizerState, Relu,
    LabelError, ShapeError, SpecError,
    backward, builtin_spec, conv_channel_count, evaluate_accuracy, forward,
    init_params, sgd_step, walk_shapes,
)
from subfed.pruning import dense_mask, full_coverage

from helpers import (
    reference_conv_backward, reference_conv_forward, reference_pool_backward,
    reference_pool_forward, same_bits, tiny_dense_spec, use_reference_kernels,
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
        assert params.learnable_count() == 30900
        assert conv_channel_count(spec) == 30

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
        assert params.learnable_count() == 62050
        sans_bn = sum(v.size for k, v in params.items() if k[1] in ("weight", "bias"))
        assert sans_bn == 62006
        assert round(sans_bn, -3) == 62000
        assert conv_channel_count(spec) == 22

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
        spec = ModelSpec("one", (1, 1, 1), (Conv(1, 1, 1), Flatten()))
        params = init_params(spec, 0)
        params[("conv1", "weight")][...] = 2.5
        params[("conv1", "bias")][...] = 0.0
        x = np.array([[[[3.0]]]], dtype=np.float32)
        logits, _ = forward(spec, params, x, "eval")
        assert logits.shape == (1, 1)
        assert logits[0, 0] == pytest.approx(2.5 * 3.0)

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

    def test_evaluate_accuracy_batching_invariant(self):
        spec = tiny_dense_spec(6, 3)
        params = init_params(spec, 2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(37, 1, 1, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=37)
        assert evaluate_accuracy(spec, params, x, y, batch_size=8) == evaluate_accuracy(
            spec, params, x, y, batch_size=64
        )


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
            Conv(2, 3, 3, batch_norm=True), MaxPool(2), Relu(), Flatten(), Dense(12, 4))),
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
