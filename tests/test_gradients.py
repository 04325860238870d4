"""Analytic gradients vs central finite differences on randomized small specs.

Run in float64: the analytic code path is identical to the float32 one, and
h=1e-3 differences sit far above the float64 noise floor.
"""

import sys

import numpy as np
import pytest

from subfed import engine as E
from subfed.engine import ModelSpec, backward, class_count, forward, init_params

from helpers import finite_difference_grads, random_small_spec


def compare_smooth_entries(name: str, grads, fd, smooth) -> set:
    """Assert analytic == central-difference grads (rtol 1e-3, atol 1e-6) at the
    smooth entries; return the learnable keys with at least one entry compared."""
    compared = set()
    for key, analytic in grads.learnable_items():
        where = smooth[key]
        np.testing.assert_allclose(
            analytic[where], fd[key][where], rtol=1e-3, atol=1e-6,
            err_msg=f"{name}: gradient mismatch at smooth entries of {key}",
        )
        if where.any():
            compared.add(key)
    return compared


def check_spec(spec: ModelSpec, seed: int, batch: int = 5, attempts: int = 6):
    """Compare analytic grads to h=1e-3 central differences at rtol 1e-3.

    Only smooth entries are compared: those whose +h and -h steps leave every
    ReLU sign and pool argmax as it was. A step across a kink mixes two slopes
    (at an exact kink the difference gives half the slope where the analytic
    subgradient gives 0), so such an entry says nothing about the engine. A
    mismatch at a smooth entry fails at once, because a real gradient bug is
    wrong there in every draw. Fresh data is drawn only until every learnable
    tensor has had at least one entry compared.
    """
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed, dtype=np.float64)
    # move biases and BN scales off their zero/identity init so their gradients
    # are generic: a zero bias behind an all-zero ReLU field sits exactly on a
    # kink in every data draw
    for key, arr in params.learnable_items():
        if key[1] != "weight":
            arr += rng.normal(0, 0.2, arr.shape)
    uncompared = {key for key, _ in params.learnable_items()}
    for attempt in range(attempts):
        data_rng = np.random.default_rng((seed, attempt))
        x = data_rng.normal(size=(batch, *spec.input_shape))
        y = data_rng.integers(0, class_count(spec), size=batch)
        _, cache = forward(spec, params, x, "train")
        _, grads = backward(cache, y)
        fd, smooth = finite_difference_grads(spec, params, x, y, h=1e-3)
        uncompared -= compare_smooth_entries(spec.name, grads, fd, smooth)
        if not uncompared:
            return
    raise AssertionError(
        f"{spec.name}: no smooth entry of {sorted(uncompared)} in {attempts} data draws"
    )


def test_gradients_on_conv_bn_pool_dense_stack():
    spec = ModelSpec(
        "stack", (2, 6, 6),
        (E.Conv(2, 3, 3), E.MaxPool(2), E.Relu(),
         E.Flatten(), E.Dense(12, 4), E.Relu(), E.Dense(4, 3)),
    )
    check_spec(spec, seed=11)


def test_gradients_on_conv_relu_dense_stack():
    spec = ModelSpec(
        "plain", (1, 6, 6),
        (E.Conv(1, 2, 3), E.Relu(), E.Flatten(), E.Dense(32, 3)),
    )
    check_spec(spec, seed=5)


@pytest.mark.parametrize("seed", range(6))
def test_gradients_on_randomized_specs(seed):
    rng = np.random.default_rng(1000 + seed)
    check_spec(random_small_spec(rng), seed=seed)


def test_exact_relu_kink_is_not_compared():
    # an all-zero input makes every conv output its zero bias, so the batch
    # variance and xhat are 0 and every BN output equals its zero shift: the
    # shift sits exactly on the ReLU kink, where central differences give
    # half the slope and the analytic subgradient gives 0. BN cancels the
    # conv bias, so a step of the bias moves no ReLU sign
    spec = ModelSpec(
        "kink", (1, 3, 3),
        (E.Conv(1, 1, 2), E.Relu(), E.Flatten(), E.Dense(4, 2)),
    )
    params = init_params(spec, 0, dtype=np.float64)
    params[("fc1", "weight")][...] = [[1.0], [-1.0]]
    x = np.zeros((2, 1, 3, 3))
    y = np.array([0, 1])
    _, cache = forward(spec, params, x, "train")
    _, grads = backward(cache, y)
    fd, smooth = finite_difference_grads(spec, params, x, y, h=1e-3)
    shift = ("conv1", "bn_shift")
    assert not smooth[shift].any()
    assert not np.allclose(grads[shift], fd[shift], rtol=1e-3, atol=1e-6)
    compared = compare_smooth_entries(spec.name, grads, fd, smooth)
    assert shift not in compared
    assert {("conv1", "bias"), ("fc1", "weight")} <= compared


def test_scaled_gradient_is_caught(monkeypatch):
    def scaled_backward(cache, labels):
        loss, grads = E.backward(cache, labels)
        grads[("fc1", "weight")][...] *= 1.01
        return loss, grads

    monkeypatch.setattr(sys.modules[__name__], "backward", scaled_backward)
    spec = ModelSpec(
        "stack", (2, 6, 6),
        (E.Conv(2, 3, 3), E.MaxPool(2), E.Relu(),
         E.Flatten(), E.Dense(12, 4), E.Relu(), E.Dense(4, 3)),
    )
    with pytest.raises(AssertionError, match="gradient mismatch"):
        check_spec(spec, seed=11)
