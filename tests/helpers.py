"""Shared test utilities: tiny specs, finite-difference oracle, random masks,
the label-block accuracy, reference kernels, the benchmark's workloads."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from subfed import engine as E
from subfed.engine import ModelSpec, ParamSet

# perfbench/workloads.py, the benchmark's config overrides (perfbench/ is not a package)
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def tiny_dense_spec(in_features: int = 8, classes: int = 3) -> ModelSpec:
    return ModelSpec(
        "tiny-dense", (1, 1, in_features),
        (E.Flatten(), E.Dense(in_features, classes)),
    )


def random_small_spec(rng: np.random.Generator, force_bn: bool | None = None) -> ModelSpec:
    """A random spec exercising conv/BN/pool/relu/flatten/dense with < ~600 params."""
    c_in = int(rng.integers(1, 3))
    side = int(rng.choice([6, 8]))
    layers = []
    c1 = int(rng.integers(2, 4))
    k1 = int(rng.choice([2, 3]))
    bn = bool(rng.integers(0, 2)) if force_bn is None else force_bn
    layers.append(E.Conv(c_in, c1, k1, batch_norm=bn))
    h = side - k1 + 1
    if h % 2 == 0:
        layers.append(E.MaxPool(2))
        h //= 2
    layers.append(E.Relu())
    if h >= 3 and rng.integers(0, 2):
        c2 = int(rng.integers(2, 4))
        layers.append(E.Conv(c1, c2, 2, batch_norm=bool(rng.integers(0, 2))))
        h -= 1
        c1 = c2
        layers.append(E.Relu())
    layers.append(E.Flatten())
    flat = c1 * h * h
    classes = int(rng.integers(2, 5))
    hidden = int(rng.integers(3, 6))
    layers.append(E.Dense(flat, hidden))
    layers.append(E.Relu())
    layers.append(E.Dense(hidden, classes))
    return ModelSpec(f"rand-{rng.integers(1 << 30)}", (c_in, side, side), tuple(layers))


def _kink_state(cache: E.ForwardCache) -> list[np.ndarray]:
    """The ReLU sign patterns and pool argmaxes of one forward pass."""
    state = []
    for _name, desc, rec in cache.records:
        if isinstance(desc, E.Relu):
            state.append(rec)
        elif isinstance(desc, E.MaxPool):
            state.append(rec[1])
    return state


def finite_difference_grads(spec: ModelSpec, params: ParamSet, x: np.ndarray,
                            y: np.ndarray, h: float = 1e-3) -> tuple[ParamSet, ParamSet]:
    """Central differences of the mean cross-entropy loss, entry by entry.

    Also returns a bool `smooth` flag per entry: True when neither the +h nor
    the -h forward pass changed any ReLU sign or pool argmax of the base pass.
    Where a step crosses such a kink the difference quotient mixes two slopes
    (at an exact kink it gives half of one), so it estimates no derivative.
    """
    base = _kink_state(E.forward(spec, params, x, "train")[1])

    def loss_and_smooth() -> tuple[float, bool]:
        _, cache = E.forward(spec, params, x, "train")
        kinks = _kink_state(cache)
        return E.backward(cache, y)[0], all(map(np.array_equal, base, kinks))

    fd_entries, smooth_entries = {}, {}
    for key, arr in params.items():
        if key[1] not in E.LEARNABLE_ROLES:
            fd_entries[key] = np.zeros_like(arr)
            smooth_entries[key] = np.ones(arr.shape, dtype=bool)
            continue
        fd = np.zeros_like(arr)
        smooth = np.ones(arr.shape, dtype=bool)
        flat = arr.ravel()
        fd_flat = fd.ravel()
        smooth_flat = smooth.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, up_smooth = loss_and_smooth()
            flat[i] = orig - h
            down, down_smooth = loss_and_smooth()
            flat[i] = orig
            fd_flat[i] = (up - down) / (2 * h)
            smooth_flat[i] = up_smooth and down_smooth
        fd_entries[key] = fd
        smooth_entries[key] = smooth
    return ParamSet(fd_entries), ParamSet(smooth_entries)


def train_briefly(spec, params, x, y, epochs=8, batch_size=16, lr=0.05, seed=0):
    opt = E.OptimizerState(lr, 0.5)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for s in range(0, len(x), batch_size):
            idx = order[s:s + batch_size]
            _, cache = E.forward(spec, params, x[idx], "train")
            _, grads = E.backward(cache, y[idx])
            E.sgd_step(params, grads, opt)
    return params


def block_score(spec: ModelSpec, params: ParamSet, blocks: dict, batch_size: int = 256
                ) -> float:
    """A client's accuracy by its definition: `100 * sum(correct) / sum(n)`
    over its label blocks, each block scored alone in eval batches of
    `evaluate_accuracy`'s default size."""
    correct = total = 0
    for x, y in blocks.values():
        for s in range(0, len(x), batch_size):
            logits, _ = E.forward(spec, params, x[s:s + batch_size], "eval")
            correct += int((logits.argmax(axis=1) == y[s:s + batch_size]).sum())
        total += len(y)
    return 100.0 * correct / total


# ---------------------------------------------------------------------------
# Reference kernels: the plain im2col / argmax formulations the engine's
# kernels must match bit for bit
# ---------------------------------------------------------------------------


def reference_conv_forward(x, w, b):
    n, c, h, width = x.shape
    o, _, k, _ = w.shape
    oh, ow = h - k + 1, width - k + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * oh * ow, c * k * k)
    y = cols @ w.reshape(o, -1).T + b
    return np.ascontiguousarray(y.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)), cols


def reference_conv_backward(dy, cols, w, x_shape):
    n, c, h, width = x_shape
    o, _, k, _ = w.shape
    oh, ow = h - k + 1, width - k + 1
    dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * oh * ow, o)
    dw = (dy_mat.T @ cols).reshape(o, c, k, k)
    db = dy_mat.sum(axis=0)
    dcols = (dy_mat @ w.reshape(o, -1)).reshape(n, oh, ow, c, k, k)
    return reference_col2im(dcols, x_shape), dw, db


def reference_col2im(dcols, x_shape):
    """The (n, oh, ow, c, k, k) column gradients summed tap by tap."""
    n, oh, ow, c, k, _ = dcols.shape
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, :, i:i + oh, j:j + ow] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dx


def reference_pool_forward(x, window):
    n, c, h, w = x.shape
    oh, ow = h // window, w // window
    xr = x.reshape(n, c, oh, window, ow, window)
    flat = np.ascontiguousarray(xr.transpose(0, 1, 2, 4, 3, 5)).reshape(n, c, oh, ow, -1)
    idx = flat.argmax(axis=-1)  # first max wins: deterministic tie-break
    y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return y, idx


def reference_pool_backward(dy, idx, window, x_shape):
    n, c, h, w = x_shape
    oh, ow = h // window, w // window
    dflat = np.zeros((n, c, oh, ow, window * window), dtype=dy.dtype)
    np.put_along_axis(dflat, idx[..., None], dy[..., None], axis=-1)
    dxr = dflat.reshape(n, c, oh, ow, window, window).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(dxr).reshape(x_shape)


def reference_bn_forward(x, params, name, mode):
    scale = params[(name, E.ROLE_BN_SCALE)]
    shift = params[(name, E.ROLE_BN_SHIFT)]
    if mode == "train":
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        inv = 1.0 / np.sqrt(var + x.dtype.type(E.BN_EPS))
        xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
        n = x.shape[0] * x.shape[2] * x.shape[3]
        unbiased = var * (n / (n - 1)) if n > 1 else var
        m = x.dtype.type(E.BN_MOMENTUM)
        params[(name, E.ROLE_BN_MEAN)][...] = (1 - m) * params[(name, E.ROLE_BN_MEAN)] + m * mean
        params[(name, E.ROLE_BN_VAR)][...] = (1 - m) * params[(name, E.ROLE_BN_VAR)] + m * unbiased
    else:
        mean = params[(name, E.ROLE_BN_MEAN)]
        inv = 1.0 / np.sqrt(params[(name, E.ROLE_BN_VAR)] + x.dtype.type(E.BN_EPS))
        xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
    y = xhat * scale[None, :, None, None] + shift[None, :, None, None]
    return y, (xhat, inv, scale)


def reference_bn_backward(dy, cache):
    xhat, inv, scale = cache
    axes = (0, 2, 3)
    dscale = (dy * xhat).sum(axis=axes)
    dshift = dy.sum(axis=axes)
    dxhat = dy * scale[None, :, None, None]
    n = dy.shape[0] * dy.shape[2] * dy.shape[3]
    term = (
        n * dxhat
        - dxhat.sum(axis=axes)[None, :, None, None]
        - xhat * (dxhat * xhat).sum(axis=axes)[None, :, None, None]
    )
    dx = term * (inv[None, :, None, None] / n)
    return dx, dscale, dshift


def reference_eval_forward(spec: ModelSpec, params: ParamSet, batch: np.ndarray) -> np.ndarray:
    """Eval-mode logits from the plain layer walk over the reference kernels:
    every layer allocates its output, batch norm forms xhat, and max pooling
    builds its argmax index. `forward`'s eval mode must give the same logits
    as real numbers, with NaN in the same places.
    """
    x = batch
    for name, desc, _in, _out in E.walk_shapes(spec):
        if isinstance(desc, E.Conv):
            y, _ = reference_conv_forward(x, params[(name, E.ROLE_WEIGHT)],
                                          params[(name, E.ROLE_BIAS)])
            if desc.batch_norm:
                y, _ = reference_bn_forward(y, params, name, "eval")
            x = y
        elif isinstance(desc, E.MaxPool):
            x, _ = reference_pool_forward(x, desc.window)
        elif isinstance(desc, E.Relu):
            x = x * (x > 0)
        elif isinstance(desc, E.Flatten):
            x = x.reshape(x.shape[0], -1)
        elif isinstance(desc, E.Dense):
            x = x @ params[(name, E.ROLE_WEIGHT)].T + params[(name, E.ROLE_BIAS)]
    return x


def use_reference_kernels(monkeypatch) -> None:
    """Swap the reference kernels into the engine for the rest of a test.

    The reference conv backward always forms the input gradient; `backward`
    drops it at the lowest parameter layer. The reference forward kernels
    ignore a workspace and allocate. Given a `pool` window, the conv runs
    with its bias, then the reference max pooling.
    """
    def conv_forward(x, w, b, ws=None, out=None, pool=0):
        y, cols = reference_conv_forward(x, w, b)
        return (reference_pool_forward(y, pool)[0] if pool else y), cols

    monkeypatch.setattr(E, "_conv_forward", conv_forward)
    monkeypatch.setattr(
        E, "_conv_backward",
        lambda dy, cols, w, x_shape, input_grad=True: reference_conv_backward(dy, cols, w, x_shape),
    )
    monkeypatch.setattr(E, "_pool_forward", reference_pool_forward)
    monkeypatch.setattr(E, "_pool_max",
                        lambda x, window, ws=None, out=None: reference_pool_forward(x, window)[0])
    monkeypatch.setattr(E, "_pool_backward", reference_pool_backward)
    monkeypatch.setattr(E, "_bn_forward", reference_bn_forward)
    monkeypatch.setattr(E, "_bn_backward", reference_bn_backward)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: tells -0.0 from 0.0 and matches NaN payloads."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


# ---------------------------------------------------------------------------
# Reference per-tensor masking, SGD and aggregation: the dict-of-tensors
# formulations the flat-vector versions must match bit for bit (their
# congruence checks left out)
# ---------------------------------------------------------------------------


def reference_keep(mask, key, shape):
    """Bool array, broadcastable to `shape`, of the positions of tensor
    `key` the mask keeps: the bitmap of a learnable tensor, the channel
    keep-set for a running statistic of a channel-masked conv layer, and
    every position of any other tensor."""
    if key[1] in E.LEARNABLE_ROLES:
        return mask.bits[key]
    if mask.channel_keep is not None and key[0] in mask.channel_keep:
        return mask.channel_keep[key[0]]
    return np.ones(shape, dtype=bool)


def reference_apply_mask(params: ParamSet, mask) -> ParamSet:
    entries = {}
    for key, value in params.items():
        entries[key] = value * reference_keep(mask, key, value.shape)
    return ParamSet(entries)


def reference_sgd_step(params: ParamSet, grads: ParamSet, opt, mask=None) -> ParamSet:
    """Per-tensor momentum step; keeps its velocity as a ParamSet in `opt`."""
    if opt.velocity is None:
        opt.velocity = ParamSet(
            {k: np.zeros_like(v) for k, v in params.items() if k[1] in E.LEARNABLE_ROLES}
        )
    bits = mask.bits if mask is not None else None
    for key, p in params.learnable_items():
        g = grads[key]
        if bits is not None:
            g = g * bits[key]
        v = opt.velocity[key]
        v *= p.dtype.type(opt.momentum)
        v += g
        p -= p.dtype.type(opt.learning_rate) * v
        if bits is not None:
            p *= bits[key]
            v *= bits[key]
    return params


def reference_fold_mean(results, template: ParamSet, fallback: ParamSet | None,
                        strict: bool) -> ParamSet:
    rs = sorted(results, key=lambda r: r.client_id)
    out = {}
    n = len(rs)
    for key, ref in template.items():
        acc = np.zeros(ref.shape, dtype=np.float64)
        cnt = np.zeros(ref.shape, dtype=np.int64)
        for r in rs:  # ascending client-id: summation order is fixed
            keep = True if fallback is None else reference_keep(r.mask, key, ref.shape)
            acc += r.params[key] * keep
            cnt += keep
        mean = (acc / np.maximum(cnt, 1)).astype(ref.dtype)
        kept = (cnt == n) if strict else (cnt > 0)
        prev = fallback[key] if fallback is not None else ref
        out[key] = np.where(kept, mean, prev)
    return ParamSet(out)
