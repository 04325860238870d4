"""Minimal deterministic neural-network engine.

Dense NCHW tensors, valid-padding convolutions with optional batch norm,
2x2-style max pooling, ReLU, fully connected layers, softmax cross-entropy,
and SGD with classical momentum. Everything is plain numpy so that a fixed
(spec, seed, data order) reproduces a bitwise-identical training trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

ROLE_WEIGHT = "weight"
ROLE_BIAS = "bias"
ROLE_BN_SCALE = "bn_scale"
ROLE_BN_SHIFT = "bn_shift"
ROLE_BN_MEAN = "bn_running_mean"
ROLE_BN_VAR = "bn_running_var"

LEARNABLE_ROLES = (ROLE_WEIGHT, ROLE_BIAS, ROLE_BN_SCALE, ROLE_BN_SHIFT)
RUNNING_ROLES = (ROLE_BN_MEAN, ROLE_BN_VAR)


class SpecError(ValueError):
    """Raised when a model spec does not compose."""


class ShapeError(ValueError):
    """Raised when runtime data does not match the spec shapes."""


class LabelError(ValueError):
    """Raised when a label falls outside [0, class_count)."""


# ---------------------------------------------------------------------------
# Model specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conv:
    in_channels: int
    out_channels: int
    kernel: int
    batch_norm: bool = False


@dataclass(frozen=True)
class MaxPool:
    window: int = 2


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int


LayerDesc = Conv | MaxPool | Relu | Flatten | Dense


@dataclass(frozen=True)
class ModelSpec:
    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[LayerDesc, ...]


def _layer_names(spec: ModelSpec) -> list[str]:
    names, counts = [], {"conv": 0, "pool": 0, "relu": 0, "fc": 0}
    for desc in spec.layers:
        if isinstance(desc, Conv):
            counts["conv"] += 1
            names.append(f"conv{counts['conv']}")
        elif isinstance(desc, MaxPool):
            counts["pool"] += 1
            names.append(f"pool{counts['pool']}")
        elif isinstance(desc, Relu):
            counts["relu"] += 1
            names.append(f"relu{counts['relu']}")
        elif isinstance(desc, Flatten):
            names.append("flatten")
        elif isinstance(desc, Dense):
            counts["fc"] += 1
            names.append(f"fc{counts['fc']}")
        else:
            raise SpecError(f"unknown layer descriptor {desc!r}")
    return names


@lru_cache(maxsize=128)
def walk_shapes(spec: ModelSpec) -> list[tuple[str, LayerDesc, tuple, tuple]]:
    """Validate layer composition; return (name, desc, in_shape, out_shape) per layer.

    Raises SpecError naming the first layer whose input does not compose.
    """
    names = _layer_names(spec)
    shape: tuple = tuple(spec.input_shape)
    if len(shape) != 3 or any(int(d) <= 0 for d in shape):
        raise SpecError(f"{spec.name}: input_shape must be 3 positive extents, got {shape}")
    out = []
    for name, desc in zip(names, spec.layers):
        if isinstance(desc, Conv):
            if len(shape) != 3:
                raise SpecError(f"{spec.name}:{name}: conv needs a (C,H,W) input, got {shape}")
            c, h, w = shape
            if c != desc.in_channels:
                raise SpecError(
                    f"{spec.name}:{name}: expects {desc.in_channels} input channels, got {c}"
                )
            if h < desc.kernel or w < desc.kernel:
                raise SpecError(f"{spec.name}:{name}: kernel {desc.kernel} exceeds input {h}x{w}")
            new = (desc.out_channels, h - desc.kernel + 1, w - desc.kernel + 1)
        elif isinstance(desc, MaxPool):
            if len(shape) != 3:
                raise SpecError(f"{spec.name}:{name}: pool needs a (C,H,W) input, got {shape}")
            c, h, w = shape
            if h % desc.window or w % desc.window:
                raise SpecError(
                    f"{spec.name}:{name}: window {desc.window} does not tile {h}x{w}"
                )
            new = (c, h // desc.window, w // desc.window)
        elif isinstance(desc, Relu):
            new = shape
        elif isinstance(desc, Flatten):
            new = (int(np.prod(shape)),)
        elif isinstance(desc, Dense):
            if len(shape) != 1:
                raise SpecError(f"{spec.name}:{name}: dense needs a flat input, got {shape}")
            if shape[0] != desc.in_features:
                raise SpecError(
                    f"{spec.name}:{name}: expects {desc.in_features} inputs, got {shape[0]}"
                )
            new = (desc.out_features,)
        out.append((name, desc, shape, new))
        shape = new
    return out


def class_count(spec: ModelSpec) -> int:
    final = walk_shapes(spec)[-1][3]
    return int(np.prod(final))


def conv_channel_count(spec: ModelSpec) -> int:
    return sum(d.out_channels for d in spec.layers if isinstance(d, Conv))


# ---------------------------------------------------------------------------
# Parameter sets
# ---------------------------------------------------------------------------


@dataclass
class ParamSet:
    """Ordered (layer-name, role) -> tensor mapping for one model's parameters."""

    entries: dict[tuple[str, str], np.ndarray]

    def __getitem__(self, key: tuple[str, str]) -> np.ndarray:
        return self.entries[key]

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self.entries

    def keys(self):
        return self.entries.keys()

    def items(self):
        return self.entries.items()

    def copy(self) -> "ParamSet":
        return ParamSet({k: v.copy() for k, v in self.entries.items()})

    def congruent_with(self, other: "ParamSet") -> bool:
        if list(self.entries.keys()) != list(other.entries.keys()):
            return False
        return all(self.entries[k].shape == other.entries[k].shape for k in self.entries)

    def learnable_items(self) -> Iterator[tuple[tuple[str, str], np.ndarray]]:
        for key, value in self.entries.items():
            if key[1] in LEARNABLE_ROLES:
                yield key, value

    def learnable_count(self) -> int:
        return sum(v.size for k, v in self.learnable_items())

    def total_scalar_count(self) -> int:
        return sum(v.size for v in self.entries.values())

    def zeros_like(self) -> "ParamSet":
        return ParamSet({k: np.zeros_like(v) for k, v in self.entries.items()})


@dataclass
class OptimizerState:
    """SGD-with-momentum state; velocity buffers stay congruent with the params."""

    learning_rate: float
    momentum: float = 0.0
    velocity: ParamSet | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")

    def reset(self) -> None:
        self.velocity = None


def init_params(spec: ModelSpec, seed: int, dtype=np.float32) -> ParamSet:
    """Deterministic initialization: Glorot-uniform weights, zero biases, identity BN."""
    layers = walk_shapes(spec)
    rng = np.random.default_rng(seed)
    entries: dict[tuple[str, str], np.ndarray] = {}
    for name, desc, _in, _out in layers:
        if isinstance(desc, Conv):
            fan_in = desc.in_channels * desc.kernel * desc.kernel
            fan_out = desc.out_channels * desc.kernel * desc.kernel
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            shape = (desc.out_channels, desc.in_channels, desc.kernel, desc.kernel)
            entries[(name, ROLE_WEIGHT)] = rng.uniform(-limit, limit, shape).astype(dtype)
            entries[(name, ROLE_BIAS)] = np.zeros(desc.out_channels, dtype=dtype)
            if desc.batch_norm:
                c = desc.out_channels
                entries[(name, ROLE_BN_SCALE)] = np.ones(c, dtype=dtype)
                entries[(name, ROLE_BN_SHIFT)] = np.zeros(c, dtype=dtype)
                entries[(name, ROLE_BN_MEAN)] = np.zeros(c, dtype=dtype)
                entries[(name, ROLE_BN_VAR)] = np.ones(c, dtype=dtype)
        elif isinstance(desc, Dense):
            limit = math.sqrt(6.0 / (desc.in_features + desc.out_features))
            shape = (desc.out_features, desc.in_features)
            entries[(name, ROLE_WEIGHT)] = rng.uniform(-limit, limit, shape).astype(dtype)
            entries[(name, ROLE_BIAS)] = np.zeros(desc.out_features, dtype=dtype)
    return ParamSet(entries)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    spec: ModelSpec
    mode: str
    batch_size: int
    records: list  # (name, desc, layer-specific cache); empty in eval mode
    logits: np.ndarray
    params: ParamSet


@lru_cache(maxsize=32)
def _im2col_offsets(c: int, h: int, w: int, k: int) -> np.ndarray:
    """Flat offsets into one (c, h, w) sample of its im2col rows, in row order."""
    sample = np.arange(c * h * w).reshape(1, c, h, w)
    win = np.lib.stride_tricks.sliding_window_view(sample, (k, k), axis=(2, 3))
    offsets = win.transpose(0, 2, 3, 1, 4, 5).ravel()
    offsets.setflags(write=False)  # shared by every caller through the cache
    return offsets


def _conv_forward(x, w, b):
    """Valid convolution as one matmul over C-order im2col columns.

    The columns are gathered per sample through cached offsets, one pass
    instead of a strided copy in runs of k elements. They keep the C order,
    since BLAS's small-matrix kernels round a transposed operand differently.
    """
    n, c, h, width = x.shape
    o, _, k, _ = w.shape
    oh, ow = h - k + 1, width - k + 1
    offsets = _im2col_offsets(c, h, width, k)
    cols = np.take(x.reshape(n, c * h * width), offsets, axis=1).reshape(n * oh * ow, c * k * k)
    y = cols @ w.reshape(o, -1).T + b
    return np.ascontiguousarray(y.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)), cols


def _conv_backward(dy, cols, w, x_shape, input_grad=True):
    """Weight and bias gradients, and the input gradient when `input_grad`."""
    n, c, h, width = x_shape
    o, _, k, _ = w.shape
    oh, ow = h - k + 1, width - k + 1
    dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * oh * ow, o)
    dw = (dy_mat.T @ cols).reshape(o, c, k, k)
    db = dy_mat.sum(axis=0)
    if not input_grad:
        return None, dw, db
    dcols = (dy_mat @ w.reshape(o, -1)).reshape(n, oh, ow, c, k, k)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, :, i:i + oh, j:j + ow] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dx, dw, db


def _bn_forward(x, params, name, mode):
    scale = params[(name, ROLE_BN_SCALE)]
    shift = params[(name, ROLE_BN_SHIFT)]
    if mode == "train":
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        inv = 1.0 / np.sqrt(var + x.dtype.type(BN_EPS))
        xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
        n = x.shape[0] * x.shape[2] * x.shape[3]
        unbiased = var * (n / (n - 1)) if n > 1 else var
        m = x.dtype.type(BN_MOMENTUM)
        params[(name, ROLE_BN_MEAN)][...] = (1 - m) * params[(name, ROLE_BN_MEAN)] + m * mean
        params[(name, ROLE_BN_VAR)][...] = (1 - m) * params[(name, ROLE_BN_VAR)] + m * unbiased
    else:
        mean = params[(name, ROLE_BN_MEAN)]
        inv = 1.0 / np.sqrt(params[(name, ROLE_BN_VAR)] + x.dtype.type(BN_EPS))
        xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
    y = xhat * scale[None, :, None, None] + shift[None, :, None, None]
    return y, (xhat, inv, scale)


def _bn_backward(dy, cache):
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


def _as_bits(a):
    """The same memory as unsigned integers of the element width."""
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


def _pool_forward(x, window):
    """Window maxima and the flat in-window index of each one.

    The taps are strided views of `x`, walked in row-major window order. A
    later tap wins only where it is strictly greater, or is the first NaN,
    which is argmax's first-max rule. The winner's bits are copied with a
    branch-free select, so `y` holds the exact input value.
    """
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // window, window, w // window, window)
    y = xr[:, :, :, 0, :, 0].copy()
    idx = np.zeros(y.shape, dtype=np.intp)
    y_bits, x_bits = _as_bits(y), _as_bits(xr)
    for t in range(1, window * window):
        a, b = divmod(t, window)
        take = ~(xr[:, :, :, a, :, b] <= y) & (y == y)
        # -take is all ones where the tap wins, so the xor swaps in its bits there
        y_bits ^= (y_bits ^ x_bits[:, :, :, a, :, b]) & -take.astype(y_bits.dtype)
        np.maximum(idx, take * t, out=idx)  # t exceeds every earlier index
    return y, idx


def _pool_backward(dy, idx, window, x_shape):
    """Route each window's gradient to its max, tap by tap; other entries get +0."""
    n, c, h, w = x_shape
    dx = np.empty(x_shape, dtype=dy.dtype)
    dx_bits = _as_bits(dx).reshape(n, c, h // window, window, w // window, window)
    dy_bits = _as_bits(dy)
    for t in range(window * window):
        a, b = divmod(t, window)
        keep = -(idx == t).astype(dy_bits.dtype)
        np.bitwise_and(dy_bits, keep, out=dx_bits[:, :, :, a, :, b])
    return dx


def forward(spec: ModelSpec, params: ParamSet, batch: np.ndarray, mode: str):
    """Run the network on a (N,C,H,W) batch.

    In train mode batch-norm layers use batch statistics and update the running
    statistics stored in `params` in place, and the cache records what
    `backward` needs. Eval mode is a pure function and records nothing.
    Returns (logits, cache).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    layers = walk_shapes(spec)
    if batch.ndim != 4 or tuple(batch.shape[1:]) != tuple(spec.input_shape):
        raise ShapeError(
            f"{spec.name}:input: expected batch of {spec.input_shape}, got {batch.shape}"
        )
    x = batch
    records = []
    keep = records.append if mode == "train" else (lambda record: None)
    for name, desc, in_shape, _ in layers:
        if isinstance(desc, Conv):
            w = params[(name, ROLE_WEIGHT)]
            y, cols = _conv_forward(x, w, params[(name, ROLE_BIAS)])
            bn_cache = None
            if desc.batch_norm:
                y, bn_cache = _bn_forward(y, params, name, mode)
            keep((name, desc, (x.shape, cols, bn_cache)))
            x = y
        elif isinstance(desc, MaxPool):
            y, idx = _pool_forward(x, desc.window)
            keep((name, desc, (x.shape, idx)))
            x = y
        elif isinstance(desc, Relu):
            mask = x > 0
            keep((name, desc, mask))
            x = x * mask
        elif isinstance(desc, Flatten):
            keep((name, desc, x.shape))
            x = x.reshape(x.shape[0], -1)
        elif isinstance(desc, Dense):
            keep((name, desc, x))
            x = x @ params[(name, ROLE_WEIGHT)].T + params[(name, ROLE_BIAS)]
    return x, ForwardCache(spec, mode, batch.shape[0], records, x, params)


def backward(cache: ForwardCache, labels: np.ndarray):
    """Mean softmax cross-entropy loss and gradients for a train-mode cache.

    The walk stops at the lowest layer with parameters: no input gradient is
    formed below it.
    """
    if cache.mode != "train":
        raise ValueError("backward requires a cache from a train-mode forward")
    logits = cache.logits
    n, classes = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise LabelError(f"labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise LabelError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= classes:
        raise LabelError(
            f"labels must lie in [0, {classes}), got range [{labels.min()}, {labels.max()}]"
        )
    params = cache.params
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels])))
    dx = probs.copy()
    dx[np.arange(n), labels] -= 1
    dx /= n

    records = cache.records
    lowest = next(
        (i for i, (_, desc, _) in enumerate(records) if isinstance(desc, (Conv, Dense))),
        len(records),
    )
    collected: dict[tuple[str, str], np.ndarray] = {}
    for i in range(len(records) - 1, lowest - 1, -1):
        name, desc, rec = records[i]
        input_grad = i > lowest
        if isinstance(desc, Dense):
            x_in = rec
            collected[(name, ROLE_WEIGHT)] = dx.T @ x_in
            collected[(name, ROLE_BIAS)] = dx.sum(axis=0)
            if input_grad:
                dx = dx @ params[(name, ROLE_WEIGHT)]
        elif isinstance(desc, Flatten):
            dx = dx.reshape(rec)
        elif isinstance(desc, Relu):
            dx = dx * rec
        elif isinstance(desc, MaxPool):
            x_shape, idx = rec
            dx = _pool_backward(dx, idx, desc.window, x_shape)
        elif isinstance(desc, Conv):
            x_shape, cols, bn_cache = rec
            if desc.batch_norm:
                dx, dscale, dshift = _bn_backward(dx, bn_cache)
                collected[(name, ROLE_BN_SCALE)] = dscale
                collected[(name, ROLE_BN_SHIFT)] = dshift
            dx, dw, db = _conv_backward(
                dx, cols, params[(name, ROLE_WEIGHT)], x_shape, input_grad
            )
            collected[(name, ROLE_WEIGHT)] = dw
            collected[(name, ROLE_BIAS)] = db
    # grads keep param order; running stats carry zero grads (not learnable)
    grads = ParamSet(
        {k: collected[k] if k[1] in LEARNABLE_ROLES else np.zeros_like(v)
         for k, v in params.items()}
    )
    return loss, grads


def sgd_step(params: ParamSet, grads: ParamSet, opt: OptimizerState, mask=None) -> ParamSet:
    """Classical momentum update v <- mu*v + g, theta <- theta - lr*v, in place.

    With a mask, gradients are zeroed at pruned positions and the parameters and
    velocity are re-masked so pruned positions stay exactly 0 after the step.
    """
    if opt.velocity is None:
        opt.velocity = ParamSet(
            {k: np.zeros_like(v) for k, v in params.items() if k[1] in LEARNABLE_ROLES}
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


def evaluate_accuracy(
    spec: ModelSpec, params: ParamSet, x: np.ndarray, y: np.ndarray, batch_size: int = 256
) -> float:
    """Eval-mode top-1 accuracy as a percentage."""
    if len(x) == 0:
        return 0.0
    correct = 0
    for start in range(0, len(x), batch_size):
        logits, _ = forward(spec, params, x[start:start + batch_size], "eval")
        correct += int((logits.argmax(axis=1) == y[start:start + batch_size]).sum())
    return 100.0 * correct / len(x)


# ---------------------------------------------------------------------------
# Built-in architectures
# ---------------------------------------------------------------------------


def _cnn5_mnist() -> ModelSpec:
    # 32x32 inputs (28x28 MNIST/EMNIST padded): 30900 learnables, 30 conv channels.
    return ModelSpec(
        name="cnn5-mnist",
        input_shape=(1, 32, 32),
        layers=(
            Conv(1, 10, 5, batch_norm=True),
            MaxPool(2),
            Relu(),
            Conv(10, 20, 5, batch_norm=True),
            MaxPool(2),
            Relu(),
            Flatten(),
            Dense(500, 50),
            Relu(),
            Dense(50, 10),
        ),
    )


def _lenet5_cifar() -> ModelSpec:
    # LeNet-5 with BN after each conv: 62050 learnables (62006 excl. BN), 22 channels.
    return ModelSpec(
        name="lenet5-cifar",
        input_shape=(3, 32, 32),
        layers=(
            Conv(3, 6, 5, batch_norm=True),
            MaxPool(2),
            Relu(),
            Conv(6, 16, 5, batch_norm=True),
            MaxPool(2),
            Relu(),
            Flatten(),
            Dense(400, 120),
            Relu(),
            Dense(120, 84),
            Relu(),
            Dense(84, 10),
        ),
    )


def _synth_cnn() -> ModelSpec:
    # Desk-scale net for synthetic benchmarks (~5.9k learnables).
    return ModelSpec(
        name="synth-cnn",
        input_shape=(1, 20, 20),
        layers=(
            Conv(1, 8, 5, batch_norm=True),
            MaxPool(2),
            Relu(),
            Conv(8, 16, 5, batch_norm=True),
            MaxPool(2),
            Relu(),
            Flatten(),
            Dense(64, 32),
            Relu(),
            Dense(32, 10),
        ),
    )


_BUILTIN = {
    "cnn5-mnist": _cnn5_mnist,
    "lenet5-cifar": _lenet5_cifar,
    "synth-cnn": _synth_cnn,
}


def builtin_spec(name: str) -> ModelSpec:
    try:
        return _BUILTIN[name]()
    except KeyError:
        raise SpecError(f"unknown model spec {name!r}; available: {sorted(_BUILTIN)}") from None
