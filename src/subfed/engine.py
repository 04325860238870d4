"""Minimal deterministic neural-network engine.

Dense NCHW tensors, valid-padding convolutions with optional batch norm,
2x2-style max pooling, ReLU, fully connected layers, softmax cross-entropy,
and SGD with classical momentum. Everything is plain numpy so that a fixed
(spec, seed, data order) reproduces a bitwise-identical training trajectory.
"""

from __future__ import annotations

import ctypes
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
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


# each descriptor type's layer-name stem; every kind but flatten is numbered
_KINDS = ((Conv, "conv"), (MaxPool, "pool"), (Relu, "relu"), (Flatten, "flatten"), (Dense, "fc"))


@lru_cache(maxsize=128)
def walk_shapes(spec: ModelSpec) -> list[tuple[str, LayerDesc, tuple, tuple]]:
    """Validate layer composition; return (name, desc, in_shape, out_shape) per layer.

    Raises SpecError naming the first layer whose input does not compose.
    """
    shape: tuple = tuple(spec.input_shape)
    if len(shape) != 3 or any(int(d) <= 0 for d in shape):
        raise SpecError(f"{spec.name}: input_shape must be 3 positive extents, got {shape}")
    out, counts = [], {}
    for desc in spec.layers:
        kind = next((k for t, k in _KINDS if isinstance(desc, t)), None)
        if kind is None:
            raise SpecError(f"unknown layer descriptor {desc!r}")
        counts[kind] = counts.get(kind, 0) + 1
        name = kind if kind == "flatten" else f"{kind}{counts[kind]}"
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


# ---------------------------------------------------------------------------
# Parameter sets
# ---------------------------------------------------------------------------


Key = tuple[str, str]


class Layout:
    """Where each (layer, role) tensor of a ParamSet sits in its flat vector:
    the learnable tensors first, in key order, so they fill [0, n_learnable),
    then the running statistics. `shapes` keeps the set's key order. Layouts
    are equal when they put the same tensors, of the same shapes, at the
    same offsets."""

    def __init__(self, shapes: dict[Key, tuple[int, ...]]):
        self.shapes, self.slots, self.size = shapes, {}, 0
        for key in sorted(shapes, key=lambda k: k[1] not in LEARNABLE_ROLES):  # stable
            self.slots[key] = slice(self.size, self.size + math.prod(shapes[key]))
            self.size = self.slots[key].stop
        self.n_learnable = sum(math.prod(s) for k, s in shapes.items() if k[1] in LEARNABLE_ROLES)
        self.signature = tuple((key, shapes[key]) for key in self.slots)
        self._positions: dict[tuple[Key, ...], np.ndarray] = {}

    def __eq__(self, other) -> bool:
        return self is other or self.signature == getattr(other, "signature", None)

    def views(self, flat: np.ndarray) -> dict[Key, np.ndarray]:
        return {key: flat[self.slots[key]].reshape(shape) for key, shape in self.shapes.items()}

    def positions(self, keys: tuple[Key, ...]) -> np.ndarray:
        """Flat positions of the tensors `keys`, tensor by tensor in that order."""
        if keys not in self._positions:  # a race only computes the same array twice
            ranges = [np.arange(self.slots[k].start, self.slots[k].stop) for k in keys]
            self._positions[keys] = np.concatenate([np.arange(0), *ranges])
        return self._positions[keys]


class ParamSet(Mapping):
    """One model's parameters: one contiguous vector, `flat`, laid out by
    `layout`, read as a mapping of (layer, role) -> view of each tensor.
    Keys, `items()` and `learnable_items()` come in key order;
    `flat[:n_learnable]` holds every learnable scalar."""

    def __init__(self, entries: dict[Key, np.ndarray]):
        """Pack `entries`, copied, into one vector of their common dtype."""
        values = [np.asarray(v) for v in entries.values()]
        self.layout = Layout({key: v.shape for key, v in zip(entries, values)})
        self.flat = np.empty(self.layout.size, np.result_type(*values) if values else np.float32)
        self.entries = self.layout.views(self.flat)
        for view, value in zip(self.entries.values(), values):
            view[...] = value

    @classmethod
    def over(cls, layout: Layout, flat: np.ndarray) -> "ParamSet":
        """The set viewing `flat`, not copied, through `layout`."""
        params = cls.__new__(cls)
        params.layout, params.flat, params.entries = layout, flat, layout.views(flat)
        return params

    def __getitem__(self, key: Key) -> np.ndarray:
        return self.entries[key]

    def __iter__(self) -> Iterator[Key]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def copy(self) -> "ParamSet":
        return ParamSet.over(self.layout, self.flat.copy())

    def learnable_items(self) -> Iterator[tuple[Key, np.ndarray]]:
        return ((key, v) for key, v in self.entries.items() if key[1] in LEARNABLE_ROLES)

    def zeros_like(self) -> "ParamSet":
        return ParamSet.over(self.layout, np.zeros_like(self.flat))


@dataclass
class OptimizerState:
    """SGD-with-momentum state; the velocity is one vector over the params'
    learnable positions."""

    learning_rate: float
    momentum: float = 0.0
    velocity: np.ndarray | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")


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
    mode: str
    records: list  # (name, desc, layer-specific cache); empty in eval mode
    logits: np.ndarray
    params: ParamSet


# The most bytes of im2col columns one eval conv call gathers: eval runs the
# conv stack in parts of the batch sized to it (`_eval_parts`).
EVAL_COLUMN_BUDGET = 2 << 20
# OpenBLAS picks its GEMM kernel by M·N, the call's rows times outputs; at or
# above this bound a row's bits do not depend on the call's row count
# (tests/test_engine.py::TestBlasPathRule).
BLAS_PATH_BOUND = 1280
# The most examples `evaluate_accuracy` runs through one `forward`. The
# batch sets the dense GEMMs' row count, and so their bits: changing it
# changes results.
EVAL_BATCH = 256
# What pins BLAS to one thread when the library cannot be set at run time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_thread_setter():
    """The `set_num_threads` function of the OpenBLAS bundled with numpy's
    wheel (numpy.libs, or numpy/.dylibs on macOS), or None."""
    numpy_dir = Path(np.__file__).parent
    for path in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                        *numpy_dir.glob(".dylibs/*openblas*")]):
        lib = ctypes.CDLL(str(path))  # the copy numpy loaded: same file, same handle
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


def pin_blas_threads() -> None:
    """Run BLAS on one thread. Threaded OpenBLAS splits GEMM reductions by
    its thread count, so results would depend on the host's cores; the
    client thread pool is the program's only parallelism. Where numpy's
    OpenBLAS cannot be found, the environment must already pin one thread."""
    setter = _blas_thread_setter()
    if setter is not None:
        setter(ctypes.c_int(1))
    elif any(os.environ.get(var) != "1" for var in BLAS_THREAD_VARS):
        raise RuntimeError(
            "cannot set numpy's BLAS to one thread at run time; set "
            + ", ".join(f"{var}=1" for var in BLAS_THREAD_VARS) + " before starting Python"
        )


@lru_cache(maxsize=32)
def _im2col_offsets(c: int, h: int, w: int, k: int) -> np.ndarray:
    """Flat offsets into one (c, h, w) sample of its im2col rows, in row order:
    the gather of `_conv_gemm` and the scatter of `_col2im`."""
    sample = np.arange(c * h * w).reshape(1, c, h, w)
    win = np.lib.stride_tricks.sliding_window_view(sample, (k, k), axis=(2, 3))
    offsets = win.transpose(0, 2, 3, 1, 4, 5).ravel()
    offsets.setflags(write=False)  # shared by every caller through the cache
    return offsets


def _conv_gemm(x, w):
    """Valid convolution without its bias, as one matmul over C-order im2col
    columns; returns the GEMM output in (n, oh, ow, o) layout and the columns.

    The columns are gathered per sample through cached offsets, one pass
    instead of a strided copy in runs of k elements. They keep the C order,
    since BLAS's small-matrix kernels round a transposed operand differently.
    Every offset lies in [0, c*h*w), so the gather's "wrap" mode never wraps;
    it only skips the per-index bounds check of the default mode.
    """
    n, c, h, width = x.shape
    o, _, k, _ = w.shape
    oh, ow = h - k + 1, width - k + 1
    offsets = _im2col_offsets(c, h, width, k)
    cols = np.take(x.reshape(n, c * h * width), offsets, axis=1, mode="wrap")
    cols = cols.reshape(n * oh * ow, c * k * k)
    gemm = cols @ w.reshape(o, -1).T
    return gemm.reshape(n, oh, ow, o), cols


def _conv_forward(x, w, b, pool=0):
    """Valid convolution: `_conv_gemm`, then the bias added in the one copy
    that transposes the GEMM output to a C-order NCHW `y`. With a `pool`
    window, the GEMM output is first max-pooled in its own layout
    (`_window_max`)."""
    gemm, cols = _conv_gemm(x, w)
    n, oh, ow, o = gemm.shape
    if pool:
        oh, ow = oh // pool, ow // pool
        gemm = _window_max(gemm.reshape(n, oh, pool, ow, pool, o))
    y = np.empty((n, o, oh, ow), gemm.dtype)  # a bare `+` would keep gemm's layout
    np.add(gemm.transpose(0, 3, 1, 2), b[:, None, None], out=y)
    return y, cols


def _pools_first(params, name, desc, dtype) -> bool:
    """Whether max pooling may run before this eval conv layer's bias add and
    batch norm. Each of those steps is a correctly rounded map of one value,
    non-decreasing, sending ±inf to ±inf and no number to NaN, when the bias,
    shift and running mean are finite and the scale and `inv` are finite and
    positive. Then the window max of the mapped values is the mapped window
    max as a real number, NaN in the same places."""
    finite = [params[(name, ROLE_BIAS)]]
    if desc.batch_norm:
        positive = [params[(name, ROLE_BN_SCALE)], _bn_inv(params, name, dtype)]
        if not all((v > 0).all() for v in positive):
            return False
        finite += [params[(name, ROLE_BN_SHIFT)], params[(name, ROLE_BN_MEAN)], *positive]
    return all(np.isfinite(v).all() for v in finite)


def _conv_backward(dy, cols, w, x_shape, input_grad=True):
    """Weight and bias gradients, and the input gradient when `input_grad`:
    the column gradients of one GEMM, summed by `_col2im`."""
    n, c, h, width = x_shape
    o, _, k, _ = w.shape
    oh, ow = h - k + 1, width - k + 1
    dy_mat = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * oh * ow, o)
    dw = (dy_mat.T @ cols).reshape(o, c, k, k)
    db = dy_mat.sum(axis=0)
    if not input_grad:
        return None, dw, db
    return _col2im(dy_mat @ w.reshape(o, -1), x_shape, k), dw, db


def _col2im(dcols, x_shape, k):
    """Sum column gradients, in the C order of (n, oh, ow, c, k, k), into an
    input gradient: the im2col gather of `_conv_gemm` run backwards, one
    `np.add.at` per sample over the same offsets.

    add.at adds in index order. Walked in reverse, the output positions
    (y, x) come in descending row-major order, and an input element (r, q)
    takes tap (i, j) from position (r - i, q - j), so its taps come with i
    ascending and, within one i, j ascending, added to +0. That is the order
    of a loop over the taps (tests/helpers.py::reference_col2im), so the bits
    are that loop's, but for which NaN survives where NaNs of two signs meet.
    """
    n, c, h, width = x_shape
    offsets = _im2col_offsets(c, h, width, k)[::-1]
    dcols = dcols.reshape(n, offsets.size)
    dx = np.zeros((n, c * h * width), dtype=dcols.dtype)
    for s in range(n):
        np.add.at(dx[s], offsets, dcols[s, ::-1])
    return dx.reshape(x_shape)


def _bn_inv(params, name, dtype):
    """Eval batch norm's 1 / sqrt(running var + eps), eps in `dtype`."""
    return 1.0 / np.sqrt(params[(name, ROLE_BN_VAR)] + dtype.type(BN_EPS))


def _bn_forward(x, params, name, mode):
    """Batch norm of a conv output; returns (y, cache), the cache None in eval.

    Eval normalises `x` in place (it is the conv's own output) with the
    running statistics, as ((x - mean) * inv) * scale + shift.
    """
    scale = params[(name, ROLE_BN_SCALE)]
    shift = params[(name, ROLE_BN_SHIFT)]
    if mode == "eval":
        inv = _bn_inv(params, name, x.dtype)
        x -= params[(name, ROLE_BN_MEAN)][None, :, None, None]
        x *= inv[None, :, None, None]
        x *= scale[None, :, None, None]
        x += shift[None, :, None, None]
        return x, None
    # numpy's own mean and var arithmetic (sum / n, then the centred values'
    # sum of squares / n), with the sum and the centred values formed once;
    # xhat is scaled in the centred values' buffer
    n = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.sum(axis=(0, 2, 3), keepdims=True) / n
    xhat = x - mean
    var = (xhat * xhat).sum(axis=(0, 2, 3)) / n
    mean = mean.reshape(-1)
    inv = 1.0 / np.sqrt(var + x.dtype.type(BN_EPS))
    xhat *= inv[None, :, None, None]
    unbiased = var * (n / (n - 1)) if n > 1 else var
    m = x.dtype.type(BN_MOMENTUM)
    params[(name, ROLE_BN_MEAN)][...] = (1 - m) * params[(name, ROLE_BN_MEAN)] + m * mean
    params[(name, ROLE_BN_VAR)][...] = (1 - m) * params[(name, ROLE_BN_VAR)] + m * unbiased
    y = xhat * scale[None, :, None, None]
    y += shift[None, :, None, None]
    return y, (xhat, inv, scale)


def _bn_backward(dy, cache):
    """dx = (n*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)) * (inv/n), in two
    full-size buffers: `tmp` holds dy*xhat, then dxhat*xhat, then the last
    term, and dx is built in dxhat's buffer once both sums are taken."""
    xhat, inv, scale = cache
    axes = (0, 2, 3)
    tmp = dy * xhat
    dscale = tmp.sum(axis=axes)
    dshift = dy.sum(axis=axes)
    dxhat = dy * scale[None, :, None, None]
    n = dy.shape[0] * dy.shape[2] * dy.shape[3]
    dxhat_sum = dxhat.sum(axis=axes)
    np.multiply(dxhat, xhat, out=tmp)
    np.multiply(xhat, tmp.sum(axis=axes)[None, :, None, None], out=tmp)
    dx = np.multiply(n, dxhat, out=dxhat)
    dx -= dxhat_sum[None, :, None, None]
    dx -= tmp
    dx *= inv[None, :, None, None] / n
    return dx, dscale, dshift


@lru_cache(maxsize=32)
def _pool_window_offsets(x_shape: tuple[int, ...], window: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat offsets into an NCHW array of `x_shape`: of each pool window's
    first tap, in the pooled output's order, and of each tap from its
    window's first, in row-major window order."""
    n, c, h, w = x_shape
    first = np.arange(math.prod(x_shape)).reshape(n, c, h // window, window, w // window, window)
    first = np.ascontiguousarray(first[:, :, :, 0, :, 0])
    taps = (np.arange(window)[:, None] * w + np.arange(window)).ravel()
    for a in (first, taps):
        a.setflags(write=False)  # shared by every caller through the cache
    return first, taps


def _pool_offsets(idx, window, x_shape):
    """Flat offsets into an NCHW array of `x_shape` of each window's winner,
    from its in-window index `idx`."""
    first, taps = _pool_window_offsets(x_shape, window)
    offsets = np.take(taps, idx)
    offsets += first
    return offsets


def _pool_forward(x, window):
    """Window maxima and the flat in-window index of each one.

    The taps are strided views of `x`, walked in row-major window order. A
    later tap wins only where it is strictly greater than the winner so
    far, or is the first NaN, which is argmax's first-max rule. `y` is
    gathered from `x` at each winner's flat offset, so it holds the exact
    input value.

    The comparisons read `best`, a running `np.maximum` of the taps, not the
    winner itself. Max is exact and propagates NaN, so after each tap `best`
    equals the winner so far as a real number, NaN in the same places: a
    tap that wins is greater than `best`, which it then equals, or is the
    first NaN, which `best` takes too; a tap that loses is at most the
    winner, so `best` keeps its value, or meets a NaN winner, which `best`
    already holds. `<=` and `==` read only the real value and NaN-ness (-0
    equals +0), so every take decides as it would against the winner, and
    `idx` and the winners' bits (signed zeros and NaN payloads) are
    argmax's.
    """
    n, c, h, w = x.shape
    taps = window * window
    xr = x.reshape(n, c, h // window, window, w // window, window)
    best = xr[:, :, :, 0, :, 0].copy()
    idx = np.zeros(best.shape, dtype=np.min_scalar_type(taps - 1))  # uint8 for 2x2
    for t in range(1, taps):
        a, b = divmod(t, window)
        tap = xr[:, :, :, a, :, b]
        take = ~(tap <= best) & (best == best)
        np.maximum(idx, take * idx.dtype.type(t), out=idx)  # t exceeds every earlier index
        if t < taps - 1:  # the last tap is compared only
            np.maximum(best, tap, out=best)
    return np.take(x, _pool_offsets(idx, window, x.shape)), idx


def _window_max(v):
    """Window maxima of an (a, ph, window, pw, window, b) view, as eval
    needs them: the max over each window's rows, then over its columns, on
    strided views of `v`; returns them as a C-order (a, ph, pw, b).

    Max is exact, so the maxima equal `_pool_forward`'s values as real
    numbers, NaN in the same places; only the sign of a tied zero or a NaN
    payload may differ.
    """
    a, ph, window, pw, _, b = v.shape
    rows = np.empty((a, ph, pw, window, b), v.dtype)
    np.maximum(v[:, :, 0], v[:, :, window - 1], out=rows)
    for t in range(1, window - 1):
        np.maximum(rows, v[:, :, t], out=rows)
    y = np.empty((a, ph, pw, b), v.dtype)
    np.maximum(rows[:, :, :, 0], rows[:, :, :, window - 1], out=y)
    for t in range(1, window - 1):
        np.maximum(y, rows[:, :, :, t], out=y)
    return y


def _pool_max(x, window):
    """Eval max pooling of NCHW `x` by `_window_max`, into a new array."""
    n, c, h, w = x.shape
    ph, pw = h // window, w // window
    return _window_max(x.reshape(n * c, ph, window, pw, window, 1)).reshape(n, c, ph, pw)


def _pool_backward(dy, idx, window, x_shape):
    """Scatter each window's gradient, bit for bit, to its winner's flat
    offset; other entries get +0."""
    dx = np.zeros(x_shape, dtype=dy.dtype)
    np.put(dx, _pool_offsets(idx, window, x_shape), dy)
    return dx


def _eval_parts(layers, n: int, itemsize: int) -> int:
    """How many near-equal parts of its `n` examples an eval pass runs the
    conv stack `layers` in: as few as keep each conv's im2col columns within
    EVAL_COLUMN_BUDGET bytes of `itemsize`-byte values, but never so many
    that a part's conv GEMM falls below BLAS_PATH_BOUND, where its rows
    could lose the bits they have in a whole-batch call."""
    convs = [(desc, out) for _, desc, _, out in layers if isinstance(desc, Conv)]
    if not convs:
        return 1
    cols = max(d.in_channels * d.kernel ** 2 * oh * ow for d, (_, oh, ow) in convs) * itemsize
    most = max(1, EVAL_COLUMN_BUDGET // cols)  # examples per part
    fewest = max(math.ceil(BLAS_PATH_BOUND / math.prod(out)) for _, out in convs)
    return max(1, min(-(-n // most), n // fewest))


def forward(spec: ModelSpec, params: ParamSet, batch: np.ndarray, mode: str):
    """Run the network on a (N,C,H,W) batch.

    In train mode batch-norm layers use batch statistics and update the running
    statistics stored in `params` in place, and the cache records what
    `backward` needs. Eval mode is a pure function, records nothing and does
    only inference work: batch norm in place and max pooling without an
    index. Neither mode writes to `batch`; the bias adds and the ReLU work in
    place only on arrays this call allocated. Returns (logits, cache).

    In eval mode a conv layer followed directly by max pooling pools its
    raw GEMM output (`_conv_forward`'s `pool`) where `_pools_first` admits
    its params, then adds the bias and batch-normalises only the pooled
    values. The logits are the same real numbers as the layer-by-layer
    walk's, NaN in the same places.

    Eval mode runs the layers before the first Flatten in `_eval_parts`
    parts of the batch, each part's output written into one buffer, and
    the layers from the Flatten on once over the whole batch, so every
    dense GEMM keeps the batch's row count.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    layers = walk_shapes(spec)
    if batch.ndim != 4 or tuple(batch.shape[1:]) != tuple(spec.input_shape):
        raise ShapeError(
            f"{spec.name}:input: expected batch of {spec.input_shape}, got {batch.shape}"
        )
    train = mode == "train"
    records = []
    keep = records.append if train else (lambda record: None)
    pools = {}  # conv index -> the window of the pool it runs itself

    def walk(lo, hi, x, owned):
        """Layers [lo, hi) on `x`, which is this call's own array if `owned`;
        returns their output and whether it is owned."""
        for i in range(lo, hi):
            name, desc, _, _ = layers[i]
            if i - 1 in pools:
                continue
            if isinstance(desc, Conv):
                y, cols = _conv_forward(x, params[(name, ROLE_WEIGHT)], params[(name, ROLE_BIAS)],
                                        pools.get(i, 0))
                bn_cache = None
                if desc.batch_norm:
                    y, bn_cache = _bn_forward(y, params, name, mode)
                keep((name, desc, (x.shape, cols, bn_cache)))
                x, owned = y, True
            elif isinstance(desc, MaxPool):
                if train:
                    y, idx = _pool_forward(x, desc.window)
                    keep((name, desc, (x.shape, idx)))
                else:
                    y = _pool_max(x, desc.window)
                x, owned = y, True
            elif isinstance(desc, Relu):
                mask = x > 0
                keep((name, desc, mask))
                if owned:
                    x *= mask
                else:
                    x, owned = x * mask, True
            elif isinstance(desc, Flatten):
                keep((name, desc, x.shape))
                x = x.reshape(x.shape[0], -1)
            elif isinstance(desc, Dense):
                keep((name, desc, x))
                x = x @ params[(name, ROLE_WEIGHT)].T
                x += params[(name, ROLE_BIAS)]
                owned = True
        return x, owned

    n, head, parts = len(batch), len(layers), 1  # train mode: one part, no head
    if not train:
        dtype = np.result_type(batch.dtype, params.flat.dtype)
        for i, ((name, desc, _, _), (_, nxt, _, _)) in enumerate(zip(layers, layers[1:])):
            if (isinstance(desc, Conv) and isinstance(nxt, MaxPool)
                    and _pools_first(params, name, desc, dtype)):
                pools[i] = nxt.window
        head = next((i for i, (_, desc, _, _) in enumerate(layers) if isinstance(desc, Flatten)),
                    head)
        parts = _eval_parts(layers[:head], n, dtype.itemsize)
    if parts == 1:
        x, owned = walk(0, head, batch, False)
    else:
        for part in range(parts):
            lo, hi = part * n // parts, (part + 1) * n // parts
            y, _ = walk(0, head, batch[lo:hi], False)
            if part == 0:
                x, owned = np.empty((n, *y.shape[1:]), y.dtype), True
            x[lo:hi] = y
    x, _ = walk(head, len(layers), x, owned)
    return x, ForwardCache(mode, records, x, params)


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
    # one buffer in the params' layout; running statistics keep zero grads
    grads = params.zeros_like()
    for i in range(len(records) - 1, lowest - 1, -1):
        name, desc, rec = records[i]
        input_grad = i > lowest
        if isinstance(desc, Dense):
            x_in = rec
            grads[(name, ROLE_WEIGHT)][...] = dx.T @ x_in
            grads[(name, ROLE_BIAS)][...] = dx.sum(axis=0)
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
                grads[(name, ROLE_BN_SCALE)][...] = dscale
                grads[(name, ROLE_BN_SHIFT)][...] = dshift
            dx, dw, db = _conv_backward(
                dx, cols, params[(name, ROLE_WEIGHT)], x_shape, input_grad
            )
            grads[(name, ROLE_WEIGHT)][...] = dw
            grads[(name, ROLE_BIAS)][...] = db
    return loss, grads


def sgd_step(params: ParamSet, grads: ParamSet, opt: OptimizerState, mask=None) -> ParamSet:
    """Classical momentum update v <- mu*v + g, theta <- theta - lr*v, in place,
    over the learnable part of the flat vector.

    With a mask, gradients are zeroed at pruned positions, so there the
    velocity stays +0 and the parameter keeps its value: a pruned position
    that enters the step at 0 (as `client_update` masks the params before
    training) stays exactly 0. A NaN or inf gradient at a pruned position
    turns it NaN, as a re-mask after the step would not repair either.
    """
    n = params.layout.n_learnable
    p, g = params.flat[:n], grads.flat[:n]
    if opt.velocity is None:
        opt.velocity = np.zeros_like(p)
    v = opt.velocity
    keep = True if mask is None else mask.flat[:n]  # x * True is x, bit for bit
    v *= p.dtype.type(opt.momentum)
    v += g * keep
    p -= p.dtype.type(opt.learning_rate) * v
    return params


def evaluate_accuracy(spec: ModelSpec, params: ParamSet, x: np.ndarray, y: np.ndarray) -> float:
    """Eval-mode top-1 accuracy as a percentage, over batches of EVAL_BATCH."""
    if len(x) == 0:
        return 0.0
    correct = 0
    for start in range(0, len(x), EVAL_BATCH):
        logits, _ = forward(spec, params, x[start:start + EVAL_BATCH], "eval")
        correct += int((logits.argmax(axis=1) == y[start:start + EVAL_BATCH]).sum())
    return 100.0 * correct / len(x)


# ---------------------------------------------------------------------------
# Built-in architectures
# ---------------------------------------------------------------------------


# 32x32 inputs (28x28 MNIST/EMNIST padded): 30900 learnables, 30 conv channels.
CNN5_MNIST = ModelSpec(
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

# LeNet-5 with BN after each conv: 62050 learnables (62006 excl. BN), 22 channels.
LENET5_CIFAR = ModelSpec(
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

# Desk-scale net for synthetic benchmarks (~5.9k learnables).
SYNTH_CNN = ModelSpec(
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

_BUILTIN = {spec.name: spec for spec in (CNN5_MNIST, LENET5_CIFAR, SYNTH_CNN)}


def builtin_spec(name: str) -> ModelSpec:
    try:
        return _BUILTIN[name]
    except KeyError:
        raise SpecError(f"unknown model spec {name!r}; available: {sorted(_BUILTIN)}") from None
