"""Host-speed probe: a fixed numpy CNN that the benchmark times next to the
program's own work, so that drift in host speed can be divided out.

On a shared host the same instructions run 1.3-2x slower for stretches of
seconds to minutes, and a run of the benchmark can fall wholly inside one.
The probe is a small conv -> BN -> max-pool -> ReLU network trained with
momentum SGD at batch 10 and evaluated at batch 50. It is written here, not
imported from `subfed`, so a change to the program under test does not
change the probe. Each workload shapes the probe like its own model (see
workloads.PROBES), because code of the same kind slows down by the same
factor.
"""

from __future__ import annotations

import time

import numpy as np

F32 = np.float32
EVAL_BATCH = 50  # small, so the probe adds little to the peak RSS of the run


def _conv(x, w):
    n, c, h, width = x.shape
    o, _, k, _ = w.shape
    oh, ow = h - k + 1, width - k + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * oh * ow, c * k * k)
    y = (cols @ w.reshape(o, -1).T).reshape(n, oh, ow, o)
    return np.ascontiguousarray(y.transpose(0, 3, 1, 2)), cols


def _conv_back(dy, cols, w, x_shape):
    n, c, h, width = x_shape
    o, _, k, _ = w.shape
    oh, ow = h - k + 1, width - k + 1
    d = np.ascontiguousarray(dy.transpose(0, 2, 3, 1)).reshape(n * oh * ow, o)
    dw = (d.T @ cols).reshape(w.shape)
    dcols = (d @ w.reshape(o, -1)).reshape(n, oh, ow, c, k, k)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, :, i:i + oh, j:j + ow] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dx, dw


def _bn(x):
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=(0, 2, 3), keepdims=True) + F32(1e-5))
    xhat = (x - mean) * inv
    return xhat, (xhat, inv)


def _bn_back(dy, cache):
    xhat, inv = cache
    n = dy.size // dy.shape[1]
    axes = (0, 2, 3)
    term = n * dy - dy.sum(axis=axes, keepdims=True) - xhat * (dy * xhat).sum(axis=axes, keepdims=True)
    return term * (inv / n)


def _pool(x):
    n, c, h, w = x.shape
    xr = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = np.ascontiguousarray(xr).reshape(n, c, h // 2, w // 2, 4)
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def _pool_back(dy, idx, x_shape):
    n, c, h, w = x_shape
    dflat = np.zeros((*dy.shape, 4), dtype=dy.dtype)
    np.put_along_axis(dflat, idx[..., None], dy[..., None], axis=-1)
    dxr = dflat.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(dxr).reshape(x_shape)


class Probe:
    """`train_steps` SGD steps at batch 10, then eval over `eval_examples`."""

    def __init__(self, shape, channels, hidden, train_steps, eval_examples, seed=0):
        rng = np.random.default_rng(seed)
        c, h, _ = shape
        self.train_steps = train_steps
        self.x = rng.standard_normal((10, *shape)).astype(F32)
        self.y = rng.integers(0, 10, 10)
        self.x_eval = rng.standard_normal((eval_examples, *shape)).astype(F32)
        self.convs = []
        for out in channels:
            self.convs.append((rng.standard_normal((out, c, 5, 5)) * 0.1).astype(F32))
            c, h = out, (h - 4) // 2
        sizes = (c * h * h, *hidden, 10)
        self.dense = [(rng.standard_normal((o, i)) * 0.1).astype(F32)
                      for i, o in zip(sizes, sizes[1:])]
        self.velocity = [np.zeros_like(p) for p in self.convs + self.dense]

    def _forward(self, x, train):
        caches = []
        for w in self.convs:
            y, cols = _conv(x, w)
            y, bn = _bn(y) if train else (y * F32(0.5), None)
            p, idx = _pool(y)
            keep = p > 0
            caches.append((x.shape, cols, bn, y.shape, idx, keep))
            x = p * keep
        x = x.reshape(len(x), -1)
        for i, w in enumerate(self.dense):
            caches.append(x)
            x = x @ w.T
            if i < len(self.dense) - 1:
                x = np.maximum(x, 0)
        return x, caches

    def train_step(self):
        logits, caches = self._forward(self.x, True)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        d = e / e.sum(axis=1, keepdims=True)
        d[np.arange(len(d)), self.y] -= 1
        d /= len(d)
        grads = []
        for w, x_in in zip(reversed(self.dense), reversed(caches[len(self.convs):])):
            grads.append(d.T @ x_in)
            d = (d @ w) * (x_in > 0)
        for w, (x_shape, cols, bn, y_shape, idx, keep) in zip(
            reversed(self.convs), reversed(caches[:len(self.convs)])
        ):
            d = _pool_back(d.reshape(keep.shape) * keep, idx, y_shape)
            d, dw = _conv_back(_bn_back(d, bn), cols, w, x_shape)
            grads.append(dw)
        for p, v, g in zip(self.convs + self.dense, self.velocity, reversed(grads)):
            v *= F32(0.5)
            v += g
            p -= F32(0.01) * v

    def evaluate(self) -> int:
        correct = 0
        for start in range(0, len(self.x_eval), EVAL_BATCH):
            logits, _ = self._forward(self.x_eval[start:start + EVAL_BATCH], False)
            correct += int((logits.argmax(axis=1) == 0).sum())
        return correct

    def run(self) -> None:
        for _ in range(self.train_steps):
            self.train_step()
        self.evaluate()

    def time(self) -> float:
        """Wall seconds of one probe run."""
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start

    def reading(self) -> float:
        """The best of two probe runs: a reading of the host's current speed
        that a single interruption does not spoil."""
        return min(self.time(), self.time())
