"""Communication-cost accounting and conv FLOP counting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Conv, ModelSpec, walk_shapes

BITS_PER_SCALAR = 32
BITS_PER_MASK_POSITION = 1


@dataclass(frozen=True)
class CostBreakdown:
    bits: int

    @property
    def total_bytes(self) -> float:
        return self.bits / 8

    @property
    def megabytes(self) -> float:
        # decimal MB: 524.16 MB style figures come out exact
        return self.bits / 8 / 1e6


def comm_cost_closed_form(rounds: int, bits_per_scalar: int, param_count: int) -> CostBreakdown:
    """Closed-form per-client cost over a run: rounds x bits x params x 2 (up+down)."""
    for label, value in (("rounds", rounds), ("bits", bits_per_scalar), ("params", param_count)):
        if value < 0:
            raise ValueError(f"{label} must be non-negative, got {value}")
    return CostBreakdown(int(rounds) * int(bits_per_scalar) * int(param_count) * 2)


@dataclass
class FlopProfile:
    per_layer: list[tuple[str, int, int]]  # (conv name, dense flops, current flops)
    dense_total: int
    current_total: int

    @property
    def reduction_factor(self) -> float:
        if self.current_total == 0:
            return float("inf") if self.dense_total else 1.0
        return self.dense_total / self.current_total


def conv_flops(spec: ModelSpec, keep_sets: dict[str, np.ndarray] | None = None) -> FlopProfile:
    """Per-conv-layer FLOPs (2 per multiply-accumulate) at the given channel
    keep-sets; BN/pool/dense are excluded from the count."""
    per_layer = []
    dense_total = current_total = 0
    prev_kept: int | None = None
    for name, desc, in_shape, out_shape in walk_shapes(spec):
        if not isinstance(desc, Conv):
            continue
        kept_out = desc.out_channels
        if keep_sets is not None and name in keep_sets:
            kept_out = int(np.asarray(keep_sets[name]).sum())
        kept_in = desc.in_channels if prev_kept is None else prev_kept
        oh, ow = out_shape[1], out_shape[2]
        dense = 2 * desc.in_channels * desc.kernel * desc.kernel * desc.out_channels * oh * ow
        current = 2 * kept_in * desc.kernel * desc.kernel * kept_out * oh * ow
        per_layer.append((name, dense, current))
        dense_total += dense
        current_total += current
        prev_kept = kept_out
    return FlopProfile(per_layer, dense_total, current_total)
