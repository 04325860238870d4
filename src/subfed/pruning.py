"""Subnetwork masks: magnitude pruning, BN-scale channel pruning, schedules.

A SparsityMask carries a bitmap for every learnable tensor plus an optional
per-conv-layer channel keep-set. The unstructured part governs only the
`covered` entries; channel removal propagates zeros over the channel's filter,
bias, BN scale/shift and the next conv layer's matching input slices.
`SparsityMask.keep` is the one rule for which positions of any tensor a
client keeps; masking, exchange counting and aggregation all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .engine import (
    LEARNABLE_ROLES,
    ROLE_BIAS,
    ROLE_BN_SCALE,
    ROLE_BN_SHIFT,
    ROLE_WEIGHT,
    ParamSet,
)

Key = tuple[str, str]


class MaskCongruenceError(ValueError):
    """Masks/params with mismatched entries or shapes."""


@dataclass
class SparsityMask:
    bits: dict[Key, np.ndarray]              # bool, one per learnable entry
    covered: tuple[Key, ...]                 # entries governed by the unstructured part
    channel_keep: dict[str, np.ndarray] | None = None  # conv layer -> bool per out-channel

    def keep(self, key: Key, shape: tuple[int, ...]) -> np.ndarray:
        """Bool array, broadcastable to `shape`, of the positions of tensor
        `key` this mask keeps: the bitmap of a learnable tensor, the channel
        keep-set for a running statistic of a channel-masked conv layer, and
        every position of any other tensor."""
        if key[1] in LEARNABLE_ROLES:
            return self.bits[key]
        if self.channel_keep is not None and key[0] in self.channel_keep:
            return self.channel_keep[key[0]]
        return np.ones(shape, dtype=bool)

    def bit_length(self) -> int:
        return sum(b.size for b in self.bits.values())

    def zero_count(self) -> int:
        return sum(int((~b).sum()) for b in self.bits.values())

    def sparsity(self) -> float:
        """Zeroed fraction of the whole learnable bitmap."""
        total = self.bit_length()
        return self.zero_count() / total if total else 0.0

    def covered_sparsity(self) -> float:
        """Zeroed fraction of the unstructured governed domain."""
        total = sum(self.bits[k].size for k in self.covered)
        if total == 0:
            return 0.0
        zeros = sum(int((~self.bits[k]).sum()) for k in self.covered)
        return zeros / total

    def channel_sparsity(self) -> float:
        if not self.channel_keep:
            return 0.0
        total = sum(k.size for k in self.channel_keep.values())
        kept = sum(int(k.sum()) for k in self.channel_keep.values())
        return (total - kept) / total if total else 0.0

    def copy(self) -> "SparsityMask":
        return SparsityMask(
            {k: v.copy() for k, v in self.bits.items()},
            self.covered,
            None
            if self.channel_keep is None
            else {n: v.copy() for n, v in self.channel_keep.items()},
        )


def _conv_layers(params: ParamSet) -> list[str]:
    return [k[0] for k, v in params.items() if k[1] == ROLE_WEIGHT and v.ndim == 4]


def full_coverage(params: ParamSet) -> tuple[Key, ...]:
    """All conv and dense weights/biases; BN parameters stay structural."""
    return tuple(k for k, _ in params.learnable_items() if k[1] in (ROLE_WEIGHT, ROLE_BIAS))


def fc_coverage(params: ParamSet) -> tuple[Key, ...]:
    """Weights/biases of fully connected layers only (hybrid unstructured domain)."""
    dense = {k[0] for k, v in params.items() if k[1] == ROLE_WEIGHT and v.ndim == 2}
    return tuple(
        k for k, _ in params.learnable_items()
        if k[0] in dense and k[1] in (ROLE_WEIGHT, ROLE_BIAS)
    )


def _ones_bits(params: ParamSet) -> dict[Key, np.ndarray]:
    return {k: np.ones(v.shape, dtype=bool) for k, v in params.learnable_items()}


def _propagate_channels(
    bits: dict[Key, np.ndarray], params: ParamSet, channel_keep: dict[str, np.ndarray]
) -> None:
    convs = _conv_layers(params)
    for i, layer in enumerate(convs):
        keep = channel_keep[layer]
        pruned = ~keep
        if not pruned.any():
            continue
        bits[(layer, ROLE_WEIGHT)][pruned] = False
        bits[(layer, ROLE_BIAS)][pruned] = False
        if (layer, ROLE_BN_SCALE) in bits:
            bits[(layer, ROLE_BN_SCALE)][pruned] = False
            bits[(layer, ROLE_BN_SHIFT)][pruned] = False
        if i + 1 < len(convs):
            nxt = (convs[i + 1], ROLE_WEIGHT)
            if params[nxt].shape[1] != keep.size:
                raise MaskCongruenceError(
                    f"{convs[i + 1]}: input channels {params[nxt].shape[1]} do not follow "
                    f"{layer} output channels {keep.size}"
                )
            bits[nxt][:, pruned] = False


def dense_mask(params: ParamSet, covered: Iterable[Key] | None = None,
               with_channels: bool = False) -> SparsityMask:
    """All-ones mask; starting point for every client."""
    covered = tuple(covered) if covered is not None else full_coverage(params)
    keep = None
    if with_channels:
        keep = {
            layer: np.ones(params[(layer, ROLE_BIAS)].size, dtype=bool)
            for layer in _conv_layers(params)
        }
    return SparsityMask(_ones_bits(params), covered, keep)


def _lamp_scores(values: np.ndarray) -> np.ndarray:
    """LAMP score of every entry of one tensor, flattened, in float64:
    w^2 / sum(w'^2 for |w'| >= |w| in the same tensor). Exact zeros score 0."""
    mag = np.abs(values.ravel()).astype(np.float64)
    # tied magnitudes share one denominator, so their order in the sort is moot
    order = np.argsort(mag)
    ranked = mag[order]
    sq = ranked * ranked
    at_or_above = np.cumsum(sq[::-1])[::-1]
    denom = at_or_above[np.searchsorted(ranked, ranked, side="left")]
    scores = np.empty_like(mag)
    scores[order] = np.divide(sq, denom, out=np.zeros_like(sq), where=denom > 0)
    return scores


def derive_unstructured_mask(
    params: ParamSet, fraction: float, covered: Iterable[Key] | None = None
) -> SparsityMask:
    """Zero the floor(fraction% of the dense covered domain) lowest-LAMP positions.

    Each covered entry scores w^2 / sum(w'^2 for |w'| >= |w| in its own tensor)
    (LAMP, Lee et al. 2021) and the scores are ranked over all covered tensors
    together. Within a tensor the order is that of |w|; across tensors the
    score is scale-free, so a tensor with a small init scale is not emptied
    before the others (pooled |w| emptied the conv layers of synth-cnn, the
    "layer collapse" of SynFlow). A tensor's unique largest entry scores 1 and
    is the last of it to go. Exact zeros score 0, so earlier prunes stay
    pruned. The count is always taken against the dense size of the covered
    domain, not the currently unpruned count; ties break by ascending flat
    index over the covered tensors in order.
    """
    if not 0 <= fraction < 100:
        raise ValueError(f"fraction must lie in [0, 100), got {fraction}")
    covered = tuple(covered) if covered is not None else full_coverage(params)
    for key in covered:
        if key not in params:
            raise MaskCongruenceError(f"covered entry {key} not in params")
    bits = _ones_bits(params)
    sizes = [params[k].size for k in covered]
    n_dense = int(sum(sizes))
    k = int(math.floor(fraction * n_dense / 100 + 1e-9))
    if k > 0:
        pooled = np.concatenate([_lamp_scores(params[key]) for key in covered])
        # the k lowest scores, ties at the k-th score taken by ascending index
        kth = np.partition(pooled, k - 1)[k - 1]
        flat = pooled > kth
        ties = np.flatnonzero(pooled == kth)
        flat[ties[k - int((pooled < kth).sum()):]] = True
        offset = 0
        for key, size in zip(covered, sizes):
            bits[key] = flat[offset:offset + size].reshape(params[key].shape)
            offset += size
    return SparsityMask(bits, covered, None)


def derive_channel_mask(params: ParamSet, fraction: float) -> SparsityMask:
    """Prune floor(fraction% of all conv channels), lowest |BN scale| first.

    Scales pool across every BN layer; ties break by (layer order, channel
    index); each conv layer always keeps at least one channel.
    """
    if not 0 <= fraction < 100:
        raise ValueError(f"fraction must lie in [0, 100), got {fraction}")
    convs = _conv_layers(params)
    bn_layers = [c for c in convs if (c, ROLE_BN_SCALE) in params]
    if not bn_layers:
        raise MaskCongruenceError("channel pruning needs at least one BN layer")
    channel_keep = {
        layer: np.ones(params[(layer, ROLE_BIAS)].size, dtype=bool) for layer in convs
    }
    scales = np.concatenate([np.abs(params[(c, ROLE_BN_SCALE)]) for c in bn_layers])
    owners = [
        (layer, idx)
        for layer in bn_layers
        for idx in range(params[(layer, ROLE_BN_SCALE)].size)
    ]
    total = scales.size
    k = int(math.floor(fraction * total / 100 + 1e-9))
    remaining = {layer: int(channel_keep[layer].sum()) for layer in bn_layers}
    pruned = 0
    for cand in np.argsort(scales, kind="stable"):
        if pruned >= k:
            break
        layer, idx = owners[cand]
        if remaining[layer] <= 1:
            continue  # every conv layer keeps a channel
        channel_keep[layer][idx] = False
        remaining[layer] -= 1
        pruned += 1
    bits = _ones_bits(params)
    _propagate_channels(bits, params, channel_keep)
    return SparsityMask(bits, (), channel_keep)


def combine_masks(channel_part: SparsityMask, unstructured_part: SparsityMask,
                  params: ParamSet) -> SparsityMask:
    """Hybrid composition: channel-induced zeros AND the unstructured bitmap."""
    if channel_part.channel_keep is None:
        raise MaskCongruenceError("first argument must carry a channel keep-set")
    bits = _ones_bits(params)
    _propagate_channels(bits, params, channel_part.channel_keep)
    for key in unstructured_part.covered:
        bits[key] &= unstructured_part.bits[key]
    return SparsityMask(
        bits,
        unstructured_part.covered,
        {n: v.copy() for n, v in channel_part.channel_keep.items()},
    )


def channel_component(mask: SparsityMask, params: ParamSet) -> SparsityMask:
    """The structured part of a (possibly combined) mask, rebuilt standalone."""
    if mask.channel_keep is None:
        raise MaskCongruenceError("mask has no channel part")
    bits = _ones_bits(params)
    _propagate_channels(bits, params, mask.channel_keep)
    return SparsityMask(bits, (), {n: v.copy() for n, v in mask.channel_keep.items()})


def unstructured_component(mask: SparsityMask, params: ParamSet) -> SparsityMask:
    """The unstructured part of a (possibly combined) mask, rebuilt standalone."""
    bits = _ones_bits(params)
    for key in mask.covered:
        bits[key] = mask.bits[key].copy()
    return SparsityMask(bits, mask.covered, None)


def mask_distance(a: SparsityMask, b: SparsityMask) -> float:
    """Hamming distance over the governed domain, normalized by its size.

    Unstructured masks compare their covered bitmaps; channel masks compare
    their keep-sets over the total channel count.
    """
    if a.covered or b.covered:
        if a.covered != b.covered:
            raise MaskCongruenceError("masks govern different unstructured domains")
        total = 0
        diff = 0
        for key in a.covered:
            if a.bits[key].shape != b.bits[key].shape:
                raise MaskCongruenceError(f"bitmap shapes differ at {key}")
            total += a.bits[key].size
            diff += int((a.bits[key] != b.bits[key]).sum())
        return diff / total
    if a.channel_keep is not None and b.channel_keep is not None:
        if list(a.channel_keep.keys()) != list(b.channel_keep.keys()):
            raise MaskCongruenceError("masks cover different conv layers")
        total = 0
        diff = 0
        for layer in a.channel_keep:
            if a.channel_keep[layer].shape != b.channel_keep[layer].shape:
                raise MaskCongruenceError(f"channel counts differ at {layer}")
            total += a.channel_keep[layer].size
            diff += int((a.channel_keep[layer] != b.channel_keep[layer]).sum())
        return diff / total
    raise MaskCongruenceError("masks govern no common domain")


def apply_mask(params: ParamSet, mask: SparsityMask) -> ParamSet:
    """Elementwise product; pruned positions (and pruned channels' running
    statistics) become exactly 0. Returns a new ParamSet."""
    entries = {}
    for key, value in params.items():
        if key[1] in LEARNABLE_ROLES and (
            key not in mask.bits or mask.bits[key].shape != value.shape
        ):
            raise MaskCongruenceError(f"mask incongruent with params at {key}")
        entries[key] = value * mask.keep(key, value.shape)
    return ParamSet(entries)


# ---------------------------------------------------------------------------
# Pruning schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PruneSchedule:
    rate_unstructured: float = 10.0
    rate_structured: float = 10.0
    target_unstructured: float = 30.0
    target_structured: float = 0.0
    acc_threshold: float = 50.0
    eps_unstructured: float = 1e-4
    eps_structured: float = 0.05
    level_unstructured: float = 0.0
    level_structured: float = 0.0

    def __post_init__(self):
        for kind in ("unstructured", "structured"):
            target = getattr(self, f"target_{kind}")
            level = getattr(self, f"level_{kind}")
            if not 0 <= target < 100:
                raise ValueError(f"target_{kind} must lie in [0, 100), got {target}")
            if not 0 <= level <= target:
                raise ValueError(f"level_{kind}={level} outside [0, target={target}]")
            if getattr(self, f"rate_{kind}") < 0:
                raise ValueError(f"rate_{kind} must be non-negative")
            if getattr(self, f"eps_{kind}") < 0:
                raise ValueError(f"eps_{kind} must be non-negative")

    def level(self, kind: str) -> float:
        return getattr(self, f"level_{kind}")

    def target(self, kind: str) -> float:
        return getattr(self, f"target_{kind}")

    def rate(self, kind: str) -> float:
        return getattr(self, f"rate_{kind}")

    def eps(self, kind: str) -> float:
        return getattr(self, f"eps_{kind}")

    def next_fraction(self, kind: str) -> float:
        """The cumulative sparsity a prune event would move to (capped at target)."""
        return min(self.level(kind) + self.rate(kind), self.target(kind))


def should_prune(accuracy: float, schedule: PruneSchedule, delta: float, kind: str) -> bool:
    """Alg. gate: validation accuracy, target not reached, and mask drift >= eps."""
    if kind not in ("unstructured", "structured"):
        raise ValueError(f"kind must be 'unstructured' or 'structured', got {kind!r}")
    return (
        accuracy >= schedule.acc_threshold
        and schedule.level(kind) < schedule.target(kind)
        and delta >= schedule.eps(kind)
    )


def advance_schedule(schedule: PruneSchedule, kind: str) -> PruneSchedule:
    new_level = min(schedule.level(kind) + schedule.rate(kind), schedule.target(kind))
    return replace(schedule, **{f"level_{kind}": new_level})
