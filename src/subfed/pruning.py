"""Subnetwork masks: magnitude pruning, BN-scale channel pruning, the prune gate.

A SparsityMask is one bool vector laid out like its params (`engine.Layout`):
the bitmap at each learnable position, the owning channel's keep bit at
each running statistic. Masking, exchange counting and aggregation are
elementwise operations on it. A pruned channel zeroes its filter, bias, BN
parameters and running statistics, and the next conv layer's input slices.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .engine import (
    ROLE_BIAS,
    ROLE_BN_SCALE,
    ROLE_WEIGHT,
    Key,
    ParamSet,
)


class MaskCongruenceError(ValueError):
    """Masks/params with mismatched entries or shapes."""


class SparsityMask:
    """The positions a client keeps, as one bool vector `flat` in its params'
    `layout`; `bits` views the learnable tensors by key. `covered` names the
    weights and biases the unstructured part governs. A channel is kept
    exactly when its BN-scale position is (`channel_keep`)."""

    def __init__(self, bits: ParamSet, covered: Iterable[Key]):
        """`bits` is a bool ParamSet laid out like the params."""
        self.layout, self.flat = bits.layout, bits.flat
        self.bits = dict(bits.learnable_items())
        self.covered = tuple(covered)
        for key in self.covered:
            if key[1] not in (ROLE_WEIGHT, ROLE_BIAS):
                raise MaskCongruenceError(f"covered entry {key} is not a weight or bias")

    @property
    def channel_keep(self) -> dict[str, np.ndarray]:
        """Each conv layer's bool per out-channel: a copy of its BN-scale bits."""
        return {layer: self.bits[(layer, ROLE_BN_SCALE)].copy() for layer in _conv_layers(self)}

    def bit_length(self) -> int:
        return self.layout.n_learnable

    def zero_count(self) -> int:
        return self.bit_length() - int(np.count_nonzero(self.flat[:self.bit_length()]))

    def sparsity(self) -> float:
        """Zeroed fraction of the whole learnable bitmap."""
        return _zero_fraction(self.flat[:self.bit_length()])

    def covered_sparsity(self) -> float:
        """Zeroed fraction of the unstructured governed domain."""
        return _zero_fraction(self.flat[self.layout.positions(self.covered)])

    def channel_sparsity(self) -> float:
        return _zero_fraction(_channel_bits(self))

    def copy(self) -> "SparsityMask":
        return SparsityMask(ParamSet.over(self.layout, self.flat.copy()), self.covered)


def _zero_fraction(bits: np.ndarray) -> float:
    return (bits.size - int(np.count_nonzero(bits))) / bits.size if bits.size else 0.0


def _conv_layers(of: ParamSet | SparsityMask) -> list[str]:
    return [k[0] for k, s in of.layout.shapes.items() if k[1] == ROLE_WEIGHT and len(s) == 4]


def _channel_bits(mask: SparsityMask) -> np.ndarray:
    """Every conv layer's `channel_keep`, concatenated in layer order."""
    return np.concatenate([np.ones(0, dtype=bool), *mask.channel_keep.values()])


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


def _all_kept(params: ParamSet) -> ParamSet:
    """A bool set in the params' layout, every position kept."""
    return ParamSet.over(params.layout, np.ones(params.layout.size, dtype=bool))


def _channel_mask(params: ParamSet, channel_keep: dict[str, np.ndarray],
                  covered: tuple[Key, ...] = ()) -> SparsityMask:
    """The mask keeping every position but those of pruned channels: their
    filter, bias, BN parameters and running statistics, and the next conv
    layer's input slices."""
    kept = _all_kept(params)
    convs = _conv_layers(params)
    for i, layer in enumerate(convs):
        keep = channel_keep[layer]
        pruned = ~keep
        if not pruned.any():
            continue
        for key, bits in kept.items():
            if key[0] == layer:  # every tensor of a conv layer is out-channel first
                bits[pruned] = False
        if i + 1 < len(convs):
            nxt = (convs[i + 1], ROLE_WEIGHT)
            if params[nxt].shape[1] != keep.size:
                raise MaskCongruenceError(
                    f"{convs[i + 1]}: input channels {params[nxt].shape[1]} do not follow "
                    f"{layer} output channels {keep.size}"
                )
            kept[nxt][:, pruned] = False
    return SparsityMask(kept, covered)


def dense_mask(params: ParamSet, covered: Iterable[Key] | None = None) -> SparsityMask:
    """All-ones mask; starting point for every client."""
    covered = tuple(covered) if covered is not None else full_coverage(params)
    return SparsityMask(_all_kept(params), covered)


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
    kept = _all_kept(params)
    domain = params.layout.positions(covered)
    k = int(math.floor(fraction * domain.size / 100 + 1e-9))
    if k > 0:
        pooled = np.concatenate([_lamp_scores(params[key]) for key in covered])
        # the k lowest scores, ties at the k-th score taken by ascending index
        kth = np.partition(pooled, k - 1)[k - 1]
        keep = pooled > kth
        ties = np.flatnonzero(pooled == kth)
        keep[ties[k - int((pooled < kth).sum()):]] = True
        kept.flat[domain] = keep
    return SparsityMask(kept, covered)


def derive_channel_mask(params: ParamSet, fraction: float) -> SparsityMask:
    """Prune floor(fraction% of the channels of every conv layer), lowest
    |BN scale| first.

    Scales pool across every conv layer; ties break by (layer order, channel
    index); each conv layer always keeps at least one channel.
    """
    if not 0 <= fraction < 100:
        raise ValueError(f"fraction must lie in [0, 100), got {fraction}")
    convs = _conv_layers(params)
    if not convs:
        raise MaskCongruenceError("channel pruning needs at least one conv layer")
    channel_keep = {c: np.ones(params[(c, ROLE_BN_SCALE)].size, dtype=bool) for c in convs}
    owners = [(layer, idx) for layer, keep in channel_keep.items() for idx in range(keep.size)]
    scales = np.abs(np.concatenate([params[(c, ROLE_BN_SCALE)] for c in convs]))
    k = int(math.floor(fraction * scales.size / 100 + 1e-9))
    remaining = {layer: keep.size for layer, keep in channel_keep.items()}
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
    return _channel_mask(params, channel_keep)


def combine_masks(channel_part: SparsityMask, unstructured_part: SparsityMask,
                  params: ParamSet) -> SparsityMask:
    """Hybrid composition: channel-induced zeros AND the unstructured bitmap."""
    mask = _channel_mask(params, channel_part.channel_keep, unstructured_part.covered)
    domain = params.layout.positions(unstructured_part.covered)
    mask.flat[domain] &= unstructured_part.flat[domain]
    return mask


def channel_component(mask: SparsityMask, params: ParamSet) -> SparsityMask:
    """The structured part of a (possibly combined) mask, rebuilt standalone."""
    return _channel_mask(params, mask.channel_keep)


def unstructured_component(mask: SparsityMask, params: ParamSet) -> SparsityMask:
    """The unstructured part of a (possibly combined) mask, rebuilt standalone."""
    kept = _all_kept(params)
    domain = params.layout.positions(mask.covered)
    kept.flat[domain] = mask.flat[domain]
    return SparsityMask(kept, mask.covered)


def mask_distance(a: SparsityMask, b: SparsityMask) -> float:
    """Hamming distance over the governed domain, normalized by its size.

    Unstructured masks compare their covered bitmaps; channel masks compare
    their keep-sets over the total channel count.
    """
    if a.layout != b.layout:
        raise MaskCongruenceError("masks lay out different params")
    if a.covered or b.covered:
        if a.covered != b.covered:
            raise MaskCongruenceError("masks govern different unstructured domains")
        domain = a.layout.positions(a.covered)
        return int(np.count_nonzero(a.flat[domain] != b.flat[domain])) / domain.size
    keep_a, keep_b = _channel_bits(a), _channel_bits(b)
    if not keep_a.size:
        raise MaskCongruenceError("masks govern no common domain")
    return int(np.count_nonzero(keep_a != keep_b)) / keep_a.size


def apply_mask(params: ParamSet, mask: SparsityMask) -> ParamSet:
    """Elementwise product; pruned positions (and pruned channels' running
    statistics) become exactly 0. Returns a new ParamSet."""
    if mask.layout != params.layout:
        raise MaskCongruenceError("mask incongruent with params")
    return ParamSet.over(params.layout, params.flat * mask.flat)


# ---------------------------------------------------------------------------
# Prune gate
# ---------------------------------------------------------------------------


def next_level(level: float, rate: float, target: float) -> float:
    """The cumulative sparsity a prune event moves a level to: one rate step,
    capped at the target."""
    return min(level + rate, target)


def should_prune(accuracy: float, acc_threshold: float, level: float, target: float,
                 delta: float, eps: float) -> bool:
    """Alg. gate: validation accuracy, target not reached, and mask drift >= eps."""
    return accuracy >= acc_threshold and level < target and delta >= eps
