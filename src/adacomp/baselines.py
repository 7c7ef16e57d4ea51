"""Comparison codecs: per-bin local selection, layer-wide top-k with
per-sign means, and dense 1-bit quantization. All keep the same
error-feedback residue discipline as the adaptive codec."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import CodecState, GradientVector, PackedLayer, _pack_selected, bin_maxima, layer_scale
from .codec import unpack as unpack_topk  # a top-k pack expands as a PackedLayer does


@dataclass
class TopKPacked:
    """Layer-wide top-k selection: sorted flat indices, per-entry signs, and
    one reconstruction mean per sign."""

    layer_id: int
    element_count: int
    indices: np.ndarray  # int64, strictly increasing
    signs: np.ndarray    # int8, +1/-1, aligned with indices
    pos_scale: float     # mean of selected G >= 0, or 0.0 if none
    neg_scale: float     # mean of selected G < 0, or 0.0 if none

    def entry_count(self) -> int:
        return int(self.indices.size)

    def entry_values(self) -> np.ndarray:
        """The float32 value each entry reconstructs to: its sign's mean."""
        return np.where(self.signs == 1, np.float32(self.pos_scale), np.float32(self.neg_scale))


@dataclass
class OneBitPacked:
    """Dense sign plane plus one reconstruction mean per sign."""

    layer_id: int
    element_count: int
    bits: np.ndarray     # bool, True where G >= 0
    pos_scale: float
    neg_scale: float


@dataclass
class DensePacked:
    """Uncompressed payload, used as the no-codec control."""

    layer_id: int
    values: np.ndarray   # float32


def _seq_mean_f32(values: np.ndarray) -> np.float32:
    """Sequential float64 mean from +0.0, rounded once to the transmitted float32."""
    if values.size == 0:
        return np.float32(0.0)
    # cumsum starts from the first value; + 0.0 makes only a sum of -0.0s +0.0
    return np.float32((np.cumsum(values, dtype=np.float64)[-1] + 0.0) / values.size)


def ls_pack(state: CodecState, dw: GradientVector, bin_size: int) -> tuple[PackedLayer, CodecState]:
    """Send exactly the peak-|G| element of every nonzero bin (ties to the
    lowest index); quantization, scale and residue update match pack()."""
    w = dw.values.astype(np.float64)
    if state.residue.shape != w.shape:
        raise ValueError("residue/gradient shape mismatch")
    g = state.residue + w
    gmax = bin_maxima(g, bin_size)
    scale = np.float32(layer_scale(gmax))
    peaks = np.flatnonzero(np.abs(g) == np.repeat(gmax, bin_size)[:w.size])
    # the first peak of each bin with a nonzero peak; nothing when the mean
    # peak underflows float32
    bins, first = np.unique(peaks // bin_size, return_index=True)
    indices = peaks[first[(gmax[bins] > 0.0) & (scale != 0.0)]]
    return _pack_selected(dw.layer_id, bin_size, g, indices, scale)


def topk_pack(state: CodecState, dw: GradientVector, fraction: float) -> tuple[TopKPacked, CodecState]:
    """Send the ceil(fraction * n) largest-|G| elements of the whole layer
    (ties to the lowest index), reconstructed as the mean of the selected
    values of matching sign. The input state is not mutated."""
    residue = state.residue.copy()
    return topk_pack_into(residue, np.empty_like(residue), dw, fraction), CodecState(residue=residue)


def topk_pack_into(residue: np.ndarray, magnitudes: np.ndarray, dw: GradientVector,
                   fraction: float) -> TopKPacked:
    """``topk_pack`` on a float64 residue held in place: ``residue`` becomes
    the successor residue and ``magnitudes``, an array of its shape, its
    |residue|, bit for bit what ``np.abs`` gives."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if residue.shape != dw.values.shape:
        raise ValueError("residue/gradient shape mismatch")
    g = np.add(residue, dw.values, out=residue)
    indices = _top_k_indices(np.abs(g, out=magnitudes), math.ceil(fraction * g.size))
    sent = g[indices]
    positive = sent >= 0.0
    pos_scale = _seq_mean_f32(sent[positive])
    neg_scale = _seq_mean_f32(sent[~positive])
    # the selected entries have their reconstruction taken off
    kept = sent - np.where(positive, np.float64(pos_scale), np.float64(neg_scale))
    g[indices] = kept
    magnitudes[indices] = np.abs(kept)
    return TopKPacked(dw.layer_id, int(g.size), indices, np.where(positive, 1, -1).astype(np.int8),
                      float(pos_scale), float(neg_scale))


# one |g| in TOPK_SAMPLE_STRIDE estimates the top-k threshold of a layer;
# a prime, so that on a row-major weight matrix the sample walks across all
# columns instead of a fixed few (stride 64 on 256-wide rows sees 4 columns;
# in a 32-step mlp-topk-n16 run its bracket missed in 17 of 1,536 packs,
# stride 61 in none)
TOPK_SAMPLE_STRIDE = 61


def _top_k_indices(mag: np.ndarray, k: int) -> np.ndarray:
    """Increasing indices of the k largest magnitudes ``mag`` (|g|), ties to
    the lowest index and NaN ranked below every number.

    A fixed-stride sample of ``mag`` brackets the k-th largest value from
    below, at twice the sample rank the threshold is expected at, plus
    four. The entries at or above the bracket hold every entry of the
    selection whenever there are at least k of them, and then only they
    are partitioned. NaN never passes the bracket. With fewer than k
    candidates the whole layer is partitioned instead; both give the same
    indices.
    """
    sample = mag[::TOPK_SAMPLE_STRIDE]
    rank = 2 * -(-k // TOPK_SAMPLE_STRIDE) + 4
    if rank <= sample.size:
        bracket = np.partition(sample, sample.size - rank)[sample.size - rank]
        candidates = (mag >= bracket).nonzero()[0]
        if candidates.size >= k:
            return candidates[_top_k_positions(mag[candidates], k)]
    return _top_k_positions(mag, k)


def _top_k_positions(a: np.ndarray, k: int) -> np.ndarray:
    """Increasing positions of the k largest of the magnitudes ``a``, ties to
    the lowest position and NaN last, found in linear time: all entries
    above the k-th largest, then the lowest-position entries equal to it."""
    key = np.negative(a)
    key[np.isnan(key)] = np.inf
    threshold = np.partition(key, k - 1)[k - 1]
    selected = key < threshold
    ties = (key == threshold).nonzero()[0]
    selected[ties[:k - np.count_nonzero(selected)]] = True
    return selected.nonzero()[0]


def onebit_pack(state: CodecState, dw: GradientVector) -> tuple[OneBitPacked, CodecState]:
    """Quantize every element to its sign bit; each side reconstructs to the
    mean of G over that side. Exact zeros count as positive."""
    w = dw.values.astype(np.float64)
    if state.residue.shape != w.shape:
        raise ValueError("residue/gradient shape mismatch")
    g = state.residue + w
    bits = g >= 0.0
    pos_scale = _seq_mean_f32(g[bits])
    neg_scale = _seq_mean_f32(g[~bits])
    # a two-entry table indexed by the sign bit: np.where over a random sign
    # plane mispredicts a branch on every other element
    new_residue = g - np.array([neg_scale, pos_scale], np.float64).take(bits.view(np.uint8))
    packed = OneBitPacked(dw.layer_id, int(w.size), bits, float(pos_scale), float(neg_scale))
    return packed, CodecState(residue=new_residue)


def identity_pack(state: CodecState, dw: GradientVector) -> tuple[DensePacked, CodecState]:
    """No compression: ship the float32 gradient as-is; the residue never
    accumulates anything."""
    if state.residue.shape != dw.values.shape:
        raise ValueError("residue/gradient shape mismatch")
    packed = DensePacked(dw.layer_id, dw.values.copy())
    return packed, CodecState(residue=state.residue.copy())


def unpack_onebit(p: OneBitPacked) -> GradientVector:
    out = np.array([p.neg_scale, p.pos_scale], np.float32).take(p.bits.view(np.uint8))
    return GradientVector(p.layer_id, out)


def unpack_dense(p: DensePacked) -> GradientVector:
    return GradientVector(p.layer_id, p.values.copy())
