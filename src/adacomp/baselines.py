"""Comparison codecs: per-bin local selection, layer-wide top-k with
per-sign means, dense 1-bit quantization and no compression. All keep the
same error-feedback residue discipline as the adaptive codec, and each is
one pack function that is pure without ``magnitudes`` and works in place on
the state's residue with them, as ``codec.pack`` does."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import CodecState, GradientVector, PackedLayer, _bin_peaks, _held, _pack_selected, layer_scale
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


def _sign_means(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(side, means): side is 1 (uint8) where a value is >= 0.0, -0.0 too, else
    0, NaN too; means[s] is side s's float64 sum in index order (np.bincount's
    weights) from +0.0 over max(count, 1), rounded once to the transmitted float32."""
    side = (values >= 0.0).view(np.uint8)
    sums = np.bincount(side, weights=values, minlength=2)
    return side, (sums / np.maximum(np.bincount(side, minlength=2), 1)).astype(np.float32)


def ls_pack(state: CodecState, dw: GradientVector, bin_size: int,
            magnitudes: np.ndarray | None = None) -> tuple[PackedLayer, CodecState]:
    """Send exactly the peak-|G| element of every nonzero bin (ties to the
    lowest index); quantization, scale, residue update and ``magnitudes``
    match pack()."""
    g, mag = _held(state, dw, magnitudes)
    np.add(g, dw.values, out=g)
    gmax = _bin_peaks(np.abs(g, out=mag), bin_size)
    scale = np.float32(layer_scale(gmax))
    peaks = np.flatnonzero(mag == np.repeat(gmax, bin_size)[:g.size])
    # the first peak of each bin with a nonzero peak; nothing when the mean
    # peak underflows float32
    bins, first = np.unique(peaks // bin_size, return_index=True)
    indices = peaks[first[(gmax[bins] > 0.0) & (scale != 0.0)]]
    return _pack_selected(dw.layer_id, bin_size, g, mag, indices, scale)


def topk_pack(state: CodecState, dw: GradientVector, fraction: float,
              magnitudes: np.ndarray | None = None) -> tuple[TopKPacked, CodecState]:
    """Send the ceil(fraction * n) largest-|G| elements of the whole layer
    (ties to the lowest index), reconstructed as the mean of the selected
    values of matching sign. State and ``magnitudes`` as in pack()."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    g, mag = _held(state, dw, magnitudes)
    np.add(g, dw.values, out=g)
    indices = _top_k_indices(np.abs(g, out=mag), math.ceil(fraction * g.size))
    sent = g[indices]
    side, (neg_scale, pos_scale) = _sign_means(sent)
    # the selected entries have their reconstruction taken off
    kept = sent - np.array([neg_scale, pos_scale], np.float64).take(side)
    g[indices] = kept
    mag[indices] = np.abs(kept)
    packed = TopKPacked(dw.layer_id, int(g.size), indices, np.array([-1, 1], np.int8).take(side),
                        float(pos_scale), float(neg_scale))
    return packed, CodecState(residue=g)


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
    candidates the whole layer is partitioned instead, its NaN read as -1.0
    below every magnitude; both give the same indices.
    """
    sample = mag[::TOPK_SAMPLE_STRIDE]
    rank = 2 * -(-k // TOPK_SAMPLE_STRIDE) + 4
    if rank <= sample.size:
        bracket = np.partition(sample, sample.size - rank)[sample.size - rank]
        candidates = (mag >= bracket).nonzero()[0]
        if candidates.size >= k:
            return candidates[_top_k_positions(mag[candidates], k)]
    return _top_k_positions(np.where(np.isnan(mag), -1.0, mag), k)


def _top_k_positions(a: np.ndarray, k: int) -> np.ndarray:
    """Increasing positions of the k largest of the NaN-free ``a``, ties to
    the lowest position, found in linear time: all entries above the k-th
    largest, then the lowest-position entries equal to it."""
    threshold = np.partition(a, a.size - k)[a.size - k]
    selected = a >= threshold
    if np.count_nonzero(selected) > k:  # ties at the k-th: keep the lowest
        selected[(a == threshold).nonzero()[0][k - np.count_nonzero(a > threshold):]] = False
    return selected.nonzero()[0]


def onebit_pack(state: CodecState, dw: GradientVector,
                magnitudes: np.ndarray | None = None) -> tuple[OneBitPacked, CodecState]:
    """Quantize every element to its sign bit; each side reconstructs to the
    mean of G over that side. Exact zeros count as positive. State and
    ``magnitudes`` as in pack()."""
    g, mag = _held(state, dw, magnitudes)
    np.add(g, dw.values, out=g)
    side, (neg_scale, pos_scale) = _sign_means(g)
    # a two-entry table indexed by the sign bit: np.where over a random sign
    # plane mispredicts a branch on every other element
    g -= np.array([neg_scale, pos_scale], np.float64).take(side)
    np.abs(g, out=mag)
    packed = OneBitPacked(dw.layer_id, int(g.size), side.view(bool), float(pos_scale), float(neg_scale))
    return packed, CodecState(residue=g)


def identity_pack(state: CodecState, dw: GradientVector,
                  magnitudes: np.ndarray | None = None) -> tuple[DensePacked, CodecState]:
    """No compression: ship the float32 gradient as-is; the residue never
    accumulates anything. State and ``magnitudes`` as in pack()."""
    g, mag = _held(state, dw, magnitudes)
    np.abs(g, out=mag)
    return DensePacked(dw.layer_id, dw.values.copy()), CodecState(residue=g)


def unpack_onebit(p: OneBitPacked) -> GradientVector:
    out = np.array([p.neg_scale, p.pos_scale], np.float32).take(p.bits.view(np.uint8))
    return GradientVector(p.layer_id, out)


def unpack_dense(p: DensePacked) -> GradientVector:
    return GradientVector(p.layer_id, p.values.copy())
