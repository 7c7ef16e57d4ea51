"""Bin-local residual gradient compression with ternary quantization.

A layer's serialized gradient is cut into fixed-length bins. Each step the
fresh gradient is folded into a per-element residue accumulator; an element
is transmitted when its residue plus twice the fresh gradient reaches the
peak magnitude of its bin, and every transmitted element is encoded as
sign * one shared per-layer scale (the mean of the per-bin peaks). Whatever
was not sent, and the quantization error of what was, stays in the residue
and is retried on the next step.

A pack holds the increasing layer positions of the sent elements and their
signs as two flat arrays; its entries per bin are counted once, when it is built.

Every codec, here and in ``baselines``, is one pack function whose optional
last argument is ``magnitudes``. Without it the pack works on a copy of the
residue and leaves the input state as it was; with it, an array of the
residue's shape, the pack works on the float64 ``state.residue`` itself and
leaves the successor residue there and its |residue| in ``magnitudes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# 16-bit wire entries leave 14 bits of index after the 2 code bits
MAX_BIN_SIZE = 16384


@dataclass
class GradientVector:
    """Serialized gradient of one layer.

    Layout is the canonical row-major ravel of the parameter tensor
    (convolutions: out-map, in-map, kernel row, kernel col) with the bias
    appended last.
    """

    layer_id: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float32)
        if v.ndim != 1:
            raise ValueError("gradient vector must be 1-D")
        if v.size == 0:
            raise ValueError("empty gradient vector")
        self.values = v


@dataclass
class BinConfig:
    """Bin length and the soft-threshold multiplier on the fresh gradient.

    ``scale_factor`` stays at 2.0 outside sensitivity experiments; the
    selection test then reduces to |residue + 2*dW| >= bin max.
    """

    bin_size: int
    scale_factor: float = 2.0

    def __post_init__(self) -> None:
        if not 1 <= int(self.bin_size) <= MAX_BIN_SIZE:
            raise ValueError(f"bin_size must be in [1, {MAX_BIN_SIZE}], got {self.bin_size}")
        if not 1.0 <= float(self.scale_factor) <= 4.0:
            raise ValueError(f"scale_factor must be in [1.0, 4.0], got {self.scale_factor}")


@dataclass(eq=False)
class PackedLayer:
    """Sparse ternary selection for one layer.

    ``indices`` are the flat layer positions of the sent elements, strictly
    increasing (int64), and ``signs`` the code of each (int8): +1/-1
    reconstructs to +scale/-scale. Bin b is positions [b * bin_size,
    (b + 1) * bin_size) cut at element_count; its entries are the indices
    inside it. ``counts``, the entries in each bin, is set once the checks
    pass, not passed in: wire size and entries per bin are read off it.
    """

    layer_id: int
    element_count: int
    bin_size: int
    scale: float  # float32-representable, finite, >= 0
    indices: np.ndarray
    signs: np.ndarray
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """Raise ValueError unless this is a pack that encode can write and
        unpack can expand."""
        if not 1 <= self.bin_size <= MAX_BIN_SIZE:
            raise ValueError(f"invalid pack: bin_size {self.bin_size} outside 1..{MAX_BIN_SIZE}")
        if self.element_count < 1:
            raise ValueError(f"invalid pack: element_count {self.element_count} below 1")
        if not 0.0 <= self.scale < np.inf:
            raise ValueError(f"invalid pack: scale {self.scale} is not a finite value >= 0")
        # a strictly increasing run's extremes are its ends, and a comparison
        # cannot wrap the way an int64 difference can
        idx = self.indices
        if idx.ndim != 1 or idx.size and not (
                idx[0] >= 0 and idx[-1] < self.element_count and (idx[1:] > idx[:-1]).all()):
            raise ValueError("invalid pack: indices not strictly increasing inside [0, element_count)")
        if self.signs.shape != idx.shape or not (np.abs(self.signs) == 1).all():
            raise ValueError("invalid pack: need one sign of +1 or -1 per index")
        self.counts = np.bincount(idx // self.bin_size, minlength=self.num_bins)

    @property
    def num_bins(self) -> int:
        return -(-self.element_count // self.bin_size)

    def entry_count(self) -> int:
        return int(self.indices.size)

    def entry_values(self) -> np.ndarray:
        """The float32 value each entry reconstructs to: +scale or -scale."""
        scale = np.float32(self.scale)
        return np.where(self.signs > 0, scale, -scale)

    @property
    def bins(self) -> list[list[tuple[int, int]]]:
        """Read-only view: per bin, its (index within bin, sign) entries."""
        entries = list(zip((self.indices % self.bin_size).tolist(), self.signs.tolist()))
        ends = np.cumsum(self.counts).tolist()
        return [entries[a:b] for a, b in zip([0] + ends, ends)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PackedLayer)
                and (self.layer_id, self.element_count, self.bin_size, self.scale)
                == (other.layer_id, other.element_count, other.bin_size, other.scale)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.signs, other.signs))


@dataclass
class CodecState:
    """Per-layer error-feedback memory, owned by exactly one learner.

    The residue is held in float64 even though gradients are float32: with a
    float32 accumulator, (G - sent) + sent need not round back to G, so the
    conservation identity residue' + sent == residue + dW would fail by an
    ulp whenever the shared scale dwarfs a selected element.
    """

    residue: np.ndarray

    @classmethod
    def zeros(cls, length: int) -> "CodecState":
        return cls(residue=np.zeros(int(length), dtype=np.float64))


def bin_maxima(g: np.ndarray, bin_size: int) -> np.ndarray:
    """Largest absolute value in each bin; the last bin may be partial and is
    reduced over its true extent only."""
    v = np.asarray(g)
    if v.size == 0:
        raise ValueError("empty gradient vector")
    if bin_size < 1:
        raise ValueError("bin_size must be >= 1")
    return _bin_peaks(np.abs(v.astype(np.float64, copy=False)), bin_size)


def _bin_peaks(magnitudes: np.ndarray, bin_size: int) -> np.ndarray:
    """bin_maxima of values whose |.| ``magnitudes`` already holds."""
    return np.maximum.reduceat(magnitudes, np.arange(0, magnitudes.size, bin_size))


def layer_scale(g_max: np.ndarray) -> float:
    """Arithmetic mean of the per-bin maxima, zero bins included.

    Accumulates sequentially in float64 so a plain reference loop reproduces
    the value bit for bit.
    """
    g = np.asarray(g_max, dtype=np.float64)
    if g.size == 0:
        raise ValueError("at least one bin required")
    return float(np.cumsum(g)[-1] / g.size)


def _held(state: CodecState, dw: GradientVector, magnitudes) -> tuple[np.ndarray, np.ndarray]:
    """The float64 residue a pack works on and the array its |residue| goes
    to: ``state.residue`` itself and ``magnitudes`` when these are given, a
    copy and a new array when not, which leaves the input state as it was."""
    if state.residue.shape != dw.values.shape:
        raise ValueError("residue/gradient shape mismatch")
    if magnitudes is None:
        return state.residue.astype(np.float64), np.empty(state.residue.shape)
    return state.residue, magnitudes


def _pack_selected(layer_id: int, bin_size: int, g: np.ndarray, magnitudes: np.ndarray,
                   indices: np.ndarray, scale: np.float32) -> tuple[PackedLayer, CodecState]:
    """The pack of g's elements at ``indices``, each sent as sign(g) * scale
    with sign(+-0) = +1, and the successor state: ``g`` becomes the new
    residue once the sent values are taken off, and ``magnitudes``, which
    holds |g|, its |residue|."""
    sent = g[indices]
    positive = sent >= 0.0
    s = np.float64(scale)
    kept = sent - np.where(positive, s, -s)
    g[indices] = kept
    magnitudes[indices] = np.abs(kept)
    packed = PackedLayer(layer_id, int(g.size), int(bin_size), float(scale), indices,
                         np.where(positive, 1, -1).astype(np.int8))
    return packed, CodecState(residue=g)


def pack(state: CodecState, dw: GradientVector, cfg: BinConfig,
         magnitudes: np.ndarray | None = None) -> tuple[PackedLayer, CodecState]:
    """Compress one layer's gradient against its residue.

    Returns the sparse selection and the successor state, pure or in place
    as the module docstring says. Element i of bin b is sent iff
    |residue_i + scale_factor * dw_i| >= max|residue + dw| over bin b and the
    bin's max is nonzero; sent elements are quantized to
    sign(residue_i + dw_i) * scale with sign(+-0) = +1.
    """
    g, mag = _held(state, dw, magnitudes)
    w = dw.values.astype(np.float64)
    np.add(g, w, out=g)
    h = g + (float(cfg.scale_factor) - 1.0) * w
    gmax = _bin_peaks(np.abs(g, out=mag), cfg.bin_size)
    scale = np.float32(layer_scale(gmax))
    # an all-zero bin sends nothing, nor does a layer whose mean peak
    # underflows float32: no finite |h| reaches an infinite threshold
    threshold = np.where((gmax > 0.0) & (scale != 0.0), gmax, np.inf)
    selected = np.abs(h, out=h) >= np.repeat(threshold, cfg.bin_size)[:g.size]
    return _pack_selected(dw.layer_id, cfg.bin_size, g, mag, np.flatnonzero(selected), scale)


def unpack(p) -> GradientVector:
    """Expand a ``PackedLayer`` or top-k pack to its dense float32 form: each
    entry's value at its position, exact zero everywhere else."""
    out = np.zeros(p.element_count, dtype=np.float32)
    out[p.indices] = p.entry_values()
    return GradientVector(p.layer_id, out)
