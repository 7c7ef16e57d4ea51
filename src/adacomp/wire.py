"""Bit-exact binary layout for packed layers, plus payload accounting.

Layout (little-endian):
  header: layer_id u16 | element_count u32 | bin_size u16 | scale f32
  body:   per bin in order, an entry count followed by that many entries.
          A count below 255 is one u8; a larger count is the escape byte
          255 followed by the count as u16. Entries are
          (index_within_bin << 2) | code with code 01 = +scale and
          10 = -scale; one byte when bin_size <= 64, two bytes (LE)
          otherwise.

The full layout is documented in docs/wire-format.md and is stable within a
major release.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .baselines import DensePacked, OneBitPacked, TopKPacked
from .codec import PackedLayer

_HEADER = struct.Struct("<HIHf")

HEADER_BITS = _HEADER.size * 8

CODE_PLUS = 0b01
CODE_MINUS = 0b10

# a count byte of COUNT_ESCAPE is followed by the real count as u16
COUNT_ESCAPE = 255


@dataclass
class EncodedLayer:
    data: bytes

    @property
    def declared_bits(self) -> int:
        return 8 * len(self.data)


def entry_width_bytes(bin_size: int) -> int:
    """One byte holds 6 index bits + 2 code bits, enough for bins up to 64."""
    return 1 if bin_size <= 64 else 2


def encode(p: PackedLayer) -> EncodedLayer:
    """Serialize a packed layer; raises ValueError for a header field the
    layout cannot hold."""
    if not 0 <= p.layer_id <= 0xFFFF:
        raise ValueError(f"invalid pack: layer_id {p.layer_id} does not fit in u16")
    if p.element_count > 0xFFFFFFFF:
        raise ValueError(f"invalid pack: element_count {p.element_count} does not fit in u32")
    width = entry_width_bytes(p.bin_size)
    words = ((p.indices % p.bin_size) << 2) | np.where(p.signs > 0, CODE_PLUS, CODE_MINUS)
    entries = words.astype("<u2").view(np.uint8) if width == 2 else words.astype(np.uint8)
    # each bin's count goes before its first entry: one byte, or the escape
    # byte and the count as u16
    counts = p.bin_counts()
    escaped = counts >= COUNT_ESCAPE
    fields = np.stack([np.minimum(counts, COUNT_ESCAPE), counts & 0xFF, counts >> 8], axis=1)
    used = np.stack([np.ones_like(escaped), escaped, escaped], axis=1)
    at = np.repeat(width * (np.cumsum(counts) - counts), np.where(escaped, 3, 1))
    body = np.insert(entries, at, fields[used])
    return EncodedLayer(_HEADER.pack(p.layer_id, p.element_count, p.bin_size, p.scale) + body.tobytes())


def decode(e: EncodedLayer) -> PackedLayer:
    """Exact inverse of encode(); raises ValueError for a stream that encode
    does not write."""
    data = e.data
    if len(data) < _HEADER.size:
        raise ValueError("unexpected end of stream")
    layer_id, element_count, bin_size, scale = _HEADER.unpack_from(data, 0)
    if bin_size < 1 or element_count < 1:
        raise ValueError("corrupt entry: bad header")
    width = entry_width_bytes(bin_size)
    num_bins = -(-element_count // bin_size)
    if len(data) - _HEADER.size < num_bins:
        raise ValueError("unexpected end of stream")  # every bin has a count byte
    # mark the count bytes; each count's offset depends on the counts before it
    is_count = np.zeros(len(data), dtype=bool)
    counts = np.empty(num_bins, dtype=np.int64)
    pos = _HEADER.size
    try:
        for b in range(num_bins):
            is_count[pos] = True
            count = data[pos]
            pos += 1
            if count == COUNT_ESCAPE:
                count = data[pos] | data[pos + 1] << 8
                is_count[pos:pos + 2] = True
                pos += 2
                if count < COUNT_ESCAPE:
                    raise ValueError("corrupt entry: escaped count below 255")
            counts[b] = count
            pos += width * count
    except IndexError:
        raise ValueError("unexpected end of stream") from None
    if pos != len(data):
        raise ValueError("unexpected end of stream" if pos > len(data) else "corrupt entry: trailing bytes")
    is_count[:_HEADER.size] = True
    entries = np.frombuffer(data, dtype=np.uint8)[~is_count]
    words = (entries.view("<u2") if width == 2 else entries).astype(np.int64)
    code = words & 0b11
    if ((code != CODE_PLUS) & (code != CODE_MINUS)).any():
        raise ValueError("corrupt entry: invalid code bits")
    local = words >> 2
    if (local >= bin_size).any():
        raise ValueError("corrupt entry: index outside its bin")
    indices = np.repeat(np.arange(num_bins, dtype=np.int64) * bin_size, counts) + local
    signs = np.where(code == CODE_PLUS, 1, -1).astype(np.int8)
    return PackedLayer(layer_id, element_count, bin_size, scale, indices, signs)


def effective_compression_rate(element_count: int, payload_bits: int) -> float:
    """Size of the dense 32-bit representation over the transmitted bits."""
    if payload_bits <= 0:
        raise ValueError("payload_bits must be positive")
    return 32.0 * element_count / payload_bits


def payload_bits(p: PackedLayer | TopKPacked | OneBitPacked | DensePacked,
                 counts: np.ndarray | None = None) -> int:
    """Transmitted size in bits for any codec's pack.

    PackedLayer is the size of its encoding, computed from its bin counts
    without encoding it (docs/wire-format.md); a caller that already holds
    ``p.bin_counts()`` may pass them as ``counts``. The other codecs have
    no bin structure on the wire: top-k entries carry a flat layer index plus
    a sign bit and two 32-bit means; the 1-bit plane is one bit per element
    plus two 32-bit means; dense is 32 bits per element.
    """
    if isinstance(p, PackedLayer):
        counts = p.bin_counts() if counts is None else counts
        return (HEADER_BITS + 8 * counts.size + 16 * int(np.count_nonzero(counts >= COUNT_ESCAPE))
                + 8 * entry_width_bytes(p.bin_size) * p.entry_count())
    if isinstance(p, TopKPacked):
        index_bits = max(1, math.ceil(math.log2(p.element_count)))
        return p.entry_count() * (index_bits + 1) + 64
    if isinstance(p, OneBitPacked):
        return p.element_count + 64
    if isinstance(p, DensePacked):
        return 32 * int(np.asarray(p.values).size)
    raise TypeError(f"unknown pack type: {type(p).__name__}")
