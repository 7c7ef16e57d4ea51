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
from .codec import MAX_BIN_SIZE, PackedLayer

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
    """Serialize a packed layer; raises if the pack violates its invariants."""
    if not 0 <= p.layer_id <= 0xFFFF:
        raise ValueError(f"invalid pack: layer_id {p.layer_id} does not fit in u16")
    if p.element_count > 0xFFFFFFFF:
        raise ValueError(f"invalid pack: element_count {p.element_count} does not fit in u32")
    if p.bin_size > MAX_BIN_SIZE:
        raise ValueError("index width exceeded")
    if p.bin_size < 1 or p.element_count < 1:
        raise ValueError("invalid pack: bad bin_size or element_count")
    if p.num_bins != -(-p.element_count // p.bin_size):
        raise ValueError("invalid pack: bin count does not match element count")
    if not p.scale >= 0.0:
        raise ValueError("invalid pack: negative scale")
    width = entry_width_bytes(p.bin_size)
    out = bytearray(_HEADER.pack(p.layer_id, p.element_count, p.bin_size, p.scale))
    for b, entries in enumerate(p.bins):
        extent = min(p.bin_size, p.element_count - b * p.bin_size)
        if len(entries) > extent:
            raise ValueError("invalid pack: more entries than the bin holds")
        if len(entries) < COUNT_ESCAPE:
            out.append(len(entries))
        else:
            out.append(COUNT_ESCAPE)
            out += len(entries).to_bytes(2, "little")
        prev = -1
        for idx, code in entries:
            if not prev < idx < extent:
                raise ValueError("invalid pack: entry indices must be strictly increasing within the bin")
            prev = idx
            if code == 1:
                word = (idx << 2) | CODE_PLUS
            elif code == -1:
                word = (idx << 2) | CODE_MINUS
            else:
                raise ValueError(f"invalid pack: code must be +1 or -1, got {code}")
            out += word.to_bytes(width, "little")
    return EncodedLayer(bytes(out))


def decode(e: EncodedLayer) -> PackedLayer:
    """Exact inverse of encode()."""
    data = e.data
    if len(data) < _HEADER.size:
        raise ValueError("unexpected end of stream")
    layer_id, element_count, bin_size, scale = _HEADER.unpack_from(data, 0)
    if bin_size < 1 or element_count < 1:
        raise ValueError("corrupt entry: bad header")
    width = entry_width_bytes(bin_size)
    num_bins = -(-element_count // bin_size)
    pos = _HEADER.size
    bins: list[list[tuple[int, int]]] = []
    for _ in range(num_bins):
        if pos + 1 > len(data):
            raise ValueError("unexpected end of stream")
        count = data[pos]
        pos += 1
        if count == COUNT_ESCAPE:
            if pos + 2 > len(data):
                raise ValueError("unexpected end of stream")
            count = int.from_bytes(data[pos:pos + 2], "little")
            pos += 2
            if count < COUNT_ESCAPE:
                raise ValueError("corrupt entry: escaped count below 255")
        if pos + count * width > len(data):
            raise ValueError("unexpected end of stream")
        entries: list[tuple[int, int]] = []
        for _ in range(count):
            word = int.from_bytes(data[pos:pos + width], "little")
            pos += width
            code_bits = word & 0b11
            if code_bits == CODE_PLUS:
                code = 1
            elif code_bits == CODE_MINUS:
                code = -1
            else:
                raise ValueError("corrupt entry: invalid code bits")
            entries.append((word >> 2, code))
        bins.append(entries)
    if pos != len(data):
        raise ValueError("corrupt entry: trailing bytes")
    return PackedLayer(layer_id, element_count, bin_size, scale, bins)


def effective_compression_rate(element_count: int, payload_bits: int) -> float:
    """Size of the dense 32-bit representation over the transmitted bits."""
    if payload_bits <= 0:
        raise ValueError("payload_bits must be positive")
    return 32.0 * element_count / payload_bits


def entry_bits(p: PackedLayer) -> int:
    """Bits spent on entries alone, excluding header and per-bin counts;
    this is the quantity behind the 40x / 200x arithmetic."""
    return 8 * entry_width_bytes(p.bin_size) * p.entry_count()


def payload_bits(p: PackedLayer | TopKPacked | OneBitPacked | DensePacked) -> int:
    """Transmitted size in bits for any codec's pack.

    PackedLayer is measured from its actual encoding. The other codecs have
    no bin structure on the wire: top-k entries carry a flat layer index plus
    a sign bit and two 32-bit means; the 1-bit plane is one bit per element
    plus two 32-bit means; dense is 32 bits per element.
    """
    if isinstance(p, PackedLayer):
        return encode(p).declared_bits
    if isinstance(p, TopKPacked):
        index_bits = max(1, math.ceil(math.log2(p.element_count)))
        return p.entry_count() * (index_bits + 1) + 64
    if isinstance(p, OneBitPacked):
        return p.element_count + 64
    if isinstance(p, DensePacked):
        return 32 * int(np.asarray(p.values).size)
    raise TypeError(f"unknown pack type: {type(p).__name__}")
