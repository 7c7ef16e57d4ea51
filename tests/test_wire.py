import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adacomp.baselines import DensePacked, OneBitPacked, TopKPacked
from adacomp.codec import MAX_BIN_SIZE, BinConfig, CodecState, GradientVector, pack, unpack
from adacomp.wire import (
    HEADER_BITS,
    EncodedLayer,
    decode,
    effective_compression_rate,
    encode,
    entry_width_bytes,
    payload_bits,
)

from oracles import decode_reference, encode_reference, packed_from_bins


def header_bytes(layer_id, element_count, bin_size, scale):
    return struct.pack("<HIHf", layer_id, element_count, bin_size, scale)


@st.composite
def pack_specs(draw):
    """(layer_id, element_count, bin_size, scale, bins) with per-bin entry
    lists. A bin holds a few entries or up to 600, so full 1-byte bins and
    2-byte bins past the count escape at 255 are drawn too."""
    bin_size = draw(st.sampled_from([1, 3, 8, 50, 63, 64, 65, 500, 4096, 16384]))
    num_bins = draw(st.integers(1, 6))
    last_extent = draw(st.integers(1, min(bin_size, 64)) | st.integers(1, bin_size))
    element_count = (num_bins - 1) * bin_size + last_extent
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bins = []
    for b in range(num_bins):
        extent = bin_size if b < num_bins - 1 else last_extent
        k = draw(st.integers(0, min(extent, 10)) | st.integers(0, min(extent, 600)))
        idxs = np.sort(rng.choice(extent, size=k, replace=False)).tolist()
        bins.append([(i, 1 if rng.random() < 0.5 else -1) for i in idxs])
    scale = float(np.float32(draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))))
    layer_id = draw(st.integers(0, 65535))
    return layer_id, element_count, bin_size, scale, bins


def packs():
    return pack_specs().map(lambda spec: packed_from_bins(*spec))


# ------------------------------------------------------------ byte fixtures

def test_encode_empty_pack_two_bins():
    p = packed_from_bins(1, 8, 4, 0.0, [[], []])
    got = encode(p).data
    assert got == header_bytes(1, 8, 4, 0.0) + b"\x00\x00"


def test_encode_worked_example_bytes():
    # three entries in one 4-wide bin: (0,+) (1,-) (2,+)
    p = packed_from_bins(3, 4, 4, float(np.float32(0.6)), [[(0, 1), (1, -1), (2, 1)]])
    got = encode(p).data
    assert got == header_bytes(3, 4, 4, np.float32(0.6)) + bytes([0x03, 0x01, 0x06, 0x09])


def test_encode_wide_bin_16bit_entry():
    # (300 << 2) | 10b == 0x04B2, little-endian on the wire
    p = packed_from_bins(7, 500, 500, 1.0, [[(300, -1)]])
    got = encode(p).data
    assert got == header_bytes(7, 500, 500, 1.0) + bytes([0x01, 0xB2, 0x04])


def test_entry_width_switches_at_64():
    assert entry_width_bytes(64) == 1
    assert entry_width_bytes(65) == 2


# ------------------------------------------------------------------- errors

def test_encode_count_escape_bytes():
    # counts from 255 up are the escape byte 0xFF and then a u16 count
    for count, prefix in ((254, b"\xfe"), (255, b"\xff\xff\x00"), (300, b"\xff\x2c\x01")):
        p = packed_from_bins(0, 300, 300, 1.0, [[(i, 1) for i in range(count)]])
        body = b"".join(((i << 2) | 0b01).to_bytes(2, "little") for i in range(count))
        assert encode(p).data == header_bytes(0, 300, 300, 1.0) + prefix + body
        assert decode(encode(p)) == p


def test_decode_rejects_bad_count_escape():
    base = header_bytes(0, 300, 300, 1.0)
    with pytest.raises(ValueError, match="unexpected end"):
        decode(EncodedLayer(base + b"\xff\x01"))
    with pytest.raises(ValueError, match="escaped count below 255"):
        decode(EncodedLayer(base + b"\xff\x01\x00" + bytes([0x01, 0x00])))


def test_encode_index_width_exceeded():
    with pytest.raises(ValueError, match="bin_size 20000 outside 1..16384"):
        packed_from_bins(0, 20000, 20000, 1.0, [[]])


@pytest.mark.parametrize("pack, field", [
    (packed_from_bins(70000, 10, 5, 1.0, [[], []]), "layer_id"),
    (packed_from_bins(-1, 10, 5, 1.0, [[], []]), "layer_id"),
    (packed_from_bins(0, 2**32, 16384, 1.0, [[]]), "element_count"),
])
def test_encode_rejects_header_field_overflow(pack, field):
    with pytest.raises(ValueError, match=field):
        encode(pack)


def test_encode_rejects_unsorted_or_out_of_extent_entries():
    with pytest.raises(ValueError, match="strictly increasing"):
        encode(packed_from_bins(0, 4, 4, 1.0, [[(2, 1), (1, 1)]]))
    with pytest.raises(ValueError, match="strictly increasing"):
        encode(packed_from_bins(0, 6, 4, 1.0, [[], [(3, 1)]]))  # last bin extent is 2
    # five entries in a 4-wide bin repeat an index
    with pytest.raises(ValueError, match="strictly increasing"):
        encode(packed_from_bins(0, 4, 4, 1.0, [[(0, 1)] * 5]))


def test_decode_rejects_invalid_code_bits():
    base = header_bytes(0, 4, 4, 1.0)
    for bad in (0b00, 0b11):
        entry = (1 << 2) | bad
        with pytest.raises(ValueError, match="corrupt entry"):
            decode(EncodedLayer(base + bytes([0x01, entry])))


def test_decode_rejects_truncation():
    p = packed_from_bins(3, 4, 4, float(np.float32(0.6)), [[(0, 1), (1, -1), (2, 1)]])
    whole = encode(p).data
    for cut in (3, len(whole) - 1):
        with pytest.raises(ValueError, match="unexpected end"):
            decode(EncodedLayer(whole[:cut]))
    # a header that promises more bins than there are bytes
    with pytest.raises(ValueError, match="unexpected end"):
        decode(EncodedLayer(header_bytes(0, 2**32 - 1, 1, 1.0) + b"\x00"))


# streams encode never writes; each one decoded without error before the
# decoder checked the pack it builds
NaN = float("nan")


@pytest.mark.parametrize("data, message", [
    # a bin holding (1, +) and (1, -): unpack let the last one win
    (header_bytes(0, 8, 4, 1.0) + bytes([2, 0x05, 0x06, 0]), "strictly increasing"),
    (header_bytes(0, 8, 4, 1.0) + bytes([2, 0x09, 0x05, 0]), "strictly increasing"),
    # index 5 in a 4-wide bin would land in the next bin
    (header_bytes(0, 8, 4, 1.0) + bytes([1, 0x15, 0]), "index outside its bin"),
    (header_bytes(0, 4, 4, -1.0) + bytes([0]), "scale -1.0 is not a finite value >= 0"),
    # a NaN scale unpacked to a NaN gradient
    (header_bytes(0, 4, 4, NaN) + bytes([1, 0x05]), "scale nan is not a finite value >= 0"),
    # an infinite scale unpacked to an infinite gradient
    (header_bytes(0, 4, 4, float("inf")) + bytes([1, 0x05]), "scale inf is not a finite value >= 0"),
    (header_bytes(0, 20000, 20000, 1.0) + bytes([0]), "bin_size 20000 outside 1..16384"),
], ids=["duplicate", "decreasing", "index_past_bin", "negative_scale", "nan_scale",
        "inf_scale", "bin_size_20000"])
def test_decode_rejects_streams_encode_never_writes(data, message):
    with pytest.raises(ValueError, match=message):
        decode(EncodedLayer(data))


def test_decode_rejects_trailing_bytes():
    whole = encode(packed_from_bins(1, 8, 4, 0.0, [[], []])).data
    with pytest.raises(ValueError, match="trailing"):
        decode(EncodedLayer(whole + b"\x00"))


# ---------------------------------------------------------------- roundtrip

def test_roundtrip_of_fixture_packs():
    fixtures = [
        packed_from_bins(1, 8, 4, 0.0, [[], []]),
        packed_from_bins(3, 4, 4, float(np.float32(0.6)), [[(0, 1), (1, -1), (2, 1)]]),
        packed_from_bins(7, 500, 500, 1.0, [[(300, -1)]]),
    ]
    for p in fixtures:
        assert decode(encode(p)) == p


@given(packs())
@settings(max_examples=300)
def test_roundtrip_random_packs(p):
    assert decode(encode(p)) == p


@given(pack_specs())
@settings(max_examples=200, deadline=None)
def test_encode_and_decode_match_the_entry_by_entry_reference(spec):
    expected = encode_reference(*spec)
    assert encode(packed_from_bins(*spec)).data == expected
    assert decode_reference(expected) == spec
    assert decode(EncodedLayer(expected)) == packed_from_bins(*decode_reference(expected))


@given(packs())
@settings(max_examples=100)
def test_payload_size_formula(p):
    e = encode(p)
    width = entry_width_bytes(p.bin_size)
    expect = HEADER_BITS + sum(8 + (16 if len(b) >= 255 else 0) + 8 * width * len(b)
                               for b in p.bins)
    assert payload_bits(p) == e.declared_bits == expect == 8 * len(e.data)


@st.composite
def full_layers(draw):
    """A layer of one to two bins of a drawn size up to the maximum; its
    gradient is constant (every entry selected), noisy or mostly zero."""
    bin_size = draw(st.integers(1, MAX_BIN_SIZE))
    n = (draw(st.integers(1, 2)) - 1) * bin_size + draw(st.integers(1, bin_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["constant", "noisy", "sparse"]))
    if shape == "constant":
        dw = np.full(n, 0.5, np.float32)
    else:
        dw = rng.standard_normal(n).astype(np.float32)
        if shape == "sparse":
            dw[rng.random(n) < 0.9] = 0.0
    return bin_size, dw


@given(full_layers())
@example((500, np.full(500, 0.5, np.float32)))
@example((MAX_BIN_SIZE, np.full(MAX_BIN_SIZE + 3, -0.25, np.float32)))
@example((1, np.array([1.0, -2.0, 0.0], np.float32)))
@settings(max_examples=40, deadline=None)
def test_pack_encode_decode_unpack_round_trip_any_bin_size(layer):
    bin_size, dw = layer
    p, _ = pack(CodecState.zeros(dw.size), GradientVector(0, dw), BinConfig(bin_size))
    e = encode(p)
    assert decode(e) == p
    np.testing.assert_array_equal(unpack(decode(e)).values, unpack(p).values)
    counts = sum(8 + (16 if len(b) >= 255 else 0) for b in p.bins)
    entries = 8 * entry_width_bytes(bin_size) * p.entry_count()
    assert payload_bits(p) == e.declared_bits == HEADER_BITS + counts + entries


# ------------------------------------------------------------ rate accounting

def test_rate_examples():
    assert effective_compression_rate(50, 5 * 8) == 40.0
    assert effective_compression_rate(500, 5 * 16) == 200.0
    assert effective_compression_rate(100, 3200) == 1.0
    with pytest.raises(ValueError):
        effective_compression_rate(10, 0)


def test_rate_at_most_five_entries_per_bin_meets_40x():
    # 4 bins of 50 with between 1 and 5 entries each
    bins = [[(i, 1) for i in range(k)] for k in (5, 3, 1, 5)]
    p = packed_from_bins(0, 200, 50, 0.5, bins)
    entry_bits = 8 * entry_width_bytes(p.bin_size) * p.entry_count()
    rate = effective_compression_rate(p.element_count, entry_bits)
    assert rate >= 40.0


def test_payload_bits_per_codec():
    pl = packed_from_bins(1, 8, 4, 0.0, [[], []])
    assert payload_bits(pl) == encode(pl).declared_bits
    tk = TopKPacked(0, 1024, np.array([1, 5]), np.array([1, -1], np.int8), 1.0, -1.0)
    assert payload_bits(tk) == 2 * (10 + 1) + 64
    ob = OneBitPacked(0, 100, np.ones(100, bool), 1.0, 0.0)
    assert payload_bits(ob) == 100 + 64
    de = DensePacked(0, np.zeros(7, np.float32))
    assert payload_bits(de) == 224
