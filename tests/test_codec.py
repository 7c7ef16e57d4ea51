import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adacomp import codec
from adacomp.baselines import ls_pack
from adacomp.codec import (
    BinConfig,
    CodecState,
    GradientVector,
    PackedLayer,
    bin_maxima,
    layer_scale,
    pack,
    unpack,
)
from adacomp.wire import decode, encode

from oracles import adacomp_pack_reference, packed_from_bins

# Float32-lattice values with magnitude in {0} or [0.01, 50]. Inside this
# envelope every quantity the codec touches lives on a 2^-36 grid below 2^10,
# so float64 carries the conservation identity without rounding; layers mixing
# magnitudes across ~16 orders (never seen in real gradients) can round it.
f32s = st.floats(min_value=-50.0, max_value=50.0, width=32,
                 allow_nan=False, allow_infinity=False, allow_subnormal=False,
                 ).map(lambda x: 0.0 if abs(x) < 0.01 else x)


@st.composite
def codec_cases(draw, max_len=64):
    n = draw(st.integers(1, max_len))
    residue = np.array(draw(st.lists(f32s, min_size=n, max_size=n)), dtype=np.float32)
    dw = np.array(draw(st.lists(f32s, min_size=n, max_size=n)), dtype=np.float32)
    bin_size = draw(st.integers(1, max_len))
    return residue, dw, bin_size


def make_state(residue):
    return CodecState(residue=np.asarray(residue, dtype=np.float64))


def entries_flat(p: PackedLayer):
    return [(b * p.bin_size + i, code) for b, entries in enumerate(p.bins) for i, code in entries]


# ---------------------------------------------------------------- bin_maxima

def test_bin_maxima_all_zero():
    assert bin_maxima(np.zeros(4, np.float32), 2).tolist() == [0.0, 0.0]


def test_bin_maxima_single_bin():
    g = np.array([0.6, -0.4, 0.5, 0.05], dtype=np.float32)
    got = bin_maxima(g, 4)
    assert got.shape == (1,)
    assert got[0] == np.float64(np.float32(0.6))


def test_bin_maxima_partial_last_bin():
    g = np.array([1, -3, 2, 0.5, -0.25], dtype=np.float32)
    assert bin_maxima(g, 2).tolist() == [3.0, 2.0, 0.25]


def test_bin_maxima_of_gradient_vector_values():
    gv = GradientVector(0, np.array([1.0, -2.0], np.float32))
    assert bin_maxima(gv.values, 1).tolist() == [1.0, 2.0]


def test_bin_maxima_empty_errors():
    with pytest.raises(ValueError, match="empty gradient vector"):
        bin_maxima(np.zeros(0, np.float32), 2)


@given(codec_cases())
def test_bin_maxima_matches_naive(case):
    residue, dw, bin_size = case
    g = residue.astype(np.float64) + dw.astype(np.float64)
    got = bin_maxima(g, bin_size)
    expect = [max(abs(x) for x in g[s:s + bin_size])
              for s in range(0, len(g), bin_size)]
    assert got.tolist() == expect
    # the packs reduce the |g| they already hold
    assert codec._bin_peaks(np.abs(g), bin_size).tolist() == expect


# --------------------------------------------------------------- layer_scale

def test_layer_scale_examples():
    assert layer_scale(np.array([0.6])) == 0.6
    assert layer_scale(np.array([0.6, 0.2])) == pytest.approx(0.4, rel=1e-12)
    assert layer_scale(np.array([0.0, 0.0, 0.0])) == 0.0


def test_layer_scale_empty_errors():
    with pytest.raises(ValueError, match="at least one bin"):
        layer_scale(np.array([]))


# ---------------------------------------------------------------------- pack

def test_pack_worked_example():
    state = make_state(np.array([0.5, -0.1, 0.2, 0.0], np.float32))
    dw = GradientVector(3, np.array([0.1, -0.3, 0.3, 0.05], np.float32))
    packed, new_state = pack(state, dw, BinConfig(bin_size=4))
    assert packed.layer_id == 3
    assert packed.element_count == 4
    assert packed.scale == pytest.approx(0.6, abs=1e-6)
    assert entries_flat(packed) == [(0, 1), (1, -1), (2, 1)]
    np.testing.assert_allclose(new_state.residue, [0.0, 0.2, -0.1, 0.05], atol=1e-6)
    # untouched input state
    np.testing.assert_array_equal(state.residue, np.float32([0.5, -0.1, 0.2, 0.0]).astype(np.float64))


def test_pack_all_zero_layer():
    state = make_state(np.zeros(6))
    dw = GradientVector(0, np.zeros(6, np.float32))
    packed, new_state = pack(state, dw, BinConfig(bin_size=2))
    assert packed.scale == 0.0
    assert packed.entry_count() == 0
    np.testing.assert_array_equal(new_state.residue, np.zeros(6))


def test_pack_can_select_nothing_when_dw_opposes_residue():
    # the literal rule drops even the bin max when |H| stays under g_max
    state = make_state(np.array([1.0, 0.0]))
    dw = GradientVector(0, np.array([-0.6, 0.1], np.float32))
    packed, new_state = pack(state, dw, BinConfig(bin_size=2))
    assert packed.entry_count() == 0
    assert packed.scale == pytest.approx(0.4, abs=1e-6)
    np.testing.assert_allclose(new_state.residue, [0.4, 0.1], atol=1e-6)


def test_pack_shape_mismatch():
    state = make_state(np.zeros(3))
    with pytest.raises(ValueError, match="residue/gradient shape mismatch"):
        pack(state, GradientVector(0, np.zeros(4, np.float32)), BinConfig(bin_size=2))


def test_bin_config_bounds():
    with pytest.raises(ValueError, match="bin_size"):
        BinConfig(bin_size=0)
    with pytest.raises(ValueError, match="bin_size"):
        BinConfig(bin_size=16385)
    with pytest.raises(ValueError, match="scale_factor"):
        BinConfig(bin_size=8, scale_factor=0.5)
    BinConfig(bin_size=16384, scale_factor=1.5)  # in range


# -------------------------------------------------------------------- unpack

def test_unpack_empty():
    p = packed_from_bins(0, 4, 2, 0.0, [[], []])
    np.testing.assert_array_equal(unpack(p).values, np.zeros(4, np.float32))


def test_unpack_worked_example():
    state = make_state(np.array([0.5, -0.1, 0.2, 0.0], np.float32))
    dw = GradientVector(0, np.array([0.1, -0.3, 0.3, 0.05], np.float32))
    packed, _ = pack(state, dw, BinConfig(bin_size=4))
    dense = unpack(packed).values
    s = np.float32(packed.scale)
    np.testing.assert_array_equal(dense, np.array([s, -s, s, 0.0], np.float32))


def test_unpack_positions_across_bins():
    p = packed_from_bins(0, 8, 4, 0.25, [[], [(2, -1)]])
    dense = unpack(p).values
    expect = np.zeros(8, np.float32)
    expect[6] = np.float32(-0.25)
    np.testing.assert_array_equal(dense, expect)


def test_unpack_rejects_index_outside_partial_bin():
    # element_count 6 with bin_size 4 leaves the last bin extent 2
    with pytest.raises(ValueError, match="invalid pack: indices"):
        packed_from_bins(0, 6, 4, 0.5, [[], [(3, 1)]])
    # in range at both ends, and every int64 step positive once it wraps
    wrapped = np.array([0, 2**63 - 1, -2**63, -1, 5], dtype=np.int64)
    with pytest.raises(ValueError, match="invalid pack: indices"):
        PackedLayer(0, 6, 4, 0.5, wrapped, np.ones(5, np.int8))


def test_bins_view_and_equality():
    p = packed_from_bins(2, 10, 4, 0.5, [[(1, 1), (3, -1)], [], [(0, -1)]])
    assert p.indices.tolist() == [1, 3, 8]
    assert p.signs.tolist() == [1, -1, -1]
    assert p.num_bins == 3 and p.entry_count() == 3
    assert p.counts.tolist() == [2, 0, 1]
    assert p.bins == [[(1, 1), (3, -1)], [], [(0, -1)]]
    assert p == packed_from_bins(2, 10, 4, 0.5, p.bins)
    for changed in (packed_from_bins(2, 10, 4, 0.5, [[(1, 1), (2, -1)], [], [(0, -1)]]),
                    packed_from_bins(2, 10, 4, 0.5, [[(1, 1), (3, 1)], [], [(0, -1)]]),
                    packed_from_bins(2, 10, 4, 0.25, p.bins),
                    packed_from_bins(3, 10, 4, 0.5, p.bins),
                    packed_from_bins(2, 11, 4, 0.5, p.bins),
                    PackedLayer(2, 10, 5, 0.5, p.indices, p.signs)):
        assert p != changed
    assert p != p.bins


# ---------------------------------------------------------------- properties

@given(codec_cases())
@settings(max_examples=200)
def test_residue_conservation_is_bit_exact(case):
    residue, dw, bin_size = case
    state = make_state(residue)
    packed, new_state = pack(state, GradientVector(0, dw), BinConfig(bin_size=bin_size))
    dense = unpack(packed).values.astype(np.float64)
    lhs = new_state.residue + dense
    rhs = state.residue + dw.astype(np.float64)
    np.testing.assert_array_equal(lhs, rhs)


@given(codec_cases())
@settings(max_examples=200)
def test_selection_rule_characterizes_packed_set(case):
    residue, dw, bin_size = case
    state = make_state(residue)
    packed, _ = pack(state, GradientVector(0, dw), BinConfig(bin_size=bin_size))
    g = state.residue + dw.astype(np.float64)
    h = g + dw.astype(np.float64)
    gmax = bin_maxima(g, bin_size)
    sent = {idx for idx, _ in entries_flat(packed)}
    for i in range(len(dw)):
        b = i // bin_size
        passes = gmax[b] > 0 and abs(h[i]) >= gmax[b]
        assert (i in sent) == passes


@given(codec_cases())
@settings(max_examples=100)
def test_drain_with_zero_gradient_conserves_twice(case):
    residue, _, bin_size = case
    state = make_state(residue)
    zero = GradientVector(0, np.zeros(len(residue), np.float32))
    for _ in range(2):
        before = state.residue.copy()
        packed, state = pack(state, zero, BinConfig(bin_size=bin_size))
        dense = unpack(packed).values.astype(np.float64)
        np.testing.assert_array_equal(state.residue + dense, before)


@given(codec_cases())
@settings(max_examples=100)
def test_multi_step_conservation_and_determinism(case):
    residue, dw, bin_size = case
    rng = np.random.default_rng(7)
    state = make_state(residue)
    cfg = BinConfig(bin_size=bin_size)
    for _ in range(4):
        step_dw = np.round(rng.standard_normal(len(residue)), 3).astype(np.float32)
        gv = GradientVector(0, step_dw)
        before = state.residue.copy()
        p1, s1 = pack(state, gv, cfg)
        p2, s2 = pack(state, gv, cfg)
        assert p1 == p2
        np.testing.assert_array_equal(s1.residue, s2.residue)
        np.testing.assert_array_equal(
            s1.residue + unpack(p1).values.astype(np.float64),
            before + step_dw.astype(np.float64))
        state = s1


@given(codec_cases())
@settings(max_examples=200)
def test_pack_matches_reference_transcription(case):
    residue, dw, bin_size = case
    state = make_state(residue)
    packed, new_state = pack(state, GradientVector(0, dw), BinConfig(bin_size=bin_size))
    ref_bins, ref_scale, ref_res = adacomp_pack_reference(state.residue, dw, bin_size)
    assert packed.bins == ref_bins
    assert packed.scale == ref_scale
    np.testing.assert_array_equal(new_state.residue, ref_res)


@given(codec_cases(), st.floats(min_value=1.0, max_value=4.0, allow_nan=False))
@settings(max_examples=50)
def test_scale_factor_variants_match_reference(case, scale_factor):
    residue, dw, bin_size = case
    state = make_state(residue)
    packed, new_state = pack(state, GradientVector(0, dw),
                             BinConfig(bin_size=bin_size, scale_factor=scale_factor))
    ref_bins, ref_scale, ref_res = adacomp_pack_reference(state.residue, dw, bin_size, scale_factor)
    assert packed.bins == ref_bins
    assert packed.scale == ref_scale
    np.testing.assert_array_equal(new_state.residue, ref_res)


@given(codec_cases())
@settings(max_examples=100)
def test_unpack_of_pack_roundtrips_entries(case):
    residue, dw, bin_size = case
    state = make_state(residue)
    packed, _ = pack(state, GradientVector(0, dw), BinConfig(bin_size=bin_size))
    dense = unpack(packed).values
    s = np.float32(packed.scale)
    for i, code in entries_flat(packed):
        assert dense[i] == (s if code == 1 else -s)
    sent = {i for i, _ in entries_flat(packed)}
    for i in range(len(dw)):
        if i not in sent:
            assert dense[i] == 0.0


def assert_counts_are_entries_per_bin(p: PackedLayer):
    assert p.counts.tolist() == np.bincount(p.indices // p.bin_size, minlength=p.num_bins).tolist()
    assert int(p.counts.sum()) == p.entry_count()


@given(codec_cases())
@settings(max_examples=100)
def test_counts_of_packed_and_decoded_packs(case):
    residue, dw, bin_size = case
    gv = GradientVector(0, dw)
    for p in (pack(make_state(residue), gv, BinConfig(bin_size=bin_size))[0],
              ls_pack(make_state(residue), gv, bin_size)[0]):
        assert_counts_are_entries_per_bin(p)
        assert_counts_are_entries_per_bin(decode(encode(p)))


def test_counts_of_hand_built_packs_with_empty_and_escaped_bins():
    escaped = [(i, 1 if i % 3 else -1) for i in range(0, 600, 2)]
    for bins, expected in (([[], [], []], [0, 0, 0]),
                           ([[], escaped, [(0, -1)]], [0, 300, 1]),
                           ([escaped, escaped[:255], [], escaped[:254]], [300, 255, 0, 254])):
        p = packed_from_bins(1, 600 * len(bins) - 1, 600, 0.5, bins)
        assert p.counts.tolist() == expected
        assert_counts_are_entries_per_bin(p)
        assert_counts_are_entries_per_bin(decode(encode(p)))


def test_packed_layer_takes_its_six_fields_and_no_counts():
    assert list(inspect.signature(PackedLayer).parameters) == [
        "layer_id", "element_count", "bin_size", "scale", "indices", "signs"]
    with pytest.raises(TypeError):
        PackedLayer(0, 4, 2, 0.5, np.array([1]), np.ones(1, np.int8), np.array([0, 1]))


def test_gradient_vector_validation():
    with pytest.raises(ValueError, match="empty gradient vector"):
        GradientVector(0, np.array([], np.float32))
    with pytest.raises(ValueError, match="1-D"):
        GradientVector(0, np.zeros((2, 2), np.float32))
    gv = GradientVector(1, np.array([1.0, 2.0]))
    assert gv.values.dtype == np.float32
    assert gv.values.size == 2
