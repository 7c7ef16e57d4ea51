import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adacomp import baselines
from adacomp.baselines import (
    TOPK_SAMPLE_STRIDE,
    identity_pack,
    ls_pack,
    onebit_pack,
    topk_pack,
    unpack_dense,
    unpack_onebit,
    unpack_topk,
)
from adacomp.codec import CodecState, GradientVector, unpack

from oracles import ls_pack_reference, onebit_pack_reference, topk_pack_reference

f32s = st.floats(min_value=-50.0, max_value=50.0, width=32,
                 allow_nan=False, allow_infinity=False, allow_subnormal=False,
                 ).map(lambda x: 0.0 if abs(x) < 0.01 else x)


@st.composite
def codec_cases(draw, max_len=64):
    n = draw(st.integers(1, max_len))
    residue = np.array(draw(st.lists(f32s, min_size=n, max_size=n)), dtype=np.float32)
    dw = np.array(draw(st.lists(f32s, min_size=n, max_size=n)), dtype=np.float32)
    return residue, dw


def state_of(g):
    return CodecState(residue=np.asarray(g, dtype=np.float64))


def zero_dw(n, layer_id=0):
    return GradientVector(layer_id, np.zeros(n, np.float32))


# ------------------------------------------------------------ local selection

def test_ls_selects_single_bin_max():
    st_ = state_of([0.6, -0.4, 0.5, 0.05])
    packed, new_state = ls_pack(st_, zero_dw(4), 4)
    assert packed.bins == [[(0, 1)]]
    assert packed.scale == pytest.approx(0.6, abs=1e-7)
    np.testing.assert_allclose(new_state.residue, [0.0, -0.4, 0.5, 0.05], atol=1e-7)


def test_ls_all_zero_layer():
    packed, new_state = ls_pack(state_of(np.zeros(4)), zero_dw(4), 2)
    assert packed.entry_count() == 0
    np.testing.assert_array_equal(new_state.residue, np.zeros(4))


def test_ls_tie_breaks_to_lowest_index():
    st_ = state_of([1.0, -1.0, 0.5, 0.5])
    packed, _ = ls_pack(st_, zero_dw(4), 2)
    assert packed.bins == [[(0, 1)], [(0, 1)]]
    assert packed.scale == pytest.approx(0.75, abs=1e-7)


def test_ls_selects_one_per_nonzero_bin():
    st_ = state_of([0.0, 0.0, 2.0, -3.0, 1.0])
    packed, _ = ls_pack(st_, zero_dw(5), 2)
    assert [len(b) for b in packed.bins] == [0, 1, 1]
    assert packed.bins[1] == [(1, -1)]
    assert packed.bins[2] == [(0, 1)]


@given(codec_cases())
@settings(max_examples=150)
def test_ls_matches_reference(case):
    residue, dw = case
    bin_size = max(1, len(residue) // 3)
    st_ = state_of(residue)
    packed, new_state = ls_pack(st_, GradientVector(0, dw), bin_size)
    ref_bins, ref_scale, ref_res = ls_pack_reference(st_.residue, dw, bin_size)
    assert packed.bins == ref_bins
    assert packed.scale == ref_scale
    np.testing.assert_array_equal(new_state.residue, ref_res)


# ------------------------------------------------------------------- top-k

def test_topk_half():
    st_ = state_of([3.0, -2.0, 1.0, 0.5])
    packed, new_state = topk_pack(st_, zero_dw(4), 0.5)
    assert packed.indices.tolist() == [0, 1]
    assert packed.signs.tolist() == [1, -1]
    assert packed.pos_scale == pytest.approx(3.0)
    assert packed.neg_scale == pytest.approx(-2.0)
    np.testing.assert_allclose(new_state.residue, [0.0, 0.0, 1.0, 0.5], atol=1e-7)


def test_topk_full_transmission():
    g = np.array([3.0, -2.0, 1.0, 0.5], np.float32)
    packed, new_state = topk_pack(state_of(g), zero_dw(4), 1.0)
    assert packed.indices.tolist() == [0, 1, 2, 3]
    pos_mean = np.float32((3.0 + 1.0 + 0.5) / 3.0)
    np.testing.assert_allclose(
        new_state.residue,
        [3.0 - pos_mean, 0.0, 1.0 - pos_mean, 0.5 - pos_mean], atol=1e-6)


def test_topk_tie_breaks_to_lowest_index():
    packed, new_state = topk_pack(state_of([1.0, 1.0, 1.0, 1.0]), zero_dw(4), 0.25)
    assert packed.indices.tolist() == [0]
    assert packed.pos_scale == pytest.approx(1.0)
    np.testing.assert_allclose(new_state.residue, [0.0, 1.0, 1.0, 1.0], atol=1e-7)


def test_topk_fraction_bounds():
    with pytest.raises(ValueError, match="fraction"):
        topk_pack(state_of([1.0]), zero_dw(1), 0.0)
    with pytest.raises(ValueError, match="fraction"):
        topk_pack(state_of([1.0]), zero_dw(1), 1.5)


@given(codec_cases(), st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=150)
def test_topk_count_and_reference(case, fraction):
    residue, dw = case
    st_ = state_of(residue)
    packed, new_state = topk_pack(st_, GradientVector(0, dw), fraction)
    assert packed.entry_count() == int(np.ceil(fraction * len(residue)))
    idx, signs, pos, neg, ref_res = topk_pack_reference(st_.residue, dw, fraction)
    np.testing.assert_array_equal(packed.indices, idx)
    np.testing.assert_array_equal(packed.signs, signs)
    assert packed.pos_scale == pos
    assert packed.neg_scale == neg
    np.testing.assert_array_equal(new_state.residue, ref_res)


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def argsort_topk_pack(g, k):
    """The former top-k: a full stable argsort of -|g| (NaN last), then a
    dense residue update. Kept as the reference for the linear-time one."""
    order = np.argsort(-np.abs(g), kind="stable")
    indices = np.sort(order[:k])
    signs = np.where(g[indices] >= 0.0, 1, -1).astype(np.int8)
    scales = []
    for side in (g[indices[signs == 1]], g[indices[signs == -1]]):
        scales.append(np.float32((np.cumsum(side)[-1] + 0.0) / side.size) if side.size else np.float32(0.0))
    recon = np.zeros(g.size, dtype=np.float64)
    recon[indices] = np.where(signs == 1, np.float64(scales[0]), np.float64(scales[1]))
    selected = np.zeros(g.size, dtype=bool)
    selected[indices] = True
    return indices, signs, float(scales[0]), float(scales[1]), np.where(selected, g - recon, g)


@st.composite
def tie_heavy_layers(draw):
    """Small-integer values with a drawn share of +-0.0, +-inf and NaN."""
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    residue = rng.integers(-3, 4, n).astype(np.float64)
    special = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.3, 1.0]))
    residue[special] = rng.choice(SPECIALS, int(special.sum()))
    dw = rng.integers(-2, 3, n).astype(np.float32) * draw(st.sampled_from([0.0, 0.5]))
    return residue, dw


def strided_layer(n, on_stride, off_stride, seed=0):
    """Small noise, with every entry on the top-k sample stride set to
    ``on_stride`` and ``off_stride`` spread over the entries between."""
    rng = np.random.default_rng(seed)
    residue = rng.standard_normal(n) * 0.01
    stride = np.arange(n) % TOPK_SAMPLE_STRIDE == 0
    if on_stride is not None:
        residue[stride] = on_stride
    if off_stride is not None:
        residue[np.flatnonzero(~stride)[::7]] = off_stride
    return residue, np.zeros(n, np.float32)


NOISE_LAYER = (np.random.default_rng(1).standard_normal(5000), np.zeros(5000, np.float32))
# the sample sees only the stride: large values on it push the bracket above
# the k-th largest (fallback), large values off it pull it below (bracket path)
ON_STRIDE_LAYER = strided_layer(5000, on_stride=1.0, off_stride=None)
OFF_STRIDE_LAYER = strided_layer(5000, on_stride=None, off_stride=-3.0)
NAN_STRIDE_LAYER = strided_layer(5000, on_stride=np.nan, off_stride=None)


@given(tie_heavy_layers(), st.floats(min_value=0.001, max_value=1.0))
@example(NOISE_LAYER, 0.01)           # bracket path
@example(ON_STRIDE_LAYER, 0.05)       # fallback: 82 candidates for k = 250
@example(OFF_STRIDE_LAYER, 0.01)      # bracket path, many tied candidates
@example(NAN_STRIDE_LAYER, 0.01)      # fallback: the bracket is NaN
@example((np.array([2.0, np.nan, -2.0, 1.0]), np.zeros(4, np.float32)), 0.001)   # k = 1
@example((np.array([np.nan, -0.0, 0.0, np.inf]), np.zeros(4, np.float32)), 1.0)  # k = n
@example((np.array([np.nan, 1.0, np.nan, -np.inf]), np.zeros(4, np.float32)), 0.75)
@settings(max_examples=200, deadline=None)
def test_topk_selection_matches_stable_argsort(case, fraction):
    residue, dw = case
    with np.errstate(invalid="ignore", over="ignore"):
        packed, new_state = topk_pack(state_of(residue), GradientVector(0, dw), fraction)
        g = residue + dw.astype(np.float64)
        idx, signs, pos, neg, ref_res = argsort_topk_pack(g, int(np.ceil(fraction * g.size)))
    np.testing.assert_array_equal(packed.indices, idx)
    assert packed.indices.dtype == np.int64
    np.testing.assert_array_equal(packed.signs, signs)
    np.testing.assert_array_equal(np.float64([packed.pos_scale, packed.neg_scale]).view(np.uint64),
                                  np.float64([pos, neg]).view(np.uint64))
    np.testing.assert_array_equal(new_state.residue.view(np.uint64), ref_res.view(np.uint64))


@pytest.mark.parametrize("layer,fraction,partitioned", [
    (NOISE_LAYER, 0.01, "candidates"),
    (ON_STRIDE_LAYER, 0.05, "layer"),
    (OFF_STRIDE_LAYER, 0.01, "candidates"),
    (NAN_STRIDE_LAYER, 0.01, "layer"),
])
def test_topk_partitions_only_the_bracket_candidates(layer, fraction, partitioned, monkeypatch):
    sizes = []
    original = baselines._top_k_positions
    monkeypatch.setattr(baselines, "_top_k_positions",
                        lambda a, k: sizes.append(a.size) or original(a, k))
    residue, dw = layer
    topk_pack(state_of(residue), GradientVector(0, dw), fraction)
    assert len(sizes) == 1
    if partitioned == "layer":
        assert sizes == [residue.size]
    else:
        assert sizes[0] < residue.size // 4


def assert_pack_into_matches(residue, dw, fraction):
    """``topk_pack`` in place on a copy of ``residue`` gives the pack and the
    residue bits of the pure ``topk_pack`` and of a reference, and leaves
    |residue| in its magnitudes."""
    gv = GradientVector(0, dw)
    held, magnitudes = np.array(residue, dtype=np.float64), np.full(residue.shape, -1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        p, _ = topk_pack(CodecState(residue=held), gv, fraction, magnitudes)
        pure, state = topk_pack(state_of(residue), gv, fraction)
        if np.isfinite(residue).all():
            ref = topk_pack_reference(residue, dw, fraction)
        else:  # the reference's sort needs numbers
            ref = argsort_topk_pack(residue + dw.astype(np.float64), int(np.ceil(fraction * dw.size)))
    bits = lambda values: np.float64(values).view(np.uint64).tolist()
    for want in ((pure.indices, pure.signs, pure.pos_scale, pure.neg_scale, state.residue), ref):
        np.testing.assert_array_equal(p.indices, want[0])
        np.testing.assert_array_equal(p.signs, want[1])
        assert bits([p.pos_scale, p.neg_scale]) == bits(want[2:4])
        assert bits(held) == bits(want[4])
    assert bits(magnitudes) == bits(np.abs(held))


@pytest.mark.parametrize("layer,fraction", [
    (NOISE_LAYER, 0.01), (ON_STRIDE_LAYER, 0.05), (OFF_STRIDE_LAYER, 0.01), (NAN_STRIDE_LAYER, 0.01)],
    ids=["noise", "on_stride", "off_stride", "nan_stride"])
def test_topk_pack_into_matches_topk_pack_on_the_strided_layers(layer, fraction):
    assert_pack_into_matches(*layer, fraction)


@given(tie_heavy_layers(), st.sampled_from([0.001, 0.01, 0.3, 1.0]))
@example((np.array([1.0, -1.0, 1.0, 0.0, -0.0, 2.0]), np.ones(6, np.float32)), 1.0)
# every positive-side value sent is -0.0: its mean is +0.0, as a sum from +0.0 gives
@example((np.array([-0.0]), np.array([-0.0], np.float32)), 0.001)
@settings(max_examples=60, deadline=None)
def test_topk_pack_into_matches_topk_pack_on_tied_layers(case, fraction):
    assert_pack_into_matches(*case, fraction)


# ------------------------------------------------------------------- one-bit

def test_onebit_symmetric_pair():
    packed, new_state = onebit_pack(state_of([2.0, -2.0]), zero_dw(2))
    assert packed.bits.tolist() == [True, False]
    assert packed.pos_scale == pytest.approx(2.0)
    assert packed.neg_scale == pytest.approx(-2.0)
    np.testing.assert_array_equal(new_state.residue, np.zeros(2))


def test_onebit_unbalanced():
    packed, new_state = onebit_pack(state_of([3.0, 1.0, -1.0]), zero_dw(3))
    assert packed.bits.tolist() == [True, True, False]
    assert packed.pos_scale == pytest.approx(2.0)
    assert packed.neg_scale == pytest.approx(-1.0)
    np.testing.assert_allclose(new_state.residue, [1.0, -1.0, 0.0], atol=1e-7)


def test_onebit_all_zero():
    packed, new_state = onebit_pack(state_of(np.zeros(3)), zero_dw(3))
    assert packed.bits.tolist() == [True, True, True]
    assert packed.pos_scale == 0.0
    np.testing.assert_array_equal(new_state.residue, np.zeros(3))


@given(codec_cases())
# every value on the positive side is -0.0: its mean is +0.0, as a sum from +0.0 gives
@example((np.array([-0.0], np.float32), np.array([-0.0], np.float32)))
@example((np.array([-0.0, -1.0, -0.0], np.float32), np.array([-0.0, 0.0, 0.0], np.float32)))
@settings(max_examples=150)
def test_onebit_matches_reference(case):
    residue, dw = case
    st_ = state_of(residue)
    packed, new_state = onebit_pack(st_, GradientVector(0, dw))
    bits, pos, neg, ref_res = onebit_pack_reference(st_.residue, dw)
    np.testing.assert_array_equal(packed.bits, bits)
    # bitwise, so that the sign of a zero counts
    np.testing.assert_array_equal(np.float64([packed.pos_scale, packed.neg_scale]).view(np.uint64),
                                  np.float64([pos, neg]).view(np.uint64))
    np.testing.assert_array_equal(new_state.residue.view(np.uint64), ref_res.view(np.uint64))


@pytest.mark.parametrize("pos, neg", [(0.75, -1.5), (0.0, -0.0), (-0.0, 0.0), (-0.0, -2.0),
                                      (3.0, 0.0), (float("inf"), float("-inf"))])
def test_onebit_unpack_matches_np_where_bitwise(pos, neg):
    rng = np.random.default_rng(41)
    for bits in (rng.random(1000) < 0.5, np.ones(7, bool), np.zeros(7, bool)):
        p = baselines.OneBitPacked(3, bits.size, bits, pos, neg)
        want = np.where(bits, np.float32(pos), np.float32(neg)).astype(np.float32)
        got = unpack_onebit(p)
        assert got.layer_id == 3 and got.values.dtype == np.float32
        assert got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("residue, scales", [
    (np.random.default_rng(43).standard_normal(1000), None),
    (np.array([-0.0, -0.0, -1.0, -3.0]), (0.0, -2.0)),   # a mean of -0.0s is +0.0
    (np.array([-0.0, 0.0, 2.0]), (2 / 3, 0.0)),    # no negatives
    (np.array([-0.0, -0.0]), (0.0, 0.0)),
    (np.array([-1.0, -2.0]), (0.0, -1.5))])       # no non-negatives
def test_onebit_residue_matches_np_where_bitwise(residue, scales):
    # a -0.0 gradient keeps a -0.0 residue's sign in G
    dw = np.full(residue.size, -0.0, np.float32)
    packed, new_state = onebit_pack(state_of(residue), GradientVector(0, dw))
    if scales is not None:
        assert np.float32([packed.pos_scale, packed.neg_scale]).tobytes() == np.float32(scales).tobytes()
    recon = np.where(packed.bits, np.float64(np.float32(packed.pos_scale)),
                     np.float64(np.float32(packed.neg_scale)))
    assert new_state.residue.tobytes() == (residue + dw.astype(np.float64) - recon).tobytes()


def sign_means_loop(values):
    """Each side's float64 sum, value by value from +0.0, over its count (1
    if empty), rounded to float32: side 1 holds the values >= 0.0."""
    sums, counts = [np.float64(0.0)] * 2, [0, 0]
    for v in values:
        s = int(v >= 0.0)
        sums[s], counts[s] = sums[s] + v, counts[s] + 1
    return np.array([sums[s] / np.float64(max(counts[s], 1)) for s in (0, 1)]).astype(np.float32)


@given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e308, -1e308])), max_size=80))
@settings(max_examples=300)
@example([])
@example([-0.0, -0.0])
@example([-0.0, float("nan"), -1.0])
def test_sign_means_match_a_sequential_float64_loop(values):
    v = np.array(values, np.float64)
    with np.errstate(all="ignore"):
        side, means = baselines._sign_means(v)
        want = sign_means_loop(v)
    assert side.dtype == np.uint8 and side.tobytes() == (v >= 0.0).view(np.uint8).tobytes()
    # bitwise, so that the sign of a zero counts; a NaN may be any NaN
    nan = np.isnan(want)
    assert (np.isnan(means) == nan).all() and means[~nan].tobytes() == want[~nan].tobytes()


# ------------------------------------------------------- shared invariants

@given(codec_cases())
@settings(max_examples=150)
def test_conservation_holds_for_every_codec(case):
    residue, dw = case
    n = len(residue)
    gv = GradientVector(0, dw)
    packers = [
        lambda s: ls_pack(s, gv, max(1, n // 2)),
        lambda s: topk_pack(s, gv, 0.5),
        lambda s: onebit_pack(s, gv),
        lambda s: identity_pack(s, gv),
    ]
    unpackers = [unpack, unpack_topk, unpack_onebit, unpack_dense]
    for do_pack, do_unpack in zip(packers, unpackers):
        st_ = state_of(residue)
        packed, new_state = do_pack(st_)
        dense = do_unpack(packed).values.astype(np.float64)
        np.testing.assert_array_equal(new_state.residue + dense,
                                      st_.residue + dw.astype(np.float64))


def test_identity_roundtrip_and_zero_residue():
    dw = GradientVector(2, np.array([0.25, -1.5, 3.0], np.float32))
    st_ = CodecState.zeros(3)
    packed, new_state = identity_pack(st_, dw)
    np.testing.assert_array_equal(unpack_dense(packed).values, dw.values)
    np.testing.assert_array_equal(new_state.residue, np.zeros(3))


def test_shape_mismatch_everywhere():
    st_ = CodecState.zeros(3)
    gv = GradientVector(0, np.zeros(4, np.float32))
    for fn in (lambda: ls_pack(st_, gv, 2),
               lambda: topk_pack(st_, gv, 0.5),
               lambda: onebit_pack(st_, gv),
               lambda: identity_pack(st_, gv)):
        with pytest.raises(ValueError, match="residue/gradient shape mismatch"):
            fn()
