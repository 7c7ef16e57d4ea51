import tracemalloc

import numpy as np
import pytest

from adacomp.nn import (
    Conv5x5,
    FullyConnected,
    MaxPool2x2,
    Model,
    ReLU,
    build_cnn,
    build_mlp,
    split_vector,
)

import one_rank
from oracles import finite_difference_grads, full_backward_reference, im2col_reference


def rel_err(a, b):
    denom = np.maximum(np.abs(a), np.abs(b))
    return np.abs(a - b) / np.where(denom > 0, denom, 1.0)


def check_against_fd(model, x, y, eps=1e-3, tol=1e-2):
    """Backprop gradients must match central differences coordinate-wise;
    flat coordinates (both sides zero) compare absolutely."""
    loss, cache = one_rank.forward(model, x, y)
    assert np.isfinite(loss)
    grads = one_rank.backward(model, cache)
    analytic = [g for parts in grads for g in parts]
    params = [p for layer in model.param_layers for p in layer.params()]

    def loss_fn():
        l, _ = one_rank.forward(model, x, y)
        return l

    fd = finite_difference_grads(loss_fn, params, eps=eps)
    for a, f in zip(analytic, fd):
        assert rel_err(a.astype(np.float64), f).max() <= tol


# ------------------------------------------------------------------ forward

def test_fc_identity_forward():
    rng = np.random.default_rng(0)
    fc = FullyConnected(3, 3, rng)
    fc.weight = np.eye(3, dtype=np.float32)
    fc.bias[:] = 0
    x = np.array([[[1.0, -2.0, 3.0]]], np.float32)  # (N, b, features)
    out, _ = fc.forward(x)
    np.testing.assert_array_equal(out, x)


def test_softmax_xent_analytic_value():
    model = Model([], classes=2)
    loss, _ = model.head.loss(np.zeros((1, 2), np.float32), np.array([0]))
    assert loss == pytest.approx(np.log(2.0), rel=1e-6)


def test_fixed_seed_mlp_regression_value():
    model = build_mlp(6, [4], 3, seed=123)
    rng = np.random.default_rng(99)
    x = rng.uniform(-1, 1, (4, 6)).astype(np.float32)
    y = np.array([0, 1, 2, 0])
    loss, _ = one_rank.forward(model, x, y)

    # independent scalar recomputation in float64
    w0, b0 = model.layers[0].weight, model.layers[0].bias
    w1, b1 = model.layers[2].weight, model.layers[2].bias
    h = np.maximum(x.astype(np.float64) @ w0.T.astype(np.float64) + b0, 0.0)
    logits = h @ w1.T.astype(np.float64) + b1
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    expect = -logp[np.arange(4), y].mean()
    assert loss == pytest.approx(expect, rel=1e-5)

    # frozen float32 regression fixture from the first verified run
    assert loss == pytest.approx(1.7886171340942383, abs=1e-6)


def test_forward_shape_mismatch():
    model = build_mlp(6, [4], 3, seed=0)
    with pytest.raises(ValueError):
        one_rank.forward(model, np.zeros((2, 5), np.float32), np.array([0, 1]))


# ----------------------------------------------------------------- backward

def test_zero_input_zero_weight_fc_has_zero_weight_gradient():
    rng = np.random.default_rng(0)
    fc = FullyConnected(4, 2, rng)
    fc.weight[:] = 0
    model = Model([fc], classes=2)
    x = np.zeros((3, 4), np.float32)
    y = np.array([0, 1, 0])
    _, cache = one_rank.forward(model, x, y)
    grads = one_rank.backward(model, cache)
    np.testing.assert_array_equal(grads[0][0], np.zeros((2, 4), np.float32))


def test_final_bias_gradient_equals_mean_softmax_minus_onehot():
    model = build_mlp(5, [6], 3, seed=2)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (8, 5)).astype(np.float32)
    y = rng.integers(0, 3, 8)
    _, cache = one_rank.forward(model, x, y)
    probs = cache[1][0].copy()
    grads = one_rank.backward(model, cache)
    onehot = np.zeros_like(probs)
    onehot[np.arange(8), y] = 1
    np.testing.assert_allclose(grads[-1][1], (probs - onehot).mean(axis=0), rtol=1e-5)


def test_fc_matches_finite_differences():
    # 16-parameter model: 3x4 weights + 4 biases kept intentionally hot
    rng = np.random.default_rng(5)
    fc = FullyConnected(3, 4, rng)
    fc.bias[:] = rng.uniform(0.2, 0.5, 4).astype(np.float32)
    model = Model([fc], classes=4)
    x = rng.uniform(0.5, 1.5, (6, 3)).astype(np.float32)
    y = np.array([0, 1, 2, 3, 0, 1])
    check_against_fd(model, x, y)


def test_conv_and_relu_match_finite_differences():
    rng = np.random.default_rng(11)
    conv = Conv5x5(1, 1, rng)
    fc = FullyConnected(4, 2, rng)
    model = Model([conv, ReLU(), fc], classes=2)
    x = rng.uniform(0.5, 1.5, (5, 1, 6, 6)).astype(np.float32)
    y = np.array([0, 1, 0, 1, 0])
    check_against_fd(model, x, y)


def test_pool_path_matches_finite_differences():
    rng = np.random.default_rng(17)
    conv = Conv5x5(1, 2, rng)
    model = Model([conv, ReLU(), MaxPool2x2(), FullyConnected(8, 2, rng)], classes=2)
    x = rng.uniform(0.5, 1.5, (4, 1, 9, 9)).astype(np.float32)
    y = np.array([0, 1, 1, 0])
    check_against_fd(model, x, y)


def test_stacked_convs_match_finite_differences():
    # the lowest conv's gradients take the upper conv's input gradient
    rng = np.random.default_rng(19)
    model = Model([Conv5x5(1, 2, rng), Conv5x5(2, 2, rng), FullyConnected(2, 2, rng)], classes=2)
    x = rng.uniform(0.5, 1.5, (3, 1, 9, 9)).astype(np.float32)
    y = np.array([0, 1, 1])
    # a larger step: every parameter here moves the loss linearly through
    # the convs, and float32 rounding dominates at eps = 1e-3
    check_against_fd(model, x, y, eps=1e-2)


def test_softmax_head_matches_finite_differences():
    rng = np.random.default_rng(23)
    fc = FullyConnected(4, 4, rng)
    model = Model([fc], classes=4)
    x = rng.uniform(0.5, 1.5, (4, 4)).astype(np.float32)
    y = np.array([3, 2, 1, 0])
    check_against_fd(model, x, y)


def test_maxpool_forward_and_tie_break():
    pool = MaxPool2x2()
    x = np.array([[[[1, 1, 0, 2],
                    [1, 1, 2, 0],
                    [3, 0, 5, 5],
                    [0, 3, 5, 5]]]], np.float32)
    out, cache = pool.forward(x)
    np.testing.assert_array_equal(out[0, 0], [[1, 2], [3, 5]])
    dy = np.ones_like(out)
    dx, grads = pool.backward(dy, cache)
    assert grads == []
    # ties route the gradient to the lowest row-major window position
    np.testing.assert_array_equal(dx[0, 0], [[1, 0, 0, 1],
                                             [0, 0, 0, 0],
                                             [1, 0, 1, 0],
                                             [0, 0, 0, 0]])


def test_interleaved_batches_keep_their_own_caches():
    # layers store nothing of a batch: a second forward between a batch's
    # forward and backward leaves that batch's gradients unchanged
    rng = np.random.default_rng(29)
    model = Model([Conv5x5(1, 2, rng), ReLU(), MaxPool2x2(), FullyConnected(8, 3, rng)], classes=3)
    xa, xb = rng.uniform(-1, 1, (2, 4, 1, 9, 9)).astype(np.float32)
    ya, yb = np.array([0, 1, 2, 0]), np.array([2, 2, 1, 0])
    alone = one_rank.backward(model, one_rank.forward(model, xa, ya)[1])
    _, cache_a = one_rank.forward(model, xa, ya)
    _, cache_b = one_rank.forward(model, xb, yb)
    one_rank.backward(model, cache_b)
    for got, want in zip(one_rank.backward(model, cache_a), alone, strict=True):
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()


# -------------------------------------------------------- conv engine shortcuts

def _im2col_case(shape, maps=4, ranks=None, strided=False, name=None):
    return pytest.param(shape, maps, ranks, strided, id=name or "-".join(map(str, shape)))


@pytest.mark.parametrize("shape, maps, ranks, strided", [
    _im2col_case((1, 1, 5, 5)), _im2col_case((3, 3, 13, 9)),
    _im2col_case((1, 3, 9, 13)), _im2col_case((3, 1, 6, 11)),
    # N = 3 ranks stacked on a leading axis, h = w = 5 (ow = 1) among them
    _im2col_case((2, 2, 9, 7), ranks=3, name="ranks3-2-2-9-7"),
    _im2col_case((2, 3, 5, 5), ranks=3, name="ranks3-2-3-5-5"),
    # a view with a stride of two floats along the row, alone and stacked
    _im2col_case((2, 3, 8, 10), strided=True, name="strided-2-3-8-10"),
    _im2col_case((1, 2, 5, 5), strided=True, name="strided-1-2-5-5"),
    _im2col_case((2, 2, 7, 6), ranks=3, strided=True, name="strided-ranks3-2-2-7-6"),
    # conv0 and conv1 of the benchmark's CNN: training batch, cnn-n32's
    # (32, 4, ...) stack and the 512-sample evaluation batch
    _im2col_case((128, 1, 28, 28), maps=8, name="cnn-conv0-128"),
    _im2col_case((4, 1, 28, 28), maps=8, ranks=32, name="cnn-n32-conv0"),
    _im2col_case((128, 8, 12, 12), maps=16, name="cnn-conv1-128"),
    _im2col_case((512, 1, 28, 28), maps=8, name="cnn-conv0-eval-512"),
])
def test_conv_im2col_matches_slice_loop_reference(shape, maps, ranks, strided):
    b, c, h, w = shape
    oh, ow = h - 4, w - 4
    lead = () if ranks is None else (ranks,)
    rng = np.random.default_rng([*lead, *shape, *([2] if strided else [])])
    conv = Conv5x5(c, maps, rng)
    conv.bias[:] = rng.uniform(-1, 1, maps)
    x = rng.standard_normal((*lead, b, c, h, 2 * w if strided else w)).astype(np.float32)
    if strided:
        x = x[..., ::2]
        assert not x.flags.c_contiguous
    out, (cols, _) = conv.forward(x)
    assert cols.flags.c_contiguous
    assert cols.shape == (*lead, b * oh * ow, c * 25) and out.shape == (*lead, b, maps, oh, ow)
    # rank by rank: a single batch is a stack of one here
    for x_r, cols_r, out_r in zip(*(a if ranks else a[None] for a in (x, cols, out))):
        ref = im2col_reference(x_r)
        assert cols_r.shape == ref.shape and cols_r.tobytes() == ref.tobytes()
        # at batch 1 the reference's reshape is a column-major view, and a
        # product with it rounds differently: the output is checked against
        # the same values in the row-major layout that every batch size gets
        ref = np.ascontiguousarray(ref)
        want = (ref @ conv.weight.reshape(maps, -1).T + conv.bias).reshape(b, oh, ow, maps)
        want = want.transpose(0, 3, 1, 2)
        assert out_r.shape == want.shape and out_r.tobytes() == want.tobytes()


def _models():
    rng = np.random.default_rng(31)
    cnn = build_cnn(1, [2, 3], 8, 4, seed=5, image_hw=(16, 16))
    # a layer without parameters below the lowest parameterized one
    relu_first = Model([ReLU(), Conv5x5(2, 2, rng), ReLU(), MaxPool2x2(),
                        FullyConnected(8, 3, rng)], classes=3)
    return [(cnn, rng.standard_normal((3, 1, 16, 16)).astype(np.float32), 4),
            (build_mlp(6, [5, 4], 3, seed=5), rng.standard_normal((4, 6)).astype(np.float32), 3),
            (relu_first, rng.standard_normal((2, 2, 9, 9)).astype(np.float32), 3)]


@pytest.mark.parametrize("model, x, classes", _models(), ids=["cnn", "mlp", "relu_first"])
def test_backward_stops_at_the_lowest_parameterized_layer(model, x, classes):
    labels = np.arange(len(x)) % classes
    _, cache = one_rank.forward(model, x, labels)
    calls = []
    for i, layer in enumerate(model.layers):
        def spy(dy, c, need_dx=True, i=i, original=layer.backward, **out):
            calls.append((i, need_dx))
            return original(dy, c, need_dx=need_dx, **out)
        layer.backward = spy
    grads = one_rank.backward(model, cache)
    lowest = next(i for i, l in enumerate(model.layers) if l.params())
    top = len(model.layers) - 1
    assert calls == [(i, i > lowest) for i in range(top, lowest - 1, -1)]

    dx, full = full_backward_reference(model, cache)
    assert dx.shape == (1, *x.shape)
    assert len(grads) == len(full)
    for got, want in zip(grads, full):
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()


def test_every_layer_skips_its_input_gradient_on_request():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((1, 2, 2, 9, 9)).astype(np.float32)
    for layer in (Conv5x5(2, 3, rng), ReLU(), MaxPool2x2(), FullyConnected(162, 3, rng)):
        y, cache = layer.forward(x)
        dy = rng.standard_normal(y.shape).astype(np.float32)
        dx, grads = layer.backward(dy, cache, need_dx=True)
        assert dx.shape == x.shape
        skipped, same = layer.backward(dy, cache, need_dx=False)
        assert skipped is None
        assert [g.tobytes() for g in same] == [g.tobytes() for g in grads]


# ------------------------------------------------------- bit-mask selects

# +0.0, -0.0, +1, -1, +inf, -inf, quiet NaN with either sign bit, and a NaN
# with a payload; drawn by bit pattern so each sign of zero and NaN survives
SPECIALS = np.array([0x00000000, 0x80000000, 0x3F800000, 0xBF800000, 0x7F800000,
                     0xFF800000, 0x7FC00000, 0xFFC00000, 0x7F800123], np.uint32).view(np.float32)


def _specials(rng, shape):
    return SPECIALS[rng.integers(0, len(SPECIALS), shape)]


def _layouts(rng, shape):
    """The same kind of values contiguous, strided as the conv's moveaxis
    output (channels innermost in memory) and stacked on a rank axis."""
    b, c, h, w = shape
    return [_specials(rng, shape),
            np.moveaxis(_specials(rng, (b, h, w, c)), -1, -3),
            _specials(rng, (3, *shape))]


def relu_reference(x, dy):
    mask = x > 0
    return np.where(mask, x, np.float32(0.0)), np.where(mask, dy, np.float32(0.0))


def pool_reference(x, dy):
    """2x2 max-pool as an argmax gather and scatter over each window's four
    values in row-major order."""
    *lead, h, w = x.shape
    oh, ow = h // 2, w // 2
    v = x[..., :2 * oh, :2 * ow].reshape(*lead, oh, 2, ow, 2)
    v = v.swapaxes(-3, -2).reshape(*lead, oh, ow, 4)
    idx = v.argmax(axis=-1)
    y = np.take_along_axis(v, idx[..., None], axis=-1)[..., 0]
    scattered = np.zeros((*lead, oh, ow, 4), dtype=np.float32)
    np.put_along_axis(scattered, idx[..., None], dy[..., None], axis=-1)
    dx = np.zeros(x.shape, dtype=np.float32)
    dx[..., :2 * oh, :2 * ow] = (
        scattered.reshape(*lead, oh, ow, 2, 2).swapaxes(-3, -2).reshape(*lead, 2 * oh, 2 * ow))
    return y, dx


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(2, 3, 4, 5), (4, 1, 1, 7), (5, 16, 1, 1)])
def test_relu_matches_np_where_bitwise(shape):
    rng = np.random.default_rng(list(shape))
    relu = ReLU()
    for x in [*_layouts(rng, shape), _specials(rng, (3, 4, 64))]:
        dy = _specials(rng, x.shape)
        y, keep = relu.forward(x)
        dx, grads = relu.backward(dy, keep)
        want_y, want_dx = relu_reference(x, dy)
        assert_same_bits(y, want_y)
        assert_same_bits(dx, want_dx)
        assert grads == [] and relu.backward(dy, keep, need_dx=False) == (None, [])


def test_relu_rejects_values_that_are_not_float32():
    # the masks act on float32 bit patterns; a float64 (b, 1) input would
    # otherwise come back as a (b, 2) float32 array
    with pytest.raises(TypeError, match="float64"):
        ReLU().forward(np.ones((4, 1)))
    with pytest.raises(TypeError, match="float64"):
        one_rank.forward(build_mlp(6, [5], 3, seed=5), np.ones((4, 6)), np.zeros(4, np.int64))


def test_maxpool_picks_what_argmax_picks():
    pos, neg = np.float32(0.0), np.float32(-0.0)
    nan, nan_neg = SPECIALS[6], SPECIALS[7]
    inf = np.float32(np.inf)
    windows = [
        [1, 1, 1, 1],                # all equal: the first
        [0, 2, 2, 1],                # tie on the maximum: the lower position
        [neg, pos, pos, neg],        # -0.0 ties +0.0: the first, with its sign
        [pos, neg, neg, neg],
        [neg, neg, neg, neg],
        [5, nan, 1, 2],              # a NaN after a larger value wins
        [1, nan, nan_neg, 2],        # the first of two NaNs
        [nan_neg, nan, 1, 1],
        [-inf, -inf, -inf, -inf],
        [1, inf, -inf, inf],
        [-inf, -1, -2, -inf],
    ]
    v = np.array(windows, np.float32).reshape(1, len(windows), 2, 2)
    x = np.concatenate(list(v.transpose(1, 0, 2, 3)), axis=-1)[None]  # (1, 1, 2, 2 * n)
    dy = np.arange(1, len(windows) + 1, dtype=np.float32).reshape(1, 1, 1, -1)
    y, cache = MaxPool2x2().forward(x)
    dx, _ = MaxPool2x2().backward(dy, cache)
    want_y, want_dx = pool_reference(x, dy)
    assert_same_bits(y, want_y)
    assert_same_bits(dx, want_dx)
    # the gradient of each window lands on exactly one of its four positions
    assert np.count_nonzero(dx) == len(windows)


@pytest.mark.parametrize("shape", [(2, 3, 6, 8), (2, 2, 7, 5), (1, 2, 5, 6), (3, 1, 4, 3),
                                   (2, 2, 1, 6), (2, 2, 6, 1), (1, 1, 1, 1)])
def test_maxpool_matches_argmax_gather_bitwise(shape):
    rng = np.random.default_rng(list(shape))
    pool = MaxPool2x2()
    # draws from few values make ties, and NaN after a larger value, common
    for x in _layouts(rng, shape):
        y, cache = pool.forward(x)
        dy = _specials(rng, y.shape)
        dx, grads = pool.backward(dy, cache)
        want_y, want_dx = pool_reference(x, dy)
        assert_same_bits(y, want_y)
        assert_same_bits(dx, want_dx)
        assert grads == [] and pool.backward(dy, cache, need_dx=False) == (None, [])
        # an odd trailing row or col gets +0.0, not -0.0
        h, w = shape[-2:]
        assert not dx[..., h // 2 * 2:, :].view(np.int32).any()
        assert not dx[..., :, w // 2 * 2:].view(np.int32).any()


# ------------------------------------------------------------- col2im

def col2im_reference(conv, dy, x_shape):
    """The conv input gradient as 25 adds of (r, q) slices of the im2col
    product's transpose, each dx element summing its terms in (r, q) order
    from +0.0."""
    *ranks, b, c, h, w = x_shape
    oh, ow = dy.shape[-2:]
    k = conv.K
    dmat = np.moveaxis(dy, -3, -1).reshape(*ranks, b * oh * ow, conv.out_maps)
    dcols = (dmat @ conv.weight.reshape(conv.out_maps, -1)).reshape(*ranks, b, oh, ow, c, k, k)
    dcols = np.ascontiguousarray(np.moveaxis(dcols, (-5, -4), (-2, -1)))
    dx = np.zeros(x_shape, dtype=np.float32)
    for r in range(k):
        for q in range(k):
            dx[..., r:r + oh, q:q + ow] += dcols[..., r, q, :, :]
    return dx


# SPECIALS plus subnormals of either sign, the smallest and largest included
COL2IM_SPECIALS = np.concatenate([SPECIALS, np.array(
    [0x00000001, 0x80000001, 0x007FFFFF, 0x80400000], np.uint32).view(np.float32)])


def _col2im_dy(rng, shape, special_share):
    """Normal values, with a share of them replaced by COL2IM_SPECIALS;
    alternately C order and the conv forward's channels-innermost layout."""
    dy = rng.standard_normal(shape).astype(np.float32)
    hit = rng.random(shape) < special_share
    dy[hit] = COL2IM_SPECIALS[rng.integers(0, len(COL2IM_SPECIALS), hit.sum())]
    return [dy, np.moveaxis(np.ascontiguousarray(np.moveaxis(dy, -3, -1)), -1, -3)]


def assert_same_bits_but_nan_payloads(got, want):
    """Bitwise equal, except that a NaN may carry another NaN's bits: where
    two NaNs meet in an add, numpy's float32 loop keeps the first or the
    second by where the element falls in its vector body or tail, so the
    bits a NaN sum ends with depend on run length, not on the arithmetic."""
    nan = np.isnan(want)
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("x_shape, out_maps", [
    ((3, 3, 13, 9), 4), ((1, 3, 9, 13), 4), ((3, 1, 6, 11), 2), ((2, 8, 12, 12), 16),
    ((1, 2, 5, 5), 3), ((2, 1, 5, 7), 1), ((3, 2, 3, 9, 10), 4), ((2, 1, 4, 8, 8), 5)])
def test_conv_input_gradient_matches_slice_scatter_bitwise(x_shape, out_maps):
    rng = np.random.default_rng([*x_shape, out_maps])
    c = x_shape[-3]
    conv = Conv5x5(c, out_maps, rng)
    conv.weight.flat[rng.random(conv.weight.size) < 0.1] = 0.0
    x = rng.standard_normal(x_shape).astype(np.float32)
    y, cache = conv.forward(x)
    for share in (0.0, 0.02, 0.5):
        for dy in _col2im_dy(rng, y.shape, share):
            dx = conv.backward(dy, cache)[0]
            assert dx.flags.c_contiguous
            assert_same_bits_but_nan_payloads(dx, col2im_reference(conv, dy, x_shape))
    # one NaN pattern and no infinity: no two NaNs differ, so every bit holds
    payload = np.array([0x7FC00123], np.uint32).view(np.float32)[0]
    dy = rng.standard_normal(y.shape).astype(np.float32)
    dy[rng.random(y.shape) < 0.05] = payload
    assert_same_bits(conv.backward(dy, cache)[0], col2im_reference(conv, dy, x_shape))
    # an all -0.0 dy gives +0.0 everywhere, as the slice adds from +0.0 do
    dx = conv.backward(np.full(y.shape, -0.0, dtype=np.float32), cache)[0]
    assert dx.flags.c_contiguous and dx.shape == x_shape and not dx.view(np.int32).any()


# ------------------------------------------------------------- rank axis

def _stack_model(kind):
    if kind == "mlp":
        return build_mlp(20, [32, 16], 5, seed=3), (20,)
    return build_cnn(1, [4, 6], 12, 5, seed=3, image_hw=(16, 16)), (1, 16, 16)


@pytest.mark.parametrize("b", [1, 2, 8])
@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("kind", ["mlp", "cnn"])
def test_stacked_ranks_match_per_rank_calls_bitwise(kind, n, b):
    model, shape = _stack_model(kind)
    rng = np.random.default_rng([n, b])
    x = rng.standard_normal((n, b, *shape)).astype(np.float32)
    y = rng.integers(0, 5, (n, b))
    losses, cache = model.forward(x, y)
    rows = model.backward(cache)
    assert len(losses) == n and all(type(l) is float for l in losses)
    assert [r.shape for r in rows] == [(n, sum(p.size for p in l.params()))
                                       for l in model.param_layers]
    assert all(r.dtype == np.float32 and r.flags.c_contiguous for r in rows)
    for rank in range(n):
        (loss,), own = model.forward(x[rank:rank + 1], y[rank:rank + 1])
        assert type(loss) is float and loss == losses[rank]
        for row, own_row in zip(rows, model.backward(own), strict=True):
            assert row[rank].tobytes() == own_row[0].tobytes()


@pytest.mark.parametrize("model, x, classes", _models(), ids=["cnn", "mlp", "relu_first"])
def test_predict_is_the_argmax_of_the_forward_logits(model, x, classes, monkeypatch):
    seen = []
    loss = model.head.loss
    monkeypatch.setattr(model.head, "loss", lambda logits, labels: seen.append(logits) or loss(logits, labels))
    one_rank.forward(model, x, np.arange(len(x)) % classes)
    got = model.predict(x)
    assert got.shape == (len(x),)
    assert got.tobytes() == seen[0][0].argmax(axis=1).tobytes()


def _repo_models():
    """(model, sample shape) for every model shape the repo builds: perfbench's
    CNN and MLP, then those of the tests."""
    rng = np.random.default_rng(31)
    relu_first = Model([ReLU(), Conv5x5(2, 2, rng), ReLU(), MaxPool2x2(),
                        FullyConnected(8, 3, rng)], classes=3)
    return [(build_cnn(1, [8, 16], 64, 10, seed=7), (1, 28, 28)),
            (build_mlp(64, [256, 256], 10, seed=7), (64,)),
            (build_cnn(1, [4, 8], 16, 10, seed=7), (1, 28, 28)),
            (build_cnn(1, [4], 8, 10, seed=7), (1, 28, 28)),
            (build_cnn(1, [2, 3], 8, 4, seed=5, image_hw=(16, 16)), (1, 16, 16)),
            (build_cnn(1, [4, 6], 12, 5, seed=3, image_hw=(16, 16)), (1, 16, 16)),
            (relu_first, (2, 9, 9)),
            # convs of one and two maps, which predict leaves unsliced
            (build_cnn(1, [4, 1], 8, 10, seed=7, image_hw=(16, 16)), (1, 16, 16)),
            (build_cnn(1, [4, 2], 8, 10, seed=7, image_hw=(16, 16)), (1, 16, 16)),
            (build_mlp(784, [8], 10, seed=7), (784,)),
            (build_mlp(16, [8], 4, seed=7), (16,)),
            (build_mlp(20, [32, 16], 5, seed=3), (20,)),
            (build_mlp(12, [], 3, seed=0), (12,))]


@pytest.mark.parametrize("b", [512, 300, 129])
@pytest.mark.parametrize("model, shape", _repo_models(), ids=[
    "cnn_8_16", "mlp_64_256_256", "cnn_4_8", "cnn_4", "cnn_2_3_16px", "cnn_4_6_16px",
    "relu_first", "cnn_4_1_16px", "cnn_4_2_16px", "mlp_784_8", "mlp_16_8", "mlp_20_32_16", "linear"])
def test_predict_keeps_the_logits_of_one_unsliced_pass(model, shape, b, monkeypatch):
    x = np.random.default_rng(b).standard_normal((b, *shape)).astype(np.float32)
    whole = x[None]
    for layer in model.layers:
        whole = layer.forward(whole)[0]
    seen = []
    last = model.layers[-1]
    forward = last.forward
    monkeypatch.setattr(last, "forward", lambda v: seen.append(forward(v)) or seen[-1])
    got = model.predict(x)
    assert len(seen) == 1 and seen[0][0].tobytes() == whole.tobytes()
    assert got.tobytes() == whole.argmax(axis=-1)[0].tobytes()


@pytest.mark.parametrize("b, slices", [(512, [128] * 4), (300, [128, 172]), (255, [255]),
                                       (256, [128, 128]), (1, [1])])
def test_predict_runs_the_conv_stack_in_slices(b, slices, monkeypatch):
    model = build_cnn(1, [8, 16], 64, 10, seed=7)
    seen = []
    conv, head = model.layers[0], model.layers[-2]
    for layer in (conv, head):
        forward = layer.forward
        monkeypatch.setattr(layer, "forward", lambda v, f=forward: seen.append(v.shape[1]) or f(v))
    model.predict(np.zeros((b, 1, 28, 28), np.float32))
    assert seen == [*slices, b]


def test_predict_leaves_a_conv_of_two_maps_unsliced(monkeypatch):
    model = build_cnn(1, [4, 2], 8, 10, seed=7, image_hw=(16, 16))
    seen = []
    forward = model.layers[0].forward
    monkeypatch.setattr(model.layers[0], "forward", lambda v: seen.append(v.shape[1]) or forward(v))
    model.predict(np.zeros((512, 1, 16, 16), np.float32))
    assert seen == [512]


def test_predict_of_512_samples_peaks_below_16_mib():
    # the cnn-n1 model; one unsliced pass peaks at 37 MiB, conv0's im2col alone 29 MB
    model = build_cnn(1, [8, 16], 64, 10, seed=7)
    x = np.random.default_rng(0).random((512, 1, 28, 28), dtype=np.float32)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        model.predict(x)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ------------------------------------------------------------- serialization

def test_conv_serialization_layout():
    # a layer's gradient row is ravel(dW) then the bias gradient
    rng = np.random.default_rng(0)
    conv = Conv5x5(3, 2, rng)
    model = Model([conv, FullyConnected(2, 2, rng)], classes=2)
    x = rng.uniform(-1, 1, (2, 4, 3, 5, 5)).astype(np.float32)
    _, cache = model.forward(x, np.array([[0, 1, 1, 0], [1, 1, 0, 0]]))
    rows = model.backward(cache)
    _, full = full_backward_reference(model, cache)
    grad_weight, grad_bias = full[0]
    assert rows[0].shape == (2, 152)
    for rank, row in enumerate(rows[0]):
        # kernel element (o=1, i=2, r=4, c=4) sits at flat index 149
        assert row[149] == grad_weight[rank, 1, 2, 4, 4]
        assert row[:150].tobytes() == grad_weight[rank].tobytes()
        assert row[150:].tobytes() == grad_bias[rank].tobytes()
    assert model.param_layers[0].kind == "conv"


def test_split_vector_roundtrip():
    rng = np.random.default_rng(1)
    fc = FullyConnected(7, 3, rng)
    model = Model([fc], classes=3)
    x = rng.uniform(-1, 1, (4, 7)).astype(np.float32)
    y = np.array([0, 1, 2, 0])
    _, cache = one_rank.forward(model, x, y)
    row = model.backward(cache)[0][0]
    _, grads = full_backward_reference(model, cache)  # [dW, db] with a rank axis of 1
    parts = split_vector(row, [p.shape for p in fc.params()])
    np.testing.assert_array_equal(parts[0], grads[0][0][0])
    np.testing.assert_array_equal(parts[1], grads[0][1][0])
    with pytest.raises(ValueError):
        split_vector(row[:-1], [p.shape for p in fc.params()])


def test_layer_names():
    rng = np.random.default_rng(0)
    model = Model([Conv5x5(1, 2, rng), ReLU(), MaxPool2x2(),
                   FullyConnected(8, 4, rng), ReLU(), FullyConnected(4, 2, rng)], classes=2)
    assert model.layer_names() == ["conv0", "fc0", "fc1"]


# --------------------------------------------------------------- determinism

def test_same_seed_same_losses_and_grads():
    def one(seed):
        model = build_mlp(8, [5], 3, seed=seed)
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, (6, 8)).astype(np.float32)
        y = rng.integers(0, 3, 6)
        loss, cache = one_rank.forward(model, x, y)
        grads = one_rank.backward(model, cache)
        return loss, grads

    loss_a, grads_a = one(7)
    loss_b, grads_b = one(7)
    assert loss_a == loss_b
    for ga, gb in zip(grads_a, grads_b):
        for a, b in zip(ga, gb):
            np.testing.assert_array_equal(a, b)


def test_loss_decreases_on_separable_task():
    from adacomp.data import synth_gaussians
    from adacomp.optim import SGDMomentum

    ds = synth_gaussians(3, 8, 120, seed=5, separation=5.0)
    model = build_mlp(8, [16], 3, seed=1)
    opt = SGDMomentum(lr=0.05)
    first = last = None
    for step in range(50):
        loss, cache = one_rank.forward(model, ds.features, ds.labels)
        grads = one_rank.backward(model, cache)
        params = [p for l in model.param_layers for p in l.params()]
        flat = [g for parts in grads for g in parts]
        opt.update(params, flat)
        if step == 0:
            first = loss
        last = loss
    assert last < first * 0.5
