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
    serialize_grad,
    split_vector,
)

from oracles import finite_difference_grads, full_backward_reference, im2col_reference


def rel_err(a, b):
    denom = np.maximum(np.abs(a), np.abs(b))
    return np.abs(a - b) / np.where(denom > 0, denom, 1.0)


def check_against_fd(model, x, y, eps=1e-3, tol=1e-2):
    """Backprop gradients must match central differences coordinate-wise;
    flat coordinates (both sides zero) compare absolutely."""
    loss, cache = model.forward(x, y)
    assert np.isfinite(loss)
    grads = model.backward(cache)
    analytic = [g for parts in grads for g in parts]
    params = [p for layer in model.param_layers for p in layer.params()]

    def loss_fn():
        l, _ = model.forward(x, y)
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
    x = np.array([[1.0, -2.0, 3.0]], np.float32)
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
    loss, _ = model.forward(x, y)

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
        model.forward(np.zeros((2, 5), np.float32), np.array([0, 1]))


# ----------------------------------------------------------------- backward

def test_zero_input_zero_weight_fc_has_zero_weight_gradient():
    rng = np.random.default_rng(0)
    fc = FullyConnected(4, 2, rng)
    fc.weight[:] = 0
    model = Model([fc], classes=2)
    x = np.zeros((3, 4), np.float32)
    y = np.array([0, 1, 0])
    _, cache = model.forward(x, y)
    grads = model.backward(cache)
    np.testing.assert_array_equal(grads[0][0], np.zeros((2, 4), np.float32))


def test_final_bias_gradient_equals_mean_softmax_minus_onehot():
    model = build_mlp(5, [6], 3, seed=2)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (8, 5)).astype(np.float32)
    y = rng.integers(0, 3, 8)
    _, cache = model.forward(x, y)
    probs = cache[1].copy()
    grads = model.backward(cache)
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
    alone = model.backward(model.forward(xa, ya)[1])
    _, cache_a = model.forward(xa, ya)
    _, cache_b = model.forward(xb, yb)
    model.backward(cache_b)
    for got, want in zip(model.backward(cache_a), alone, strict=True):
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()


# -------------------------------------------------------- conv engine shortcuts

@pytest.mark.parametrize("b, c, h, w", [(1, 1, 5, 5), (3, 3, 13, 9), (1, 3, 9, 13), (3, 1, 6, 11)])
def test_conv_im2col_matches_slice_loop_reference(b, c, h, w):
    rng = np.random.default_rng([b, c, h, w])
    conv = Conv5x5(c, 4, rng)
    conv.bias[:] = rng.uniform(-1, 1, 4)
    x = rng.standard_normal((b, c, h, w)).astype(np.float32)
    out, (cols, _) = conv.forward(x)
    ref = im2col_reference(x)
    assert cols.shape == ref.shape and cols.tobytes() == ref.tobytes()
    assert cols.flags.c_contiguous
    # at batch 1 the reference's reshape is a column-major view, and a
    # product with it rounds differently: the output is checked against
    # the same values in the row-major layout that every batch size gets
    ref = np.ascontiguousarray(ref)
    want = (ref @ conv.weight.reshape(4, -1).T + conv.bias).reshape(b, h - 4, w - 4, 4)
    want = want.transpose(0, 3, 1, 2)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()


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
    _, cache = model.forward(x, labels)
    calls = []
    for i, layer in enumerate(model.layers):
        def spy(dy, c, need_dx=True, i=i, original=layer.backward):
            calls.append((i, need_dx))
            return original(dy, c, need_dx=need_dx)
        layer.backward = spy
    grads = model.backward(cache)
    lowest = next(i for i, l in enumerate(model.layers) if l.params())
    top = len(model.layers) - 1
    assert calls == [(i, i > lowest) for i in range(top, lowest - 1, -1)]

    dx, full = full_backward_reference(model, cache)
    assert dx.shape == x.shape
    assert len(grads) == len(full)
    for got, want in zip(grads, full):
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()


def test_every_layer_skips_its_input_gradient_on_request():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((2, 2, 9, 9)).astype(np.float32)
    for layer in (Conv5x5(2, 3, rng), ReLU(), MaxPool2x2(), FullyConnected(162, 3, rng)):
        y, cache = layer.forward(x)
        dy = rng.standard_normal(y.shape).astype(np.float32)
        dx, grads = layer.backward(dy, cache, need_dx=True)
        assert dx.shape == x.shape
        skipped, same = layer.backward(dy, cache, need_dx=False)
        assert skipped is None
        assert [g.tobytes() for g in same] == [g.tobytes() for g in grads]


# ------------------------------------------------------------- serialization

def test_conv_serialization_layout():
    rng = np.random.default_rng(0)
    conv = Conv5x5(3, 2, rng)
    grad_weight = np.arange(150, dtype=np.float32).reshape(2, 3, 5, 5)
    grad_bias = np.array([900.0, 901.0], np.float32)
    model = Model([conv], classes=2)
    gv = serialize_grad([[grad_weight, grad_bias]])[0]
    assert gv.length == 152
    # kernel element (o=1, i=2, r=4, c=4) sits at flat index 149
    assert gv.values[149] == 149.0
    assert gv.values[150] == 900.0 and gv.values[151] == 901.0
    assert model.param_layers[0].kind == "conv"


def test_split_vector_roundtrip():
    rng = np.random.default_rng(1)
    fc = FullyConnected(7, 3, rng)
    model = Model([fc], classes=3)
    x = rng.uniform(-1, 1, (4, 7)).astype(np.float32)
    y = np.array([0, 1, 2, 0])
    _, cache = model.forward(x, y)
    grads = model.backward(cache)
    gv = serialize_grad(grads)[0]
    parts = split_vector(gv.values, [p.shape for p in fc.params()])
    np.testing.assert_array_equal(parts[0], grads[0][0])
    np.testing.assert_array_equal(parts[1], grads[0][1])
    with pytest.raises(ValueError):
        split_vector(gv.values[:-1], [p.shape for p in fc.params()])


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
        loss, cache = model.forward(x, y)
        grads = model.backward(cache)
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
        loss, cache = model.forward(ds.features, ds.labels)
        grads = model.backward(cache)
        params = [p for l in model.param_layers for p in l.params()]
        flat = [g for parts in grads for g in parts]
        opt.update(params, flat)
        if step == 0:
            first = loss
        last = loss
    assert last < first * 0.5
