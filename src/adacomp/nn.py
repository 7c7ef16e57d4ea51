"""Minimal deterministic float32 network engine.

Dense tensors only, layers limited to fully-connected, 5x5 valid
convolution, ReLU, 2x2 max-pool and a softmax cross-entropy head. Each
parameterized layer serializes its gradient as kernel values in row-major
(out-map, in-map, row, col) order with the bias appended last; weight
updates consume the same layout. Layers hold only their parameters:
``forward`` returns its output with a cache, ``backward(dy, cache,
need_dx)`` returns the input gradient, or None if not ``need_dx``, with
that layer's parameter gradients; nothing of a batch is stored on the
layer. Nothing reads the model's input gradient, so ``Model.backward``
runs no layer below the lowest parameterized one and asks that one for no
input gradient. ReLU and max-pool select by AND with bit masks on the float32
bit patterns, never ``np.where`` or an argmax gather: a select whose branch
follows random data mispredicts on every other element. The conv input
gradient adds W times a zero-padded dy into dx in runs of oh*w floats: a pad
term W·0 = ±0.0 changes no sum started from +0.0 (never -0.0) while the
weights are finite, as ``Cluster`` checks after every update. Only the NaN
that a sum of two NaNs keeps may differ from a slice-by-slice scatter.
im2col copies whole kernel rows, each run of k floats one void item (numpy
copies floats one by one in loops of k): the items hold the same bytes in the
same C order, so the matrix, its products and dW keep every bit. The conv bias
adds over (b*oh, ow*out_maps) rows, the same float adds as over out_maps.
``Model.predict`` runs the layers below the fc head in slices of at least
128 samples and keeps the bits of one whole-batch pass: ReLU and pool work
element by element, and each conv output row is the product of its own im2col
row, computed alike whatever the number of rows at these sizes. On OpenBLAS
0.3.31's SkylakeX kernel (not Haswell's), at any thread count, a product rounds
otherwise only with one output column, or with at most 1,200 outputs when
K >= 50; a 128-sample slice gives a conv at least 512 rows, so convs of 3 or
more maps are clear of both. An fc product has one row per sample, so fc
576->8 or 784->8 on 128 samples rounds otherwise: the fc head runs unsliced.

A model takes N ranks stacked on a leading axis, (N, b, ...) with (N, b)
labels, one rank being N = 1; it returns N losses and, per parameterized
layer, an (N, size) gradient matrix whose row r is rank r's serialized
gradient. Products are stacked ``np.matmul`` calls, one 2-D product per rank,
so each rank gets the bits its own batch gives; one product over all ranks
would round otherwise.
"""

from __future__ import annotations

import numpy as np

# what Model.backward needs of one batch: (per-layer caches, probs, labels)
ForwardCache = tuple[list, np.ndarray, np.ndarray]

# samples per slice of Model.predict below the fc head: conv0's im2col for 128
# 28x28 images is 7.4 MB, against 29 MB for a 512-sample test batch
PREDICT_SLICE = 128


class FullyConnected:
    kind = "fc"

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, init: str = "he"):
        if init == "he":
            limit = np.sqrt(6.0 / n_in)
        elif init == "glorot":
            limit = np.sqrt(6.0 / (n_in + n_out))
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = rng.uniform(-limit, limit, size=(n_out, n_in)).astype(np.float32)
        self.bias = np.zeros(n_out, dtype=np.float32)

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray):
        # the (N, b) axes stay; the rest are flattened
        flat = x.reshape(*x.shape[:2], -1)
        return flat @ self.weight.T + self.bias, (flat, x.shape)

    def backward(self, dy: np.ndarray, cache, need_dx: bool = True, out=None):
        flat, x_shape = cache
        dw, db = out or (None, None)
        dx = (dy @ self.weight).reshape(x_shape) if need_dx else None
        return dx, [np.matmul(np.swapaxes(dy, -1, -2), flat, out=dw), dy.sum(axis=-2, out=db)]


class Conv5x5:
    kind = "conv"
    K = 5

    def __init__(self, in_maps: int, out_maps: int, rng: np.random.Generator):
        self.in_maps = in_maps
        self.out_maps = out_maps
        fan_in = in_maps * self.K * self.K
        limit = np.sqrt(6.0 / fan_in)
        self.weight = rng.uniform(-limit, limit, size=(out_maps, in_maps, self.K, self.K)).astype(np.float32)
        self.bias = np.zeros(out_maps, dtype=np.float32)

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray):
        *ranks, b, c, h, w = x.shape
        if c != self.in_maps:
            raise ValueError(f"expected {self.in_maps} input maps, got {c}")
        k = self.K
        oh, ow = h - k + 1, w - k + 1
        if oh < 1 or ow < 1:
            raise ValueError("input smaller than kernel")
        # item (.., row, col) is the run x[.., row, col:col + k]: one void, one copy
        x = np.ascontiguousarray(x)
        runs = np.ndarray((*ranks, b, c, h, ow), np.dtype((np.void, k * x.itemsize)), x, strides=x.strides)
        cols = np.empty((*ranks, b, oh, ow, c, k), runs.dtype)
        np.copyto(cols, np.moveaxis(np.lib.stride_tricks.sliding_window_view(runs, k, axis=-2), -4, -2))
        cols = cols.view(x.dtype).reshape(*ranks, b * oh * ow, c * k * k)
        out = cols @ self.weight.reshape(self.out_maps, -1).T
        wide = out.reshape(*ranks, b * oh, ow * self.out_maps)  # a view: the bias adds in long rows
        wide += np.tile(self.bias, ow)
        return np.moveaxis(out.reshape(*ranks, b, oh, ow, self.out_maps), -1, -3), (cols, x.shape)

    def backward(self, dy: np.ndarray, cache, need_dx: bool = True, out=None):
        cols, x_shape = cache
        *ranks, b, c, h, w = x_shape
        oh, ow = dy.shape[-2:]
        k = self.K
        dw, db = out or (None, None)
        dmat = np.moveaxis(dy, -3, -1).reshape(*ranks, b * oh * ow, self.out_maps)
        dw = np.matmul(np.swapaxes(dmat, -1, -2), cols,
                       out=None if dw is None else dw.reshape(*ranks, self.out_maps, -1))
        grads = [dw.reshape(*ranks, *self.weight.shape), dmat.sum(axis=-2, out=db)]
        if not need_dx:
            return None, grads
        # col2im: row (c, r, q) of W2ᵀ @ dy, dy zero-padded from ow to w, lies
        # like dx's flat (h, w) planes and adds in at shift r*w + q, so each
        # dx element sums its 25 terms in (r, q) order from +0.0, plus ±0.0
        # pad terms (module docstring). A run ends q floats short: all pad.
        n = oh * w
        dyp = np.zeros((*ranks, self.out_maps, b, oh, w), dtype=np.float32)
        dyp[..., :ow] = np.moveaxis(dy, -3, -4)
        rows = (self.weight.reshape(self.out_maps, -1).T @ dyp.reshape(*ranks, self.out_maps, b * n)
                ).reshape(*ranks, c, k, k, b, n)
        dx = np.zeros((*ranks, b, c, h * w), dtype=np.float32)
        for r in range(k):
            for q in range(k):
                dx[..., r * w + q:r * w + n] += np.swapaxes(rows[..., r, q, :, :n - q], -3, -2)
        return dx.reshape(x_shape), grads


class ReLU:
    """max(x, 0) as a bit mask: the forward caches ``keep = -(x > 0)`` as int8,
    0 or -1, which numpy widens to 0 or all 32 bits, and both directions AND
    the float32 bit patterns with it. Bitwise this is ``np.where(x > 0, x,
    0.0)`` and ``np.where(x > 0, dy, 0.0)``: NaN and -0.0 give +0.0, and dy
    keeps its own sign of zero where x > 0."""

    kind = "relu"

    def params(self):
        return []

    def forward(self, x: np.ndarray):
        if x.dtype != np.float32:
            raise TypeError(f"expected float32 values, got {x.dtype}")
        keep = -(x > 0).view(np.int8)
        return (x.view(np.int32) & keep).view(np.float32), keep

    def backward(self, dy: np.ndarray, keep, need_dx: bool = True):
        return ((dy.view(np.int32) & keep).view(np.float32) if need_dx else None), []


class MaxPool2x2:
    """2x2 window, stride 2, odd trailing rows/cols dropped. A mask per window
    position (the quarter ``x[..., r::2, q::2]``) marks the element ``argmax``
    would pick: the first NaN in row-major order, else the lowest position
    holding the maximum. The output is that element's own bits, sign of zero
    and NaN included; the gradient goes to it alone, odd trailing rows and
    cols get +0.0."""

    kind = "pool"

    def params(self):
        return []

    def forward(self, x: np.ndarray):
        v = np.array(_quarters(x))  # C order, as dy comes to the backward
        m = np.maximum(np.maximum(v[0], v[1]), np.maximum(v[2], v[3]))
        hit = (v == m) | np.isnan(v)
        for k in (1, 2, 3):
            hit[k] &= ~hit[:k].any(axis=0)
        bits = v.view(np.int32) & -hit.view(np.int8)
        return np.bitwise_or.reduce(bits).view(np.float32), (hit, x.shape)

    def backward(self, dy: np.ndarray, cache, need_dx: bool = True):
        if not need_dx:
            return None, []
        hit, x_shape = cache
        dx = np.zeros(x_shape, dtype=np.float32)
        for part, h in zip(_quarters(dx.view(np.int32)), hit):
            np.bitwise_and(dy.view(np.int32), -h.view(np.int8), out=part)
        return dx, []


def _quarters(a: np.ndarray) -> list[np.ndarray]:
    """Views of the four 2x2 window positions in row-major order."""
    h, w = a.shape[-2] // 2 * 2, a.shape[-1] // 2 * 2
    return [a[..., r:h:2, q:w:2] for r in (0, 1) for q in (0, 1)]


class SoftmaxXent:
    """Softmax + cross-entropy head; the loss is the mean over each rank's batch."""

    kind = "loss"

    def __init__(self, classes: int):
        self.classes = classes

    def loss(self, logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mean loss per rank, softmax probabilities)"""
        if logits.shape[-1] != self.classes:
            raise ValueError(f"expected {self.classes} logits, got {logits.shape[-1]}")
        z = logits - logits.max(axis=-1, keepdims=True)
        ez = np.exp(z)
        denom = ez.sum(axis=-1, keepdims=True)
        probs = ez / denom
        logp = z - np.log(denom)
        return -np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0].mean(axis=-1), probs

    def backward(self, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        grad = probs.copy()
        at = labels[..., None]
        np.put_along_axis(grad, at, np.take_along_axis(grad, at, axis=-1) - np.float32(1.0), axis=-1)
        return grad / np.float32(labels.shape[-1])


class Model:
    """A layer stack with a softmax cross-entropy head."""

    def __init__(self, layers: list, classes: int):
        self.layers = layers
        self.head = SoftmaxXent(classes)

    @property
    def param_layers(self) -> list:
        return [l for l in self.layers if l.params()]

    def layer_names(self) -> list[str]:
        kinds = [l.kind for l in self.param_layers]
        return [f"{k}{kinds[:i].count(k)}" for i, k in enumerate(kinds)]

    def forward(self, x: np.ndarray, labels: np.ndarray) -> tuple[list[float], ForwardCache]:
        """Run N stacked batches, (N, b, ...) with (N, b) labels, through the
        stack; returns the N mean losses, one per rank's b samples, and the
        cache that backward() takes."""
        caches = []
        for l in self.layers:
            x, cache = l.forward(x)
            caches.append(cache)
        loss, probs = self.head.loss(x, labels)
        return loss.tolist(), (caches, probs, labels)

    def backward(self, cache: ForwardCache) -> list[np.ndarray]:
        """Gradients of each rank's mean batch loss for every parameterized
        layer, from the cache of that batch's forward(); no input gradient.
        One (N, size) float32 matrix per layer, which the layer writes into:
        row r is rank r's weight gradient in row-major order, bias last."""
        caches, probs, labels = cache
        dy = self.head.backward(probs, labels)
        lowest = min((i for i, l in enumerate(self.layers) if l.params()), default=len(self.layers))
        rows = []
        for i in range(len(self.layers) - 1, lowest - 1, -1):
            layer, into = self.layers[i], {}
            if layer.params():
                shapes = [p.shape for p in layer.params()]
                rows.append(np.empty((len(labels), sum(map(np.prod, shapes))), dtype=np.float32))
                into["out"] = split_vector(rows[-1], shapes)
            dy = layer.backward(dy, caches[i], need_dx=i > lowest, **into)[0]
        return rows[::-1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class of each sample of one (b, ...) batch, run as a stack of one
        rank; no layer's cache is kept. The layers below the first fc layer
        run in slices of PREDICT_SLICE samples, the last slice taking the
        remainder too (128 to 255 samples), which bounds their im2col
        matrices; the fc head then runs once on the whole batch. The logits
        keep every bit of one unsliced pass (module docstring). A model whose
        first layer is fc, or with a conv of fewer than 3 output maps, runs
        unsliced."""
        x = x[None]
        head = next((i for i, l in enumerate(self.layers) if l.kind == "fc"), 0)
        if any(l.kind == "conv" and l.out_maps < 3 for l in self.layers[:head]):
            head = 0
        if head:
            n = x.shape[1]
            ends = [*range(PREDICT_SLICE, n - PREDICT_SLICE + 1, PREDICT_SLICE), n]
            x = np.concatenate([_run(self.layers[:head], x[:, a:e])
                                for a, e in zip([0, *ends], ends)], axis=1)
        return _run(self.layers[head:], x).argmax(axis=-1)[0]


def _run(layers: list, x: np.ndarray) -> np.ndarray:
    """x through the layers, keeping no cache."""
    for l in layers:
        x = l.forward(x)[0]
    return x


def split_vector(values: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Cut a vector, or each row of a matrix, in a layer's serialized layout
    back into views of the given shapes."""
    sizes = [int(np.prod(s)) for s in shapes]
    *lead, n = values.shape
    if sum(sizes) != n:
        raise ValueError(f"vector of {n} values cannot fill shapes totalling {sum(sizes)}")
    ends = np.cumsum(sizes)
    return [values[..., e - size:e].reshape(*lead, *shape) for shape, size, e in zip(shapes, sizes, ends)]


def build_mlp(input_dim: int, hidden: list[int], classes: int, seed: int) -> Model:
    """Fully-connected stack with ReLU between layers; hidden layers use
    He-uniform init, the output layer Glorot-uniform."""
    rng = np.random.default_rng(seed)
    layers: list = []
    n_in = input_dim
    for n_out in hidden:
        layers.append(FullyConnected(n_in, n_out, rng, init="he"))
        layers.append(ReLU())
        n_in = n_out
    layers.append(FullyConnected(n_in, classes, rng, init="glorot"))
    return Model(layers, classes)


def build_cnn(in_maps: int, conv_maps: list[int], fc_hidden: int, classes: int,
              seed: int, image_hw: tuple[int, int] = (28, 28)) -> Model:
    """Conv(5x5)+ReLU+pool blocks followed by two fully-connected layers."""
    rng = np.random.default_rng(seed)
    layers: list = []
    maps = in_maps
    h, w = image_hw
    for out_maps in conv_maps:
        layers.append(Conv5x5(maps, out_maps, rng))
        layers.append(ReLU())
        layers.append(MaxPool2x2())
        h, w = (h - 4) // 2, (w - 4) // 2
        maps = out_maps
    flat = maps * h * w
    layers.append(FullyConnected(flat, fc_hidden, rng, init="he"))
    layers.append(ReLU())
    layers.append(FullyConnected(fc_hidden, classes, rng, init="glorot"))
    return Model(layers, classes)
