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
input gradient. Any number of threads may run forward and backward on one
model at once, as long as none of them updates its parameters meanwhile.
"""

from __future__ import annotations

import numpy as np

from .codec import GradientVector

# per parameterized layer: [dW, db] float32 arrays
ModelGradients = list[list[np.ndarray]]
# what Model.backward needs of one batch: (per-layer caches, probs, labels)
ForwardCache = tuple[list, np.ndarray, np.ndarray]


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
        flat = x.reshape(x.shape[0], -1)
        return flat @ self.weight.T + self.bias, (flat, x.shape)

    def backward(self, dy: np.ndarray, cache, need_dx: bool = True):
        flat, x_shape = cache
        dx = (dy @ self.weight).reshape(x_shape) if need_dx else None
        return dx, [dy.T @ flat, dy.sum(axis=0)]


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
        b, c, h, w = x.shape
        if c != self.in_maps:
            raise ValueError(f"expected {self.in_maps} input maps, got {c}")
        k = self.K
        oh, ow = h - k + 1, w - k + 1
        if oh < 1 or ow < 1:
            raise ValueError("input smaller than kernel")
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, c * k * k)
        out = cols @ self.weight.reshape(self.out_maps, -1).T + self.bias
        return out.reshape(b, oh, ow, self.out_maps).transpose(0, 3, 1, 2), (cols, x.shape)

    def backward(self, dy: np.ndarray, cache, need_dx: bool = True):
        cols, x_shape = cache
        b, c = x_shape[:2]
        oh, ow = dy.shape[2:]
        k = self.K
        dmat = dy.transpose(0, 2, 3, 1).reshape(b * oh * ow, self.out_maps)
        grads = [(dmat.T @ cols).reshape(self.weight.shape), dmat.sum(axis=0)]
        if not need_dx:
            return None, grads
        dcols = (dmat @ self.weight.reshape(self.out_maps, -1)).reshape(b, oh, ow, c, k, k)
        dcols = np.ascontiguousarray(dcols.transpose(0, 3, 4, 5, 1, 2))
        dx = np.zeros(x_shape, dtype=np.float32)
        for r in range(k):
            for q in range(k):
                dx[:, :, r:r + oh, q:q + ow] += dcols[:, :, r, q]
        return dx, grads


class ReLU:
    kind = "relu"

    def params(self):
        return []

    def forward(self, x: np.ndarray):
        mask = x > 0
        return np.where(mask, x, np.float32(0.0)), mask

    def backward(self, dy: np.ndarray, mask, need_dx: bool = True):
        return (np.where(mask, dy, np.float32(0.0)) if need_dx else None), []


class MaxPool2x2:
    """2x2 window, stride 2, odd trailing rows/cols dropped; ties resolve to
    the lowest (row-major) window position."""

    kind = "pool"

    def params(self):
        return []

    def forward(self, x: np.ndarray):
        b, c, h, w = x.shape
        oh, ow = h // 2, w // 2
        v = x[:, :, :2 * oh, :2 * ow].reshape(b, c, oh, 2, ow, 2)
        v = v.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, 4)
        idx = v.argmax(axis=-1)
        return np.take_along_axis(v, idx[..., None], axis=-1)[..., 0], (idx, x.shape)

    def backward(self, dy: np.ndarray, cache, need_dx: bool = True):
        if not need_dx:
            return None, []
        idx, x_shape = cache
        b, c, h, w = x_shape
        oh, ow = h // 2, w // 2
        scattered = np.zeros((b, c, oh, ow, 4), dtype=np.float32)
        np.put_along_axis(scattered, idx[..., None], dy[..., None], axis=-1)
        dx = np.zeros(x_shape, dtype=np.float32)
        dx[:, :, :2 * oh, :2 * ow] = (
            scattered.reshape(b, c, oh, ow, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, 2 * oh, 2 * ow))
        return dx, []


class SoftmaxXent:
    """Softmax + cross-entropy head; loss is the mean over the batch."""

    kind = "loss"

    def __init__(self, classes: int):
        self.classes = classes

    def loss(self, logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """(mean loss, softmax probabilities)"""
        if logits.shape[1] != self.classes:
            raise ValueError(f"expected {self.classes} logits, got {logits.shape[1]}")
        z = logits - logits.max(axis=1, keepdims=True)
        ez = np.exp(z)
        denom = ez.sum(axis=1, keepdims=True)
        probs = ez / denom
        logp = z - np.log(denom)
        return float(-np.mean(logp[np.arange(len(labels)), labels])), probs

    def backward(self, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        grad = probs.copy()
        grad[np.arange(len(labels)), labels] -= np.float32(1.0)
        return grad / np.float32(len(labels))


class Model:
    """A layer stack with a softmax cross-entropy head."""

    def __init__(self, layers: list, classes: int):
        self.layers = layers
        self.head = SoftmaxXent(classes)

    @property
    def param_layers(self) -> list:
        return [l for l in self.layers if l.params()]

    def layer_names(self) -> list[str]:
        names = []
        counts: dict[str, int] = {}
        for l in self.param_layers:
            i = counts.get(l.kind, 0)
            counts[l.kind] = i + 1
            names.append(f"{l.kind}{i}")
        return names

    def _logits(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        caches = []
        for l in self.layers:
            x, cache = l.forward(x)
            caches.append(cache)
        return x, caches

    def forward(self, x: np.ndarray, labels: np.ndarray) -> tuple[float, ForwardCache]:
        """Run the batch through the stack; returns the mean loss and the
        cache that backward() takes."""
        logits, caches = self._logits(x)
        loss, probs = self.head.loss(logits, labels)
        return loss, (caches, probs, labels)

    def backward(self, cache: ForwardCache) -> ModelGradients:
        """Gradients of the mean batch loss for every parameterized layer,
        from the cache of that batch's forward(); no input gradient."""
        caches, probs, labels = cache
        dy = self.head.backward(probs, labels)
        lowest = min((i for i, l in enumerate(self.layers) if l.params()), default=len(self.layers))
        grads = []
        for i in range(len(self.layers) - 1, lowest - 1, -1):
            dy, g = self.layers[i].backward(dy, caches[i], need_dx=i > lowest)
            if g:
                grads.append(g)
        return grads[::-1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._logits(x)[0].argmax(axis=1)


def serialize_grad(grads: ModelGradients) -> list[GradientVector]:
    """Flatten each layer's gradients to one vector: parameters in row-major
    order, bias last."""
    out = []
    for layer_id, parts in enumerate(grads):
        flat = np.concatenate([p.reshape(-1) for p in parts]).astype(np.float32)
        out.append(GradientVector(layer_id, flat))
    return out


def split_vector(values: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Inverse of the per-layer flattening: cut a vector back into arrays of
    the given shapes."""
    sizes = [int(np.prod(s)) for s in shapes]
    if sum(sizes) != values.size:
        raise ValueError(f"vector of {values.size} values cannot fill shapes totalling {sum(sizes)}")
    out = []
    pos = 0
    for shape, size in zip(shapes, sizes):
        out.append(values[pos:pos + size].reshape(shape))
        pos += size
    return out


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
