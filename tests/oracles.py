"""Naive reference implementations used as independent oracles.

Everything here is deliberately written as plain element-by-element loops
over float64 scalars, mirroring the production code's arithmetic order but
sharing none of its vectorized structure. ``ReplicaReference`` is the
exception: it is the N-replica simulation that the single-replica
``Cluster`` must reproduce bitwise.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from adacomp.codec import CodecState, GradientVector, PackedLayer
from adacomp.data import Dataset, _digit_prototype
from adacomp.sim import make_codec, shard, to_dense


def _to_f64_list(values) -> list[np.float64]:
    return [np.float64(np.float32(v)) for v in values]


def _seq_mean(values: list[np.float64]) -> np.float64:
    acc = np.float64(0.0)
    for v in values:
        acc = acc + v
    return acc / np.float64(len(values)) if values else np.float64(0.0)


def adacomp_pack_reference(residue, dw, bin_size, scale_factor=2.0):
    """Line-by-line transcription of the bin-wise soft-threshold compressor.

    residue: float64 sequence (prior state), dw: float32-valued sequence.
    Returns (bins, scale, new_residue) with bins as a list per bin of
    (index_within_bin, sign) tuples.
    """
    n = len(dw)
    res = [np.float64(r) for r in residue]
    w = _to_f64_list(dw)
    g = [res[i] + w[i] for i in range(n)]
    h = [g[i] + (np.float64(scale_factor) - np.float64(1.0)) * w[i] for i in range(n)]
    nbins = math.ceil(n / bin_size)
    gmax = []
    for b in range(nbins):
        m = np.float64(0.0)
        for j in range(b * bin_size, min((b + 1) * bin_size, n)):
            if abs(g[j]) > m:
                m = abs(g[j])
        gmax.append(m)
    scale32 = np.float32(_seq_mean(gmax))
    scale = np.float64(scale32)
    bins = []
    new_res = list(g)
    for b in range(nbins):
        entries = []
        for j in range(b * bin_size, min((b + 1) * bin_size, n)):
            if gmax[b] > 0 and scale32 != 0 and abs(h[j]) >= gmax[b]:
                sign = 1 if g[j] >= 0 else -1
                entries.append((j - b * bin_size, sign))
                sent = scale if sign == 1 else -scale
                new_res[j] = g[j] - sent
        bins.append(entries)
    return bins, float(scale32), np.array(new_res, dtype=np.float64)


def ls_pack_reference(residue, dw, bin_size):
    """Top-1-per-bin selection with the same scale and residue rules."""
    n = len(dw)
    res = [np.float64(r) for r in residue]
    w = _to_f64_list(dw)
    g = [res[i] + w[i] for i in range(n)]
    nbins = math.ceil(n / bin_size)
    gmax = []
    for b in range(nbins):
        m = np.float64(0.0)
        for j in range(b * bin_size, min((b + 1) * bin_size, n)):
            if abs(g[j]) > m:
                m = abs(g[j])
        gmax.append(m)
    scale32 = np.float32(_seq_mean(gmax))
    scale = np.float64(scale32)
    bins = []
    new_res = list(g)
    for b in range(nbins):
        if gmax[b] == 0 or scale32 == 0:
            bins.append([])
            continue
        best = None
        for j in range(b * bin_size, min((b + 1) * bin_size, n)):
            if best is None or abs(g[j]) > abs(g[best]):
                best = j
        sign = 1 if g[best] >= 0 else -1
        bins.append([(best - b * bin_size, sign)])
        new_res[best] = g[best] - (scale if sign == 1 else -scale)
    return bins, float(scale32), np.array(new_res, dtype=np.float64)


def topk_pack_reference(residue, dw, fraction):
    """Layer-wide top-k with per-sign reconstruction means."""
    n = len(dw)
    res = [np.float64(r) for r in residue]
    w = _to_f64_list(dw)
    g = [res[i] + w[i] for i in range(n)]
    k = math.ceil(fraction * n)
    order = sorted(range(n), key=lambda i: (-abs(g[i]), i))
    chosen = sorted(order[:k])
    pos = [g[i] for i in chosen if g[i] >= 0]
    neg = [g[i] for i in chosen if g[i] < 0]
    pos_scale = np.float64(np.float32(_seq_mean(pos)))
    neg_scale = np.float64(np.float32(_seq_mean(neg)))
    new_res = list(g)
    signs = []
    for i in chosen:
        s = 1 if g[i] >= 0 else -1
        signs.append(s)
        new_res[i] = g[i] - (pos_scale if s == 1 else neg_scale)
    return (np.array(chosen, dtype=np.int64), np.array(signs, dtype=np.int8),
            float(np.float32(pos_scale)), float(np.float32(neg_scale)),
            np.array(new_res, dtype=np.float64))


def onebit_pack_reference(residue, dw):
    """Dense sign quantization with per-sign reconstruction means."""
    n = len(dw)
    res = [np.float64(r) for r in residue]
    w = _to_f64_list(dw)
    g = [res[i] + w[i] for i in range(n)]
    bits = [g[i] >= 0 for i in range(n)]
    pos_scale = np.float64(np.float32(_seq_mean([g[i] for i in range(n) if bits[i]])))
    neg_scale = np.float64(np.float32(_seq_mean([g[i] for i in range(n) if not bits[i]])))
    new_res = [g[i] - (pos_scale if bits[i] else neg_scale) for i in range(n)]
    return (np.array(bits, dtype=bool), float(np.float32(pos_scale)),
            float(np.float32(neg_scale)), np.array(new_res, dtype=np.float64))


def packed_from_bins(layer_id, element_count, bin_size, scale, bins):
    """A PackedLayer from per-bin lists of (index within bin, sign) entries,
    the form the reference coders below read and write."""
    flat = [(b * bin_size + i, sign) for b, entries in enumerate(bins) for i, sign in entries]
    return PackedLayer(layer_id, element_count, bin_size, scale,
                       np.array([i for i, _ in flat], dtype=np.int64),
                       np.array([sign for _, sign in flat], dtype=np.int8))


def encode_reference(layer_id, element_count, bin_size, scale, bins):
    """The wire bytes of a pack given as per-bin entry lists, written entry
    by entry (docs/wire-format.md)."""
    width = 1 if bin_size <= 64 else 2
    out = bytearray(struct.pack("<HIHf", layer_id, element_count, bin_size, scale))
    for entries in bins:
        if len(entries) < 255:
            out.append(len(entries))
        else:
            out.append(255)
            out += len(entries).to_bytes(2, "little")
        for idx, sign in entries:
            word = (idx << 2) | (0b01 if sign == 1 else 0b10)
            out += word.to_bytes(width, "little")
    return bytes(out)


def decode_reference(data):
    """Inverse of ``encode_reference`` for a well-formed stream: returns
    (layer_id, element_count, bin_size, scale, bins)."""
    layer_id, element_count, bin_size, scale = struct.unpack_from("<HIHf", data, 0)
    width = 1 if bin_size <= 64 else 2
    pos = struct.calcsize("<HIHf")
    bins = []
    for _ in range(math.ceil(element_count / bin_size)):
        count = data[pos]
        pos += 1
        if count == 255:
            count = int.from_bytes(data[pos:pos + 2], "little")
            pos += 2
        entries = []
        for _ in range(count):
            word = int.from_bytes(data[pos:pos + width], "little")
            pos += width
            entries.append((word >> 2, 1 if word & 0b11 == 0b01 else -1))
        bins.append(entries)
    assert pos == len(data)
    return layer_id, element_count, bin_size, scale, bins


class ReplicaReference:
    """N data-parallel learners as a real job runs them: each rank keeps its
    own model replica, optimizer and residues, computes on its own replica,
    and unpacks and averages all N packs of a layer itself, in rank order in
    float32, before its own optimizer update. Each replica runs its batch
    through the rank-stacked engine as a stack of one rank. Takes the same
    arguments as ``Cluster``; the nn engine, the codecs and the sharding are
    the production ones, checked by their own tests."""

    def __init__(self, build_model, train, codec_by_kind, make_opt, num_learners,
                 global_minibatch, seed):
        self.train = train
        self.num_learners = num_learners
        self.local_batch = global_minibatch // num_learners
        self.seed = seed
        self.models = [build_model(seed) for _ in range(num_learners)]
        self.optimizers = [make_opt() for _ in range(num_learners)]
        layers = self.models[0].param_layers
        self.codecs = [codec_by_kind.get(l.kind, make_codec("identity")) for l in layers]
        self.states = [[CodecState.zeros(sum(p.size for p in l.params())) for l in layers]
                       for _ in range(num_learners)]

    def step(self, epoch, t):
        """Step ``t`` of ``epoch``; returns the mean loss over the ranks and
        every rank's packs."""
        streams = shard(len(self.train), self.num_learners, self.seed, epoch)
        b = self.local_batch
        losses, all_packs = [], []
        for rank, model in enumerate(self.models):
            idx = streams[rank][None, t * b:(t + 1) * b]
            (loss,), cache = model.forward(self.train.features[idx], self.train.labels[idx])
            packs = []
            for li, row in enumerate(model.backward(cache)):
                packed, self.states[rank][li] = self.codecs[li](self.states[rank][li],
                                                                GradientVector(li, row[0]))
                packs.append(packed)
            losses.append(loss)
            all_packs.append(packs)
        for model, optimizer in zip(self.models, self.optimizers):
            params, grads = [], []
            for li, layer in enumerate(model.param_layers):
                acc = np.zeros(self.states[0][li].residue.size, dtype=np.float32)
                for packs in all_packs:
                    acc += to_dense(packs[li])
                acc /= np.float32(self.num_learners)
                pos = 0
                for p in layer.params():
                    params.append(p)
                    grads.append(acc[pos:pos + p.size].reshape(p.shape))
                    pos += p.size
            optimizer.update(params, grads)
        return sum(losses) / len(losses), all_packs


def nearest_rank_reference(values, pct):
    """Nearest-rank percentile over a plain sorted list, NaN above every
    number: the ceil(pct/100 * n)-th smallest value."""
    ordered = sorted((float(v) for v in values), key=lambda v: (math.isnan(v), v))
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1]


def pooled_p95_reference(cluster, layer_index):
    """95th nearest-rank percentile of |residue| for one layer, pooled over
    every rank's residue element by element."""
    magnitudes = []
    for states in cluster.codec_states:
        for v in states[layer_index].residue:
            magnitudes.append(abs(float(v)))
    return nearest_rank_reference(magnitudes, 95.0)


def finite_difference_grads(loss_fn, params: list[np.ndarray], eps: float = 1e-3) -> list[np.ndarray]:
    """Central finite differences of loss_fn() w.r.t. every coordinate of the
    given parameter arrays, perturbing them in place."""
    out = []
    for p in params:
        grad = np.zeros(p.shape, dtype=np.float64)
        flat = p.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + np.float32(eps)
            hi = loss_fn()
            flat[i] = orig - np.float32(eps)
            lo = loss_fn()
            flat[i] = orig
            grad.reshape(-1)[i] = (hi - lo) / (2.0 * eps)
        out.append(grad)
    return out


def im2col_reference(x: np.ndarray, k: int = 5) -> np.ndarray:
    """Valid-convolution im2col by k*k slice copies into a
    (sample, in-map, kernel row, kernel col, out row, out col) buffer and a
    transpose copy: rows (sample, out row, out col), columns (in-map,
    kernel row, kernel col)."""
    b, c, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    cols = np.empty((b, c, k, k, oh, ow), dtype=np.float32)
    for r in range(k):
        for q in range(k):
            cols[:, :, r, q, :, :] = x[:, :, r:r + oh, q:q + ow]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(b * oh * ow, c * k * k)


def full_backward_reference(model, cache) -> tuple[np.ndarray, list]:
    """Backward through every layer of ``model`` down to its input, asking
    each for its input gradient; returns (input gradient, per-layer
    parameter gradients)."""
    caches, probs, labels = cache
    dy = model.head.backward(probs, labels)
    grads = []
    for layer, c in zip(reversed(model.layers), reversed(caches)):
        dy, g = layer.backward(dy, c, need_dx=True)
        if g:
            grads.append(g)
    return dy, grads[::-1]


def synth_digits_reference(n, seed, noise=0.35, shift=2, split="train", task_seed=7):
    """``synth_digits`` as a per-image ``np.roll`` loop over a stack of
    prototype copies, with the noise added out of place."""
    protos = np.stack([_digit_prototype(task_seed, c) for c in range(10)])
    rng = np.random.default_rng([seed, 0 if split == "train" else 1])
    labels = rng.integers(0, 10, size=n, endpoint=False).astype(np.int64)
    images = protos[labels]
    if shift:
        dy = rng.integers(-shift, shift, size=n, endpoint=True)
        dx = rng.integers(-shift, shift, size=n, endpoint=True)
        images = np.stack([np.roll(img, (r, c), axis=(0, 1))
                           for img, r, c in zip(images, dy, dx)])
    images = images + noise * rng.standard_normal(images.shape)
    u8 = np.clip(images * 255.0, 0, 255).astype(np.uint8)
    return Dataset((u8.astype(np.float32) / np.float32(255.0)).reshape(n, 1, 28, 28),
                   labels, split, num_classes=10)
