"""Deterministic in-process simulation of N synchronous data-parallel
learners.

Every step each learner computes gradients on its shard of the global
mini-batch and compresses them layer by layer against its own residue. The
simulated exchange is lossless, so every learner would decompress the same
N packs, average them in the same rank order and apply the same update to
the same weights. The cluster therefore holds one parameter set and one
optimizer for all ranks, and N residues: one forward and one backward run
over all ranks' shards at once, and each layer is averaged and updated once
per step. A layer's residues are one (N, size) matrix whose rows are the ranks'
states, packed in place; its rg_p95 is taken as the layer is packed. The
whole run is a pure function of (config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import (
    DensePacked,
    OneBitPacked,
    TopKPacked,
    identity_pack,
    ls_pack,
    onebit_pack,
    topk_pack,
    topk_pack_into,
    unpack_dense,
    unpack_onebit,
    unpack_topk,
)
from .codec import BinConfig, CodecState, GradientVector, PackedLayer, pack, unpack
from .data import Dataset
from .nn import split_vector
from .wire import effective_compression_rate, payload_bits


class DivergenceError(RuntimeError):
    """Raised when a learner's loss, a fresh layer gradient or a layer's
    updated weights stop being finite; ``reason`` names the value and where
    it came from."""

    def __init__(self, epoch: int, step: int, reason: str):
        super().__init__(f"{reason} at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step
        self.reason = reason


# ------------------------------------------------------------------- codecs

class Codec:
    """One codec kind. Called, it is the pure pack, ``(state, gv) -> (pack,
    state)``; ``into(residue, magnitudes, gv) -> pack`` packs into a float64
    residue row in place and leaves its |residue| in ``magnitudes``, by
    default by copying in the successor the pure pack returns."""

    def __init__(self, pure, into=None):
        self.pure = pure
        self.into = into or self._copy_back

    def __call__(self, state, gv):
        return self.pure(state, gv)

    def _copy_back(self, residue, magnitudes, gv):
        packed, state = self.pure(CodecState(residue=residue), gv)
        residue[...] = state.residue
        np.abs(residue, out=magnitudes)
        return packed


def make_codec(kind: str, **params) -> Codec:
    """One kind's ``Codec``, its parameters checked; each call looks its pack function up here."""
    def adacomp(bin_size, scale_factor=2.0):
        cfg = BinConfig(bin_size=bin_size, scale_factor=scale_factor)
        return Codec(lambda state, gv: pack(state, gv, cfg))

    def ls(bin_size):
        bin_size = int(BinConfig(bin_size=bin_size).bin_size)
        return Codec(lambda state, gv: ls_pack(state, gv, bin_size))

    def topk(fraction):
        fraction = float(fraction)
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        return Codec(lambda state, gv: topk_pack(state, gv, fraction),
                     lambda residue, mag, gv: topk_pack_into(residue, mag, gv, fraction))

    def onebit():
        return Codec(lambda state, gv: onebit_pack(state, gv))

    def identity():
        return Codec(lambda state, gv: identity_pack(state, gv))

    table = {"adacomp": adacomp, "ls": ls, "topk": topk, "onebit": onebit, "identity": identity}
    if kind not in table:
        raise ValueError(f"unknown codec kind {kind!r}")
    return table[kind](**params)


def to_dense(p) -> np.ndarray:
    """The float32 values any codec's pack reconstructs to."""
    if isinstance(p, PackedLayer):
        return unpack(p).values
    if isinstance(p, TopKPacked):
        return unpack_topk(p).values
    if isinstance(p, OneBitPacked):
        return unpack_onebit(p).values
    if isinstance(p, DensePacked):
        return unpack_dense(p).values
    raise TypeError(f"unknown pack type: {type(p).__name__}")


def add_pack(acc: np.ndarray, p) -> None:
    """``acc += to_dense(p)`` without densifying a sparse pack. The bits are
    the same: a float32 sum that starts at +0.0 is never -0.0, so the +0.0
    that ``to_dense`` adds off the entries changes nothing."""
    if isinstance(p, (PackedLayer, TopKPacked)):
        acc[p.indices] += p.entry_values()
    else:
        acc += to_dense(p)


# ----------------------------------------------------------------- sharding

def shard(n_items: int, num_learners: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Disjoint covering index streams for one epoch, reshuffled per epoch."""
    perm = np.random.default_rng([seed, epoch]).permutation(n_items)
    return [perm[r::num_learners] for r in range(num_learners)]


# ------------------------------------------------------------------ cluster

@dataclass
class StepMetrics:
    step: int
    epoch: int
    train_loss: float
    payload_bits: list[int]
    rates: list[float]
    sel_mean: list[float]   # nan for codecs without bins
    sel_max: list[float]
    rg_p95: list[float]


class Cluster:
    """N synchronous learners over one training set.

    Every learner would hold the same weights and apply the same update, so
    the cluster holds one model and one optimizer; what each rank owns is
    its shard of the batch and its residue per layer: row ``rank`` of the
    layer's (N, size) float64 matrix ``residues[layer]``, which
    ``codec_states[rank][layer].residue`` views. A step runs one forward and
    one backward over the N local batches stacked on a rank axis, packs each
    rank's checked gradient row into its residue row in place, and applies
    the rank-order float32 average of each layer's N packs with one
    optimizer update. A layer's rg_p95 is taken from the |residue| its packs
    leave, as soon as it is packed: no residue changes later in the step.

    ``codec_by_kind`` maps a parameterized layer kind ("conv"/"fc") to a
    ``Codec`` from ``make_codec``; kinds left out run uncompressed.
    """

    def __init__(self, build_model, train: Dataset, codec_by_kind: dict,
                 make_opt, num_learners: int, global_minibatch: int, seed: int):
        if num_learners < 1:
            raise ValueError("need at least one learner")
        if global_minibatch % num_learners != 0:
            raise ValueError(
                f"global minibatch {global_minibatch} not divisible by {num_learners} learners")
        if len(train) < global_minibatch:
            raise ValueError("dataset smaller than one global minibatch")
        self.train = train
        self.num_learners = num_learners
        self.global_minibatch = global_minibatch
        self.local_batch = global_minibatch // num_learners
        self.seed = seed

        self.model = build_model(seed)
        self.optimizer = make_opt()
        param_layers = self.model.param_layers
        self.layer_names = self.model.layer_names()
        self.param_shapes = [[p.shape for p in l.params()] for l in param_layers]
        self.layer_sizes = [sum(p.size for p in l.params()) for l in param_layers]
        self.codecs = [codec_by_kind.get(l.kind, make_codec("identity")) for l in param_layers]
        self.residues = [np.zeros((num_learners, n)) for n in self.layer_sizes]
        self.codec_states = [[CodecState(residue=m[rank]) for m in self.residues]
                             for rank in range(num_learners)]

        self.epoch = 0
        self.global_step = 0
        self._shards = np.empty((num_learners, 0), dtype=np.int64)
        self._step_in_epoch = 0

    @property
    def steps_per_epoch(self) -> int:
        return len(self.train) // self.global_minibatch

    def start_epoch(self, epoch: int) -> None:
        self.epoch = epoch
        streams = shard(len(self.train), self.num_learners, self.seed, epoch)
        # (N, steps * b): every step of the epoch lies within each stream
        self._shards = np.stack([s[:self.steps_per_epoch * self.local_batch] for s in streams])
        self._step_in_epoch = 0

    def _check_finite(self, losses: list[float], grads: list[np.ndarray]) -> None:
        """Raise DivergenceError at the first non-finite value, rank-major, loss first."""
        bad = np.column_stack([~np.isfinite(losses)] + [~np.isfinite(g).all(axis=1) for g in grads])
        if bad.any():
            rank, col = divmod(int(bad.argmax()), bad.shape[1])
            reason = (f"non-finite loss {losses[rank]} on rank {rank}" if col == 0 else
                      f"non-finite gradient in layer {self.layer_names[col - 1]} on rank {rank}")
            raise DivergenceError(self.epoch, self.global_step, reason)

    def _compute_and_pack(self) -> tuple[list[float], list[list], list[float]]:
        """Every rank's losses, each layer's packs in rank order, and each
        layer's rg_p95; a layer's gradient matrix is freed once it is packed."""
        b, t = self.local_batch, self._step_in_epoch
        steps = self._shards.shape[1] // b
        if t >= steps:
            raise RuntimeError(f"step {t} is outside epoch {self.epoch}, which has {steps} steps; "
                               f"call start_epoch first")
        idx = self._shards[:, t * b:(t + 1) * b]
        self._step_in_epoch += 1
        losses, cache = self.model.forward(self.train.features[idx], self.train.labels[idx])
        grads = self.model.backward(cache)
        del cache
        # checked before packing, so no residue takes in an inf or NaN
        self._check_finite(losses, grads)
        packed = [self._pack_layer(li, grads) for li in range(len(grads))]
        return losses, [packs for packs, _ in packed], [p95 for _, p95 in packed]

    def _pack_layer(self, li: int, grads: list) -> tuple[list, float]:
        """The rank-order packs of layer li's gradient matrix, which leaves
        ``grads``, and the 95th percentile of |residue| over every rank after."""
        grad, grads[li] = grads[li], None
        magnitudes = np.empty_like(self.residues[li])
        packs = [self.codecs[li].into(residue, mag, GradientVector(li, g))
                 for residue, mag, g in zip(self.residues[li], magnitudes, grad)]
        return packs, nearest_rank_percentile(magnitudes.reshape(-1), 95.0)

    def sync_step(self) -> StepMetrics:
        losses, all_packs, rg_p95 = self._compute_and_pack()
        # barrier: the exchange is lossless, so the rank-order average of
        # each layer is what every learner would compute
        grads: list[np.ndarray] = []
        for li, (size, packs) in enumerate(zip(self.layer_sizes, all_packs)):
            acc = np.zeros(size, dtype=np.float32)
            for p in packs:
                add_pack(acc, p)
            acc /= np.float32(self.num_learners)
            grads.extend(split_vector(acc, self.param_shapes[li]))
        self.optimizer.update([p for l in self.model.param_layers for p in l.params()], grads)
        for name, layer in zip(self.layer_names, self.model.param_layers):
            if not all(np.isfinite(p).all() for p in layer.params()):
                raise DivergenceError(self.epoch, self.global_step,
                                      f"non-finite weights in layer {name} after the update")

        self.global_step += 1
        return self._metrics(losses, all_packs, rg_p95)

    def _metrics(self, losses, all_packs, rg_p95) -> StepMetrics:
        bits, rates, sel_mean, sel_max = [], [], [], []
        for size, packs in zip(self.layer_sizes, all_packs):
            counts = [p.bin_counts() if isinstance(p, PackedLayer) else None for p in packs]
            layer_bits = sum(payload_bits(p, c) for p, c in zip(packs, counts))
            bits.append(layer_bits)
            rates.append(effective_compression_rate(size * self.num_learners, layer_bits))
            # entries per bin over the packs that have bins; NaN without any
            counts = [c for c in counts if c is not None]
            counts = np.concatenate(counts) if counts else np.array([np.nan])
            sel_mean.append(float(np.mean(counts)))
            sel_max.append(float(np.max(counts)))
        train_loss = sum(losses) / len(losses)
        return StepMetrics(self.global_step, self.epoch, float(train_loss),
                           bits, rates, sel_mean, sel_max, rg_p95)

    def pooled_abs_residue(self, layer_index: int) -> np.ndarray:
        """|residue| of one layer over every rank, in rank order, as a new flat array."""
        return np.abs(self.residues[layer_index]).reshape(-1)

    def evaluate(self, test: Dataset) -> float:
        """Test error rate of the model, predicted 512 samples at a time."""
        wrong = 0
        for start in range(0, len(test), 512):
            x = test.features[start:start + 512]
            y = test.labels[start:start + 512]
            wrong += int((self.model.predict(x) != y).sum())
        return wrong / len(test)

    def weights_identical(self) -> bool:
        """Whether every rank holds the same weights: true by construction,
        as the ranks share one parameter set. The N-replica reference in
        tests/oracles.py is what checks that this sharing is exact."""
        return True


def nearest_rank_percentile(values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value.

    ``values`` must be a float64 array of magnitudes with the sign bit
    clear, as ``np.abs`` leaves them; NaN ranks above every number. The
    function reorders ``values`` in place: it partitions their bit patterns
    as int64, which for such values sort exactly like the floats.
    """
    if values.dtype != np.float64:
        raise TypeError(f"expected float64 magnitudes, got {values.dtype}")
    n = values.size
    if n == 0:
        raise ValueError("empty sample")
    k = max(1, int(np.ceil(pct / 100.0 * n)))
    bits = values.view(np.int64)
    bits.partition(k - 1)
    return float(values[k - 1])
