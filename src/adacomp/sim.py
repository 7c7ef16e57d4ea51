"""Deterministic in-process simulation of N synchronous data-parallel
learners.

Every step each learner computes gradients on its shard of the global
mini-batch and compresses them layer by layer against its own residue. The
simulated exchange is lossless, so every learner would decompress the same
N packs, average them in the same rank order and apply the same update to
the same weights. The cluster therefore holds one parameter set and one
optimizer for all ranks, and N residues: one forward and one backward run
over all ranks' shards at once. A step's pack pass calls each layer's pack
once per rank, in place on the rank's row of the layer's (N, size) residue
matrix; its average-and-count pass averages each layer's packs and counts
their bits, rate and entries per bin. The whole run is a pure function of
(config, seed).
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
    unpack_dense,
    unpack_onebit,
    unpack_topk,  # not called here: a name the benchmark wraps
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

def make_codec(kind: str, **params):
    """One kind's pack, its parameters checked: ``(state, gv, magnitudes=None)
    -> (pack, state)``, pure without ``magnitudes`` and in place on
    ``state.residue`` with them, as ``codec.pack`` describes. Each call looks
    its pack function up here, where the benchmark's tracer wraps it."""
    def adacomp(bin_size, scale_factor=2.0):
        cfg = BinConfig(bin_size=bin_size, scale_factor=scale_factor)
        return lambda state, gv, magnitudes=None: pack(state, gv, cfg, magnitudes)

    def ls(bin_size):
        bin_size = int(BinConfig(bin_size=bin_size).bin_size)
        return lambda state, gv, magnitudes=None: ls_pack(state, gv, bin_size, magnitudes)

    def topk(fraction):
        fraction = float(fraction)
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        return lambda state, gv, magnitudes=None: topk_pack(state, gv, fraction, magnitudes)

    def onebit():
        return lambda state, gv, magnitudes=None: onebit_pack(state, gv, magnitudes)

    def identity():
        return lambda state, gv, magnitudes=None: identity_pack(state, gv, magnitudes)

    table = {"adacomp": adacomp, "ls": ls, "topk": topk, "onebit": onebit, "identity": identity}
    if kind not in table:
        raise ValueError(f"unknown codec kind {kind!r}")
    return table[kind](**params)


def to_dense(p) -> np.ndarray:
    """The float32 values any codec's pack reconstructs to."""
    if isinstance(p, (PackedLayer, TopKPacked)):
        return unpack(p).values
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
    one backward over the N local batches stacked on a rank axis. The pack
    pass calls each layer's pack with ``codec_states[rank][layer]`` and row
    ``rank`` of the layer's magnitudes, so each residue row becomes its
    successor in place, and takes the layer's rg_p95 from the |residue| the
    packs leave in the magnitudes; the average-and-count pass adds each
    layer's N packs in rank order, divides the float32 sum by N and appends
    the layer's bits, rate and entries per bin to the step's ``StepMetrics``.
    One optimizer update applies the averages.

    ``codec_by_kind`` maps a parameterized layer kind ("conv"/"fc") to a
    pack from ``make_codec``; kinds left out run uncompressed.
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

    def sync_step(self) -> StepMetrics:
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
        # pack every layer before averaging any, which is faster; a layer's gradient
        # matrix and magnitudes go once its rg_p95 is taken, before the next allocates
        all_packs, rg_p95 = [], []
        for li, residues in enumerate(self.residues):
            grad, grads[li] = grads[li], None
            magnitudes = np.empty_like(residues)
            all_packs.append([self.codecs[li](states[li], GradientVector(li, g), mag)[0]
                              for states, mag, g in zip(self.codec_states, magnitudes, grad)])
            rg_p95.append(nearest_rank_percentile(magnitudes.reshape(-1), 95.0))
            del grad, magnitudes
        # barrier: the exchange is lossless, so the rank-order average of
        # each layer is what every learner would compute
        m = StepMetrics(self.global_step + 1, self.epoch, float(sum(losses) / len(losses)),
                        [], [], [], [], rg_p95)
        averaged: list[np.ndarray] = []
        for li, (size, packs) in enumerate(zip(self.layer_sizes, all_packs)):
            acc = np.zeros(size, dtype=np.float32)
            for p in packs:
                add_pack(acc, p)
            acc /= np.float32(self.num_learners)
            averaged.extend(split_vector(acc, self.param_shapes[li]))
            m.payload_bits.append(sum(payload_bits(p) for p in packs))
            m.rates.append(effective_compression_rate(size * self.num_learners, m.payload_bits[-1]))
            # entries per bin over the packs that have bins; NaN without any
            counts = [p.counts for p in packs if isinstance(p, PackedLayer)]
            counts = np.concatenate(counts) if counts else np.array([np.nan])
            m.sel_mean.append(float(np.mean(counts)))
            m.sel_max.append(float(np.max(counts)))
        self.optimizer.update([p for l in self.model.param_layers for p in l.params()], averaged)
        for name, layer in zip(self.layer_names, self.model.param_layers):
            if not all(np.isfinite(p).all() for p in layer.params()):
                raise DivergenceError(self.epoch, self.global_step,
                                      f"non-finite weights in layer {name} after the update")
        self.global_step += 1
        return m

    def pooled_abs_residue(self, layer_index: int) -> np.ndarray:
        """|residue| of one layer over every rank, in rank order, as a new flat array."""
        return np.abs(self.residues[layer_index]).reshape(-1)

    def evaluate(self, test: Dataset) -> float:
        """Test error rate of the model, in one ``Model.predict`` call: the
        whole model on fixed slices of the test set."""
        return int((self.model.predict(test.features) != test.labels).sum()) / len(test)

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
