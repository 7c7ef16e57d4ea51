"""Deterministic in-process simulation of N synchronous data-parallel
learners.

Every step each learner computes gradients on its shard of the global
mini-batch and compresses them layer by layer against its own residue. The
simulated exchange is lossless, so every learner would decompress the same
N packs and average them in the same rank order. The cluster therefore
decompresses and averages each layer once per step and hands that one
average to every learner's optimizer, so weights stay bitwise identical
across ranks. The whole run is a pure function of (config, seed).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import (
    identity_pack,
    ls_pack,
    onebit_pack,
    topk_pack,
    unpack_dense,
    unpack_onebit,
    unpack_topk,
)
from .codec import BinConfig, CodecState, GradientVector, pack, unpack
from .data import Dataset
from .nn import Model, serialize_grad, split_vector
from .wire import payload_bits


class DivergenceError(RuntimeError):
    """Raised when a learner's loss or a fresh layer gradient stops being
    finite; ``reason`` names the value and where it came from."""

    def __init__(self, epoch: int, step: int, reason: str):
        super().__init__(f"{reason} at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


# ------------------------------------------------------------------- codecs

class AdaCompCodec:
    kind = "adacomp"

    def __init__(self, bin_size: int, scale_factor: float = 2.0):
        self.cfg = BinConfig(bin_size=bin_size, scale_factor=scale_factor)

    def pack(self, state, gv):
        return pack(state, gv, self.cfg)

    def to_dense(self, p):
        return unpack(p).values

    def payload_bits(self, p):
        return payload_bits(p)

    def bin_counts(self, p):
        return [len(b) for b in p.bins]


class LocalSelectionCodec:
    kind = "ls"

    def __init__(self, bin_size: int):
        self.bin_size = int(bin_size)

    def pack(self, state, gv):
        return ls_pack(state, gv, self.bin_size)

    def to_dense(self, p):
        return unpack(p).values

    def payload_bits(self, p):
        return payload_bits(p)

    def bin_counts(self, p):
        return [len(b) for b in p.bins]


class TopPercentCodec:
    kind = "topk"

    def __init__(self, fraction: float):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = float(fraction)

    def pack(self, state, gv):
        return topk_pack(state, gv, self.fraction)

    def to_dense(self, p):
        return unpack_topk(p).values

    def payload_bits(self, p):
        return payload_bits(p)

    def bin_counts(self, p):
        return None


class OneBitCodec:
    kind = "onebit"

    def pack(self, state, gv):
        return onebit_pack(state, gv)

    def to_dense(self, p):
        return unpack_onebit(p).values

    def payload_bits(self, p):
        return payload_bits(p)

    def bin_counts(self, p):
        return None


class IdentityCodec:
    kind = "identity"

    def pack(self, state, gv):
        return identity_pack(state, gv)

    def to_dense(self, p):
        return unpack_dense(p).values

    def payload_bits(self, p):
        return payload_bits(p)

    def bin_counts(self, p):
        return None


def make_codec(kind: str, **params):
    table = {
        "adacomp": AdaCompCodec,
        "ls": LocalSelectionCodec,
        "topk": TopPercentCodec,
        "onebit": OneBitCodec,
        "identity": IdentityCodec,
    }
    if kind not in table:
        raise ValueError(f"unknown codec kind {kind!r}")
    return table[kind](**params)


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


@dataclass
class Learner:
    rank: int
    model: Model
    optimizer: object
    codec_states: list[CodecState]


class Cluster:
    """N synchronous learners over one training set.

    Each learner keeps its own model replica, optimizer and residues. A step
    decompresses every layer's N packs once, averages them in rank order in
    float32, and applies that average through each learner's optimizer.

    ``codec_by_kind`` maps a parameterized layer kind ("conv"/"fc") to a
    codec instance; kinds left out run uncompressed.
    """

    def __init__(self, build_model, train: Dataset, codec_by_kind: dict,
                 make_opt, num_learners: int, global_minibatch: int, seed: int,
                 threads: int = 1):
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
        self.threads = max(1, int(threads))

        reference = build_model(seed)
        self.layer_names = reference.layer_names()
        self.layer_kinds = [l.kind for l in reference.param_layers]
        self.param_shapes = [[p.shape for p in l.params()] for l in reference.param_layers]
        self.layer_sizes = [sum(int(np.prod(s)) for s in shapes) for shapes in self.param_shapes]
        self.codecs = [codec_by_kind.get(kind, IdentityCodec()) for kind in self.layer_kinds]

        self.learners = []
        for rank in range(num_learners):
            model = build_model(seed)
            states = [CodecState.zeros(n) for n in self.layer_sizes]
            self.learners.append(Learner(rank, model, make_opt(), states))

        self.epoch = 0
        self.global_step = 0
        self._shards: list[np.ndarray] = []
        self._step_in_epoch = 0

    @property
    def steps_per_epoch(self) -> int:
        return len(self.train) // self.global_minibatch

    def start_epoch(self, epoch: int) -> None:
        self.epoch = epoch
        self._shards = shard(len(self.train), self.num_learners, self.seed, epoch)
        self._step_in_epoch = 0

    def _next_batches(self):
        b = self.local_batch
        t = self._step_in_epoch
        batches = []
        for rank in range(self.num_learners):
            idx = self._shards[rank][t * b:(t + 1) * b]
            batches.append((self.train.features[idx], self.train.labels[idx]))
        self._step_in_epoch += 1
        return batches

    def _compute_and_pack(self, learner: Learner, x, y):
        loss, _ = learner.model.forward(x, y)
        if not np.isfinite(loss):
            raise DivergenceError(self.epoch, self.global_step,
                                  f"non-finite loss {loss} on rank {learner.rank}")
        grads = learner.model.backward(y)
        packs = []
        for li, gv in enumerate(serialize_grad(grads)):
            # checked before packing, so no residue takes in an inf or NaN
            if not np.isfinite(gv.values).all():
                raise DivergenceError(
                    self.epoch, self.global_step,
                    f"non-finite gradient in layer {self.layer_names[li]} on rank {learner.rank}")
            packed, learner.codec_states[li] = self.codecs[li].pack(learner.codec_states[li], gv)
            packs.append(packed)
        return loss, packs

    def sync_step(self) -> StepMetrics:
        batches = self._next_batches()
        jobs = list(zip(self.learners, batches))
        if self.threads > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                results = list(pool.map(lambda j: self._compute_and_pack(j[0], *j[1]), jobs))
        else:
            results = [self._compute_and_pack(l, x, y) for l, (x, y) in jobs]
        losses = [r[0] for r in results]
        all_packs = [r[1] for r in results]

        # barrier: the exchange is lossless, so one rank-order average per
        # layer is what every learner would compute; optimizers only read it
        grads: list[np.ndarray] = []
        for li, size in enumerate(self.layer_sizes):
            acc = np.zeros(size, dtype=np.float32)
            for rank in range(self.num_learners):
                acc += self.codecs[li].to_dense(all_packs[rank][li])
            acc /= np.float32(self.num_learners)
            grads.extend(split_vector(acc, self.param_shapes[li]))
        for learner in self.learners:
            learner.optimizer.update(
                [p for layer in learner.model.param_layers for p in layer.params()], grads)

        self.global_step += 1
        return self._metrics(losses, all_packs)

    def _metrics(self, losses, all_packs) -> StepMetrics:
        n_layers = len(self.layer_sizes)
        bits, rates, sel_mean, sel_max, rg_p95 = [], [], [], [], []
        for li in range(n_layers):
            layer_bits = sum(self.codecs[li].payload_bits(all_packs[r][li])
                             for r in range(self.num_learners))
            bits.append(layer_bits)
            rates.append(32.0 * self.layer_sizes[li] * self.num_learners / layer_bits)
            counts: list[int] = []
            for r in range(self.num_learners):
                c = self.codecs[li].bin_counts(all_packs[r][li])
                if c is not None:
                    counts.extend(c)
            if counts:
                sel_mean.append(float(np.mean(counts)))
                sel_max.append(float(max(counts)))
            else:
                sel_mean.append(float("nan"))
                sel_max.append(float("nan"))
            rg_p95.append(nearest_rank_percentile(self.pooled_abs_residue(li), 95.0))
        train_loss = sum(losses) / len(losses)
        return StepMetrics(self.global_step, self.epoch, float(train_loss),
                           bits, rates, sel_mean, sel_max, rg_p95)

    def pooled_abs_residue(self, layer_index: int) -> np.ndarray:
        """|residue| of one layer over every rank, in rank order, as a new
        flat array; each rank's |residue| is written straight into it."""
        pooled = np.empty((self.num_learners, self.layer_sizes[layer_index]))
        for row, learner in zip(pooled, self.learners):
            np.abs(learner.codec_states[layer_index].residue, out=row)
        return pooled.reshape(-1)

    def evaluate(self, test: Dataset, batch: int = 512) -> float:
        """Test error rate of the (rank-identical) model."""
        model = self.learners[0].model
        wrong = 0
        for start in range(0, len(test), batch):
            x = test.features[start:start + batch]
            y = test.labels[start:start + batch]
            wrong += int((model.predict(x) != y).sum())
        return wrong / len(test)

    def weights_identical(self) -> bool:
        ref = self.learners[0].model
        for l in self.learners[1:]:
            for a, b in zip(ref.param_layers, l.model.param_layers):
                for p, q in zip(a.params(), b.params()):
                    if not np.array_equal(p, q):
                        return False
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
