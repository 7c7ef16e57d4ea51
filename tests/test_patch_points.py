"""Every name that the benchmark looks up on the program must stay
resolvable, so that a refactor which drops one fails here and not only in
a traced benchmark run (ROADMAP's "Benchmark patch points").

The names the tracer wraps are read from the benchmark itself: its
``patch_layers`` runs against a recorder in place of the tracer."""

import sys
from collections import Counter
from pathlib import Path

import pytest

import adacomp
from adacomp import codec, nn, optim, runner, sim, wire

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


class _Recorder:
    """Stands in for the tracer: notes each (owner, name) it is asked to patch."""

    def __init__(self):
        self.points = []

    def patch(self, owner, attr, name, observe=None):
        self.points.append((owner, attr))


_recorder = _Recorder()
workloads.patch_layers(_recorder, Counter())

PATCH_POINTS = list(dict.fromkeys([
    # wrapped by the tracer in every traced run
    *_recorder.points,
    # wrapped or read in every run, traced or not
    (sim.Cluster, "sync_step"),
    (runner, "build_cluster"),
    (runner, "run"),
    *((sim.Cluster, name) for name in ("weights_identical", "steps_per_epoch", "layer_sizes")),
    # read by the codec round-trip workload
    *((adacomp, name) for name in ("GradientVector", "CodecState", "BinConfig",
                                   "pack", "encode", "decode", "unpack")),
    (codec.CodecState, "zeros"),
    (codec.PackedLayer, "bins"),
    (codec.PackedLayer, "num_bins"),
    (wire.EncodedLayer, "declared_bits"),
]))


def _owner(owner, name):
    """``layer_sizes`` is set per instance; look it up on a built cluster."""
    if owner is sim.Cluster and name == "layer_sizes":
        train = runner.synth_gaussians(2, 3, 8, seed=0)
        return sim.Cluster(lambda seed: nn.build_mlp(3, [], 2, seed), train, {},
                           lambda: optim.SGDMomentum(lr=0.1), num_learners=1,
                           global_minibatch=4, seed=0)
    return owner


def _id(owner, name):
    return f"{getattr(owner, '__name__', owner)}.{name}"


@pytest.mark.parametrize("owner, name", PATCH_POINTS, ids=[_id(o, n) for o, n in PATCH_POINTS])
def test_patch_point_resolves(owner, name):
    assert getattr(_owner(owner, name), name) is not None


def test_packed_layer_defines_its_own_equality():
    # the round-trip check compares decode(encode(p)) with p by ==
    assert codec.PackedLayer.__eq__ is not object.__eq__
