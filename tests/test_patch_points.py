"""Every name that the benchmark looks up on the program must stay
resolvable, so that a refactor which drops one fails here and not only in
a traced benchmark run (ROADMAP's "Benchmark patch points").

The names the tracer wraps are read from the benchmark itself: its
``patch_layers`` runs against a recorder in place of the tracer. A step
traced by the benchmark's own tracer must also reach the spans it did, as
many times: a step that stops calling a name through the module the
tracer patches moves that work into ``sim.sync_self_ms`` without failing."""

import sys
from collections import Counter
from pathlib import Path

import pytest

import adacomp
from adacomp import codec, nn, optim, runner, sim, wire

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


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


def _traced_step_calls(cluster) -> dict:
    """Calls per span name in one traced sync_step of ``cluster``."""
    cluster.start_epoch(1)
    tracer = Tracer()
    workloads.patch_layers(tracer, Counter())
    try:
        cluster.sync_step()
    finally:
        tracer.restore()
    return dict(tracer.totals()[1])


def test_a_traced_adacomp_cnn_step_reaches_its_spans():
    n, layers = 2, 4
    train = runner.synth_digits(16, seed=0)
    cluster = sim.Cluster(lambda seed: nn.build_cnn(1, [2, 4], 8, 10, seed), train,
                          {"conv": sim.make_codec("adacomp", bin_size=50),
                           "fc": sim.make_codec("adacomp", bin_size=500)},
                          lambda: optim.SGDMomentum(lr=0.1), num_learners=n,
                          global_minibatch=8, seed=0)
    assert len(cluster.layer_sizes) == layers
    # a pack and its payload bits per layer and rank; rg_p95 once per layer, over every rank
    assert _traced_step_calls(cluster) == {
        "codec.pack": n * layers, "wire.payload_bits": n * layers,
        "metrics.residue_p95": layers, "nn.forward": 1, "nn.backward": 1, "optim.update": 1}


def test_a_traced_topk_mlp_step_reaches_its_spans():
    n, layers = 4, 3
    train = runner.synth_gaussians(4, 12, 64, seed=0)
    cluster = sim.Cluster(lambda seed: nn.build_mlp(12, [16, 8], 4, seed), train,
                          {"fc": sim.make_codec("topk", fraction=0.1)},
                          lambda: optim.SGDMomentum(lr=0.1), num_learners=n,
                          global_minibatch=16, seed=0)
    assert len(cluster.layer_sizes) == layers
    # a top-k pack per layer and rank; its packs are added without
    # unpacking: no codec.unpack or baselines.unpack span
    assert _traced_step_calls(cluster) == {
        "baselines.pack": n * layers, "wire.payload_bits": n * layers, "metrics.residue_p95": layers,
        "nn.forward": 1, "nn.backward": 1, "optim.update": 1}
