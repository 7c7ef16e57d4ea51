"""Every name that the benchmark looks up on the program must stay
resolvable, so that a refactor which drops one fails here and not only in
a traced benchmark run (the list is ROADMAP's "Benchmark patch points")."""

import pytest

import adacomp
from adacomp import codec, metrics, nn, optim, runner, sim, wire

PATCH_POINTS = [
    # wrapped by the tracer in every traced run
    *((sim, name) for name in (
        "pack", "unpack", "ls_pack", "topk_pack", "onebit_pack", "identity_pack",
        "unpack_topk", "unpack_onebit", "unpack_dense", "payload_bits",
        "nearest_rank_percentile", "shard")),
    *((adacomp, name) for name in ("pack", "unpack", "encode", "decode")),
    (wire, "encode"),
    (wire, "decode"),
    (nn.Model, "forward"),
    (nn.Model, "backward"),
    (optim.SGDMomentum, "update"),
    (optim.Adam, "update"),
    (sim.Cluster, "evaluate"),
    (sim.Cluster, "pooled_abs_residue"),
    (metrics.MetricsWriter, "write_step"),
    (metrics.MetricsWriter, "write_epoch"),
    (runner, "synth_digits"),
    (runner, "synth_gaussians"),
    # wrapped or read in every run, traced or not
    (sim.Cluster, "sync_step"),
    (runner, "build_cluster"),
    (runner, "run"),
    *((sim.Cluster, name) for name in ("weights_identical", "steps_per_epoch", "layer_sizes")),
    # read by the codec round-trip workload
    *((adacomp, name) for name in ("GradientVector", "CodecState", "BinConfig")),
    (codec.CodecState, "zeros"),
    (codec.PackedLayer, "bins"),
    (wire.EncodedLayer, "declared_bits"),
]


def _owner(owner, name):
    """``layer_sizes`` is set per instance; look it up on a built cluster."""
    if owner is sim.Cluster and name == "layer_sizes":
        train = runner.synth_gaussians(2, 3, 8, seed=0)
        return sim.Cluster(lambda seed: nn.build_mlp(3, [], 2, seed), train, {},
                           lambda: optim.SGDMomentum(lr=0.1), num_learners=1,
                           global_minibatch=4, seed=0)
    return owner


@pytest.mark.parametrize("owner, name", PATCH_POINTS,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in PATCH_POINTS])
def test_patch_point_resolves(owner, name):
    assert getattr(_owner(owner, name), name) is not None


def test_packed_layer_defines_its_own_equality():
    # the round-trip check compares decode(encode(p)) with p by ==
    assert codec.PackedLayer.__eq__ is not object.__eq__
