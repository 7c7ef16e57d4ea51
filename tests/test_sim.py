import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adacomp import sim
from adacomp.baselines import DensePacked, OneBitPacked, TopKPacked, topk_pack
from adacomp.codec import BinConfig, CodecState, GradientVector, PackedLayer, pack
from adacomp.data import synth_digits, synth_gaussians
from adacomp.nn import build_cnn, build_mlp
from adacomp.optim import Adam, SGDMomentum
from adacomp.sim import Cluster, DivergenceError, make_codec, nearest_rank_percentile, shard
from adacomp.wire import payload_bits

import one_rank
from oracles import ReplicaReference, nearest_rank_reference, pooled_p95_reference

DIM, CLASSES = 12, 4


def dataset(n=256, seed=0):
    return synth_gaussians(CLASSES, DIM, n, seed=seed, separation=3.0)


def builder(seed):
    return build_mlp(DIM, [8], CLASSES, seed)


def make_cluster(num_learners, minibatch, codec_by_kind=None, seed=1, lr=0.1,
                 train=None, build=builder):
    return Cluster(build, train if train is not None else dataset(),
                   codec_by_kind or {}, lambda: SGDMomentum(lr=lr),
                   num_learners=num_learners, global_minibatch=minibatch,
                   seed=seed)


def make_reference(num_learners, minibatch, codec_by_kind=None, seed=1, lr=0.1,
                   train=None, build=builder):
    return ReplicaReference(build, train if train is not None else dataset(),
                            codec_by_kind or {}, lambda: SGDMomentum(lr=lr),
                            num_learners, minibatch, seed)


def run_steps(cluster, epochs, collect=False):
    out = []
    for epoch in range(1, epochs + 1):
        cluster.start_epoch(epoch)
        for _ in range(cluster.steps_per_epoch):
            out.append(cluster.sync_step())
    return out


def weights_of(model):
    return [p.copy() for l in model.param_layers for p in l.params()]


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_matches_replicas(cluster, ref):
    """Every replica's weights and every rank's residues equal the
    cluster's, bit for bit."""
    for model in ref.models:
        for a, b in zip(weights_of(cluster.model), weights_of(model), strict=True):
            assert_bitwise(a, b)
    for got, want in zip(cluster.codec_states, ref.states, strict=True):
        for a, b in zip(got, want, strict=True):
            assert_bitwise(a.residue, b.residue)


# ------------------------------------------------------------------ sharding

@pytest.mark.parametrize("n_learners", [2, 4, 8])
def test_shard_partitions_disjoint_and_covering(n_learners):
    parts = shard(8, n_learners, seed=0, epoch=1)
    flat = np.concatenate(parts)
    assert len(flat) == 8
    assert sorted(flat.tolist()) == list(range(8))
    again = shard(8, n_learners, seed=0, epoch=1)
    for a, b in zip(parts, again):
        np.testing.assert_array_equal(a, b)
    other_epoch = shard(8, n_learners, seed=0, epoch=2)
    assert any(not np.array_equal(a, b) for a, b in zip(parts, other_epoch))


def test_shard_union_matches_single_learner_batches():
    # learner streams interleave the same permutation, so the union of the
    # N=2 step-t batches equals the N=1 step-t batch
    one = shard(64, 1, seed=3, epoch=1)[0]
    two = shard(64, 2, seed=3, epoch=1)
    b = 8
    for t in range(4):
        union = np.concatenate([s[t * b:(t + 1) * b] for s in two])
        np.testing.assert_array_equal(np.sort(union), np.sort(one[t * 2 * b:(t + 1) * 2 * b]))


# ------------------------------------------------------------- degenerate N=1

def test_single_learner_identity_matches_plain_loop():
    train = dataset()
    cluster = make_cluster(1, 16, train=train)
    run_steps(cluster, 2)
    got = weights_of(cluster.model)

    model = build_mlp(DIM, [8], CLASSES, 1)
    opt = SGDMomentum(lr=0.1)
    for epoch in (1, 2):
        streams = shard(len(train), 1, seed=1, epoch=epoch)[0]
        for t in range(len(train) // 16):
            idx = streams[t * 16:(t + 1) * 16]
            _, cache = one_rank.forward(model, train.features[idx], train.labels[idx])
            grads = one_rank.backward(model, cache)
            params = [p for l in model.param_layers for p in l.params()]
            # the identity codec roundtrips gradients bit-for-bit
            opt.update(params, [g for parts in grads for g in parts])
    expect = [p for l in model.param_layers for p in l.params()]
    for a, b in zip(got, expect):
        np.testing.assert_array_equal(a, b)


def test_two_learner_identity_matches_single_learner_gradient():
    # with lr=1 and zero momentum, -delta(w) is exactly the averaged gradient
    results = {}
    for n in (1, 2):
        cluster = make_cluster(n, 32, lr=1.0, seed=2)
        cluster.optimizer.momentum = 0.0
        before = weights_of(cluster.model)
        cluster.start_epoch(1)
        cluster.sync_step()
        after = weights_of(cluster.model)
        results[n] = [b - a for a, b in zip(before, after)]
    for d1, d2 in zip(results[1], results[2]):
        norm = np.linalg.norm(d1.astype(np.float64))
        assert np.linalg.norm((d1 - d2).astype(np.float64)) <= 1e-6 * max(norm, 1e-12)


# ------------------------------------------------- weight identity & codecs

ALL_CODECS = [
    {"fc": make_codec("adacomp", bin_size=10)},
    {"fc": make_codec("ls", bin_size=10)},
    {"fc": make_codec("topk", fraction=0.1)},
    {"fc": make_codec("onebit")},
    {"fc": make_codec("identity")},
]


@pytest.mark.parametrize("codec_by_kind", ALL_CODECS)
def test_weights_bitwise_identical_across_ranks(codec_by_kind):
    # one epoch of 16 steps at 8 ranks; the reference keeps 8 replicas
    cluster = make_cluster(8, 16, codec_by_kind=codec_by_kind)
    ref = make_reference(8, 16, codec_by_kind=codec_by_kind)
    cluster.start_epoch(1)
    for t in range(cluster.steps_per_epoch):
        cluster.sync_step()
        ref.step(1, t)
        assert_matches_replicas(cluster, ref)


@pytest.mark.parametrize("codec_by_kind", ALL_CODECS)
def test_exchange_matches_per_learner_reference(codec_by_kind):
    cluster = make_cluster(4, 16, codec_by_kind=codec_by_kind)
    ref = make_reference(4, 16, codec_by_kind=codec_by_kind)
    for epoch in (1, 2):
        cluster.start_epoch(epoch)
        for t in range(5):
            got = cluster.sync_step()
            loss, packs = ref.step(epoch, t)
            assert got.train_loss == loss
            assert got.payload_bits == [sum(payload_bits(p[li]) for p in packs)
                                        for li in range(len(cluster.layer_sizes))]
            for li in range(len(cluster.layer_sizes)):
                # entries per bin, counted on each pack's per-bin lists
                counts = [len(b) for p in packs if isinstance(p[li], PackedLayer) for b in p[li].bins]
                expect = [sum(counts) / len(counts), max(counts)] if counts else [np.nan] * 2
                np.testing.assert_equal([got.sel_mean[li], got.sel_max[li]], expect)
            assert_matches_replicas(cluster, ref)


def test_sync_step_updates_optimizer_once(monkeypatch):
    calls = []
    original = SGDMomentum.update
    monkeypatch.setattr(SGDMomentum, "update",
                        lambda self, *a: calls.append(self) or original(self, *a))
    cluster = make_cluster(4, 16, codec_by_kind=ALL_CODECS[0])
    cluster.start_epoch(1)
    for step in range(1, 4):
        cluster.sync_step()
        assert calls == [cluster.optimizer] * step


def bits_of(x):
    return np.float64(x).view(np.uint64)


@pytest.mark.parametrize("codec_by_kind", ALL_CODECS)
def test_rg_p95_matches_sorted_list_reference(codec_by_kind):
    cluster = make_cluster(4, 16, codec_by_kind=codec_by_kind)
    cluster.start_epoch(1)
    for _ in range(6):
        m = cluster.sync_step()
        want = [pooled_p95_reference(cluster, li) for li in range(len(cluster.layer_sizes))]
        assert [bits_of(v) for v in m.rg_p95] == [bits_of(v) for v in want]


@pytest.mark.parametrize("codec_by_kind", ALL_CODECS)
def test_residues_stay_rows_of_one_matrix_per_layer(codec_by_kind):
    # every pack writes into the held (N, size) matrix of its layer; the
    # rg_p95 taken from it is checked against the reference above
    cluster = make_cluster(4, 16, codec_by_kind=codec_by_kind)
    cluster.start_epoch(1)
    for _ in range(5):
        cluster.sync_step()
        for rank, row in enumerate(cluster.codec_states):
            for li, state in enumerate(row):
                assert np.shares_memory(state.residue, cluster.residues[li])
                assert_bitwise(state.residue, cluster.residues[li][rank])
    assert not np.shares_memory(cluster.pooled_abs_residue(0), cluster.residues[0])


@pytest.mark.parametrize("codec_by_kind", ALL_CODECS)
def test_sync_step_unpacks_each_pack_once(codec_by_kind, monkeypatch):
    # every pack is added into its layer's average once; only the dense
    # kinds are expanded to a full layer for it
    added, densified = [], []
    for name in ("unpack", "unpack_topk", "unpack_onebit", "unpack_dense"):
        original = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda p, f=original: densified.append(type(p)) or f(p))
    add_pack = sim.add_pack
    monkeypatch.setattr(sim, "add_pack", lambda acc, p: added.append(type(p)) or add_pack(acc, p))
    cluster = make_cluster(4, 16, codec_by_kind=codec_by_kind)
    cluster.start_epoch(1)
    cluster.sync_step()
    assert len(added) == 4 * len(cluster.layer_sizes)
    assert densified == [t for t in added if t in (OneBitPacked, DensePacked)]


def _edge_packs(n):
    """Packs of every kind on an n-element layer, among them sparse ones
    whose entries reconstruct to -0.0."""
    rng = np.random.default_rng(5)
    packs = []
    for r in range(3):
        gv = GradientVector(0, (rng.standard_normal(n) * 10.0 ** (r - 1)).astype(np.float32))
        packs.append(pack(CodecState.zeros(n), gv, BinConfig(bin_size=7))[0])
        packs.append(topk_pack(CodecState.zeros(n), gv, 0.2)[0])
        packs.append(make_codec("onebit")(CodecState.zeros(n), gv)[0])
        packs.append(make_codec("identity")(CodecState.zeros(n), gv)[0])
    idx = np.arange(0, n, 3, dtype=np.int64)
    signs = np.where(idx % 2 == 0, 1, -1).astype(np.int8)
    packs.append(TopKPacked(0, n, idx, signs, 0.5, -0.0))
    packs.append(TopKPacked(0, n, idx, signs, -0.0, -0.0))
    packs.append(PackedLayer(0, n, 7, 0.0, idx, signs))
    packs.append(DensePacked(0, np.full(n, -0.0, np.float32)))
    return packs


@pytest.mark.parametrize("order", ["as_built", "reversed", "edge_first"])
def test_add_pack_equals_the_sum_of_dense_packs_bitwise(order):
    n = 50
    packs = _edge_packs(n)
    if order == "reversed":
        packs = packs[::-1]
    elif order == "edge_first":
        packs = packs[-4:] + packs[:-4]
    got = np.zeros(n, np.float32)
    want = np.zeros(n, np.float32)
    for p in packs:
        sim.add_pack(got, p)
        want += sim.to_dense(p)
        assert got.view(np.uint32).tolist() == want.view(np.uint32).tolist()


def test_add_pack_rejects_a_repeated_index():
    # a fancy-index += would add the repeated entry once, not twice; such a
    # pack is refused where it is built, before add_pack can see it
    with pytest.raises(ValueError, match="strictly increasing"):
        sim.add_pack(np.zeros(8, np.float32),
                     PackedLayer(0, 8, 4, 0.5, np.array([1, 1], np.int64), np.array([1, 1], np.int8)))


def test_adacomp_weight_identity_over_100_steps():
    codec_by_kind = {"fc": make_codec("adacomp", bin_size=25)}
    cluster = make_cluster(4, 16, codec_by_kind=codec_by_kind)
    ref = make_reference(4, 16, codec_by_kind=codec_by_kind)
    steps = 0
    epoch = 0
    while steps < 100:
        epoch += 1
        cluster.start_epoch(epoch)
        for t in range(cluster.steps_per_epoch):
            cluster.sync_step()
            ref.step(epoch, t)
            assert_matches_replicas(cluster, ref)
            steps += 1
            if steps == 100:
                break


def test_run_is_pure_function_of_seed():
    adacomp = {"fc": make_codec("adacomp", bin_size=16)}
    metrics_a = run_steps(make_cluster(2, 16, adacomp, seed=5), 2)
    metrics_b = run_steps(make_cluster(2, 16, adacomp, seed=5), 2)
    assert metrics_a == metrics_b
    metrics_c = run_steps(make_cluster(2, 16, adacomp, seed=6), 2)
    assert metrics_a != metrics_c


def assert_same_clusters(a, b):
    for p, q in zip(weights_of(a.model), weights_of(b.model), strict=True):
        assert_bitwise(p, q)
    for got, want in zip(a.codec_states, b.codec_states, strict=True):
        for s, r in zip(got, want, strict=True):
            assert_bitwise(s.residue, r.residue)


def test_identically_built_clusters_step_alike():
    # two clusters built alike and stepped in turn must stay bit-identical
    a, b = (make_cluster(4, 16, {"fc": make_codec("adacomp", bin_size=16)}) for _ in range(2))
    for epoch in (1, 2):
        a.start_epoch(epoch)
        b.start_epoch(epoch)
        for _ in range(a.steps_per_epoch):
            assert a.sync_step() == b.sync_step()
    assert_same_clusters(a, b)


def test_4_learner_adacomp_cnn_matches_replicas():
    train = synth_digits(128, seed=3)
    codecs = {"conv": make_codec("adacomp", bin_size=50), "fc": make_codec("adacomp", bin_size=50)}
    build = lambda seed: build_cnn(1, [4, 8], 16, 10, seed)
    cluster = make_cluster(4, 32, codecs, train=train, build=build)
    ref = make_reference(4, 32, codecs, train=train, build=build)
    for epoch in (1, 2):
        cluster.start_epoch(epoch)
        for t in range(cluster.steps_per_epoch):
            assert cluster.sync_step().train_loss == ref.step(epoch, t)[0]
    assert cluster.global_step == 8
    assert_matches_replicas(cluster, ref)


@pytest.mark.parametrize("n_learners, minibatch", [(3, 48), (16, 32)])
@pytest.mark.parametrize("codec_by_kind", ALL_CODECS)
def test_cluster_matches_replicas_at_3_and_16_learners(codec_by_kind, n_learners, minibatch):
    cluster = make_cluster(n_learners, minibatch, codec_by_kind=codec_by_kind)
    ref = make_reference(n_learners, minibatch, codec_by_kind=codec_by_kind)
    cluster.start_epoch(1)
    for t in range(cluster.steps_per_epoch):
        got = cluster.sync_step()
        loss, _ = ref.step(1, t)
        assert got.train_loss == loss
        assert_matches_replicas(cluster, ref)


def test_cnn_cluster_matches_replicas():
    train = synth_digits(128, seed=3)
    codecs = {"conv": make_codec("adacomp", bin_size=50), "fc": make_codec("topk", fraction=0.05)}
    build = lambda seed: build_cnn(1, [4, 8], 16, 10, seed)
    cluster = make_cluster(4, 32, codecs, train=train, build=build)
    ref = make_reference(4, 32, codecs, train=train, build=build)
    for epoch in (1, 2):
        cluster.start_epoch(epoch)
        for t in range(cluster.steps_per_epoch):
            got = cluster.sync_step()
            loss, _ = ref.step(epoch, t)
            assert got.train_loss == loss
            assert_matches_replicas(cluster, ref)


# ----------------------------------------------------------------- metrics

def test_identity_rate_is_exactly_one():
    cluster = make_cluster(2, 16)
    cluster.start_epoch(1)
    m = cluster.sync_step()
    assert all(r == 1.0 for r in m.rates)
    assert all(np.isnan(v) for v in m.sel_mean)


def test_rate_column_consistent_with_payload_bits():
    cluster = make_cluster(2, 16, {"fc": make_codec("adacomp", bin_size=16)})
    cluster.start_epoch(1)
    m = cluster.sync_step()
    for li, n in enumerate(cluster.layer_sizes):
        assert m.rates[li] == 32.0 * n * 2 / m.payload_bits[li]
        assert m.sel_mean[li] <= m.sel_max[li]
    assert np.isfinite(m.train_loss)
    assert all(v >= 0.0 for v in m.rg_p95)


def test_metrics_count_each_pack_on_its_own_bins():
    # rank 0 fills one bin past the 255-entry escape, rank 1 does not: the
    # payload of each pack depends on its own bin counts
    cluster = make_cluster(2, 16, build=lambda seed: build_mlp(DIM, [32], CLASSES, seed))
    sizes = cluster.layer_sizes

    def packed(layer, entries):
        idx = np.arange(entries, dtype=np.int64)
        return PackedLayer(layer, sizes[layer], sizes[layer], 0.5, idx, np.ones(entries, np.int8))

    # one list of rank-order packs per layer
    all_packs = [[packed(0, 300), packed(0, 10)], [packed(1, 3), packed(1, 40)]]
    m = cluster._metrics([0.0, 0.0], all_packs, [0.0, 0.0])
    assert m.payload_bits == [payload_bits(packs[0]) + payload_bits(packs[1]) for packs in all_packs]
    assert (m.sel_mean, m.sel_max) == ([155.0, 21.5], [300.0, 40.0])


def test_evaluate_returns_error_rate():
    cluster = make_cluster(1, 16)
    err = cluster.evaluate(dataset(128, seed=9))
    assert 0.0 <= err <= 1.0


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_detector():
    cluster = make_cluster(1, 16, lr=1e30)
    cluster.start_epoch(1)
    with pytest.raises(DivergenceError, match="non-finite loss"):
        for _ in range(20):
            cluster.sync_step()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_gradient_stops_the_step(bad, monkeypatch):
    cluster = make_cluster(2, 16, {"fc": make_codec("adacomp", bin_size=50)})
    backward = cluster.model.backward

    def poisoned(cache):
        # one (N, size) matrix per layer: row 1 of layer 1 is rank 1's fc1
        grads = backward(cache)
        grads[1][1, 3] = bad
        return grads

    monkeypatch.setattr(cluster.model, "backward", poisoned)
    cluster.start_epoch(1)
    with pytest.raises(DivergenceError, match="non-finite gradient in layer fc1 on rank 1") as e:
        cluster.sync_step()
    assert (e.value.epoch, e.value.step) == (1, 0)
    assert all(np.isfinite(s.residue).all() for states in cluster.codec_states for s in states)


def test_divergence_names_the_first_failure_in_rank_order():
    cluster = make_cluster(3, 48)
    cluster.start_epoch(1)
    grads = [np.zeros((3, n), np.float32) for n in cluster.layer_sizes]
    cluster._check_finite([0.0, 0.0, 0.0], grads)
    grads[1][2, 0] = np.nan
    with pytest.raises(DivergenceError, match="gradient in layer fc1 on rank 2"):
        cluster._check_finite([0.0, 0.0, 0.0], grads)
    grads[0][1, 5] = np.inf
    with pytest.raises(DivergenceError, match="gradient in layer fc0 on rank 1"):
        cluster._check_finite([0.0, 0.0, np.inf], grads)
    # a rank's loss is checked before its gradients
    with pytest.raises(DivergenceError, match="non-finite loss nan on rank 1"):
        cluster._check_finite([0.0, np.nan, 0.0], grads)


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:divide by zero")
def test_non_finite_weights_after_the_update_stop_the_step():
    # beta2 = 1 zeroes Adam's bias correction 1 - beta2**t: every weight
    # divides by zero in the first update
    cluster = Cluster(builder, dataset(), {}, lambda: Adam(lr=0.01, beta2=1.0),
                      num_learners=2, global_minibatch=16, seed=1)
    cluster.start_epoch(1)
    with pytest.raises(DivergenceError, match="non-finite weights in layer fc0 after the update") as e:
        cluster.sync_step()
    assert (e.value.epoch, e.value.step) == (1, 0)


@pytest.mark.parametrize("started", [False, True], ids=["before_start_epoch", "past_the_last_step"])
def test_step_outside_an_epoch_is_a_named_error(started):
    cluster = make_cluster(2, 64, {"fc": make_codec("adacomp", bin_size=16)})
    if started:
        run_steps(cluster, 1)
    weights = weights_of(cluster.model)
    residues = [s.residue.copy() for states in cluster.codec_states for s in states]
    steps = cluster.steps_per_epoch if started else 0
    with pytest.raises(RuntimeError, match=f"outside epoch {cluster.epoch}, which has {steps} steps"):
        cluster.sync_step()
    for a, b in zip(weights_of(cluster.model), weights, strict=True):
        assert_bitwise(a, b)
    for s, r in zip((s for states in cluster.codec_states for s in states), residues, strict=True):
        assert_bitwise(s.residue, r)
    assert cluster.global_step == steps


def test_cluster_validation():
    with pytest.raises(ValueError, match="divisible"):
        make_cluster(3, 16)
    with pytest.raises(ValueError, match="at least one learner"):
        make_cluster(0, 16)
    with pytest.raises(ValueError, match="smaller than one global minibatch"):
        make_cluster(1, 512)


def test_make_codec_registry():
    gv = GradientVector(0, np.linspace(-1.0, 1.0, 120, dtype=np.float32))
    for kind, params, pack_type in (("adacomp", {"bin_size": 50}, PackedLayer),
                                    ("ls", {"bin_size": 50}, PackedLayer),
                                    ("topk", {"fraction": 0.2}, TopKPacked),
                                    ("onebit", {}, OneBitPacked),
                                    ("identity", {}, DensePacked)):
        packed, _ = make_codec(kind, **params)(CodecState.zeros(120), gv)
        assert type(packed) is pack_type
        assert sim.to_dense(packed).dtype == np.float32
    with pytest.raises(ValueError, match="unknown codec"):
        make_codec("zip")
    with pytest.raises(ValueError, match="bin_size"):
        make_codec("adacomp", bin_size=0)
    with pytest.raises(ValueError, match="bin_size"):
        make_codec("ls", bin_size=16385)
    with pytest.raises(ValueError, match="scale_factor"):
        make_codec("adacomp", bin_size=50, scale_factor=5.0)
    for fraction in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="fraction"):
            make_codec("topk", fraction=fraction)
    with pytest.raises(TypeError):
        make_codec("onebit", bin_size=50)
    with pytest.raises(TypeError):
        sim.to_dense(object())


@pytest.mark.parametrize("kind, params", [("adacomp", {"bin_size": 7}), ("ls", {"bin_size": 7}),
                                           ("topk", {"fraction": 0.1}), ("onebit", {}),
                                           ("identity", {})])
def test_every_codec_packs_in_place_as_its_pure_pack(kind, params):
    # into leaves the pure pack's successor residue in the row and its |residue|
    # in the magnitudes, over a few steps of the same residue
    rng = np.random.default_rng(11)
    codec = make_codec(kind, **params)
    state = CodecState.zeros(300)
    held, magnitudes = np.zeros(300), np.empty(300)
    for _ in range(3):
        gv = GradientVector(0, rng.standard_normal(300).astype(np.float32))
        want, state = codec(state, gv)
        got = codec.into(held, magnitudes, gv)
        assert type(got) is type(want)
        assert_bitwise(sim.to_dense(got), sim.to_dense(want))
        assert_bitwise(held, state.residue)
        assert_bitwise(magnitudes, np.abs(state.residue))


def test_codecs_look_up_pack_functions_at_call_time(monkeypatch):
    # a name replaced on the module after make_codec is the one that runs
    gv = GradientVector(0, np.ones(20, dtype=np.float32))
    for kind, params, name in (("adacomp", {"bin_size": 5}, "pack"),
                               ("ls", {"bin_size": 5}, "ls_pack"),
                               ("topk", {"fraction": 0.5}, "topk_pack"),
                               ("onebit", {}, "onebit_pack"),
                               ("identity", {}, "identity_pack")):
        codec = make_codec(kind, **params)
        calls = []
        original = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda *a, f=original: calls.append(1) or f(*a))
        codec(CodecState.zeros(20), gv)
        assert calls == [1], kind


def test_nearest_rank_percentile():
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert nearest_rank_percentile(vals, 95.0) == 10.0
    assert nearest_rank_percentile(vals, 50.0) == 5.0
    assert nearest_rank_percentile(np.array([3.0]), 95.0) == 3.0


magnitude_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0]))


@given(st.lists(magnitude_floats, min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=100.0, exclude_min=True))
@example([-0.0, 0.0, -np.inf, np.nan, 1.0], 95.0)
@example([np.nan, np.nan, -np.inf], 50.0)
@example([-0.0, 0.0], 100.0)
@settings(max_examples=300)
def test_nearest_rank_percentile_matches_sorted(values, pct):
    magnitudes = np.abs(np.array(values, dtype=np.float64))
    before = sorted(magnitudes.view(np.uint64))
    got = nearest_rank_percentile(magnitudes, pct)
    want = nearest_rank_reference([abs(v) for v in values], pct)
    assert sorted(magnitudes.view(np.uint64)) == before  # reordered, not changed
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert bits_of(got) == bits_of(want)


def test_nearest_rank_percentile_wants_float64():
    with pytest.raises(TypeError, match="float64"):
        nearest_rank_percentile(np.ones(4, np.float32), 95.0)
