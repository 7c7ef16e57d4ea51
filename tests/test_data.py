import struct
import tracemalloc

import numpy as np
import pytest

from adacomp.data import (
    DataError,
    Dataset,
    load_idx,
    synth_digits,
    synth_gaussians,
)
import one_rank
from digits_idx import synth_digits_idx, write_idx
from oracles import synth_digits_reference


def build_idx_pair(tmp_path, images_magic=0x803, labels_magic=0x801, truncate_images=0,
                   n_labels=None):
    # two 3x3 images built byte by byte
    pixels = bytes(range(9)) + bytes(range(100, 109))
    n_labels = 2 if n_labels is None else n_labels
    img = tmp_path / "img.idx"
    lbl = tmp_path / "lbl.idx"
    body = struct.pack(">IIII", images_magic, 2, 3, 3) + pixels
    img.write_bytes(body[:len(body) - truncate_images])
    lbl.write_bytes(struct.pack(">II", labels_magic, n_labels) + bytes(range(n_labels)))
    return img, lbl


def test_load_idx_fixture(tmp_path):
    img, lbl = build_idx_pair(tmp_path)
    ds = load_idx(img, lbl)
    assert ds.features.shape == (2, 1, 3, 3)
    assert ds.features.dtype == np.float32
    assert ds.features[0, 0, 0, 1] == pytest.approx(1 / 255)
    assert ds.features[1, 0, 2, 2] == pytest.approx(108 / 255)
    assert ds.labels.tolist() == [0, 1]


def test_load_idx_truncated(tmp_path):
    img, lbl = build_idx_pair(tmp_path, truncate_images=4)
    with pytest.raises(ValueError, match="unexpected end"):
        load_idx(img, lbl)


def test_load_idx_bad_magic(tmp_path):
    img, lbl = build_idx_pair(tmp_path, labels_magic=0x803)
    with pytest.raises(ValueError, match="bad magic"):
        load_idx(img, lbl)
    img, lbl = build_idx_pair(tmp_path, images_magic=0x801)
    with pytest.raises(ValueError, match="bad magic"):
        load_idx(img, lbl)


def test_load_idx_count_mismatch(tmp_path):
    img, lbl = build_idx_pair(tmp_path, n_labels=3)
    with pytest.raises(ValueError, match="count mismatch"):
        load_idx(img, lbl)


def test_write_then_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (5, 4, 4)).astype(np.uint8)
    labels = np.array([0, 1, 2, 3, 4], np.uint8)
    write_idx(images, labels, tmp_path / "i.idx", tmp_path / "l.idx")
    ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    np.testing.assert_allclose(ds.features.reshape(5, 4, 4) * 255.0, images, atol=1e-4)
    assert ds.labels.tolist() == labels.tolist()


def test_gaussians_deterministic_and_split_disjoint():
    a = synth_gaussians(4, 8, 64, seed=9)
    b = synth_gaussians(4, 8, 64, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    t = synth_gaussians(4, 8, 64, seed=9, split="test")
    assert not np.array_equal(a.features, t.features)


def test_gaussians_edge_and_validation():
    ds = synth_gaussians(5, 6, 5, seed=0)
    assert len(ds) == 5
    assert sorted(ds.labels.tolist()) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        synth_gaussians(5, 6, 4, seed=0)
    with pytest.raises(ValueError):
        synth_gaussians(8, 4, 20, seed=0)


def test_gaussians_linearly_separable_at_4_sigma():
    from adacomp.nn import build_mlp
    from adacomp.optim import SGDMomentum

    ds = synth_gaussians(3, 12, 300, seed=3, separation=4.0)
    model = build_mlp(12, [], 3, seed=0)  # plain linear softmax
    opt = SGDMomentum(lr=0.2)
    for _ in range(120):
        _, cache = one_rank.forward(model, ds.features, ds.labels)
        grads = one_rank.backward(model, cache)
        params = [p for l in model.param_layers for p in l.params()]
        opt.update(params, [g for parts in grads for g in parts])
    acc = float((model.predict(ds.features) == ds.labels).mean())
    assert acc >= 0.99


def test_digits_shapes_and_determinism():
    a = synth_digits(32, seed=4)
    b = synth_digits(32, seed=4)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.features.shape == (32, 1, 28, 28)
    assert a.features.min() >= 0.0 and a.features.max() <= 1.0
    assert set(np.unique(a.labels)) <= set(range(10))
    t = synth_digits(32, seed=4, split="test")
    assert not np.array_equal(a.features, t.features)


DIGIT_DRAWS = [
    *({"n": 2048, "seed": seed, "split": split} for seed in (3, 7, 11) for split in ("train", "test")),
    *({"n": n, "seed": seed, "shift": shift, "noise": noise}
      for n, seed in ((1, 3), (97, 11)) for shift in (0, 1, 2, 30) for noise in (0.0, 0.35)),
    {"n": 300, "seed": 7, "split": "test", "task_seed": 123},
    # 27 distinct column shifts; dx = -14 and +14 share one table entry
    *({"n": 2048, "seed": 7, "shift": shift} for shift in (13, 14)),
]


@pytest.mark.parametrize("kwargs", DIGIT_DRAWS, ids=lambda kw: "-".join(f"{k}{v}" for k, v in kw.items()))
def test_digits_match_roll_reference_bitwise(kwargs):
    got, want = synth_digits(**kwargs), synth_digits_reference(**kwargs)
    assert got.features.dtype == want.features.dtype and got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()


def test_digits_heap_peak_of_a_cnn_training_set():
    # the per-image np.roll loop and its float64 temporaries peaked at 37.5 MiB,
    # one prototype gather of all 2,048 images at 25.7 MiB, gathers of 256
    # images with whole (n, 28) row and column index arrays at 20.9 MiB; rows
    # of a column-rolled prototype table peak at 20.4 MiB, the normals' buffer
    # and the uint8 and float32 images alive together. The first call also
    # allocates numpy's one-off caches, so warm up first
    synth_digits(1, 7)
    tracemalloc.start()
    try:
        synth_digits(2048, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 22 * 2**20


@pytest.mark.parametrize("header", [struct.pack(">IIII", 0x803, 4, 2**31, 2**31),
                                    struct.pack(">IIII", 0x803, 2**32 - 1, 2**32 - 1, 2**32 - 1),
                                    struct.pack(">II", 0x801, 2**32 - 1)],
                         ids=["images_2**64", "images_2**96", "labels_2**32"])
def test_load_idx_size_claim_beyond_the_file_names_it_before_reading(tmp_path, header):
    # the files are a few bytes long; only their headers claim more
    img, lbl = build_idx_pair(tmp_path)
    damaged = img if header[3] == 0x03 else lbl
    damaged.write_bytes(header + bytes(16))
    with pytest.raises(DataError, match=f"{damaged}: unexpected end of file: the header claims"):
        load_idx(img, lbl)


def test_digits_idx_materialization_roundtrip(tmp_path):
    img, lbl = synth_digits_idx(16, seed=2, out_dir=tmp_path)
    ds = load_idx(img, lbl)
    direct = synth_digits(16, seed=2)
    np.testing.assert_allclose(ds.features, direct.features, atol=1e-6)
    np.testing.assert_array_equal(ds.labels, direct.labels)


def test_dataset_validation():
    with pytest.raises(ValueError, match="count mismatch"):
        Dataset(np.zeros((3, 2), np.float32), np.zeros(2, np.int64), "train", 2)
    with pytest.raises(ValueError, match="label out of range"):
        Dataset(np.zeros((2, 2), np.float32), np.array([0, 5]), "train", 2)
    with pytest.raises(ValueError, match="label out of range"):
        Dataset(np.zeros((2, 2), np.float32), np.array([0, -1]), "train", 2)
