"""Dataset ingestion: big-endian IDX image/label files plus seeded synthetic
generators (Gaussian mixtures and a digit-like 28x28 image task)."""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    features: np.ndarray  # float32; [n, d] or [n, c, h, w]
    labels: np.ndarray    # int64
    split: str
    num_classes: int

    def __post_init__(self):
        if len(self.features) != len(self.labels):
            raise ValueError("count mismatch between features and labels")
        if self.labels.size and (int(self.labels.min()) < 0
                                 or int(self.labels.max()) >= self.num_classes):
            raise ValueError("label out of range")

    def __len__(self) -> int:
        return len(self.labels)


class DataError(ValueError):
    """A data file is missing, unreadable or not a well-formed IDX file; the
    message names the file."""


def _read_exact(f, n: int, path) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise DataError(f"{path}: unexpected end of file")
    return buf


def _read_idx(path, magic: int, ndim: int) -> np.ndarray:
    """The uint8 payload of one IDX file, shaped as its header says."""
    try:
        with open(path, "rb") as f:
            found, *shape = struct.unpack(f">{1 + ndim}I", _read_exact(f, 4 + 4 * ndim, path))
            if found != magic:
                raise DataError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
            # a read reserves the size it is asked for, so check the header's claim first
            claimed, held = math.prod(shape), os.fstat(f.fileno()).st_size - f.tell()
            if claimed > held:
                raise DataError(f"{path}: unexpected end of file: the header claims "
                                f"{claimed} bytes of data, the file holds {held}")
            # numpy refuses an array whose nonzero dims multiply past its limit,
            # even one of no items; the loader makes 4-byte float32 pixels
            if 4 * math.prod(d for d in shape if d) > np.iinfo(np.intp).max:
                raise DataError(f"{path}: the header's dims {shape} are too large for an array")
            raw = _read_exact(f, claimed, path)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from e
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def load_idx(path_images, path_labels, split: str = "train", num_classes: int = 10) -> Dataset:
    """Parse an IDX image/label pair into [n, 1, rows, cols] float32 pixels
    scaled to [0, 1]. Raises DataError when a file cannot be read, is
    malformed, or does not match the other."""
    images = _read_idx(path_images, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(path_labels, IDX_LABELS_MAGIC, 1)
    if len(labels) != len(images):
        raise DataError(f"count mismatch: {len(images)} images in {path_images} "
                        f"vs {len(labels)} labels in {path_labels}")
    try:
        return Dataset(images[:, None].astype(np.float32) / np.float32(255.0),
                       labels.astype(np.int64), split, num_classes)
    except ValueError as e:
        raise DataError(f"{path_labels}: {e}") from e


def synth_gaussians(num_classes: int, dim: int, n: int, seed: int,
                    separation: float = 4.0, split: str = "train") -> Dataset:
    """Class-conditional unit-variance Gaussians on orthogonal class
    directions, each mean at distance `separation` from the origin (pairwise
    mean distance is separation * sqrt(2))."""
    if n < num_classes:
        raise ValueError("need at least one sample per class")
    if dim < num_classes:
        raise ValueError("dim must be >= num_classes for orthonormal class means")
    mean_rng = np.random.default_rng(num_classes * 100003 + dim)
    basis, _ = np.linalg.qr(mean_rng.standard_normal((dim, num_classes)))
    means = separation * basis.T  # [classes, dim]
    rng = np.random.default_rng([seed, 0 if split == "train" else 1])
    labels = np.arange(n, dtype=np.int64) % num_classes
    x = means[labels] + rng.standard_normal((n, dim))
    return Dataset(x.astype(np.float32), labels, split, num_classes)


def synth_digits(n: int, seed: int, noise: float = 0.35, shift: int = 2,
                 split: str = "train", task_seed: int = 7) -> Dataset:
    """Digit-like 28x28 ten-class images: one blocky prototype per class,
    randomly shifted and corrupted with pixel noise, quantized to uint8."""
    protos = np.stack([_digit_prototype(task_seed, c) for c in range(10)])
    rng = np.random.default_rng([seed, 0 if split == "train" else 1])
    labels = rng.integers(0, 10, size=n, endpoint=False).astype(np.int64)
    dy = dx = np.zeros(n, np.int64)
    if shift:
        dy = rng.integers(-shift, shift, size=n, endpoint=True)
        dx = rng.integers(-shift, shift, size=n, endpoint=True)
    # np.roll's rule: pixel i of a shifted image is pixel (i - shift) mod 28
    rows = (np.arange(28) - dy[:, None]) % 28
    cols = (np.arange(28) - dx[:, None]) % 28
    # (image + noise * normals) * 255 in the normals' buffer: IEEE + and * commute
    z = rng.standard_normal((n, 28, 28))
    z *= noise
    z += protos[labels[:, None, None], rows[:, :, None], cols[:, None, :]]
    z *= 255.0
    x = np.clip(z, 0, 255, out=z).astype(np.uint8) / np.float32(255.0)
    return Dataset(x.reshape(n, 1, 28, 28), labels, split, num_classes=10)


def _digit_prototype(task_seed: int, cls: int) -> np.ndarray:
    rng = np.random.default_rng([task_seed, cls])
    coarse = (rng.random((7, 7)) > 0.55).astype(np.float64)
    img = np.kron(coarse, np.ones((4, 4)))
    # soften block edges so shifted copies overlap smoothly
    img = (img + np.roll(img, 1, 0) + np.roll(img, 1, 1) + np.roll(img, -1, 0) + np.roll(img, -1, 1)) / 5.0
    return img
