"""CSV metric emission with a fixed, reproducible column set.

metrics.csv carries one `step` row per sync step and one `epoch` row per
epoch-end evaluation. Its columns are kind, step, epoch, train_loss and
test_error, then each group of GROUPS with one column per layer, named
<prefix>_<layer> (rate_conv0, ...) in model order. Step rows leave test_error
empty. Identical configs and seeds reproduce the file byte for byte.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .sim import StepMetrics


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# metrics.csv's per-layer column groups in order: (column prefix, the
# StepMetrics field it reads, whether epoch rows repeat it or leave it empty)
GROUPS = (("payload_bits", "payload_bits", False), ("rate", "rates", False),
          ("sel_mean", "sel_mean", False), ("sel_max", "sel_max", False), ("rg_p95", "rg_p95", True))


class MetricsWriter:
    def __init__(self, path, layer_names: list[str]):
        self.layer_names = list(layer_names)
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(["kind", "step", "epoch", "train_loss", "test_error"]
                              + [f"{prefix}_{name}" for prefix, _, _ in GROUPS for name in self.layer_names])

    def write_step(self, m: StepMetrics) -> None:
        self._writer.writerow(["step", fmt(m.step), fmt(m.epoch), fmt(m.train_loss), ""]
                              + [fmt(v) for _, field, _ in GROUPS for v in getattr(m, field)])

    def write_epoch(self, step: int, epoch: int, train_loss: float,
                    test_error: float, rg_p95: list[float]) -> None:
        repeated, blank = {"rg_p95": rg_p95}, [None] * len(self.layer_names)
        self._writer.writerow(["epoch", fmt(step), fmt(epoch), fmt(train_loss), fmt(test_error)]
                              + [fmt(v) for _, field, again in GROUPS
                                 for v in (repeated[field] if again else blank)])

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def magnitude_histogram(values: np.ndarray, num_buckets: int = 64,
                        decades: float = 9.0) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced magnitude buckets spanning (0, max|values|].

    Returns (edges, counts) with len(edges) == num_buckets + 1; the lowest
    edge is pinned to 0 so zeros and sub-floor values land in bucket 0.
    """
    a = np.abs(np.asarray(values, dtype=np.float64))
    m = float(a.max()) if a.size else 0.0
    if m == 0.0:
        edges = np.zeros(num_buckets + 1)
        edges[1:] = np.geomspace(1e-12, 1.0, num_buckets)
        counts = np.zeros(num_buckets, dtype=np.int64)
        counts[0] = a.size
        return edges, counts
    edges = np.geomspace(m * 10.0 ** -decades, m, num_buckets + 1)
    edges[0] = 0.0
    counts, _ = np.histogram(a, edges)
    return edges, counts


def write_histogram_csv(path, layer_names: list[str], pooled_values: list[np.ndarray]) -> None:
    """One rg-histogram row per (layer, bucket)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["layer", "bucket", "lo", "hi", "count"])
        for name, values in zip(layer_names, pooled_values):
            edges, counts = magnitude_histogram(values)
            for i, c in enumerate(counts):
                w.writerow([name, i, fmt(float(edges[i])), fmt(float(edges[i + 1])), int(c)])
