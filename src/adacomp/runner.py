"""Experiment orchestration: build everything from a config, drive the
cluster, and emit metrics.csv / summary.json / rg histogram CSVs."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .config import SCHEMA, ConfigError, ExperimentConfig
from .data import DataError, Dataset, load_idx, synth_digits, synth_gaussians
from .metrics import MetricsWriter, fmt, write_histogram_csv
from .nn import build_cnn, build_mlp
from .optim import make_optimizer
from .sim import Cluster, DivergenceError, make_codec
from .wire import effective_compression_rate


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    spec = cfg.dataset
    if spec["kind"] == "gaussians":
        return tuple(synth_gaussians(spec["classes"], spec["dim"], spec[split], cfg.seed,
                                     separation=spec["separation"], split=split)
                     for split in ("train", "test"))
    if spec["kind"] == "digits":
        return tuple(synth_digits(spec[split], cfg.seed, noise=spec["noise"], shift=spec["shift"],
                                  split=split, task_seed=spec["task_seed"])
                     for split in ("train", "test"))
    if spec["kind"] == "idx":
        train = load_idx(spec["train_images"], spec["train_labels"], "train", spec["classes"])
        test = load_idx(spec["test_images"], spec["test_labels"], "test", spec["classes"])
        # the model is checked against the training images only, and evaluate
        # divides by the test set's size
        if not len(test):
            raise DataError(f"{spec['test_images']}: the test set has no images")
        (th, tw), (h, w) = test.features.shape[2:], train.features.shape[2:]
        if (th, tw) != (h, w):
            raise DataError(f"{spec['test_images']}: test images of {th}x{tw} do not match "
                            f"the training images of {h}x{w}")
        if spec["center"]:
            mean = train.features.mean(dtype="float32")
            train.features = train.features - mean
            test.features = test.features - mean
        return train, test
    raise ValueError(f"unknown dataset kind {spec['kind']!r}")


def model_builder(cfg: ExperimentConfig):
    spec = cfg.model
    if spec["kind"] == "mlp":
        return lambda seed: build_mlp(spec["input_dim"], spec["hidden"], spec["classes"], seed)
    if spec["kind"] == "cnn":
        return lambda seed: build_cnn(spec["in_maps"], spec["conv_maps"], spec["fc_hidden"],
                                      spec["classes"], seed, tuple(spec["image_hw"]))
    raise ValueError(f"unknown model kind {spec['kind']!r}")


def check_model_fits(cfg: ExperimentConfig, data: Dataset) -> None:
    """Raise ConfigError naming the config field that does not fit the
    training data: a model field off its feature shape or class count, or a
    global minibatch larger than the data."""
    model = cfg.model
    shape = list(data.features.shape[1:])
    if model["kind"] == "mlp":
        # the first layer flattens each sample
        if math.prod(shape) != model["input_dim"]:
            raise ConfigError("model.input_dim",
                              f"{model['input_dim']} does not fit features of shape {shape}")
    elif len(shape) != 3:
        raise ConfigError("model.kind", f"a cnn needs [maps, height, width] images, "
                                        f"the dataset has features of shape {shape}")
    elif shape[0] != model["in_maps"]:
        raise ConfigError("model.in_maps", f"{model['in_maps']} does not fit images with "
                                           f"{shape[0]} maps")
    elif shape[1:] != model["image_hw"]:
        raise ConfigError("model.image_hw", f"{model['image_hw']} does not fit images of "
                                            f"{shape[1]}x{shape[2]}")
    if model["classes"] < data.num_classes:
        raise ConfigError("model.classes", f"{model['classes']} is fewer than the dataset's "
                                           f"{data.num_classes} classes")
    if cfg.minibatch > len(data):
        raise ConfigError("config.minibatch", f"{cfg.minibatch} is more than the {len(data)} "
                                              f"training samples")


def build_cluster(cfg: ExperimentConfig, train: Dataset) -> Cluster:
    codec_by_kind = {kind: make_codec(**entry) for kind, entry in cfg.codec.items()}
    opt = cfg.optimizer
    make_opt = lambda: make_optimizer(opt["kind"], **{k: v for k, v in opt.items() if k != "kind"})
    return Cluster(model_builder(cfg), train, codec_by_kind, make_opt,
                   num_learners=cfg.learners, global_minibatch=cfg.minibatch,
                   seed=cfg.seed)


def run(cfg: ExperimentConfig, out_dir) -> dict:
    """Execute one experiment; returns the summary dict, which is also
    written to summary.json. A divergence abort flushes partial metrics and
    is reported in the summary rather than raised. A model or minibatch that
    does not fit the loaded data raises ConfigError before anything is
    built or written."""
    train, test = build_datasets(cfg)
    check_model_fits(cfg, train)
    cluster = build_cluster(cfg, train)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    layer_names = cluster.layer_names
    n_layers = len(layer_names)
    rate_sums = [0.0] * n_layers
    bits_sums = [0] * n_layers
    overall_rate_sum = 0.0
    steps_done = 0
    test_error = None
    diverged = None

    writer = MetricsWriter(out_dir / "metrics.csv", layer_names)
    try:
        for epoch in range(1, cfg.epochs + 1):
            cluster.start_epoch(epoch)
            epoch_losses = []
            for _ in range(cluster.steps_per_epoch):
                m = cluster.sync_step()
                writer.write_step(m)
                epoch_losses.append(m.train_loss)
                for i in range(n_layers):
                    rate_sums[i] += m.rates[i]
                    bits_sums[i] += m.payload_bits[i]
                overall_rate_sum += effective_compression_rate(
                    sum(cluster.layer_sizes) * cfg.learners, sum(m.payload_bits))
                steps_done += 1
            test_error = cluster.evaluate(test)
            rg_p95 = [m.rg_p95[i] for i in range(n_layers)]
            writer.write_epoch(cluster.global_step, epoch,
                               sum(epoch_losses) / len(epoch_losses), test_error, rg_p95)
            if epoch in cfg.rg_histogram_epochs:
                pooled = [cluster.pooled_abs_residue(i) for i in range(n_layers)]
                write_histogram_csv(out_dir / f"rg_hist_epoch{epoch}.csv", layer_names, pooled)
    except DivergenceError as e:
        diverged = {"epoch": e.epoch, "step": e.step, "reason": e.reason}
    finally:
        writer.close()

    summary = {
        "diverged": diverged,
        "final_test_error": test_error,
        "steps": steps_done,
        "mean_rate_per_layer": {
            name: (rate_sums[i] / steps_done if steps_done else None)
            for i, name in enumerate(layer_names)},
        "total_payload_bits_per_layer": {name: bits_sums[i] for i, name in enumerate(layer_names)},
        "mean_rate_overall": overall_rate_sum / steps_done if steps_done else None,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


SWEEP_AXES = ("L_T", "minibatch", "learners")


def apply_axis(cfg: ExperimentConfig, axis: str, value: int) -> ExperimentConfig:
    if axis == "L_T":
        codec = {}
        for kind, entry in cfg.codec.items():
            entry = dict(entry)
            if "bin_size" in entry:
                entry["bin_size"] = int(value)
            codec[kind] = entry
        return cfg.replace(codec=codec)
    if axis == "minibatch":
        return cfg.replace(minibatch=int(value))
    if axis == "learners":
        return cfg.replace(learners=int(value))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(cfg: ExperimentConfig, axis: str, values: list[int], out_dir) -> list[dict]:
    """One run per axis value. A run that stops with a config, data, memory
    or OS error (a run directory it cannot write) is a row and the sweep goes
    on; any other error propagates. Writes sweep.csv with (value, final test
    error, mean compression rate, status) and returns the rows. An L_T sweep
    of codecs that take no bin size raises ConfigError before any run."""
    if axis == "L_T" and not any("bin_size" in SCHEMA["codec"][entry["kind"]]
                                 for entry in cfg.codec.values()):
        raise ConfigError("codec", f"no codec takes a bin_size, so every L_T value would "
                                   f"repeat one run: {cfg.codec}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        run_dir = out_dir / f"{axis}-{value}"
        try:
            summary = run(apply_axis(cfg, axis, value), run_dir)
            status = "diverged" if summary["diverged"] else "ok"
            rows.append({"value": value, "final_test_error": summary["final_test_error"],
                         "mean_compression_rate": summary["mean_rate_overall"],
                         "status": status})
        except (ConfigError, DataError, MemoryError, OSError) as e:
            rows.append({"value": value, "final_test_error": None,
                         "mean_compression_rate": None, "status": f"error: {e}"})
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value", "final_test_error", "mean_compression_rate", "status"])
        for r in rows:
            w.writerow([fmt(r["value"]), fmt(r["final_test_error"]),
                        fmt(r["mean_compression_rate"]), r["status"]])
    return rows
