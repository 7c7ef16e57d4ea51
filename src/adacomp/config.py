"""Experiment configuration: one strict JSON document.

Unknown keys are rejected and every complaint names the offending field, so
typos fail fast instead of silently running a different experiment.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .codec import MAX_BIN_SIZE

DEFAULT_CODEC = {
    "conv": {"kind": "adacomp", "bin_size": 50},
    "fc": {"kind": "adacomp", "bin_size": 500},
}


class ConfigError(ValueError):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"config error at {field_path}: {message}")
        self.field = field_path


def _check_keys(d: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {type(d).__name__}")
    for k in d:
        if k not in required and k not in optional:
            raise ConfigError(f"{path}.{k}", "unknown key")
    for k in required:
        if k not in d:
            raise ConfigError(f"{path}.{k}", "missing required key")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _as_int(d: dict, path: str, key: str, default=None, minimum=None, maximum=None) -> int:
    v = d.get(key, default)
    if not _is_int(v):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}.{key}", f"must be <= {maximum}, got {v}")
    return v


def _as_number(d: dict, path: str, key: str, default=None, minimum=None, maximum=None,
               above=None, below=None) -> float:
    """A finite number, which rules out NaN, inf and integer literals beyond float
    range; minimum and maximum are inclusive bounds, above and below exclusive."""
    v = d.get(key, default)
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {v!r}")
    v = float(v)
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}.{key}", f"must be <= {maximum}, got {v}")
    if above is not None and v <= above:
        raise ConfigError(f"{path}.{key}", f"must be > {above}, got {v}")
    if below is not None and v >= below:
        raise ConfigError(f"{path}.{key}", f"must be < {below}, got {v}")
    return v


def _validate_model(spec, path="model") -> dict:
    _check_keys(spec, path, {"kind"}, {"input_dim", "hidden", "classes", "in_maps",
                                       "conv_maps", "fc_hidden", "image_hw"})
    kind = spec.get("kind")
    if kind == "mlp":
        _check_keys(spec, path, {"kind", "input_dim", "hidden", "classes"})
        hidden = spec["hidden"]
        if not isinstance(hidden, list) or not all(_is_int(h) and h > 0 for h in hidden):
            raise ConfigError(f"{path}.hidden", "expected a list of positive integers")
        return {"kind": "mlp",
                "input_dim": _as_int(spec, path, "input_dim", minimum=1),
                "hidden": hidden,
                "classes": _as_int(spec, path, "classes", minimum=2)}
    if kind == "cnn":
        _check_keys(spec, path, {"kind", "in_maps", "conv_maps", "fc_hidden", "classes"},
                    {"image_hw"})
        conv_maps = spec["conv_maps"]
        if not isinstance(conv_maps, list) or not all(_is_int(m) and m > 0 for m in conv_maps):
            raise ConfigError(f"{path}.conv_maps", "expected a list of positive integers")
        hw = spec.get("image_hw", [28, 28])
        if not (isinstance(hw, list) and len(hw) == 2 and all(map(_is_int, hw))):
            raise ConfigError(f"{path}.image_hw", "expected [height, width]")
        # every 5x5 conv and 2x2 pool block needs at least 6 rows and columns
        side = 1
        for _ in conv_maps:
            side = 2 * side + 4
        if min(hw) < side:
            raise ConfigError(f"{path}.image_hw",
                              f"{hw} is too small for {len(conv_maps)} conv blocks, "
                              f"which need at least [{side}, {side}]")
        return {"kind": "cnn",
                "in_maps": _as_int(spec, path, "in_maps", minimum=1),
                "conv_maps": conv_maps,
                "fc_hidden": _as_int(spec, path, "fc_hidden", minimum=1),
                "classes": _as_int(spec, path, "classes", minimum=2),
                "image_hw": hw}
    raise ConfigError(f"{path}.kind", f"unknown model kind {kind!r}")


def _validate_dataset(spec, path="dataset") -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{path}.kind", "missing required key")
    kind = spec["kind"]
    if kind == "gaussians":
        _check_keys(spec, path, {"kind", "classes", "dim", "train", "test"}, {"separation"})
        classes = _as_int(spec, path, "classes", minimum=2)
        # the generator draws every class at least once
        return {"kind": kind, "classes": classes,
                "dim": _as_int(spec, path, "dim", minimum=classes),
                "train": _as_int(spec, path, "train", minimum=classes),
                "test": _as_int(spec, path, "test", minimum=classes),
                "separation": _as_number(spec, path, "separation", default=4.0, minimum=0.0)}
    if kind == "digits":
        _check_keys(spec, path, {"kind", "train", "test"}, {"noise", "shift", "task_seed"})
        return {"kind": kind,
                "train": _as_int(spec, path, "train", minimum=1),
                "test": _as_int(spec, path, "test", minimum=1),
                "noise": _as_number(spec, path, "noise", default=0.35, minimum=0.0),
                "shift": _as_int(spec, path, "shift", default=2, minimum=0),
                "task_seed": _as_int(spec, path, "task_seed", default=7, minimum=0)}
    if kind == "idx":
        _check_keys(spec, path, {"kind", "train_images", "train_labels",
                                 "test_images", "test_labels"}, {"classes", "center"})
        for k in ("train_images", "train_labels", "test_images", "test_labels"):
            if not isinstance(spec[k], str):
                raise ConfigError(f"{path}.{k}", "expected a file path string")
        center = spec.get("center", False)
        if not isinstance(center, bool):
            raise ConfigError(f"{path}.center", "expected true or false")
        out = {k: spec[k] for k in ("kind", "train_images", "train_labels",
                                    "test_images", "test_labels")}
        out["classes"] = _as_int(spec, path, "classes", default=10, minimum=2)
        out["center"] = center
        return out
    raise ConfigError(f"{path}.kind", f"unknown dataset kind {kind!r}")


def _validate_codec(entry, layer_kind: str) -> dict:
    path = f"codec.{layer_kind}"
    default_bin_size = DEFAULT_CODEC[layer_kind]["bin_size"]
    if not isinstance(entry, dict) or "kind" not in entry:
        raise ConfigError(f"{path}.kind", "missing required key")
    kind = entry["kind"]
    if kind == "adacomp":
        _check_keys(entry, path, {"kind"}, {"bin_size", "scale_factor"})
        return {"kind": kind,
                "bin_size": _as_int(entry, path, "bin_size", default=default_bin_size,
                                    minimum=1, maximum=MAX_BIN_SIZE),
                "scale_factor": _as_number(entry, path, "scale_factor", default=2.0,
                                           minimum=1.0, maximum=4.0)}
    if kind == "ls":
        _check_keys(entry, path, {"kind"}, {"bin_size"})
        return {"kind": kind,
                "bin_size": _as_int(entry, path, "bin_size", default=default_bin_size,
                                    minimum=1, maximum=MAX_BIN_SIZE)}
    if kind == "topk":
        _check_keys(entry, path, {"kind", "fraction"})
        return {"kind": kind, "fraction": _as_number(entry, path, "fraction", above=0.0, maximum=1.0)}
    if kind in ("onebit", "identity"):
        _check_keys(entry, path, {"kind"})
        return {"kind": kind}
    raise ConfigError(f"{path}.kind", f"unknown codec kind {kind!r}")


@dataclass
class ExperimentConfig:
    model: dict
    dataset: dict
    optimizer: dict
    learners: int
    minibatch: int
    epochs: int
    seed: int
    codec: dict
    rg_histogram_epochs: list[int]

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_keys(raw, "config",
                    {"model", "dataset", "optimizer", "learners", "minibatch", "epochs", "seed"},
                    {"codec", "rg_histogram_epochs"})
        model = _validate_model(raw["model"])
        dataset = _validate_dataset(raw["dataset"])

        opt = raw["optimizer"]
        if not isinstance(opt, dict) or "kind" not in opt:
            raise ConfigError("optimizer.kind", "missing required key")
        if opt["kind"] == "sgd":
            _check_keys(opt, "optimizer", {"kind", "lr"}, {"momentum"})
            optimizer = {"kind": "sgd",
                         "lr": _as_number(opt, "optimizer", "lr", minimum=0.0),
                         "momentum": _as_number(opt, "optimizer", "momentum", default=0.9,
                                                minimum=0.0, maximum=1.0)}
        elif opt["kind"] == "adam":
            _check_keys(opt, "optimizer", {"kind", "lr"}, {"beta1", "beta2", "eps"})
            # a beta of 1 makes the bias correction 1 - beta**t 0 at every step, and an eps
            # of 0 gives 0/0 wherever a gradient element and its second moment are both 0
            optimizer = {"kind": "adam",
                         "lr": _as_number(opt, "optimizer", "lr", minimum=0.0),
                         "beta1": _as_number(opt, "optimizer", "beta1", default=0.9, minimum=0.0, below=1.0),
                         "beta2": _as_number(opt, "optimizer", "beta2", default=0.999, minimum=0.0, below=1.0),
                         "eps": _as_number(opt, "optimizer", "eps", default=1e-8, above=0.0)}
        else:
            raise ConfigError("optimizer.kind", f"unknown optimizer kind {opt['kind']!r}")

        codec_raw = raw.get("codec", DEFAULT_CODEC)
        if not isinstance(codec_raw, dict):
            raise ConfigError("codec", "expected an object keyed by layer kind")
        codec = {}
        for layer_kind, entry in codec_raw.items():
            if layer_kind not in ("conv", "fc"):
                raise ConfigError(f"codec.{layer_kind}", "unknown layer kind (use conv/fc)")
            codec[layer_kind] = _validate_codec(entry, layer_kind)

        learners = _as_int(raw, "config", "learners", minimum=1)
        minibatch = _as_int(raw, "config", "minibatch", minimum=1)
        if minibatch % learners != 0:
            raise ConfigError("config.minibatch",
                              f"{minibatch} is not divisible by {learners} learners")
        epochs = _as_int(raw, "config", "epochs", minimum=1)
        seed = _as_int(raw, "config", "seed", minimum=0)

        hist = raw.get("rg_histogram_epochs", [])
        if not isinstance(hist, list) or not all(_is_int(e) and e >= 1 for e in hist):
            raise ConfigError("config.rg_histogram_epochs", "expected a list of epoch numbers")
        if hist and max(hist) > epochs:
            raise ConfigError("config.rg_histogram_epochs",
                              f"epoch {max(hist)} is beyond the last epoch, {epochs}")

        return cls(model=model, dataset=dataset, optimizer=optimizer, learners=learners,
                   minibatch=minibatch, epochs=epochs, seed=seed, codec=codec,
                   rg_histogram_epochs=list(hist))

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        text = Path(path).read_text()
        try:
            raw = json.loads(text)
        except ValueError as e:  # a JSONDecodeError names the line; int() may cap a literal's digits
            raise ConfigError("config", f"invalid JSON: {e}") from e
        return cls.from_dict(raw)

    def replace(self, **overrides) -> "ExperimentConfig":
        """Copy with top-level fields swapped out (used by sweeps), checked
        as a loaded config is."""
        return self.from_dict({**asdict(self), **overrides})
