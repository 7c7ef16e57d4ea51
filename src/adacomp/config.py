"""Experiment configuration: one strict JSON document.

Unknown keys are rejected and every complaint names the offending field, so
typos fail fast instead of silently running a different experiment. SCHEMA
and TOP_LEVEL give each field's type, default and bounds."""

from __future__ import annotations

import json
import operator
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# each field type: what its values are called, and the test a value must pass
TYPES = {
    "int": ("an integer", _is_int),
    # finite rules out NaN, inf and integer literals beyond float range
    "number": ("a finite number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "path": ("a file path string", lambda v: isinstance(v, str)),
    # a bool is an int to isinstance, but never a size or an epoch number
    "ints": ("a list of positive integers",
             lambda v: isinstance(v, list) and all(_is_int(i) and i > 0 for i in v)),
}
# each bound a Field may set: the sign a valid value keeps to it
BOUNDS = {"minimum": (">=", operator.ge), "maximum": ("<=", operator.le),
          "above": (">", operator.gt), "below": ("<", operator.lt)}
REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One config field: `type` is a key of TYPES, or "section" for an object
    SCHEMA describes; `what` names the values in place of the type's name."""
    type: str
    default: object = REQUIRED
    minimum: float | None = None  # inclusive bounds
    maximum: float | None = None
    above: float | None = None  # exclusive bounds
    below: float | None = None
    length: int | None = None
    what: str | None = None


SIZE, CLASSES = Field("int", minimum=1), Field("int", minimum=2)
BIN_SIZE = Field("int", minimum=1, maximum=MAX_BIN_SIZE)  # the default is by layer kind
LR = Field("number", minimum=0.0)
# every section kind: its fields besides "kind", in the order a checked section lists them
SCHEMA = {
    "model": {
        "mlp": {"input_dim": SIZE, "hidden": Field("ints"), "classes": CLASSES},
        "cnn": {"in_maps": SIZE, "conv_maps": Field("ints"), "fc_hidden": SIZE, "classes": CLASSES,
                "image_hw": Field("ints", [28, 28], length=2, what="[height, width]")},
    },
    "dataset": {
        # dim, train and test are also at least classes: see _check_cross_field_rules
        "gaussians": {"classes": CLASSES, "dim": CLASSES, "train": CLASSES, "test": CLASSES,
                      "separation": Field("number", 4.0, minimum=0.0)},
        "digits": {"train": SIZE, "test": SIZE, "noise": Field("number", 0.35, minimum=0.0),
                   "shift": Field("int", 2, minimum=0), "task_seed": Field("int", 7, minimum=0)},
        "idx": {"train_images": Field("path"), "train_labels": Field("path"),
                "test_images": Field("path"), "test_labels": Field("path"),
                "classes": Field("int", 10, minimum=2), "center": Field("bool", False)},
    },
    "optimizer": {
        "sgd": {"lr": LR, "momentum": Field("number", 0.9, minimum=0.0, maximum=1.0)},
        # a beta of 1 makes the bias correction 1 - beta**t 0 at every step, and an eps
        # of 0 gives 0/0 wherever a gradient element and its second moment are both 0
        "adam": {"lr": LR, "beta1": Field("number", 0.9, minimum=0.0, below=1.0),
                 "beta2": Field("number", 0.999, minimum=0.0, below=1.0),
                 "eps": Field("number", 1e-8, above=0.0)},
    },
    "codec": {
        "adacomp": {"bin_size": BIN_SIZE,
                    "scale_factor": Field("number", 2.0, minimum=1.0, maximum=4.0)},
        "ls": {"bin_size": BIN_SIZE},
        "topk": {"fraction": Field("number", above=0.0, maximum=1.0)},
        "onebit": {},
        "identity": {},
    },
}
TOP_LEVEL = {
    "model": Field("section"), "dataset": Field("section"), "optimizer": Field("section"),
    "learners": SIZE, "minibatch": SIZE, "epochs": SIZE, "seed": Field("int", minimum=0),
    "codec": Field("section", DEFAULT_CODEC),
    "rg_histogram_epochs": Field("ints", [], what="a list of epoch numbers"),
}


def _check_value(field: Field, v, path: str):
    what, valid = TYPES[field.type]
    if not valid(v) or (field.length is not None and len(v) != field.length):
        raise ConfigError(path, f"expected {field.what or what}, got {v!r}")
    v = float(v) if field.type == "number" else list(v) if field.type == "ints" else v
    for bound, (sign, holds) in BOUNDS.items():
        limit = getattr(field, bound)
        if limit is not None and not holds(v, limit):
            raise ConfigError(path, f"must be {sign} {limit}, got {v}")
    return v


def _check_object(raw, path: str, fields: dict, **defaults) -> dict:
    """raw checked against `fields`, with defaults (the table's, unless given) filled in."""
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected an object, got {type(raw).__name__}")
    for key in raw:
        if key not in fields:
            raise ConfigError(f"{path}.{key}", "unknown key")
    out = {}
    for key, field in fields.items():
        v = raw.get(key, defaults.get(key, field.default))
        if v is REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required key")
        out[key] = (_check_section(v, key, key) if field.type == "section"
                    else _check_value(field, v, f"{path}.{key}"))
    return out


def _check_section(raw, section: str, path: str, **defaults) -> dict:
    """A section of a kind SCHEMA[section] lists, or the codec's one per layer kind."""
    if path == "codec":
        if not isinstance(raw, dict):
            raise ConfigError("codec", "expected an object keyed by layer kind")
        for layer in raw:
            if layer not in DEFAULT_CODEC:
                raise ConfigError(f"codec.{layer}", "unknown layer kind (use conv/fc)")
        return {layer: _check_section(entry, "codec", f"codec.{layer}",
                                      bin_size=DEFAULT_CODEC[layer]["bin_size"])
                for layer, entry in raw.items()}
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected an object, got {type(raw).__name__}")
    if "kind" not in raw:
        raise ConfigError(f"{path}.kind", "missing required key")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in SCHEMA[section]:
        raise ConfigError(f"{path}.kind", f"unknown {section} kind {kind!r}")
    rest = {k: v for k, v in raw.items() if k != "kind"}
    return {"kind": kind, **_check_object(rest, path, SCHEMA[section][kind], **defaults)}


def _check_cross_field_rules(c: dict) -> None:
    """The rules that tie one field to another, on a config the table passed."""
    if c["minibatch"] % c["learners"]:
        raise ConfigError("config.minibatch",
                          f"{c['minibatch']} is not divisible by {c['learners']} learners")
    # the gaussians generator draws every class at least once, on orthogonal class means
    data = c["dataset"]
    for key in ("dim", "train", "test") if data["kind"] == "gaussians" else ():
        if data[key] < data["classes"]:
            raise ConfigError(f"dataset.{key}", f"must be >= {data['classes']}, got {data[key]}")
    # every 5x5 conv and 2x2 pool block needs at least 6 rows and columns
    model, side = c["model"], 1
    for _ in model.get("conv_maps", ()):
        side = 2 * side + 4
    if model["kind"] == "cnn" and min(model["image_hw"]) < side:
        raise ConfigError("model.image_hw",
                          f"{model['image_hw']} is too small for {len(model['conv_maps'])} "
                          f"conv blocks, which need at least [{side}, {side}]")
    hist = c["rg_histogram_epochs"]
    if hist and max(hist) > c["epochs"]:
        raise ConfigError("config.rg_histogram_epochs",
                          f"epoch {max(hist)} is beyond the last epoch, {c['epochs']}")


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
        checked = _check_object(raw, "config", TOP_LEVEL)
        _check_cross_field_rules(checked)
        return cls(**checked)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """The config in the JSON file at `path`; a file that cannot be read raises OSError."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as e:
            raise ConfigError("config", f"{path} is not UTF-8 text: {e}") from e
        except ValueError as e:  # a JSONDecodeError names the line; int() may cap a literal's digits
            raise ConfigError("config", f"invalid JSON: {e}") from e
        return cls.from_dict(raw)

    def replace(self, **overrides) -> "ExperimentConfig":
        """Copy with top-level fields swapped out (used by sweeps), checked
        as a loaded config is."""
        return self.from_dict({**asdict(self), **overrides})
