import csv
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis.errors import NoSuchExample
from hypothesis import strategies as st

import adacomp
from adacomp import runner
from adacomp.cli import main
from adacomp.config import (BOUNDS, DEFAULT_CODEC, REQUIRED, SCHEMA, TOP_LEVEL, ConfigError,
                            ExperimentConfig)
from adacomp.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from adacomp.runner import sweep
from digits_idx import synth_digits_idx, write_idx


def base_config(**overrides):
    cfg = {
        "model": {"kind": "mlp", "input_dim": 16, "hidden": [8], "classes": 4},
        "dataset": {"kind": "gaussians", "classes": 4, "dim": 16, "train": 128, "test": 64},
        "codec": {"fc": {"kind": "identity"}},
        "optimizer": {"kind": "sgd", "lr": 0.1},
        "learners": 2,
        "minibatch": 32,
        "epochs": 1,
        "seed": 3,
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ------------------------------------------------------------------ parsing

def test_parse_valid_config():
    cfg = ExperimentConfig.from_dict(base_config())
    assert cfg.learners == 2
    assert cfg.codec["fc"]["kind"] == "identity"
    assert cfg.optimizer["momentum"] == 0.9  # default filled in


def test_default_codec_assignment():
    cfg = ExperimentConfig.from_dict({k: v for k, v in base_config().items() if k != "codec"})
    assert cfg.codec["conv"] == {"kind": "adacomp", "bin_size": 50, "scale_factor": 2.0}
    assert cfg.codec["fc"] == {"kind": "adacomp", "bin_size": 500, "scale_factor": 2.0}


def test_codec_bin_size_defaults_by_layer_kind():
    cfg = ExperimentConfig.from_dict(base_config(codec={
        "conv": {"kind": "adacomp"}, "fc": {"kind": "adacomp"}}))
    assert cfg.codec["conv"]["bin_size"] == 50
    assert cfg.codec["fc"]["bin_size"] == 500


@pytest.mark.parametrize("mutate,field", [
    (lambda c: c.update(extra=1), "config.extra"),
    (lambda c: c["model"].update(wat=1), "model.wat"),
    (lambda c: c["dataset"].update(foo="x"), "dataset.foo"),
    (lambda c: c["optimizer"].update(nesterov=True), "optimizer.nesterov"),
    (lambda c: c["codec"].update(embedding={"kind": "identity"}), "codec.embedding"),
    (lambda c: c["codec"]["fc"].update(bogus=2), "codec.fc.bogus"),
])
def test_unknown_keys_rejected_with_field_path(mutate, field):
    cfg = base_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(cfg)
    assert exc.value.field == field


def test_invalid_bin_size_names_the_field():
    cfg = base_config(codec={"fc": {"kind": "adacomp", "bin_size": 0}})
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(cfg)
    assert exc.value.field == "codec.fc.bin_size"
    for bin_size in (99999, 16385):
        cfg = base_config(codec={"fc": {"kind": "adacomp", "bin_size": bin_size}})
        with pytest.raises(ConfigError, match="codec.fc.bin_size"):
            ExperimentConfig.from_dict(cfg)
    cfg = base_config(codec={"fc": {"kind": "adacomp", "bin_size": 16384}})
    assert ExperimentConfig.from_dict(cfg).codec["fc"]["bin_size"] == 16384


def test_minibatch_divisibility_checked():
    with pytest.raises(ConfigError, match="config.minibatch"):
        ExperimentConfig.from_dict(base_config(minibatch=33))


def test_missing_required_key():
    cfg = base_config()
    del cfg["optimizer"]
    with pytest.raises(ConfigError, match="config.optimizer"):
        ExperimentConfig.from_dict(cfg)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "model": \n}')
    with pytest.raises(ConfigError, match="line"):
        ExperimentConfig.load(path)


def test_replace_preserves_unrelated_fields():
    cfg = ExperimentConfig.from_dict(base_config())
    swapped = cfg.replace(learners=4, minibatch=64)
    assert swapped.learners == 4 and swapped.minibatch == 64
    assert swapped.model == cfg.model and swapped.seed == cfg.seed
    with pytest.raises(ConfigError, match="config.threads"):
        cfg.replace(threads=4)


@pytest.mark.parametrize("overrides", [
    {},
    {"codec": None},
    {"model": {"kind": "cnn", "in_maps": 1, "conv_maps": [4, 8], "fc_hidden": 16,
               "classes": 10}},
    {"dataset": {"kind": "digits", "train": 64, "test": 32}},
    {"dataset": {"kind": "idx", "train_images": "a", "train_labels": "b",
                 "test_images": "c", "test_labels": "d", "center": True}},
    {"optimizer": {"kind": "adam", "lr": 0.01}},
    {"codec": {"conv": {"kind": "adacomp"}, "fc": {"kind": "ls", "bin_size": 16}}},
    {"codec": {"conv": {"kind": "topk", "fraction": 0.1}, "fc": {"kind": "onebit"}}},
    {"rg_histogram_epochs": [1, 3], "epochs": 3},
], ids=["mlp_gaussians_sgd_identity", "default_codec", "cnn", "digits", "idx", "adam",
        "adacomp_ls", "topk_onebit", "histogram"])
def test_from_dict_reads_back_its_own_fields(overrides):
    raw = {k: v for k, v in base_config(**overrides).items() if v is not None}
    cfg = ExperimentConfig.from_dict(raw)
    assert ExperimentConfig.from_dict(asdict(cfg)) == cfg
    assert cfg.replace() == cfg


# ---------------------------------------------------------------------- CLI

def test_cli_run_writes_artifacts(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_rate_overall"] == 1.0
    assert summary["diverged"] is None


def test_cli_rejects_invalid_config_with_field_name(tmp_path, capsys):
    path = write_config(tmp_path, base_config(codec={"fc": {"kind": "adacomp", "bin_size": 0}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "codec.fc.bin_size" in err


def cnn_config(dataset=None, **model):
    spec = {"kind": "cnn", "in_maps": 1, "conv_maps": [4], "fc_hidden": 8, "classes": 10}
    return base_config(model={**spec, **model},
                       dataset=dataset or {"kind": "digits", "train": 64, "test": 32},
                       codec={"conv": {"kind": "identity"}, "fc": {"kind": "identity"}})


@pytest.mark.parametrize("cfg, field", [
    (base_config(model={"kind": "mlp", "input_dim": 32, "hidden": [8], "classes": 4},
                 dataset={"kind": "gaussians", "classes": 4, "dim": 64, "train": 128, "test": 64}),
     "model.input_dim"),
    (base_config(model={"kind": "mlp", "input_dim": 16, "hidden": [8], "classes": 2}),
     "model.classes"),
    (cnn_config(image_hw=[8, 8]), "model.image_hw"),
    (cnn_config(conv_maps=[4, 4], image_hw=[12, 12]), "model.image_hw"),
    (cnn_config(dataset={"kind": "gaussians", "classes": 4, "dim": 64, "train": 128, "test": 64}),
     "model.kind"),
    (cnn_config(in_maps=3), "model.in_maps"),
], ids=["mlp_input_dim", "too_few_classes", "cnn_image_hw", "cnn_image_too_small",
        "cnn_on_vectors", "cnn_in_maps"])
def test_cli_model_that_does_not_fit_the_data_exits_2(tmp_path, capsys, cfg, field):
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config error at {field}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("data", ["gaussians", "idx"])
def test_cli_dataset_smaller_than_one_global_batch_exits_2(tmp_path, capsys, data):
    cfg = (base_config(dataset={"kind": "gaussians", "classes": 4, "dim": 16,
                                "train": 100, "test": 64}, minibatch=128)
           if data == "gaussians" else {**idx_config(tmp_path), "minibatch": 32})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config error at config.minibatch: ")
    assert "Traceback" not in err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["latin1", "directory"])
def test_cli_config_file_that_cannot_be_read_exits_2(tmp_path, capsys, damage):
    path = write_config(tmp_path, base_config())
    if damage == "latin1":
        path.write_bytes(path.read_bytes().replace(b'"sgd"', "\"sgd\u00e9\"".encode("latin-1")))
    else:
        path.unlink()
        path.mkdir()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "minibatch", "--values", "32"]],
                         ids=["run", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
def test_cli_out_path_through_an_existing_file_exits_2_before_anything_is_built(
        tmp_path, capsys, monkeypatch, command, below):
    def build_nothing(cfg):
        raise AssertionError("the data was built")
    monkeypatch.setattr("adacomp.runner.build_datasets", build_nothing)
    path = write_config(tmp_path, base_config())
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "o" if below else taken
    assert main([command[0], "--config", str(path), "--out", str(out), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: {taken} is not a directory")
    assert taken.read_text() == "kept"


def test_module_entry_point_exit_codes(tmp_path):
    # the program reads no environment variable: ADACOMP_THREADS is ignored
    path = write_config(tmp_path, base_config(
        learners=4, codec={"fc": {"kind": "adacomp", "bin_size": 16}}))
    src = str(Path(adacomp.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    env.pop("ADACOMP_THREADS", None)

    def cli(config, out, **extra):
        return subprocess.run([sys.executable, "-m", "adacomp.cli", "run", "--config", str(config),
                               "--out", str(out)], env={**env, **extra}, capture_output=True,
                              text=True, timeout=120)

    plain, with_var = cli(path, tmp_path / "plain"), cli(path, tmp_path / "var", ADACOMP_THREADS="x")
    assert (plain.returncode, with_var.returncode) == (0, 0), plain.stderr + with_var.stderr
    assert ((tmp_path / "plain" / "metrics.csv").read_bytes()
            == (tmp_path / "var" / "metrics.csv").read_bytes())
    missing = cli(tmp_path / "nope.json", tmp_path / "o")
    assert missing.returncode == 2
    assert missing.stderr.startswith("error: config file not found: ")


def idx_config(tmp_path):
    img, lbl = synth_digits_idx(16, seed=0, out_dir=tmp_path / "data")
    return base_config(
        model={"kind": "mlp", "input_dim": 784, "hidden": [8], "classes": 10},
        dataset={"kind": "idx", "train_images": str(img), "train_labels": str(lbl),
                 "test_images": str(img), "test_labels": str(lbl)},
        minibatch=8)


@pytest.mark.parametrize("damage", ["missing", "truncated", "bad_magic", "directory", "bad_label"])
def test_cli_bad_idx_file_exits_2_with_error(tmp_path, capsys, damage):
    cfg = idx_config(tmp_path)
    target = Path(cfg["dataset"]["train_labels" if damage == "bad_label" else "train_images"])
    if damage == "bad_label":
        target.write_bytes(target.read_bytes()[:-1] + bytes([200]))
    elif damage == "missing":
        target.unlink()
    elif damage == "truncated":
        target.write_bytes(target.read_bytes()[:100])
    elif damage == "bad_magic":
        target.write_bytes(b"\x00\x00\x08\x01" + target.read_bytes()[4:])
    else:
        target.unlink()
        target.mkdir()
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dims", [(0, 2**32 - 1, 2**32 - 1), (0, 2**31, 2**31)],
                         ids=["uint8", "float32"])
def test_cli_idx_file_of_no_images_whose_dims_no_array_can_hold_exits_2(tmp_path, capsys, dims):
    # numpy refuses the shape even with no items: as the file's own bytes, or as float32 pixels
    cfg = idx_config(tmp_path)
    img, lbl = Path(cfg["dataset"]["train_images"]), Path(cfg["dataset"]["train_labels"])
    img.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, *dims))
    lbl.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 0))
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {img}: the header's dims {list(dims)} are too large for an array\n"


def test_cli_idx_run_succeeds(tmp_path):
    path = write_config(tmp_path, idx_config(tmp_path))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("images", [np.zeros((0, 28, 28), np.uint8), np.zeros((16, 20, 20), np.uint8)],
                         ids=["empty", "20x20"])
def test_cli_idx_test_set_that_cannot_be_evaluated_exits_2_before_training(tmp_path, capsys, images):
    cfg = idx_config(tmp_path)
    img, lbl = tmp_path / "test-images.idx", tmp_path / "test-labels.idx"
    write_idx(images, np.zeros(len(images)), img, lbl)
    cfg["dataset"].update(test_images=str(img), test_labels=str(lbl))
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {img}: ") and "Traceback" not in err
    assert ("no images" if len(images) == 0 else "20x20") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_cli_divergence_exit_code(tmp_path, capsys):
    cfg = base_config(optimizer={"kind": "sgd", "lr": 1e30}, epochs=3)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "div"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert (out / "metrics.csv").exists()  # partial metrics flushed
    summary = json.loads((out / "summary.json").read_text())
    diverged = summary["diverged"]
    assert sorted(diverged) == ["epoch", "reason", "step"]
    assert diverged["reason"].startswith("non-finite ")
    err = capsys.readouterr().err
    assert f"{diverged['reason']} at epoch {diverged['epoch']}, step {diverged['step']}" in err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_cli_poisoned_weights_after_the_last_update_exit_3(tmp_path, capsys):
    # one step in one epoch: no later loss or gradient check sees the weights
    cfg = base_config(optimizer={"kind": "sgd", "lr": 1e308}, minibatch=128)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    diverged = json.loads((out / "summary.json").read_text())["diverged"]
    assert diverged == {"epoch": 1, "step": 0,
                        "reason": "non-finite weights in layer fc0 after the update"}
    assert "non-finite weights in layer fc0" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["beta1", "beta2"])
def test_cli_adam_beta_of_one_exits_2(tmp_path, capsys, beta):
    cfg = base_config(optimizer={"kind": "adam", "lr": 0.01, beta: 1.0})
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: config error at optimizer.{beta}: ")


@pytest.mark.parametrize("cfg, field", [
    (base_config(seed=-1), "config.seed"),
    (cnn_config(dataset={"kind": "digits", "train": 64, "test": 32, "task_seed": -3}),
     "dataset.task_seed"),
    (base_config(model={"kind": "mlp", "input_dim": 3, "hidden": [8], "classes": 4},
                 dataset={"kind": "gaussians", "classes": 4, "dim": 3, "train": 128, "test": 64}),
     "dataset.dim"),
    (base_config(dataset={"kind": "gaussians", "classes": 4, "dim": 16, "train": 3, "test": 64}),
     "dataset.train"),
], ids=["negative_seed", "negative_task_seed", "gaussians_dim_below_classes",
        "gaussians_train_below_classes"])
def test_cli_config_the_generators_reject_exits_2(tmp_path, capsys, cfg, field):
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config error at {field}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("cfg, field", [
    (base_config(codec={"fc": {"kind": "adacomp", "scale_factor": NAN}}), "codec.fc.scale_factor"),
    (base_config(codec={"fc": {"kind": "topk", "fraction": NAN}}), "codec.fc.fraction"),
    (base_config(optimizer={"kind": "sgd", "lr": NAN}), "optimizer.lr"),
    (base_config(optimizer={"kind": "sgd", "lr": INF}), "optimizer.lr"),
    (base_config(optimizer={"kind": "sgd", "lr": 0.1, "momentum": NAN}), "optimizer.momentum"),
    (base_config(optimizer={"kind": "adam", "lr": 0.01, "beta1": NAN}), "optimizer.beta1"),
    (base_config(optimizer={"kind": "adam", "lr": 0.01, "eps": INF}), "optimizer.eps"),
    (base_config(dataset={"kind": "gaussians", "classes": 4, "dim": 16, "train": 128,
                          "test": 64, "separation": NAN}), "dataset.separation"),
    (cnn_config(dataset={"kind": "digits", "train": 64, "test": 32, "noise": NAN}),
     "dataset.noise"),
], ids=["scale_factor_nan", "topk_fraction_nan", "lr_nan", "lr_inf", "momentum_nan",
        "adam_beta1_nan", "adam_eps_inf", "separation_nan", "digits_noise_nan"])
def test_cli_non_finite_number_exits_2(tmp_path, capsys, cfg, field):
    # json writes and reads the NaN and Infinity literals
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config error at {field}: expected a finite number")
    assert not (tmp_path / "o").exists()


HUGE = 10**400  # json writes and reads it as an integer literal, beyond float range


@pytest.mark.parametrize("cfg, field", [
    (base_config(optimizer={"kind": "sgd", "lr": HUGE}), "optimizer.lr"),
    (base_config(optimizer={"kind": "sgd", "lr": -HUGE}), "optimizer.lr"),
    (base_config(optimizer={"kind": "sgd", "lr": 0.1, "momentum": HUGE}), "optimizer.momentum"),
    (base_config(optimizer={"kind": "adam", "lr": 0.01, "beta2": -HUGE}), "optimizer.beta2"),
    (base_config(optimizer={"kind": "adam", "lr": 0.01, "eps": HUGE}), "optimizer.eps"),
    (base_config(codec={"fc": {"kind": "adacomp", "scale_factor": HUGE}}), "codec.fc.scale_factor"),
    (base_config(codec={"fc": {"kind": "topk", "fraction": HUGE}}), "codec.fc.fraction"),
    (base_config(dataset={"kind": "gaussians", "classes": 4, "dim": 16, "train": 128,
                          "test": 64, "separation": HUGE}), "dataset.separation"),
    (cnn_config(dataset={"kind": "digits", "train": 64, "test": 32, "noise": HUGE}),
     "dataset.noise"),
], ids=["lr", "lr_negative", "momentum", "adam_beta2_negative", "adam_eps", "scale_factor",
        "topk_fraction", "separation", "digits_noise"])
def test_cli_integer_beyond_float_range_exits_2(tmp_path, capsys, cfg, field):
    path = write_config(tmp_path, cfg)
    assert str(HUGE) in path.read_text()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config error at {field}: expected a finite number")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_integer_literal_too_long_to_read_exits_2(tmp_path, capsys):
    # where int() limits the digits it converts (PYTHONINTMAXSTRDIGITS), json.loads
    # refuses the literal; where it does not, the literal is an int beyond float range
    path = write_config(tmp_path, base_config(optimizer={"kind": "sgd", "lr": 0.25}))
    path.write_text(path.read_text().replace("0.25", "1" + "0" * 5000))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("error: config error at config: invalid JSON: ",
                           "error: config error at optimizer.lr: expected a finite number"))
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cfg, field, message", [
    (base_config(model={"kind": "mlp", "input_dim": 16, "hidden": [True], "classes": 4}),
     "model.hidden", "expected a list of positive integers"),
    (cnn_config(conv_maps=[True]), "model.conv_maps", "expected a list of positive integers"),
    (cnn_config(conv_maps=[], image_hw=[28, True]), "model.image_hw", "expected [height, width]"),
    (base_config(rg_histogram_epochs=[True]), "config.rg_histogram_epochs",
     "expected a list of epoch numbers"),
    (base_config(rg_histogram_epochs=[5]), "config.rg_histogram_epochs",
     "epoch 5 is beyond the last epoch, 1"),
    (base_config(optimizer={"kind": "adam", "lr": 0.01, "eps": 0}), "optimizer.eps",
     "must be > 0"),
], ids=["hidden_bool", "conv_maps_bool", "image_hw_bool", "hist_epoch_bool",
        "hist_epoch_beyond_epochs", "adam_eps_zero"])
def test_cli_list_entry_or_eps_the_run_cannot_use_exits_2(tmp_path, capsys, cfg, field, message):
    # a bool is an int to isinstance, but never a size or an epoch number
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config error at {field}: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_sweep(tmp_path):
    cfg = base_config(codec={"fc": {"kind": "adacomp", "bin_size": 8}})
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--axis", "L_T",
                 "--values", "8,32", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "value,final_test_error,mean_compression_rate,status"
    assert len(lines) == 3
    assert (out / "L_T-8" / "summary.json").exists()
    assert (out / "L_T-32" / "summary.json").exists()


def test_cli_sweep_records_per_run_failures_and_continues(tmp_path):
    cfg = base_config()  # learners=2: minibatch 33 will fail divisibility
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep2"
    assert main(["sweep", "--config", str(path), "--axis", "minibatch",
                 "--values", "33,32", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert "error" in lines[1]
    assert lines[2].endswith("ok")


@pytest.mark.parametrize("axis, value, field", [
    ("minibatch", 0, "config.minibatch"),
    ("minibatch", -4, "config.minibatch"),
    ("minibatch", 256, "config.minibatch"),  # more than the 128 training samples
    ("learners", 0, "config.learners"),
    ("learners", 3, "config.minibatch"),
    ("L_T", 0, "codec.fc.bin_size"),
    ("L_T", 16385, "codec.fc.bin_size"),
])
def test_sweep_records_a_named_config_error_and_goes_on(tmp_path, axis, value, field):
    cfg = ExperimentConfig.from_dict(base_config(codec={"fc": {"kind": "adacomp", "bin_size": 8}}))
    good = {"minibatch": 32, "learners": 2, "L_T": 8}[axis]
    rows = sweep(cfg, axis, [value, good], tmp_path)
    assert rows[0]["status"].startswith(f"error: config error at {field}: ")
    assert rows[1]["status"] == "ok"
    assert not (tmp_path / f"{axis}-{value}").exists()
    assert (tmp_path / f"{axis}-{good}" / "metrics.csv").exists()


def test_cli_run_that_needs_more_memory_than_the_host_has_exits_2(tmp_path, capsys, monkeypatch):
    def unable(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(runner, "synth_gaussians", unable)
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: the run needs more memory than this host has: "
                   "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n")
    assert not (tmp_path / "o").exists()


def test_sweep_records_a_run_out_of_memory_and_goes_on(tmp_path, monkeypatch):
    run = runner.run

    def short_of_memory_at_64(cfg, out_dir):
        if cfg.minibatch == 64:
            raise MemoryError("Unable to allocate 1.00 TiB")
        return run(cfg, out_dir)

    monkeypatch.setattr(runner, "run", short_of_memory_at_64)
    rows = sweep(ExperimentConfig.from_dict(base_config()), "minibatch", [64, 32], tmp_path)
    assert [r["status"] for r in rows] == ["error: Unable to allocate 1.00 TiB", "ok"]


def test_sweep_lets_a_programming_error_propagate(tmp_path, monkeypatch):
    def broken(cfg, out_dir):
        raise RuntimeError("a bug inside one run")

    monkeypatch.setattr(runner, "run", broken)
    with pytest.raises(RuntimeError, match="a bug inside one run"):
        sweep(ExperimentConfig.from_dict(base_config()), "minibatch", [32], tmp_path)
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_sweep_records_a_run_directory_it_cannot_make_and_goes_on(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "minibatch-32").write_text("a file where the run directory goes")
    assert main(["sweep", "--config", str(path), "--axis", "minibatch",
                 "--values", "32,64", "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").open()))
    assert rows[0]["status"].startswith("error: [Errno 17] File exists")
    assert str(out / "minibatch-32") in rows[0]["status"]
    assert rows[1]["status"] == "ok"
    assert "minibatch=32: test error -, rate - [error: " in capsys.readouterr().out


def test_cli_sweep_bad_values(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["sweep", "--config", str(path), "--axis", "L_T",
                 "--values", "a,b", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("kind", [k for k, table in SCHEMA["codec"].items() if "bin_size" not in table])
def test_cli_L_T_sweep_of_codecs_without_a_bin_size_exits_2_before_any_run(tmp_path, capsys, kind):
    cfg = table_config("codec", kind)["codec"]["fc"]
    path = write_config(tmp_path, base_config(codec={"conv": cfg, "fc": cfg}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--axis", "L_T",
                 "--values", "8,32", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config error at codec: no codec takes a bin_size")
    assert not out.exists()


def test_cli_sweep_of_repeated_values_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, base_config(codec={"fc": {"kind": "adacomp", "bin_size": 8}}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--axis", "L_T",
                 "--values", "8,32,8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --values repeats [8]")
    assert not out.exists()


def test_cli_rerun_reproduces_metrics_bytes(tmp_path):
    cfg = base_config(codec={"fc": {"kind": "adacomp", "bin_size": 16}}, epochs=2)
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_rg_histogram_export(tmp_path):
    cfg = base_config(codec={"fc": {"kind": "adacomp", "bin_size": 16}},
                      rg_histogram_epochs=[1])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "hist"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "rg_hist_epoch1.csv").read_text().strip().splitlines()
    assert lines[0] == "layer,bucket,lo,hi,count"
    # 64 buckets per parameterized layer
    assert len(lines) == 1 + 64 * 2


# ------------------------------------------------------------------ schema

# the fuzz's own caps, which keep every run tiny; every other bound is the table's
CAPS = {"classes": 5, "dim": 11, "train": 64, "test": 32, "shift": 3, "task_seed": 3,
        "hidden": 8, "conv_maps": 4, "fc_hidden": 8, "bin_size": 600, "learners": 4,
        "epochs": 2, "seed": 2**32, "separation": 8.0, "noise": 1.0, "lr": 1.0, "eps": 1.0}
# each bound: the direction its invalid values lie in, and whether the bound itself is valid
EDGES = {"minimum": (-1, True), "maximum": (1, True), "above": (-1, False), "below": (1, False)}


def edges(field):
    """(value, valid) pairs at each of a table field's bounds: the last valid
    value and the first invalid one."""
    assert set(EDGES) == set(BOUNDS)
    step = (lambda x, d: x + d) if field.type == "int" else (lambda x, d: math.nextafter(x, d * INF))
    pairs = []
    for bound, (out, inclusive) in EDGES.items():
        limit = getattr(field, bound)
        if limit is not None:
            pairs += ([(limit, True), (step(limit, out), False)] if inclusive
                      else [(step(limit, -out), True), (limit, False)])
    return pairs


def valid_value(field):
    if field.type in ("int", "number"):
        return next(value for value, valid in edges(field) if valid)
    return {"ints": [1], "path": "unused.idx", "bool": False}[field.type]


def table_config(section=None, kind=None):
    """A valid config built from the table alone: the first kind of each
    section, or `kind` for `section`, with each required field at a valid value."""
    def entry(name):
        k = kind if name == section else next(iter(SCHEMA[name]))
        return {"kind": k, **{n: valid_value(f) for n, f in SCHEMA[name][k].items()
                              if f.default is REQUIRED}}
    cfg = {"codec": {layer: entry("codec") for layer in DEFAULT_CODEC}}
    for name, field in TOP_LEVEL.items():
        if field.type == "section" and field.default is REQUIRED:
            cfg[name] = entry(name)
        elif field.default is REQUIRED:
            cfg[name] = valid_value(field)
    return cfg


BOUNDED = [(section, kind, name, field)
           for section, kinds in {**SCHEMA, "config": {None: TOP_LEVEL}}.items()
           for kind, table in kinds.items() for name, field in table.items()
           if any(getattr(field, bound) is not None for bound in BOUNDS)]


@pytest.mark.parametrize("section, kind, name, field", BOUNDED,
                         ids=[".".join(filter(None, b[:3])) for b in BOUNDED])
def test_every_bound_in_the_table_accepts_its_edge_and_names_the_field_past_it(
        section, kind, name, field):
    path = {"config": "config", "codec": "codec.fc"}.get(section, section)

    def at_path(cfg):
        return cfg if section == "config" else cfg["codec"]["fc"] if section == "codec" else cfg[section]

    for value, valid in edges(field):
        cfg = table_config(section, kind)
        at_path(cfg)[name] = value
        if valid:
            assert at_path(asdict(ExperimentConfig.from_dict(cfg)))[name] == value
        else:
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig.from_dict(cfg)
            assert exc.value.field == f"{path}.{name}"


def scale_factor_in_3_to_4(cfg):
    """A fuzzed codec scale factor in (3, 4], other than the first float past 3."""
    return any(isinstance(e.get("scale_factor"), float) and 3.0 < e["scale_factor"] <= 4.0
               and e["scale_factor"] != math.nextafter(3.0, INF) for e in cfg["codec"].values())


def test_a_bound_changed_in_the_table_moves_the_validator_and_the_fuzz(monkeypatch):
    search = settings(max_examples=200, database=None, derandomize=True, phases=[Phase.generate])
    find(_fuzz_configs(), scale_factor_in_3_to_4, settings=search)
    table = SCHEMA["codec"]["adacomp"]
    monkeypatch.setitem(table, "scale_factor", dataclasses.replace(table["scale_factor"], maximum=3.0))
    cfg = table_config("codec", "adacomp")
    cfg["codec"]["fc"]["scale_factor"] = 3.5
    with pytest.raises(ConfigError, match="at codec.fc.scale_factor: must be <= 3.0, got 3.5"):
        ExperimentConfig.from_dict(cfg)
    with pytest.raises(NoSuchExample):
        find(_fuzz_configs(), scale_factor_in_3_to_4, settings=search)


# ------------------------------------------------------------------ fuzzing

ODD_NUMBERS = [0, -0.0, 1, -1, 1e-320, 5e-324, 1e308, -1e308, NAN, INF, -INF, HUGE]


def in_bounds(name, field):
    """Values of a table field within its bounds and the fuzz's cap."""
    if field.type == "ints":
        return st.lists(st.integers(1, CAPS[name]), max_size=2)
    low = field.above if field.minimum is None else field.minimum
    high = min(b for b in (CAPS.get(name), field.maximum, field.below) if b is not None)
    if field.type == "int":
        return st.integers(low, high)
    return st.floats(low, high, exclude_min=field.minimum is None, exclude_max=high == field.below)


def odd_values(field):
    """Values at or past a table field's bounds; for a number, non-finite or huge ones too."""
    if field.type == "ints":
        return st.sampled_from([[0], [True]])
    return st.sampled_from([value for value, _ in edges(field)]
                           + (ODD_NUMBERS if field.type == "number" else []))


@st.composite
def _fuzz_configs(draw):
    """Configs around the space the validator accepts, read from its table:
    every model, codec and optimizer kind and every dataset kind that reads
    no file, with each field within the table's bounds and the caps above.
    One value in twenty is off the usual: at or just past one of the table's
    bounds, non-finite or huge, or a model field that does not fit the data."""
    def usual(value, odd):
        return draw(odd if draw(st.integers(0, 19)) == 7 else value)

    def fields(table, **fit):
        """Each field of a table drawn, or set by its `fit` function to fit the data."""
        out = {}
        for name, field in table.items():
            out[name] = (fit[name](out) if name in fit
                         else usual(in_bounds(name, field), odd_values(field)))
        return out

    def section(name, kind, **fit):
        return {"kind": kind, **fields(SCHEMA[name][kind], **fit)}

    kind = draw(st.sampled_from([k for k, table in SCHEMA["dataset"].items()
                                 if all(f.type != "path" for f in table.values())]))
    # the gaussians generator needs dim, train and test of at least classes
    at_least_classes = {name: lambda c, name=name: usual(st.integers(c["classes"], CAPS[name]),
                                                         st.just(c["classes"] - 1))
                        for name in ("dim", "train", "test") if kind == "gaussians"}
    dataset = section("dataset", kind, **at_least_classes)
    classes = dataset.get("classes", 10)  # the digits are ten classes of 1x28x28 images
    features = [dataset["dim"]] if "dim" in dataset else [1, 28, 28]
    # a cnn needs images: one on vectors is an odd draw
    kinds = list(SCHEMA["model"]) if len(features) == 3 else ["mlp"]
    model = section("model", usual(st.sampled_from(kinds), st.sampled_from(list(SCHEMA["model"]))),
                    input_dim=lambda _: usual(st.just(math.prod(features)), st.just(3)),
                    in_maps=lambda _: usual(st.just(1), st.just(2)),
                    classes=lambda _: usual(st.sampled_from([classes, classes + 1]), st.just(2)),
                    image_hw=lambda _: usual(st.just([28, 28]), st.sampled_from([[16, 16], [6, 6]])))
    codec = {layer: section("codec", draw(st.sampled_from(list(SCHEMA["codec"]))))
             for layer in DEFAULT_CODEC}
    optimizer = section("optimizer", draw(st.sampled_from(list(SCHEMA["optimizer"]))))
    top = fields({name: f for name, f in TOP_LEVEL.items() if f.type != "section"},
                 minibatch=lambda c: c["learners"] * draw(st.integers(1, 8)),
                 rg_histogram_epochs=lambda c: draw(st.lists(st.integers(1, max(1, c["epochs"])),
                                                             max_size=2)))
    return {"model": model, "dataset": dataset, "optimizer": optimizer, "codec": codec, **top}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=250, deadline=timedelta(seconds=10), derandomize=True)
@given(cfg=_fuzz_configs())
def test_cli_run_of_a_fuzzed_config_exits_0_2_or_3(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        assert main(["run", "--config", str(path), "--out", str(Path(tmp) / "o")]) in (0, 2, 3)


# a valid config as compact JSON: a byte flip changes a number's digits but
# cannot add one, so every run it leaves valid stays tiny
VALID_CONFIG_BYTES = json.dumps(base_config(), separators=(",", ":")).encode()
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3\x28", b"\xe2\x82", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]


@st.composite
def _fuzz_config_bytes(draw):
    """A valid config file truncated, with one or two bytes replaced (any
    byte, or one digit by another, which keeps it JSON), or with a sequence
    that is not UTF-8 inserted."""
    data = bytearray(VALID_CONFIG_BYTES)
    how = draw(st.sampled_from(["truncate", "flip", "digit", "not_utf8"]))
    if how == "truncate":
        return bytes(data[:draw(st.integers(0, len(data) - 1))])
    if how in ("flip", "digit"):
        digits = [i for i, b in enumerate(data) if chr(b).isdigit()]
        for _ in range(draw(st.integers(1, 2))):
            if how == "flip":
                data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
            else:
                data[draw(st.sampled_from(digits))] = draw(st.sampled_from(b"0123456789"))
        return bytes(data)
    at = draw(st.integers(0, len(data)))
    return bytes(data[:at]) + draw(st.sampled_from(NOT_UTF8)) + bytes(data[at:])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=timedelta(seconds=10), derandomize=True)
@given(raw=_fuzz_config_bytes())
def test_cli_run_of_fuzzed_config_bytes_exits_0_2_or_3(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_bytes(raw)
        assert main(["run", "--config", str(path), "--out", str(Path(tmp) / "o")]) in (0, 2, 3)


# IDX header fields at the edges: empty, one, and size claims of gigabytes
# that only a few-byte file ever makes
IDX_ODD_DIMS = [0, 1, 2**31, 2**32 - 1]


def _fuzz_idx_bytes(draw, odd, magic, dims, payload):
    """An IDX file of ``dims`` and ``payload``, each part now and then off the
    usual: another magic, a dim at an edge, the payload truncated or extended,
    or the header cut short."""
    if odd():
        magic = draw(st.sampled_from([IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC]) | st.integers(0, 2**32 - 1))
    dims = [draw(st.sampled_from(IDX_ODD_DIMS)) if odd() else d for d in dims]
    if odd():
        payload = payload[:draw(st.integers(0, len(payload)))] + bytes(draw(st.integers(0, 3)))
    header = struct.pack(f">{1 + len(dims)}I", magic, *dims)
    if odd():
        header = header[:draw(st.integers(0, len(header)))]
    return header + payload


@st.composite
def _fuzz_idx_runs(draw):
    """The four IDX files of a run around two well-formed pairs of tiny
    images, and a config that reads them. Now and then a file is damaged as
    `_fuzz_idx_bytes` does, a set holds 0 or 1 images, a label is at or above
    `classes`, or the model does not fit the images."""
    def odd():
        return draw(st.integers(0, 19)) == 7

    classes, rows, cols = draw(st.integers(2, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    files = {}
    for split in ("train", "test"):
        n = draw(st.integers(0, 1)) if odd() else draw(st.integers(6, 8))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pixels = rng.integers(0, 256, n * rows * cols, dtype=np.uint8).tobytes()
        labels = rng.integers(0, classes, n, dtype=np.uint8)
        if n and odd():
            labels[draw(st.integers(0, n - 1))] = draw(st.integers(classes, 255))
        labels = labels.tobytes()
        files[f"{split}_images"] = _fuzz_idx_bytes(draw, odd, IDX_IMAGES_MAGIC, [n, rows, cols], pixels)
        files[f"{split}_labels"] = _fuzz_idx_bytes(draw, odd, IDX_LABELS_MAGIC, [n], labels)
    hw = draw(st.sampled_from([[1, 1], [rows + 1, cols]])) if odd() else [rows, cols]
    model = draw(st.sampled_from([
        {"kind": "mlp", "input_dim": hw[0] * hw[1], "hidden": [4], "classes": classes},
        {"kind": "cnn", "in_maps": 1, "conv_maps": [], "fc_hidden": 4, "classes": classes,
         "image_hw": hw}]))
    learners = draw(st.integers(1, 2))
    cfg = base_config(model=model, learners=learners, minibatch=learners * draw(st.integers(1, 3)),
                      dataset={"kind": "idx", "classes": draw(st.integers(2, 5)) if odd() else classes,
                               "center": draw(st.booleans())})
    return files, cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=timedelta(seconds=10), derandomize=True)
@given(case=_fuzz_idx_runs())
def test_cli_run_of_fuzzed_idx_files_exits_0_2_or_3(tmp_path_factory, case):
    files, cfg = case
    tmp = tmp_path_factory.mktemp("idx")
    for name, raw in files.items():
        (tmp / f"{name}.idx").write_bytes(raw)
        cfg["dataset"][name] = str(tmp / f"{name}.idx")
    path = write_config(tmp, cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp / "o")]) in (0, 2, 3)


@st.composite
def _fuzz_sweeps(draw):
    """A sweep's codec, axis and --values around the space the validator
    accepts: each axis's table bounds and the values just past them, the
    divisors of the minibatch and values past the training set, huge ones,
    repeats, and now and then a token that is not an integer."""
    kind = draw(st.sampled_from(list(SCHEMA["codec"])))
    codec = {"kind": kind, **{n: valid_value(f) for n, f in SCHEMA["codec"][kind].items()
                              if f.default is REQUIRED}}
    axis = draw(st.sampled_from(runner.SWEEP_AXES))
    field = SCHEMA["codec"]["adacomp"]["bin_size"] if axis == "L_T" else TOP_LEVEL[axis]
    near = sorted({value for value, _ in edges(field)} | {-1, 2, 3, 4, 8, 17, 2**63, 10**30})
    values = [str(v) for v in draw(st.lists(st.sampled_from(near), min_size=1, max_size=3, unique=True))]
    if draw(st.integers(0, 9)) == 7:
        odd = st.sampled_from([values[0], "", " ", "x", "1.5", "0x10"])
        values.insert(draw(st.integers(0, len(values))), draw(odd))
    # 16 samples in minibatches of 8 for 2 learners: 2, 4 and 8 divide it, 17 is past the data
    cfg = base_config(codec={"fc": codec}, minibatch=8,
                      dataset={"kind": "gaussians", "classes": 4, "dim": 16, "train": 16, "test": 8})
    return cfg, axis, ",".join(values)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=timedelta(seconds=10), derandomize=True)
@given(case=_fuzz_sweeps())
def test_cli_sweep_of_fuzzed_values_exits_0_2_or_3(tmp_path_factory, case):
    cfg, axis, values = case
    tmp = tmp_path_factory.mktemp("sweep")
    path = write_config(tmp, cfg)
    # "--values=-1,2": argparse takes a separate "-1,2" for an option
    assert main(["sweep", "--config", str(path), "--axis", axis, f"--values={values}",
                 "--out", str(tmp / "o")]) in (0, 2, 3)
