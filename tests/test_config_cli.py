import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adacomp
from adacomp.cli import main
from adacomp.codec import MAX_BIN_SIZE
from adacomp.config import ConfigError, ExperimentConfig
from adacomp.data import synth_digits_idx, write_idx
from adacomp.runner import sweep


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


def test_cli_sweep_bad_values(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["sweep", "--config", str(path), "--axis", "L_T",
                 "--values", "a,b", "--out", str(tmp_path / "x")]) == 2


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


# ------------------------------------------------------------------ fuzzing

ODD_NUMBERS = st.sampled_from([0, -0.0, 1, -1, 1e-320, 5e-324, 1e308, -1e308, NAN, INF, -INF, HUGE])


@st.composite
def _fuzz_configs(draw):
    """Configs around the space the validator accepts: both models, every
    codec, both optimizers, both synthetic datasets, tiny sizes. One value in
    ten is off the usual: a boundary, non-finite or huge number, or a model
    field that does not fit the data."""
    def usual(value, odd=ODD_NUMBERS):
        return draw(odd if draw(st.integers(0, 9)) == 7 else value)

    if draw(st.booleans()):
        classes = draw(st.integers(2, 5))
        dataset = {"kind": "gaussians", "classes": classes,
                   "dim": draw(st.integers(classes, classes + 6)),
                   "train": draw(st.integers(classes, 64)), "test": draw(st.integers(classes, 32)),
                   "separation": usual(st.floats(0, 8))}
        features = [dataset["dim"]]
    else:
        classes = 10
        dataset = {"kind": "digits", "train": draw(st.integers(1, 64)),
                   "test": draw(st.integers(1, 32)), "noise": usual(st.floats(0, 1)),
                   "shift": draw(st.integers(0, 3)), "task_seed": draw(st.integers(0, 3))}
        features = [1, 28, 28]
    model_classes = usual(st.sampled_from([classes, classes + 1]), st.just(2))
    images = len(features) == 3
    # a cnn needs images: one on gaussians is an odd draw
    if not usual(st.just(images and draw(st.booleans())), st.just(not images)):
        model = {"kind": "mlp", "input_dim": usual(st.just(math.prod(features)), st.just(3)),
                 "hidden": draw(st.lists(st.integers(1, 8), max_size=2)), "classes": model_classes}
    else:
        model = {"kind": "cnn", "in_maps": usual(st.just(1), st.just(2)),
                 "conv_maps": draw(st.lists(st.integers(1, 4), max_size=2)),
                 "fc_hidden": draw(st.integers(1, 8)), "classes": model_classes,
                 "image_hw": usual(st.just([28, 28]), st.sampled_from([[16, 16], [6, 6]]))}
    codecs = st.one_of(
        st.fixed_dictionaries({"kind": st.just("adacomp"),
                               "bin_size": st.one_of(st.integers(1, 600), st.just(MAX_BIN_SIZE)),
                               "scale_factor": st.floats(1, 4)}),
        st.fixed_dictionaries({"kind": st.just("ls"), "bin_size": st.integers(1, 600)}),
        st.fixed_dictionaries({"kind": st.just("topk"), "fraction": st.floats(1e-6, 1)}),
        st.fixed_dictionaries({"kind": st.sampled_from(["onebit", "identity"])}))
    codec = {kind: draw(codecs) for kind in ("conv", "fc")}
    for entry in codec.values():
        for key in ("scale_factor", "fraction"):
            if key in entry:
                entry[key] = usual(st.just(entry[key]))
    if draw(st.booleans()):
        optimizer = {"kind": "sgd", "lr": usual(st.floats(0, 1)), "momentum": usual(st.floats(0, 1))}
    else:
        optimizer = {"kind": "adam", "lr": usual(st.floats(0, 0.1)),
                     "beta1": usual(st.floats(0, 0.999)), "beta2": usual(st.floats(0, 0.9999)),
                     "eps": usual(st.floats(1e-12, 1))}
    learners = draw(st.integers(1, 4))
    epochs = draw(st.integers(1, 2))
    return {"model": model, "dataset": dataset, "optimizer": optimizer, "codec": codec,
            "learners": learners, "minibatch": learners * draw(st.integers(1, 8)),
            "epochs": epochs, "seed": draw(st.integers(0, 2**32)),
            "rg_histogram_epochs": draw(st.lists(st.integers(1, epochs), max_size=2))}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=250, deadline=timedelta(seconds=10), derandomize=True)
@given(cfg=_fuzz_configs())
def test_cli_run_of_a_fuzzed_config_exits_0_2_or_3(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), cfg)
        assert main(["run", "--config", str(path), "--out", str(Path(tmp) / "o")]) in (0, 2, 3)
