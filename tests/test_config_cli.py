import json
from pathlib import Path

import pytest

from adacomp.cli import main
from adacomp.config import ConfigError, ExperimentConfig
from adacomp.data import synth_digits_idx


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
    cfg = base_config(codec={"fc": {"kind": "adacomp", "bin_size": 99999}})
    with pytest.raises(ConfigError, match="codec.fc.bin_size"):
        ExperimentConfig.from_dict(cfg)


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


@pytest.mark.parametrize("value", ["x", "1.5", "", "0", "-2"])
def test_cli_rejects_bad_thread_count(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("ADACOMP_THREADS", value)
    path = write_config(tmp_path, base_config())
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "ADACOMP_THREADS" in capsys.readouterr().err
    assert not out.exists()


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
