import importlib.util
import json
import shutil
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "scaling.py"
spec = importlib.util.spec_from_file_location("scaling", SCRIPT)
scaling = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scaling)


def test_both_sides_time_every_model_and_learner_count(tmp_path, capsys, monkeypatch):
    # the parent side is a copy of the tree, so each side's source is known
    parent = tmp_path / "parent"
    shutil.copytree(ROOT / "src", parent / "src", ignore=shutil.ignore_patterns("__pycache__"))
    workers = []
    monkeypatch.setattr(scaling, "run_worker",
                        lambda *a, f=scaling.run_worker: workers.append(f(*a)) or workers[-1])
    out = tmp_path / "scaling.json"
    assert scaling.main(["--parent", str(parent), "--learners", "1,2", "--steps", "3",
                         "--out", str(out)]) == 0
    assert workers[0]["sources"] == {"parent": str(parent / "src" / "adacomp" / "__init__.py"),
                                     "change": str(ROOT / "src" / "adacomp" / "__init__.py")}
    result = json.loads(out.read_text())
    assert result["settings"]["learners"] == [1, 2]
    for side in ("parent", "change"):
        assert set(result["steps"][side]) == {"cnn", "mlp"}
        for model, by_n in result["steps"][side].items():
            assert set(by_n) == {"1", "2"}
            for n, ms in by_n.items():
                assert len(ms) == 3 and min(ms) > 0
                assert result["median"][side][model][n] == statistics.median(ms)
    for model, by_n in result["ratio"].items():
        for n, r in by_n.items():
            steps = [c / p for c, p in zip(result["steps"]["change"][model][n],
                                           result["steps"]["parent"][model][n])]
            assert r == {"median": statistics.median(steps), "min": min(steps), "max": max(steps)}
    printed = capsys.readouterr().out
    assert "mlp   2 learners: parent" in printed and "ratio" in printed


def test_without_a_parent_only_this_tree_runs(tmp_path, capsys):
    out = tmp_path / "scaling.json"
    assert scaling.main(["--learners", "2", "--steps", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result["steps"]) == {"change"} and result["ratio"] == {}
    assert "ratio" not in capsys.readouterr().out


def test_a_learner_count_must_divide_the_global_batch():
    with pytest.raises(SystemExit):
        scaling.main(["--learners", "3"])
