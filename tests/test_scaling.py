import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "scaling.py"
spec = importlib.util.spec_from_file_location("scaling", SCRIPT)
scaling = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scaling)


def test_both_sides_time_every_model_and_learner_count(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scaling, "ROUNDS", 1)
    out = tmp_path / "scaling.json"
    assert scaling.main(["--parent", str(ROOT), "--learners", "1,2", "--steps", "3",
                         "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["settings"]["learners"] == [1, 2]
    for side in ("parent", "change"):
        (only,) = result["rounds"][side]
        assert only == result["median"][side]
        assert set(only) == {"cnn", "mlp"}
        assert all(set(ms) == {"1", "2"} and min(ms.values()) > 0 for ms in only.values())
    assert "mlp   2 learners: parent" in capsys.readouterr().out


def test_a_learner_count_must_divide_the_global_batch():
    with pytest.raises(SystemExit):
        scaling.main(["--learners", "3"])
