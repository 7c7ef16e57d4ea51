import importlib.util
import shutil
import types
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "memory_peaks.py"
spec = importlib.util.spec_from_file_location("memory_peaks", SCRIPT)
memory_peaks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(memory_peaks)

MIB = 2**20


def test_each_call_gets_its_own_absolute_peak_and_the_run_the_highest():
    def allocate(mib):
        return np.ones(mib * MIB, np.uint8)

    parts = types.SimpleNamespace(small=allocate, large=allocate)

    def run(cfg, out_dir):
        held = parts.small(2)              # held through the large call
        parts.large(8)
        del held
        allocate(12)                       # outside every watched call
        parts.small(1)

    peaks = memory_peaks.measure(run, None, None, [(parts, "small", "small"),
                                                   (parts, "large", "large")])
    assert parts.small is allocate and parts.large is allocate
    assert 2 * MIB <= peaks.calls["small"] < 3 * MIB
    assert 10 * MIB <= peaks.calls["large"] < 11 * MIB
    assert 12 * MIB <= peaks.whole < 13 * MIB


def test_with_a_parent_each_tree_runs_in_its_own_process(tmp_path, capsys, monkeypatch):
    # the parent side is a copy of the tree, so each side's source is known
    root = SCRIPT.parent.parent
    parent = tmp_path / "parent"
    shutil.copytree(root / "src", parent / "src", ignore=shutil.ignore_patterns("__pycache__"))
    workers = []
    monkeypatch.setattr(memory_peaks, "run_pinned",
                        lambda *a, f=memory_peaks.run_pinned: workers.append(f(*a)) or workers[-1])
    assert memory_peaks.main(["--parent", str(parent), "--seed", "7"]) == 0
    assert [w["source"] for w in workers] == [str(parent / "src" / "adacomp" / "__init__.py"),
                                              str(root / "src" / "adacomp" / "__init__.py")]
    before, after = (w["peaks"] for w in workers)
    assert list(before) == list(after) == list(memory_peaks.WORKLOADS)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == 3 * len(memory_peaks.WORKLOADS)
    for i, workload in enumerate(memory_peaks.WORKLOADS):
        b, a = before[workload], after[workload]
        assert len(b) == len(a) == 4 and min(b + a) > 0
        group = rows[3 * i:3 * i + 3]
        assert [row[1:-4] for row in group] == [["parent"], ["change"], ["change", "-", "parent"]]
        for row, figures in zip(group, [b, a, [x - y for x, y in zip(a, b)]]):
            assert row[0] == workload
            assert [float(f) for f in row[-4:]] == [round(f / MIB, 1) for f in figures]
