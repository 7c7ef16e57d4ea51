import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# a stand-in for perfbench/run.py: step_ms_p50 is base + seed, and each run
# appends "<side> <seed>" to a shared order file
STUB = textwrap.dedent("""
    import argparse, json, sys
    from pathlib import Path
    p = argparse.ArgumentParser()
    for a in ("--workload", "--seed", "--seconds", "--trace"):
        p.add_argument(a)
    args = p.parse_args()
    seed = int(args.seed)
    with open({order!r}, "a") as f:
        f.write("{side} %d\\n" % seed)
    print("a table line")
    print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": {{
        "step_ms_p50": {{"value": {base} + seed, "unit": "ms"}},
        "peak_rss_mb": {{"value": 100.0, "unit": "MB"}}}}}}))
""")


def checkout(root: Path, side: str, base: float, order: Path) -> Path:
    (root / side / "perfbench").mkdir(parents=True)
    (root / side / "perfbench" / "run.py").write_text(STUB.format(order=str(order), side=side, base=base))
    return root / side


def test_pairs_alternate_and_write_the_lower_median_run(tmp_path, capsys):
    order = tmp_path / "order.txt"
    parent = checkout(tmp_path, "parent", 20.0, order)
    change = checkout(tmp_path, "change", 10.0, order)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "cnn-n1",
                             "--pairs", "4", "--seconds", "1", "--first-seed", "1", "--write", "99"]) == 0
    assert order.read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3", "change 4", "parent 4"]
    out = capsys.readouterr().out
    assert "step_ms_p50 (ms), better lower: change better in 4/4 pairs" in out
    assert "ratios 0.524 0.545 0.565 0.583" in out
    assert "parent median 22.5  q1 21.75  q3 23.25  IQR 1.5" in out
    # seeds 1-4 give 21-24 ms at the parent: the 2nd of 4 is 22 ms
    written = json.loads((change / "BENCH_99-parent.json").read_text())
    assert written["metrics"]["step_ms_p50"]["value"] == 22.0
    assert json.loads((change / "BENCH_99-change.json").read_text())["metrics"]["step_ms_p50"]["value"] == 12.0


def test_a_run_without_a_result_exits_2(tmp_path, capsys):
    order = tmp_path / "order.txt"
    parent = checkout(tmp_path, "parent", 20.0, order)
    change = tmp_path / "change"
    (change / "perfbench").mkdir(parents=True)
    (change / "perfbench" / "run.py").write_text("print('no json here')\n")
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "cnn-n1",
                             "--pairs", "2", "--seconds", "1", "--first-seed", "1"]) == 2
    assert "the change run gave no result" in capsys.readouterr().err


def test_write_needs_untraced_runs(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tmp_path), "--workload", "cnn-n1", "--seconds", "1",
                          "--first-seed", "1", "--trace", "1", "--write", "13"])
