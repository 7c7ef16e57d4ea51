"""Self-tests of the benchmark: the tracer's self-time arithmetic, a short
smoke run of every workload run.py offers, traced and untraced, checked
against BENCHMARK.json, and two runs that must fail without printing a
result: one without the program's sources, one of ``all`` with tracing.

  python3 perfbench/selftest.py

Takes about a minute; exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

from run import WORKLOADS
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int, seconds: float = 1.0):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180, check=False)


def check_result(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: metrics printed {printed} but BENCHMARK.json has {expected}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {name} = {value} is not positive")
    return problems


def check_tracer() -> list[str]:
    """Nested spans: the parent's self time excludes its children, and
    restore() puts the original names back."""
    mod = types.SimpleNamespace(inner=lambda: sum(range(10000)))
    original = mod.inner
    tracer = Tracer()
    tracer.patch(mod, "inner", "inner")
    tracer.wrap("outer", lambda: (mod.inner(), mod.inner()))()
    tracer.restore()
    self_ns, calls = tracer.totals()
    [outer] = [s for s in tracer.spans if s[0] == "outer"]
    inner = [s for s in tracer.spans if s[0] == "inner"]
    problems = []
    if dict(calls) != {"outer": 1, "inner": 2}:
        problems.append(f"tracer: calls {dict(calls)}")
    if [s[3] for s in inner] != [tracer.spans.index(outer)] * 2:
        problems.append("tracer: inner spans do not name outer as parent")
    if self_ns["outer"] != (outer[2] - outer[1]) - sum(s[2] - s[1] for s in inner):
        problems.append("tracer: outer self time does not exclude its children")
    if mod.inner is not original:
        problems.append("tracer: restore() left a wrapper in place")
    return problems


def check_without_sources() -> list[str]:
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def check_all_untraced_only() -> list[str]:
    """Traced children would print no step_ms_p50 for the scaling line."""
    proc = run(ROOT, "all", 1)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"--workload all --trace 1: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    problems = check_tracer() + check_without_sources() + check_all_untraced_only()
    listed = {w["name"] for w in SPEC["workloads"]}
    if not listed <= set(WORKLOADS):
        problems.append(f"BENCHMARK.json lists workloads run.py lacks: {listed - set(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_result(workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest", "passed" if not problems else f"failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
