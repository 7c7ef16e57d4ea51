"""Benchmark for the adacomp simulator.

  python3 perfbench/run.py --workload codec-rt --seed 1 --seconds 60 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 60

Run from the repository root; the program is imported from ./src. One
workload runs in this process: it prints a table of every end-to-end
metric (or, with --trace 1, runs an untraced and a traced pass and reports
per-layer metrics), then as its last line one JSON object with the keys
correct, attempted, failed and metrics. ``--workload all`` runs each
workload in a fresh process and ends with the cnn-n32 / cnn-n1 scaling
line; it takes --trace 0 only. Exit code: 0 when every output checked
correct, 1 when one did not, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("cnn-n1", "cnn-n32", "mlp-topk-n16", "codec-rt")
# one thread per pool, so the host's cores measure the program and not the scheduler
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "ADACOMP_THREADS")


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import adacomp  # only now: main() has pinned the thread pools first
    if SRC not in Path(adacomp.__file__).resolve().parents:
        print(f"error: adacomp imported from {adacomp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    out_dir = OUT / (args.workload + ("-traced" if args.trace else ""))
    out_dir.mkdir(parents=True, exist_ok=True)
    result = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    report = result.pop("report", None)
    if report is not None:
        print(f"{args.workload} seed {args.seed}: {report['runs'][0]} runs, "
              f"{report['setup_probes'][0]} set-up probes, {report['timed_steps'][0]} timed steps")
        for name, (value, unit) in report.items():
            print(f"  {name:<20} {_fmt(value):>12} {unit}")
    elif result["metrics"]:
        print(f"{args.workload} seed {args.seed} traced; spans in {out_dir / 'spans.jsonl'}")
        for name, m in result["metrics"].items():
            print(f"  {name:<24} {_fmt(m['value']):>12} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] and result["metrics"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, then the ROADMAP scaling line."""
    p50 = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            metrics = json.loads(lines[-1])["metrics"]
            if "step_ms_p50" in metrics:
                p50[name] = metrics["step_ms_p50"]["value"]
    if "cnn-n1" in p50 and "cnn-n32" in p50:
        print(f"scaling cnn-n32 / cnn-n1 step_ms_p50: {p50['cnn-n32']:.3f} ms / "
              f"{p50['cnn-n1']:.3f} ms = {p50['cnn-n32'] / p50['cnn-n1']:.3f}x")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all" and args.trace:
        # traced children print no step_ms_p50, so the scaling line would be lost
        parser.error("--workload all takes --trace 0 only")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "adacomp" / "__init__.py").is_file():
        print(f"error: no adacomp sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
