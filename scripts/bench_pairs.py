"""Run the benchmark as interleaved pairs of a parent and a change checkout.

  git worktree add ../adacomp-parent HEAD~
  python3 scripts/bench_pairs.py --parent ../adacomp-parent --workload cnn-n1 \\
      --pairs 10 --seconds 60 --first-seed 431 --write 13
  python3 scripts/bench_pairs.py --parent ../adacomp-parent --workload cnn-n1 \\
      --pairs 1 --seconds 20 --first-seed 7 --trace 1

Pair i runs ``perfbench/run.py`` once in each checkout, as a fresh process
with the checkout as its working directory, at seed ``first_seed + i``; the
parent runs first in even pairs and the change first in odd ones, so both
sides see the same drift of the host. Each run's last output line is its
result object. The script prints, for every metric the runs report, each
pair's change/parent ratio, each side's median and quartiles (inclusive
method), and in how many pairs the change was better by the direction
``BENCHMARK.json`` gives it. With ``--write PR`` it writes
``BENCH_<PR>-parent.json`` and ``BENCH_<PR>-change.json`` into the change
checkout: each is the result object of that side's run at the lower median
``step_ms_p50`` (the 5th of 10).
Exit code: 0 when every run checked correct, 1 when one did not, 2 when a
run gave no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One perfbench run in ``checkout``; its result object, or None if it gave none."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def directions(checkout: Path) -> dict[str, str]:
    """metric name -> "lower" or "higher", from the checkout's BENCHMARK.json"""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> list[str]:
    """Report lines: per metric, the pair ratios and each side's quartiles."""
    lines = []
    names = [n for n in runs["parent"][0]["metrics"] if n in runs["change"][0]["metrics"]]
    for name in names:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        unit = runs["parent"][0]["metrics"][name]["unit"]
        ratios = [c / p if p else float("nan") for p, c in pairs]
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        lines.append(f"{name} ({unit}), better {better.get(name, 'lower')}: "
                     f"change better in {wins}/{len(pairs)} pairs")
        lines.append("  ratios " + " ".join(f"{r:.3f}" for r in ratios))
        for side, values in zip(SIDES, zip(*pairs)):
            q1, med, q3 = quartiles(list(values))
            lines.append(f"  {side:<6} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  IQR {q3 - q1:.6g}")
    return lines


def lower_median_run(side_runs: list[dict]) -> dict:
    """The run at the lower median step_ms_p50: the 5th of 10 by that metric."""
    ranked = sorted(side_runs, key=lambda r: r["metrics"]["step_ms_p50"]["value"])
    return ranked[(len(ranked) - 1) // 2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=int, metavar="PR", help="write BENCH_<PR>-{parent,change}.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.write is not None and args.trace:
        parser.error("--write needs --trace 0: traced runs report no step_ms_p50")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    status = 0
    for i in range(args.pairs):
        seed = args.first_seed + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], args.workload, seed, args.seconds, args.trace)
            if result is None or not result["metrics"]:
                print(f"error: pair {i + 1} seed {seed}: the {side} run gave no result", file=sys.stderr)
                return 2
            if not result.get("correct") or result.get("failed"):
                status = 1
            runs[side].append(result)
            p50 = result["metrics"].get("step_ms_p50", {}).get("value")
            print(f"pair {i + 1} seed {seed} {side}: failed {result['failed']}/{result['attempted']}"
                  + (f", step_ms_p50 {p50:.3f} ms" if p50 is not None else ""), flush=True)

    print(f"{args.workload}, {args.pairs} pairs at {args.seconds:g} s, trace {args.trace}, "
          f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    print("\n".join(summarize(runs, directions(checkouts["change"]))))
    if args.write is not None:
        for side in SIDES:
            out = checkouts["change"] / f"BENCH_{args.write}-{side}.json"
            out.write_text(json.dumps(lower_median_run(runs[side])) + "\n")
            print(f"wrote {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
