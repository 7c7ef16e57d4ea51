"""Time one training step across learner counts: the scaling curve.

  python3 scripts/scaling.py
  python3 scripts/scaling.py --parent ../adacomp-parent --out SCALING_<PR>.json

Builds each cluster with ``runner.build_cluster`` and times
``Cluster.sync_step`` in process, for the CNN [8, 16] with fc 64 on digits
and the 1% top-k MLP 64-256-256-10 on gaussians, each at 1, 8, 32 and 64
learners, with a global batch of 128 and seed 3. A figure is the median ms
per step over the ``--steps`` timed steps after 3 warm-up steps: steps
3-11 by default. This checkout runs 3 rounds, each a fresh process with
its ./src on the path and BLAS pinned to one thread; with ``--parent``
that checkout runs the same way, the two alternating, the parent first in
even rounds. The script prints, per model and learner count, each side's
median over the rounds and the change/parent ratio, and with ``--out``
writes every round of both sides as JSON. It is a measurement, not a gate:
the host's speed drifts, so compare the two sides of one run, not figures
across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
GLOBAL_BATCH = 128
SEED = 3
MODELS = {
    "cnn": {"model": {"kind": "cnn", "in_maps": 1, "conv_maps": [8, 16], "fc_hidden": 64,
                      "classes": 10},
            "dataset": {"kind": "digits", "train": 2048, "test": 512}},
    "mlp": {"model": {"kind": "mlp", "input_dim": 64, "hidden": [256, 256], "classes": 10},
            "dataset": {"kind": "gaussians", "classes": 10, "dim": 64, "train": 4096, "test": 512},
            "codec": {"fc": {"kind": "topk", "fraction": 0.01}}},
}
WARMUP = 3
ROUNDS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def curve(learners: list[int], steps: int) -> dict[str, dict[str, float]]:
    """model -> learner count -> median ms of ``sync_step`` over the timed
    steps, run on the ``adacomp`` that this process imports."""
    from adacomp import runner
    from adacomp.config import ExperimentConfig

    out = {}
    for name, spec in MODELS.items():
        out[name] = {}
        train = None
        for n in learners:
            cfg = ExperimentConfig.from_dict({**spec, "optimizer": {"kind": "sgd", "lr": 0.05},
                                              "minibatch": GLOBAL_BATCH, "epochs": 1,
                                              "learners": n, "seed": SEED})
            if train is None:
                train = runner.build_datasets(cfg)[0]
            cluster = runner.build_cluster(cfg, train)
            times = []
            for step in range(WARMUP + steps):
                if step % cluster.steps_per_epoch == 0:
                    cluster.start_epoch(1 + step // cluster.steps_per_epoch)
                start = perf_counter()
                cluster.sync_step()
                times.append((perf_counter() - start) * 1e3)
            out[name][str(n)] = statistics.median(times[WARMUP:])
    return out


def run_side(checkout: Path, learners: list[int], steps: int) -> dict:
    """``curve`` in a fresh process that imports the program from ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), **dict.fromkeys(THREAD_VARS, "1")}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker",
                           "--learners", ",".join(map(str, learners)), "--steps", str(steps)],
                          cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--learners", default="1,8,32,64", help="comma-separated learner counts")
    parser.add_argument("--steps", type=int, default=9, help=f"timed steps after {WARMUP} untimed ones")
    parser.add_argument("--out", type=Path, help="write every round of both sides here as JSON")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    learners = [int(v) for v in args.learners.split(",")]
    if args.steps < 1 or min(learners) < 1:
        parser.error("need --steps and every learner count at least 1")
    if any(GLOBAL_BATCH % n for n in learners):
        parser.error(f"every learner count must divide the global batch of {GLOBAL_BATCH}")
    if args.worker:
        print(json.dumps(curve(learners, args.steps)))
        return 0

    sides = {"change": ROOT}
    if args.parent is not None:
        sides = {"parent": args.parent.resolve(), **sides}
    rounds: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(ROUNDS):
        for side in list(sides) if i % 2 == 0 else list(sides)[::-1]:
            rounds[side].append(run_side(sides[side], learners, args.steps))
            print(f"round {i + 1} {side} done", flush=True)

    medians = {side: {model: {n: statistics.median(r[model][n] for r in runs) for n in runs[0][model]}
                      for model in MODELS} for side, runs in rounds.items()}
    print(f"median ms per sync_step over {ROUNDS} rounds (steps {WARMUP}-"
          f"{WARMUP + args.steps - 1}, global batch {GLOBAL_BATCH}, seed {SEED})")
    for model in MODELS:
        for n in map(str, learners):
            line = f"{model} {n:>3} learners: " + "  ".join(
                f"{side} {medians[side][model][n]:8.2f}" for side in sides)
            if "parent" in sides:
                line += f"  ratio {medians['change'][model][n] / medians['parent'][model][n]:.3f}"
            print(line)
    if args.out is not None:
        settings = {"global_batch": GLOBAL_BATCH, "seed": SEED, "learners": learners,
                    "warmup": WARMUP, "steps": args.steps, "rounds": ROUNDS,
                    "unit": "ms per sync_step, median over the timed steps"}
        args.out.write_text(json.dumps({"settings": settings, "median": medians, "rounds": rounds},
                                       indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
