"""Time one training step across learner counts: the scaling curve.

  python3 scripts/scaling.py
  python3 scripts/scaling.py --parent ../adacomp-parent --out SCALING_<PR>.json

Builds each cluster with ``runner.build_cluster`` and times
``Cluster.sync_step`` for the CNN [8, 16] with fc 64 on digits and the 1%
top-k MLP 64-256-256-10 on gaussians, each at 1, 8, 32 and 64 learners,
with a global batch of 128 and seed 3. One worker process, with BLAS
pinned to one thread, imports this checkout's ./src/adacomp as the module
``adacomp_change`` and, with ``--parent``, that checkout's as
``adacomp_parent``. At each model and learner count it builds one cluster
per side and alternates their steps, the parent first on even steps, so
that the host's drift falls on both sides alike. A side's figure is its
median ms per step over the ``--steps`` timed steps after 3 warm-up steps:
steps 3-11 by default. With ``--parent`` the script also gives the median,
min and max over the timed steps of the ratio change/parent of the two
sides' same step. It prints these per model and learner count, and with
``--out`` writes them and every timed step as JSON. It is a measurement,
not a gate: compare the two sides of one run, not figures across runs.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from pinned import run_pinned

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


def load(checkout: Path, name: str):
    """The ``adacomp`` package of ``checkout`` imported as the module ``name``,
    beside any other tree's under another name."""
    src = checkout / "src" / "adacomp"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def interleave(sides: dict[str, Path], learners: list[int], steps: int) -> dict:
    """The file each side's package was loaded from, and side -> model ->
    learner count -> ms of each timed ``sync_step``, the sides' steps
    alternated in this process."""
    sources = {side: load(checkout, f"adacomp_{side}").__file__ for side, checkout in sides.items()}
    runners = {side: importlib.import_module(f"adacomp_{side}.runner") for side in sides}
    configs = {side: importlib.import_module(f"adacomp_{side}.config") for side in sides}
    times: dict = {side: {} for side in sides}
    for name, spec in MODELS.items():
        train = {}
        for n in learners:
            clusters = {}
            for side, runner in runners.items():
                cfg = configs[side].ExperimentConfig.from_dict(
                    {**spec, "optimizer": {"kind": "sgd", "lr": 0.05}, "minibatch": GLOBAL_BATCH,
                     "epochs": 1, "learners": n, "seed": SEED})
                if side not in train:
                    train[side] = runner.build_datasets(cfg)[0]
                clusters[side] = runner.build_cluster(cfg, train[side])
            ms: dict[str, list[float]] = {side: [] for side in sides}
            for step in range(WARMUP + steps):
                for side in list(sides) if step % 2 == 0 else list(sides)[::-1]:
                    cluster = clusters[side]
                    if step % cluster.steps_per_epoch == 0:
                        cluster.start_epoch(1 + step // cluster.steps_per_epoch)
                    start = perf_counter()
                    cluster.sync_step()
                    ms[side].append((perf_counter() - start) * 1e3)
            for side in sides:
                times[side].setdefault(name, {})[str(n)] = ms[side][WARMUP:]
    return {"sources": sources, "times": times}


def run_worker(parent: Path | None, learners: list[int], steps: int) -> dict:
    """``interleave`` in a fresh process with one BLAS thread."""
    args = ["--worker", "--learners", ",".join(map(str, learners)), "--steps", str(steps)]
    if parent is not None:
        args += ["--parent", str(parent)]
    return run_pinned(Path(__file__).resolve(), args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--learners", default="1,8,32,64", help="comma-separated learner counts")
    parser.add_argument("--steps", type=int, default=9, help=f"timed steps after {WARMUP} untimed ones")
    parser.add_argument("--out", type=Path, help="write both sides' timed steps here as JSON")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    learners = [int(v) for v in args.learners.split(",")]
    if args.steps < 1 or min(learners) < 1:
        parser.error("need --steps and every learner count at least 1")
    if any(GLOBAL_BATCH % n for n in learners):
        parser.error(f"every learner count must divide the global batch of {GLOBAL_BATCH}")
    parent = None if args.parent is None else args.parent.resolve()
    if args.worker:
        sides = {"change": ROOT} if parent is None else {"parent": parent, "change": ROOT}
        print(json.dumps(interleave(sides, learners, args.steps)))
        return 0

    result = run_worker(parent, learners, args.steps)
    times = result["times"]
    medians = {side: {model: {n: statistics.median(ms) for n, ms in by_n.items()}
                      for model, by_n in by_model.items()} for side, by_model in times.items()}
    ratios: dict = {}
    if parent is not None:
        for model in MODELS:
            for n, parent_ms in times["parent"][model].items():
                r = [c / p for c, p in zip(times["change"][model][n], parent_ms)]
                ratios.setdefault(model, {})[n] = {"median": statistics.median(r),
                                                   "min": min(r), "max": max(r)}
    print(f"median ms per sync_step, sides alternated in one process (steps {WARMUP}-"
          f"{WARMUP + args.steps - 1}, global batch {GLOBAL_BATCH}, seed {SEED})")
    for model in MODELS:
        for n in map(str, learners):
            line = f"{model} {n:>3} learners: " + "  ".join(
                f"{side} {medians[side][model][n]:8.2f}" for side in times)
            if ratios:
                r = ratios[model][n]
                line += f"  ratio {r['median']:.3f} ({r['min']:.3f}-{r['max']:.3f})"
            print(line)
    if args.out is not None:
        settings = {"global_batch": GLOBAL_BATCH, "seed": SEED, "learners": learners,
                    "warmup": WARMUP, "steps": args.steps,
                    "unit": "ms per sync_step; ratio is change/parent of the same step"}
        args.out.write_text(json.dumps({"settings": settings, "median": medians, "ratio": ratios,
                                        "steps": times}, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
