"""Print the tracemalloc peaks of each perfbench training workload.

  python3 scripts/memory_peaks.py            # seed 7
  python3 scripts/memory_peaks.py --seed 8
  python3 scripts/memory_peaks.py --parent ../adacomp-parent

Runs one epoch of ``cnn-n1``, ``cnn-n32`` and ``mlp-topk-n16``, configured
as ``perfbench/workloads.train_config`` builds them, through ``runner.run``
under tracemalloc, and prints in MiB the highest traced memory inside any
call of ``runner.build_datasets``, ``Cluster.sync_step`` and
``Cluster.evaluate``, and over the whole run. Each figure is absolute: it
counts what was already held when the call began. ``peak_rss_mb`` follows
heap layout as well as live bytes, so a claim about it needs these figures
beside it. Run from the repository root. Each tree is measured in a fresh
process that imports its ./src, with BLAS pinned to one thread as the
benchmark pins it: this checkout's, and with ``--parent`` that checkout's
too, whose rows are then printed above this tree's with the difference
change - parent below. Both trees run this checkout's perfbench configs.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

from pinned import run_pinned

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cnn-n1", "cnn-n32", "mlp-topk-n16")
WATCHED = ("build_datasets", "sync_step", "evaluate")
MIB = 2**20


class Peaks:
    """Tracemalloc peaks per watched call and over everything traced."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.whole = 0

    def fold(self) -> None:
        """Take the peak since the last reset into the whole-run figure."""
        self.whole = max(self.whole, tracemalloc.get_traced_memory()[1])

    def watch(self, owner, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so that each call records its own peak."""
        inner = getattr(owner, attr)

        def watched(*args, **kwargs):
            self.fold()
            tracemalloc.reset_peak()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.calls[name] = max(self.calls.get(name, 0), peak)
                self.whole = max(self.whole, peak)

        setattr(owner, attr, watched)


def measure(run, cfg, out_dir, watched) -> Peaks:
    """``run(cfg, out_dir)`` under tracemalloc with each (owner, attr, name)
    of ``watched`` wrapped; the wrappers are removed afterwards."""
    peaks = Peaks()
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in watched]
    for owner, attr, name in watched:
        peaks.watch(owner, attr, name)
    tracemalloc.start()
    try:
        run(cfg, out_dir)
        peaks.fold()
    finally:
        tracemalloc.stop()
        for owner, attr, inner in saved:
            setattr(owner, attr, inner)
    return peaks


def workload_peaks(tree: Path, seed: int) -> dict:
    """{"source": the file ``adacomp`` was imported from, under ``tree``/src,
    "peaks": workload -> bytes at the peak of each WATCHED call and of the
    whole run}; call once per process."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import adacomp
    from adacomp import runner, sim
    from workloads import train_config

    watched = [(runner, "build_datasets", "build_datasets"),
               (sim.Cluster, "sync_step", "sync_step"),
               (sim.Cluster, "evaluate", "evaluate")]
    figures = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            peaks = measure(runner.run, train_config(workload, seed), Path(tmp) / workload, watched)
            figures[workload] = [peaks.calls.get(n, 0) for n in WATCHED] + [peaks.whole]
    return {"source": adacomp.__file__, "peaks": figures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(workload_peaks(args.worker, args.seed)))
        return 0

    sides = {"change": ROOT} if args.parent is None else {"parent": args.parent.resolve(),
                                                         "change": ROOT}
    script = Path(__file__).resolve()
    figures = {side: run_pinned(script, ["--worker", str(tree), "--seed", str(args.seed)])["peaks"]
               for side, tree in sides.items()}
    if args.parent is not None:
        figures["change - parent"] = {w: [c - p for c, p in zip(figures["change"][w],
                                                                 figures["parent"][w])]
                                      for w in WORKLOADS}
    print(f"tracemalloc peak in MiB, seed {args.seed}")
    print(f"{'workload':<14}{'tree':<16}" + "".join(f"{n:>16}" for n in [*WATCHED, "whole run"]))
    for workload in WORKLOADS:
        for side, by_workload in figures.items():
            print(f"{workload:<14}{side:<16}"
                  + "".join(f"{f / MIB:>16.1f}" for f in by_workload[workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
