"""Print the tracemalloc peaks of each perfbench training workload.

  python3 scripts/memory_peaks.py            # seed 7
  python3 scripts/memory_peaks.py --seed 8

Runs one epoch of ``cnn-n1``, ``cnn-n32`` and ``mlp-topk-n16``, configured
as ``perfbench/workloads.train_config`` builds them, through ``runner.run``
under tracemalloc, and prints in MiB the highest traced memory inside any
call of ``runner.build_datasets``, ``Cluster.sync_step`` and
``Cluster.evaluate``, and over the whole run. Each figure is absolute: it
counts what was already held when the call began. ``peak_rss_mb`` follows
heap layout as well as live bytes, so a claim about it needs these figures
beside it. Run from the repository root; the program is imported from ./src,
and BLAS is pinned to one thread as the benchmark pins it.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cnn-n1", "cnn-n32", "mlp-topk-n16")
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from adacomp import runner, sim
    from workloads import train_config

    watched = [(runner, "build_datasets", "build_datasets"),
               (sim.Cluster, "sync_step", "sync_step"),
               (sim.Cluster, "evaluate", "evaluate")]
    names = [name for _, _, name in watched]
    print(f"tracemalloc peak in MiB, seed {args.seed}")
    print(f"{'workload':<14}" + "".join(f"{n:>16}" for n in [*names, "whole run"]))
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            peaks = measure(runner.run, train_config(workload, args.seed), Path(tmp) / workload,
                            watched)
            figures = [peaks.calls.get(n, 0) for n in names] + [peaks.whole]
            print(f"{workload:<14}" + "".join(f"{f / MIB:>16.1f}" for f in figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
