"""Print the metrics.csv digest of each perfbench training workload.

  python3 scripts/metrics_digests.py            # seeds 7 and 8
  python3 scripts/metrics_digests.py --seeds 7

Runs one epoch of ``cnn-n1``, ``cnn-n32`` and ``mlp-topk-n16``, configured
as ``perfbench/workloads.train_config`` builds them, through ``runner.run``,
and prints the first 12 hex digits of each ``metrics.csv`` sha256. A
refactor that claims the same behaviour must print the digests that
ROADMAP.md lists for the BLAS kernel printed first. Run from the
repository root; the program is imported from ./src, and BLAS is pinned to
one thread as the benchmark pins it.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cnn-n1", "cnn-n32", "mlp-topk-n16")
OPENBLAS_QUERIES = ("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_")


def openblas_library(libs_dir=None) -> ctypes.CDLL | None:
    """The scipy-openblas library in `libs_dir`, by default the one bundled
    with numpy, or None where there is none."""
    if libs_dir is None:
        import numpy
        libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    libs = sorted(Path(libs_dir).glob("libscipy_openblas64_*.so"))
    return ctypes.CDLL(str(libs[0])) if libs else None


def openblas_kernel(libs_dir=None) -> tuple[str, str]:
    """The build string and the kernel (core name) of `openblas_library`;
    "unknown" for each that no such library exports."""
    handle = openblas_library(libs_dir)
    found = []
    for name in OPENBLAS_QUERIES:
        query = getattr(handle, name, None)
        if query is None:
            found.append("unknown")
        else:
            query.argtypes, query.restype = [], ctypes.c_char_p
            found.append((query() or b"unknown").decode().strip())
    return tuple(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    print("BLAS: {}; kernel {}".format(*openblas_kernel()))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from adacomp import runner
    from workloads import train_config

    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            digests = []
            for name in WORKLOADS:
                out = Path(tmp) / f"{name}-{seed}"
                runner.run(train_config(name, seed), out)
                digests.append(hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()[:12])
            print(f"seed {seed}: " + "  ".join(f"{n} {d}" for n, d in zip(WORKLOADS, digests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
