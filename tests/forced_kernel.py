"""Runs under a forced OpenBLAS kernel, for the tests that pin bits per
kernel. OpenBLAS reads OPENBLAS_CORETYPE when it loads, so each forced run is
a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from metrics_digests import openblas_kernel

ROOT = Path(__file__).resolve().parent.parent

# (kernel, the /proc/cpuinfo flag it needs) for each kernel the tests force
KERNELS = [("Haswell", "avx2"), ("Sandybridge", "avx")]


def run_under(kernel: str, flag: str, args: list[str]) -> list[str]:
    """The stdout lines of ``python *args`` under OPENBLAS_CORETYPE=kernel on
    one BLAS thread, with src, scripts and tests on the path. Skips where
    /proc/cpuinfo lacks the kernel's flag or numpy's BLAS is not the
    scipy-openblas build."""
    try:
        flags = {word for line in Path("/proc/cpuinfo").read_text().splitlines()
                 if line.startswith("flags") for word in line.split()}
    except OSError:
        flags = set()
    if flag not in flags:
        pytest.skip(f"/proc/cpuinfo lists no {flag}, which OpenBLAS's {kernel} kernel needs")
    if openblas_kernel()[1] == "unknown":
        pytest.skip("numpy's BLAS is not the scipy-openblas build, so no kernel can be forced")
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "scripts", "tests"))
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()
