import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import forced_kernel

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "metrics_digests.py"
spec = importlib.util.spec_from_file_location("metrics_digests", SCRIPT)
metrics_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(metrics_digests)

NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"

# the seed-7 metrics.csv digests ROADMAP.md pins, per OpenBLAS kernel: a
# kernel rounds some products otherwise, so each has its own row
PINNED_SEED_7 = {
    "SkylakeX": "seed 7: cnn-n1 61e5a00bb774  cnn-n32 75585b37c7f4  mlp-topk-n16 238a738df154",
    "Haswell": "seed 7: cnn-n1 1147631437d4  cnn-n32 f7635be7848d  mlp-topk-n16 12d728d62e4b",
    "Sandybridge": "seed 7: cnn-n1 eaf37d905fdf  cnn-n32 947dca6e4767  mlp-topk-n16 2112e97aec0a",
}


def test_openblas_kernel_of_numpys_bundled_library():
    if not list(NUMPY_LIBS.glob("libscipy_openblas64_*.so")):
        pytest.skip("this numpy bundles no scipy-openblas library")
    config, kernel = metrics_digests.openblas_kernel()
    assert config.startswith("OpenBLAS ")
    assert kernel not in ("", "unknown")


def test_openblas_kernel_is_unknown_without_the_library_or_its_exports(tmp_path):
    assert metrics_digests.openblas_kernel(tmp_path) == ("unknown", "unknown")
    # a shared library under the scipy-openblas name that exports neither query
    other = sorted(NUMPY_LIBS.glob("libgfortran*.so*")) + sorted(NUMPY_LIBS.glob("libquadmath*.so*"))
    if not other:
        pytest.skip("numpy bundles no other shared library to stand in")
    (tmp_path / "libscipy_openblas64_-stub.so").symlink_to(other[0])
    assert metrics_digests.openblas_kernel(tmp_path) == ("unknown", "unknown")


def test_metrics_digests_at_seed_7_are_the_pinned_ones_of_this_kernel():
    lines = subprocess.run([sys.executable, str(SCRIPT), "--seeds", "7"], capture_output=True,
                           text=True, check=True, timeout=600).stdout.splitlines()
    kernel = lines[0].rpartition("; kernel ")[2]
    if kernel not in PINNED_SEED_7:
        pytest.skip(f"no metrics.csv digests are pinned for the OpenBLAS kernel {kernel!r}")
    assert lines[1] == PINNED_SEED_7[kernel]


@pytest.mark.parametrize("kernel, flag", forced_kernel.KERNELS)
def test_metrics_digests_at_seed_7_under_a_forced_kernel_are_its_pinned_ones(kernel, flag):
    lines = forced_kernel.run_under(kernel, flag, [str(SCRIPT), "--seeds", "7"])
    assert lines[0].endswith(f"; kernel {kernel}")
    assert lines[1] == PINNED_SEED_7[kernel]
