import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "metrics_digests.py"
spec = importlib.util.spec_from_file_location("metrics_digests", SCRIPT)
metrics_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(metrics_digests)

NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


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
