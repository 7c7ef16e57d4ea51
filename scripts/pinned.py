"""Run a script in a fresh process with BLAS pinned to one thread, as the
benchmark pins it, and read back the JSON it prints last. Imported by the
scripts that measure a tree in a worker process of their own."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_pinned(script: Path, args: list[str]) -> dict:
    """The JSON on the last stdout line of ``python script *args``, run in a
    fresh process with one BLAS thread."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    proc = subprocess.run([sys.executable, str(script), *args], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])
