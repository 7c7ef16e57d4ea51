import importlib.util
import types
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "memory_peaks.py"
spec = importlib.util.spec_from_file_location("memory_peaks", SCRIPT)
memory_peaks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(memory_peaks)

MIB = 2**20


def test_each_call_gets_its_own_absolute_peak_and_the_run_the_highest():
    def allocate(mib):
        return np.ones(mib * MIB, np.uint8)

    parts = types.SimpleNamespace(small=allocate, large=allocate)

    def run(cfg, out_dir):
        held = parts.small(2)              # held through the large call
        parts.large(8)
        del held
        allocate(12)                       # outside every watched call
        parts.small(1)

    peaks = memory_peaks.measure(run, None, None, [(parts, "small", "small"),
                                                   (parts, "large", "large")])
    assert parts.small is allocate and parts.large is allocate
    assert 2 * MIB <= peaks.calls["small"] < 3 * MIB
    assert 10 * MIB <= peaks.calls["large"] < 11 * MIB
    assert 12 * MIB <= peaks.whole < 13 * MIB
