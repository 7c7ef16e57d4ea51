"""synth_digits draws written as IDX file pairs, for the IDX loader's tests."""

from pathlib import Path

import numpy as np

from adacomp.data import synth_digits, write_idx


def synth_digits_idx(n: int, seed: int, out_dir, noise: float = 0.35, shift: int = 2,
                     split: str = "train", task_seed: int = 7) -> tuple[Path, Path]:
    """Materialize a synth_digits draw as an IDX file pair; returns the paths."""
    ds = synth_digits(n, seed, noise=noise, shift=shift, split=split, task_seed=task_seed)
    u8 = np.round(ds.features.reshape(n, 28, 28) * 255.0).astype(np.uint8)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    img_path = out_dir / f"digits-{split}-images.idx"
    lbl_path = out_dir / f"digits-{split}-labels.idx"
    write_idx(u8, ds.labels, img_path, lbl_path)
    return img_path, lbl_path
