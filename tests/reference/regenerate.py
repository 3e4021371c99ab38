"""Rewrites the reference CSVs of ``rfflow mp``, ``spectra``, ``sweep``,
``run`` and ``mnist`` beside this file; ``test_cli.py`` reruns the same
arguments and compares.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/reference/regenerate.py

n = 200 puts ``mp``'s factors across one Cholesky panel boundary, and m = 100
puts a companion stop inside the head factor.  gamma = 1 is left out: its
value sits at the rounding floor of the m = n factor.  At n = 40 the sweep's
and ``mnist``'s m lists hold a tall cell, the m = n cell and wide cells on
both sides of m = 2n, where ``flow.decompose`` changes route; ``run`` at
m = 100 takes the wide route with each feature kind that has a bias-free and
a biased form.  ``mnist`` reads the seeded IDX files of
``write_synthetic_idx``, written beside its outputs.  A change that runs this
script lists the cells that moved.
"""

import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from rfflow import idx
from rfflow.cli import main

HERE = Path(__file__).resolve().parent

_SWEEP = ["sweep", "--m-list", "20,40,60,80,200", "--set", "n=40", "--set", "d=5",
          "--seeds", "0,1"]
_RUN = ["run", "--set", "n=40", "--set", "m=100", "--set", "d=5"]
_MNIST = ["mnist", "--set", "n=40", "--m-list", "20,40,60,100", "--seeds", "0,1"]

# reference file -> (the rfflow arguments that write it, the file they write)
RUNS = {
    "mp_smallest.csv": (["mp", "--set", "n=200", "--seeds", "0,1",
                         "--gamma-list", "0.5,0.7,1.5,2"], "mp_smallest.csv"),
    "spectra_gamma2.csv": (["spectra", "--gamma", "2", "--set", "n=200", "--seed", "0"],
                           "spectra_gamma2.csv"),
    "sweep_m_minnorm.csv": (_SWEEP, "sweep_m_minnorm.csv"),
    "sweep_m_budgets.csv": (_SWEEP, "sweep_m_budgets.csv"),
    # run names its CSV by the config's hash
    "run_relu.csv": (_RUN, "run_*.csv"),
    "run_affine_relu.csv": (_RUN + ["--set", "feature_kind=affine-relu"], "run_*.csv"),
    "mnist_minnorm.csv": (_MNIST, "mnist_minnorm.csv"),
    "mnist_budgets.csv": (_MNIST, "mnist_budgets.csv"),
}


def write_synthetic_idx(root: Path) -> list:
    """Small two-class IDX files under MNIST's standard names in ``root``;
    returns the path flags."""
    rng = np.random.default_rng(0)
    names = {}
    for split, count in (("train", 120), ("t10k", 40)):
        images = rng.integers(0, 256, size=(count, 5, 5), dtype=np.uint8)
        labels = (rng.random(count) < 0.5).astype(np.uint8)
        names[split] = (root / f"{split}-images-idx3-ubyte", root / f"{split}-labels-idx1-ubyte")
        for path, magic, array in zip(names[split], (idx.IMAGE_MAGIC, idx.LABEL_MAGIC),
                                      (images, labels)):
            path.write_bytes(struct.pack(f">{1 + array.ndim}i", magic, *array.shape)
                             + array.tobytes())
    return ["--images", str(names["train"][0]), "--labels", str(names["train"][1]),
            "--test-images", str(names["t10k"][0]), "--test-labels", str(names["t10k"][1])]


def write(name: str, out: Path) -> Path:
    """Runs the verb behind reference ``name`` into the directory ``out``;
    returns the path of the CSV it wrote."""
    argv, written = RUNS[name]
    if argv[0] == "mnist":
        out.mkdir(parents=True, exist_ok=True)
        argv = argv + write_synthetic_idx(out)
    if main(argv + ["--out", str(out)]) != 0:
        raise RuntimeError(f"rfflow {' '.join(argv)} failed")
    (path,) = out.glob(written)
    return path


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            shutil.copyfile(write(name, Path(tmp) / name), HERE / name)
            print(f"wrote {HERE / name}", file=sys.stderr)
