"""Rewrites the reference CSVs of ``rfflow mp``, ``spectra``, ``sweep``,
``run`` and ``mnist`` beside this file; ``test_cli.py`` reruns the same
arguments and compares.

    PYTHONPATH=src python tests/reference/regenerate.py

Run as a script, it pins OpenBLAS to one thread and to the ``KERNEL`` core
type in its own process, before numpy loads the library, which reads both
once; the outside environment then moves no digit, and the script's first
output line names the kernel that ran.  Importing the module, as
``test_cli.py`` does, leaves the environment alone.

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

import ctypes
import ctypes.util
import os
import shutil
import struct
import sys
import tempfile
from pathlib import Path

# the OpenBLAS core type of the references; its kernels need AVX-512, and
# OpenBLAS ignores a name it does not know (on other architectures)
KERNEL = "SkylakeX"

if __name__ == "__main__":
    os.environ.update(OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE=KERNEL)

import numpy as np  # noqa: E402  (after the pin)

from rfflow import idx  # noqa: E402
from rfflow.cli import main  # noqa: E402

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


def blas_kernel() -> str:
    """The core type of the OpenBLAS that numpy loaded: a wheel's bundled
    library or the system's; "unknown" for any other BLAS."""
    here = Path(np.__file__).parent
    libs = [*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*"),
            ctypes.util.find_library("openblas")]
    for lib in filter(None, libs):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(handle, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return "unknown"


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
    kernel = blas_kernel()
    print(f"BLAS kernel: {kernel} (pinned {KERNEL}, one thread)", file=sys.stderr)
    if kernel not in (KERNEL, "unknown"):
        sys.exit(f"OpenBLAS runs {kernel}, not {KERNEL}: its rounding would move the references")
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            shutil.copyfile(write(name, Path(tmp) / name), HERE / name)
            print(f"wrote {HERE / name}", file=sys.stderr)
