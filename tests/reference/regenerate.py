"""Rewrites the reference CSVs of ``rfflow mp``, ``spectra``, ``sweep`` and
``run`` beside this file; ``test_cli.py`` reruns the same arguments and
compares.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/reference/regenerate.py

n = 200 puts ``mp``'s factors across one Cholesky panel boundary, and m = 100
puts a companion stop inside the head factor.  gamma = 1 is left out: its
value sits at the rounding floor of the m = n factor.  At n = 40 the sweep's
m list holds a tall cell, the m = n cell and wide cells on both sides of
m = 2n, where ``flow.decompose`` changes route; ``run`` at m = 100 takes the
wide route with each feature kind that has a bias-free and a biased form.
A change that runs this script lists the cells that moved.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from rfflow.cli import main

HERE = Path(__file__).resolve().parent

_SWEEP = ["sweep", "--m-list", "20,40,60,80,200", "--set", "n=40", "--set", "d=5",
          "--seeds", "0,1"]
_RUN = ["run", "--set", "n=40", "--set", "m=100", "--set", "d=5"]

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
}


def write(name: str, out: Path) -> Path:
    """Runs the verb behind reference ``name`` into the new directory ``out``;
    returns the path of the CSV it wrote."""
    argv, written = RUNS[name]
    if main(argv + ["--out", str(out)]) != 0:
        raise RuntimeError(f"rfflow {' '.join(argv)} failed")
    (path,) = out.glob(written)
    return path


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            shutil.copyfile(write(name, Path(tmp) / name), HERE / name)
            print(f"wrote {HERE / name}", file=sys.stderr)
