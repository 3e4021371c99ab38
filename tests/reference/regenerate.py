"""Rewrites the reference CSVs of ``rfflow mp`` and ``rfflow spectra`` beside
this file; ``test_cli.py`` reruns the same arguments and compares.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/reference/regenerate.py

n = 200 puts the factors across one Cholesky panel boundary, and m = 100 puts
a companion stop inside the head factor.  gamma = 1 is left out: its value
sits at the rounding floor of the m = n factor.  A change that runs this
script lists the cells that moved.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from rfflow.cli import main

HERE = Path(__file__).resolve().parent
# reference file -> the rfflow arguments that write it
RUNS = {
    "mp_smallest.csv": ["mp", "--set", "n=200", "--seeds", "0,1",
                        "--gamma-list", "0.5,0.7,1.5,2"],
    "spectra_gamma2.csv": ["spectra", "--gamma", "2", "--set", "n=200", "--seed", "0"],
}


def write(name: str, out: Path) -> Path:
    """Runs the verb behind reference ``name`` into directory ``out``; returns
    the path of the CSV it wrote."""
    if main(RUNS[name] + ["--out", str(out)]) != 0:
        raise RuntimeError(f"rfflow {' '.join(RUNS[name])} failed")
    return out / name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            shutil.copyfile(write(name, Path(tmp)), HERE / name)
            print(f"wrote {HERE / name}", file=sys.stderr)
