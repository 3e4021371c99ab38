"""The benchmark's workloads: inputs from a seed, the CLI calls, and the output checks.

Each workload turns the benchmark seed into generated inputs and a list of
``rfflow`` command lines, run in one process.  After the runs, ``check``
reads the CSVs the program wrote and compares them with

* reference values that this module recomputes from the seed with plain
  numpy, independently of rfflow (relative tolerance ``RTOL``), and
* the property of the paper's experiment that the workload reproduces.

The reference code follows rfflow's seeding convention: the stream
``[seed, tag]`` of ``numpy.random.default_rng`` draws standard normals that
are normalised onto the sphere, with tags 1 = data, 2 = features, 3 = test
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

RTOL = 1e-6          # reference value vs program output, relative
RANK_CUTOFF = 1e-12  # singular values below this share of the top one are zero modes
# Gram eigenvalues below this share of the top one are round-off: a feature
# column that is zero on every training point makes the smallest one 0 +- 1e-20
EIGEN_FLOOR = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Prepared:
    """CLI calls of one workload process and what the checks need to know."""

    calls: list[list[str]]
    context: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple[str, ...]          # imported before the set-up clock stops
    prepare: Callable[[int, Path, Path], Prepared]
    check: Callable[[Prepared, Path], list[Check]]


# ---------------------------------------------------------------------------
# reference computations (plain numpy)
# ---------------------------------------------------------------------------

def sphere(key, dim: int, count: int) -> np.ndarray:
    g = np.random.default_rng(key).standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def relu_features(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    return np.maximum(points @ directions.T, 0.0)


def flow_test_error(phi, y, phi_test, f_test, t) -> float:
    """RMS test error of the gradient-flow solution at time t (inf = min-norm)."""
    n, m = phi.shape
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    keep = s > RANK_CUTOFF * s[0]
    u, s, vt = u[:, keep], s[keep], vt[keep]
    damp = 1.0 / s if np.isinf(t) else -np.expm1(-(s * s) * (t / (m * n))) / s
    coeffs = vt.T @ (damp * (u.T @ y))
    return float(np.sqrt(np.mean((phi_test @ coeffs - f_test) ** 2)))


def smallest_gram(phi) -> tuple[float, float]:
    """Smallest eigenvalue of the min(n, m)-sized Gram spectrum, from the SVD,
    and the absolute tolerance it can be compared to (its round-off floor)."""
    n, m = phi.shape
    s = np.linalg.svd(phi, compute_uv=False)
    return float(s[-1] ** 2 / (n * m)), EIGEN_FLOOR * float(s[0] ** 2 / (n * m))


def read_table(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    cols = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {c: rows[:, j] for j, c in enumerate(cols)}


def close(name: str, got: float, want: float, atol: float = 0.0) -> Check:
    ok = bool(abs(got - want) <= RTOL * abs(want) + atol)
    return Check(name, ok, f"program {got:.12g}, reference {want:.12g}, "
                           f"rtol {RTOL:g}, atol {atol:.3g}")


def _row(table, **match) -> np.ndarray:
    mask = np.ones(next(iter(table.values())).size, dtype=bool)
    for col, value in match.items():
        mask &= table[col] == value
    return mask


# ---------------------------------------------------------------------------
# sweep-m: the paper's feature-count sweep at the default n = 500, d = 10
# ---------------------------------------------------------------------------

SWEEP_M = (100, 250, 500, 1000, 2500)
SWEEP_N, SWEEP_D, SWEEP_TEST = 500, 10, 2000


def prepare_sweep(seed: int, work: Path, out: Path) -> Prepared:
    seeds = [5 * seed + i for i in range(5)]
    return Prepared(
        calls=[["sweep", "--m-list", ",".join(map(str, SWEEP_M)),
                "--seeds", ",".join(map(str, seeds)), "--out", str(out)]],
        context={"seeds": seeds},
    )


def check_sweep(prep: Prepared, out: Path) -> list[Check]:
    seeds = prep.context["seeds"]
    minnorm = read_table(out / "sweep_m_minnorm.csv")
    budgets = read_table(out / "sweep_m_budgets.csv")
    checks = []

    s0 = seeds[0]
    x = sphere([s0, 1], SWEEP_D, SWEEP_N)
    x_test = sphere([s0, 3], SWEEP_D, SWEEP_TEST)
    y, f_test = np.ones(SWEEP_N), np.ones(SWEEP_TEST)
    for m in (250, SWEEP_N):
        dirs = sphere([s0, 2], SWEEP_D, m)
        phi, phi_test = relu_features(x, dirs), relu_features(x_test, dirs)
        row = _row(minnorm, m=m, seed=s0)
        checks.append(close(f"reference min-norm test error m={m} seed={s0}",
                            minnorm["min_norm_test_error"][row][0],
                            flow_test_error(phi, y, phi_test, f_test, np.inf)))
        checks.append(close(f"reference smallest Gram eigenvalue m={m} seed={s0}",
                            minnorm["smallest_gram_eigenvalue"][row][0], *smallest_gram(phi)))
        # T = 1e4 iterations at eta = 1 / top Gram eigenvalue
        t = 1e4 / (np.linalg.svd(phi, compute_uv=False)[0] ** 2 / (SWEEP_N * m))
        row = _row(budgets, m=m, seed=s0, iterations=1e4)
        checks.append(close(f"reference budget flow time m={m} seed={s0}",
                            budgets["flow_time"][row][0], t))
        checks.append(close(f"reference budget test error m={m} seed={s0}",
                            budgets["test_error"][row][0],
                            flow_test_error(phi, y, phi_test, f_test, t)))

    # A02: at m = n the min-norm error is at least 10x the finite-time minimum.
    # The smallest error over the four budgets bounds the path minimum from
    # above, so this is at least as strict as the acceptance criterion.
    at_n = minnorm["m"] == SWEEP_N
    min_norm = float(np.median(minnorm["min_norm_test_error"][at_n]))
    finite = float(np.median([
        budgets["test_error"][_row(budgets, m=SWEEP_N, seed=s)].min() for s in seeds]))
    checks.append(Check("A02 min-norm error >= 10x finite-time minimum at m=n",
                        min_norm >= 10 * finite,
                        f"median min-norm {min_norm:.4g}, median budget minimum {finite:.4g}"))
    return checks


# ---------------------------------------------------------------------------
# mnist-synth: the MNIST double-descent pipeline on generated IDX files
# ---------------------------------------------------------------------------

MNIST_TRAIN, MNIST_TEST, SIDE = 60_000, 10_000, 28
MNIST_N = 500                      # rfflow's default n: training subsample size
MNIST_CLASSES = (0, 1)             # the classes cmd_mnist keeps


def _stroke_templates(rng) -> np.ndarray:
    """Ten class templates, each three anti-aliased line segments on 28x28."""
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(float)
    out = np.zeros((10, SIDE, SIDE))
    for c in range(10):
        for _ in range(3):
            p0, p1 = rng.uniform(6, 22, 2), rng.uniform(6, 22, 2)
            d = p1 - p0
            t = np.clip(((yy - p0[0]) * d[0] + (xx - p0[1]) * d[1]) / max(d @ d, 1e-9), 0, 1)
            dist = np.hypot(yy - p0[0] - t * d[0], xx - p0[1] - t * d[1])
            out[c] = np.maximum(out[c], np.clip(1.5 - dist, 0.0, 1.0))
    return out


def synthetic_digits(rng, templates, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Mostly-zero uint8 images: a class template shifted by up to 2 pixels,
    with random stroke intensity and about 3% random ink pixels.

    Dense noise images would not do: every pixel is non-negative, so a random
    direction sees nearly the same sign on all of them and half the ReLU
    feature columns vanish.  Sparse strokes keep the feature matrix at full
    rank, which the double-descent peak at m = n needs.
    """
    labels = rng.integers(0, 10, count).astype(np.uint8)
    shifts = rng.integers(-2, 3, (count, 2))
    images = np.empty((count, SIDE, SIDE), dtype=np.uint8)
    for c in range(10):
        for dy in range(-2, 3):
            for dx in range(-2, 3):
                sel = np.nonzero((labels == c) & (shifts[:, 0] == dy) & (shifts[:, 1] == dx))[0]
                base = np.roll(templates[c], (dy, dx), axis=(0, 1))
                ink = base * rng.uniform(0.5, 1.0, (sel.size, SIDE, SIDE))
                dots = rng.random((sel.size, SIDE, SIDE)) < 0.03
                ink = np.where(dots, np.maximum(ink, rng.uniform(0.25, 1.0, ink.shape)), ink)
                images[sel] = np.rint(255.0 * ink).astype(np.uint8)
    return images, labels


def write_idx(path: Path, array: np.ndarray) -> None:
    """IDX ubyte file: magic 0x0801/0x0803, big-endian dimensions, payload."""
    header = np.array([0x800 + array.ndim, *array.shape], dtype=">i4")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def prepare_mnist(seed: int, work: Path, out: Path) -> Prepared:
    rng = np.random.default_rng([seed, 77])
    templates = _stroke_templates(rng)
    train = synthetic_digits(rng, templates, MNIST_TRAIN)
    test = synthetic_digits(rng, templates, MNIST_TEST)
    paths = {}
    for key, array in (("images", train[0]), ("labels", train[1]),
                       ("test-images", test[0]), ("test-labels", test[1])):
        paths[key] = work / f"synthetic-{key}-idx-ubyte"
        write_idx(paths[key], array)
    call = ["mnist"]
    for key, path in paths.items():
        call += [f"--{key}", str(path)]
    call += ["--seeds", str(seed), "--out", str(out)]
    return Prepared(calls=[call], context={"seed": seed, "train": train, "test": test})


def _mnist_points(images, labels, subsample=None):
    keep = np.isin(labels, MNIST_CLASSES)
    points = images[keep].reshape(int(keep.sum()), -1).astype(float) / 255.0
    values = labels[keep].astype(float)
    if subsample is not None:  # rfflow's config seed stays at its default, 0
        idx = np.sort(np.random.default_rng(0).choice(points.shape[0], subsample,
                                                      replace=False))
        points, values = points[idx], values[idx]
    return points, values


def check_mnist(prep: Prepared, out: Path) -> list[Check]:
    seed = prep.context["seed"]
    table = read_table(out / "mnist_minnorm.csv")
    checks = []

    x, y = _mnist_points(*prep.context["train"], subsample=MNIST_N)
    x_test, f_test = _mnist_points(*prep.context["test"])
    for m in (200, 1500):
        dirs = sphere([seed, 2], x.shape[1], m)
        phi = relu_features(x, dirs)
        row = _row(table, m=m, seed=seed)
        checks.append(close(f"reference min-norm test error m={m} seed={seed}",
                            table["min_norm_test_error"][row][0],
                            flow_test_error(phi, y, relu_features(x_test, dirs), f_test,
                                            np.inf)))
        checks.append(close(f"reference smallest Gram eigenvalue m={m} seed={seed}",
                            table["smallest_gram_eigenvalue"][row][0], *smallest_gram(phi)))

    # A11: the min-norm error peaks within [0.8n, 1.2n]
    ms = np.unique(table["m"])
    med = [np.median(table["min_norm_test_error"][table["m"] == m]) for m in ms]
    peak = float(ms[int(np.argmax(med))])
    checks.append(Check("A11 min-norm peak within [0.8n, 1.2n]",
                        0.8 * MNIST_N <= peak <= 1.2 * MNIST_N, f"peak at m={peak:g}"))
    return checks


# ---------------------------------------------------------------------------
# spectra-mp: smallest-eigenvalue sweep, then Gram vs kernel spectra at gamma 8
# ---------------------------------------------------------------------------

MP_N, MP_D = 1000, 10


def prepare_spectra_mp(seed: int, work: Path, out: Path) -> Prepared:
    seeds = [5 * seed + i for i in range(5)]
    return Prepared(
        calls=[["mp", "--set", f"n={MP_N}", "--seeds", ",".join(map(str, seeds)),
                "--out", str(out)],
               ["spectra", "--gamma", "8", "--set", f"n={MP_N}", "--seed", str(seed),
                "--out", str(out)]],
        context={"seed": seed, "seeds": seeds},
    )


def check_spectra_mp(prep: Prepared, out: Path) -> list[Check]:
    seed = prep.context["seed"]
    mp = read_table(out / "mp_smallest.csv")
    spectra = read_table(out / "spectra_gamma8.csv")
    checks = []

    gamma = 0.5
    vals = np.array([smallest_gram(relu_features(sphere([s, 1], MP_D, MP_N),
                                                 sphere([s, 2], MP_D, int(gamma * MP_N))))
                     for s in prep.context["seeds"]])
    checks.append(close(f"reference mean smallest Gram eigenvalue gamma={gamma}",
                        mp["mean_smallest"][mp["gamma"] == gamma][0], *vals.mean(axis=0)))

    phi = relu_features(sphere([seed, 1], MP_D, MP_N), sphere([seed, 2], MP_D, 8 * MP_N))
    top = np.linalg.eigvalsh(phi @ phi.T / (MP_N * 8 * MP_N))[::-1][:10]
    rel = float(np.max(np.abs(spectra["gram"][:10] - top) / top))
    checks.append(Check("reference top-10 Gram eigenvalues gamma=8", rel <= RTOL,
                        f"max relative difference {rel:.3g}, rtol {RTOL:g}"))

    # A08: the gamma = 1 smallest eigenvalue sits orders of magnitude below its neighbours
    at = {g: v for g, v in zip(mp["gamma"], mp["mean_smallest"])}
    neighbours = min(at[0.85], at[1.2])
    checks.append(Check("A08 gamma=1 dip at least 100x below gamma 0.85 and 1.2",
                        at[1.0] <= 1e-2 * neighbours,
                        f"gamma=1 {at[1.0]:.3g}, neighbours {neighbours:.3g}"))
    # A07: top-10 Gram vs kernel-matrix eigenvalues within 5%
    rel = np.abs(spectra["gram"][:10] - spectra["kernel_matrix"][:10]) / spectra["kernel_matrix"][:10]
    checks.append(Check("A07 top-10 gram vs kernel-matrix eigenvalues within 0.05",
                        float(rel.max()) <= 0.05, f"max relative difference {rel.max():.4f}"))
    return checks


_CLI = ("rfflow.cli", "rfflow.runner", "rfflow.svgplot")

WORKLOADS = {
    "sweep-m": Workload("sweep-m", _CLI, prepare_sweep, check_sweep),
    "mnist-synth": Workload("mnist-synth", _CLI + ("rfflow.idx",), prepare_mnist, check_mnist),
    "spectra-mp": Workload("spectra-mp", _CLI + ("rfflow.random_matrix", "rfflow.kernel_analytic"),
                           prepare_spectra_mp, check_spectra_mp),
}
