"""Exact gradient-flow trajectories of least squares via the SVD.

Gradient flow on (1/2n)||Phi a - y||^2 with the 1/(mn) rate convention,

    a'(t) = -(1/(mn)) Phi^T (Phi a - y),    a(0) = 0,

has the closed-form solution, with Phi = U Sigma V^T,

    a(t) = sum_{i: s_i > 0} (1 - exp(-s_i^2 t / (mn))) / s_i (u_i.y) v_i.

Every trajectory quantity (training error, parameter norm, predictions at
arbitrary points) follows from the decomposition without time stepping;
``ode_oracle`` provides the brute-force explicit-Euler reference used in
tests.  ``t = inf`` is an explicit sentinel yielding the exact minimum-norm
least-squares solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import Dataset, FeatureSet, feature_values

# singular values below this fraction of the largest are treated as zero
RANK_THRESHOLD = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Thin SVD of the feature matrix with the scaled values s_i / n."""

    left_vectors: np.ndarray      # (n, r)
    singular_values: np.ndarray   # (r,), descending
    right_vectors: np.ndarray     # (m, r)
    n_rows: int
    n_cols: int

    @property
    def scaled_values(self) -> np.ndarray:
        return self.singular_values / self.n_rows

    @property
    def positive(self) -> np.ndarray:
        """Mask of singular values treated as nonzero."""
        top = self.singular_values[0] if self.singular_values.size else 0.0
        return self.singular_values > RANK_THRESHOLD * top


def decompose(phi) -> SpectralDecomposition:
    """Thin SVD; rejects non-finite matrices."""
    mat = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("feature matrix has non-finite entries")
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    return SpectralDecomposition(
        left_vectors=u,
        singular_values=s,
        right_vectors=vt.T,
        n_rows=mat.shape[0],
        n_cols=mat.shape[1],
    )


def _exponents(s: np.ndarray, times: np.ndarray, n: int, m: int) -> np.ndarray:
    """s_i^2 t_j/(mn) as an (r, T) array; inf at t = inf (zero modes excluded)."""
    return np.multiply.outer(s * s, times / (m * n))


def _damping(singular_values: np.ndarray, t, n: int, m: int) -> np.ndarray:
    """Per-mode factor (1 - exp(-s^2 t/(mn)))/s; caller excludes zero modes.

    A scalar ``t`` gives an (r,) array, an array of T times an (r, T) one.
    At t = inf the factor is exactly 1/s, since expm1(-inf) = -1.
    """
    s = singular_values
    t = np.asarray(t, dtype=float)
    return -np.expm1(-_exponents(s, t, n, m)) / (s if t.ndim == 0 else s[:, None])


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if np.any(np.isnan(times) | (times < 0.0)):
        raise ValueError("flow time must be >= 0 (or inf for the minimum-norm limit)")
    return times


def coefficients_at(dec: SpectralDecomposition, y: np.ndarray, t) -> np.ndarray:
    """Flow solution a(t); ``t = inf`` returns the minimum-norm solution.

    A scalar ``t`` gives an (m,) array, an array of T times an (m, T) matrix.
    """
    t = _check_times(t)
    pos = dec.positive
    uy = dec.left_vectors[:, pos].T @ y
    damp = _damping(dec.singular_values[pos], t, dec.n_rows, dec.n_cols)
    return dec.right_vectors[:, pos] @ (damp * (uy if t.ndim == 0 else uy[:, None]))


def predict(coeffs: np.ndarray, feats: FeatureSet, x: np.ndarray) -> float:
    """Model value sum_k a_k phi(x; b_k)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] != feats.count:
        raise ValueError("coefficient length must match feature count")
    vals = feature_values(feats, np.asarray(x, float)[None, :])[0]
    return float(vals @ coeffs)


@dataclass(frozen=True)
class TrajectorySnapshot:
    """One sampled point of the flow path."""

    time: float
    train_error: float     # ||Phi a - y||^2 / (2n)
    test_error: float      # RMS of (f_t - f*) over the test set
    param_norm: float      # ||a(t)||
    pred_norm: float       # RMS of f_t over the test set


def errors_on_grid(dec: SpectralDecomposition, y: np.ndarray, feats: FeatureSet,
                   test_points: Dataset, times) -> list[TrajectorySnapshot]:
    """Trajectory snapshots over an ascending grid (inf allowed as last entry).

    Training error is evaluated in the spectral basis, test error by
    root-mean-square against ``test_points.targets``.
    """
    grid = _check_times(list(times))
    if np.any(np.isinf(grid[:-1])):
        raise ValueError("inf is only allowed as the last grid point")
    if np.any(np.diff(grid[np.isfinite(grid)]) < 0.0):
        raise ValueError("times must be ascending")
    if test_points.count == 0:
        raise ValueError("empty test set")

    n, m = dec.n_rows, dec.n_cols
    pos = dec.positive
    s = dec.singular_values[pos]
    uy = (dec.left_vectors.T @ y)[pos]
    # energy the flow can never fit: outside the column span or on zero modes
    perp = float(y @ y - uy @ uy)

    phi_test = feature_values(feats, test_points.points)

    coeff_basis = _damping(s, grid, n, m) * uy[:, None]   # (r+, T)
    preds = phi_test @ (dec.right_vectors[:, pos] @ coeff_basis)

    # residual energy per mode: exp(-s^2 t/(mn))^2 (u.y)^2, zero at t = inf
    expo = np.exp(-_exponents(s, grid, n, m))
    train = ((expo ** 2 * uy[:, None] ** 2).sum(axis=0) + perp) / (2 * n)

    param = np.sqrt((coeff_basis ** 2).sum(axis=0))
    test_err = np.sqrt(np.mean((preds - test_points.targets[:, None]) ** 2, axis=0))
    pred_norm = np.sqrt(np.mean(preds ** 2, axis=0))

    return [TrajectorySnapshot(time=t, train_error=float(train[j]),
                               test_error=float(test_err[j]), param_norm=float(param[j]),
                               pred_norm=float(pred_norm[j]))
            for j, t in enumerate(grid.tolist())]


def ode_oracle(phi, y: np.ndarray, t: float, step: float) -> np.ndarray:
    """Explicit-Euler integration of the flow from a(0) = 0 to time t.

    Reference implementation for tests only; requires
    step * s_max^2 / (mn) < 0.1 for stability.  Each step
    a <- (I - hH) a + h r is affine, so the N full steps are one power of
    the (m+1)x(m+1) matrix [[I - hH, h r], [0, 1]] applied to (0, 1).
    """
    mat = np.asarray(phi, dtype=float)
    n, m = mat.shape
    t = float(_check_times(t))
    if np.isinf(t):
        raise ValueError("the Euler oracle needs a finite horizon")
    if step <= 0:
        raise ValueError("step must be positive")
    top = np.linalg.norm(mat, 2)
    if step * top * top / (m * n) >= 0.1:
        raise ValueError("unstable step size for the Euler oracle")

    hmat = mat.T @ mat / (m * n)
    rhs = mat.T @ y / (m * n)
    step_map = np.eye(m + 1)
    step_map[:m, :m] -= step * hmat
    step_map[:m, m] = step * rhs
    n_steps = int(t / step)
    a = np.linalg.matrix_power(step_map, n_steps)[:m, m]
    rem = t - n_steps * step
    if rem > 0.0:
        a += rem * (rhs - hmat @ a)
    return a


def spectral_energy_profile(dec: SpectralDecomposition, y: np.ndarray,
                            threshold: float = 0.99) -> tuple[np.ndarray, int]:
    """Cumulative projections c_p = sum_{i<=p} (u_i.y)^2 / ||y||^2.

    Returns the cumulative vector and the smallest p (1-based) with
    c_p >= threshold; p = r + 1 signals that the span misses the target.
    """
    energy = float(y @ y)
    if energy == 0.0:
        raise ValueError("zero target vector")
    proj = (dec.left_vectors.T @ y) ** 2 / energy
    cum = np.cumsum(proj)
    hits = np.nonzero(cum >= threshold)[0]
    p = int(hits[0]) + 1 if hits.size else cum.size + 1
    return cum, p
