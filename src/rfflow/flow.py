"""Exact gradient-flow trajectories of least squares via the SVD.

Gradient flow on (1/2n)||Phi a - y||^2 with the 1/(mn) rate convention,

    a'(t) = -(1/(mn)) Phi^T (Phi a - y),    a(0) = 0,

has the closed-form solution, with Phi = U Sigma V^T,

    a(t) = sum_{i: s_i > 0} (1 - exp(-s_i^2 t / (mn))) / s_i (u_i.y) v_i.

Every trajectory quantity (training error, parameter norm, predictions at
arbitrary points) follows from the decomposition without time stepping.
``t = inf`` is an explicit sentinel yielding the exact minimum-norm
least-squares solution.

The right vectors enter only through products V_k c, which ``right_product``
forms.  A matrix with m >= ``WIDE_RATIO`` n columns is decomposed through the
R of its transpose's QR, with no V formed; there V_k c = Phi^T U_k (c / s_k),
since v_i = Phi^T u_i / s_i.  That product loses about eps kappa, so narrower
matrices, whose kappa can be large near m = n, keep the SVD's V.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .features import Dataset, FeatureSet, feature_values

# singular values below this fraction of the largest are treated as zero
RANK_THRESHOLD = 1e-12
# share of the target's energy that the spectral energy profile's p reaches
ENERGY_THRESHOLD = 0.99
# a matrix with at least this many columns per row forms no right vectors.
# Phi^T u_i / s_i loses about eps kappa.  Against 60-digit mpmath min-norm
# coefficients (n = 40, d = 5, ReLU, seeds 0-5; error over the largest
# coefficient) it erred by up to 2.8e-13 at m = 41-42 (kappa up to 2.3e3),
# where the SVD's V erred by 3.1e-14, and by at most 3.4e-14 at m = 80, 100
# and 200 (kappa at most 251; V 1.4e-14).  At n = 500, d = 10 and one BLAS
# thread it is faster from about m = 600 (101 -> 96 ms; 205 -> 114 ms at
# m = 2,500, best of 5).
WIDE_RATIO = 2
# times per block of a grid call.  A block holds its (r, B) coefficients, then
# its (m, B) right product and one (_ROW_BLOCK, B) prediction block, so no
# array but the (N_test, m) test block grows with the grid.  Each block re-packs
# the whole test block for its GEMMs: a 2,000 x 2,500 test block times 9,602
# columns took 1.8 s as one GEMM, 2.7-3.0 s in blocks of 128 and 3.4-3.8 s in
# blocks of 64 (one BLAS thread).
_TIME_BLOCK = 128
# test rows per prediction block of a grid call's time block; the test error
# and model norm accumulate their sums of squares over the row blocks
_ROW_BLOCK = 256

# glibc's malloc_trim, or None where the C library has none (macOS, musl) or
# there is no process handle to look it up in (Windows)
try:
    _MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def trim_heap() -> None:
    """Hands the heap's freed pages back to the OS; a no-op without glibc's
    malloc_trim, or once ``_MALLOC_TRIM`` is set to None."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Thin SVD of the feature matrix with the scaled values s_i / n."""

    left_vectors: np.ndarray                # (n, r)
    singular_values: np.ndarray             # (r,), descending
    right_vectors: Optional[np.ndarray]     # (m, r); None where m >= WIDE_RATIO n
    phi: np.ndarray                         # the (n, m) matrix itself, not a copy

    @property
    def n_rows(self) -> int:
        return self.phi.shape[0]

    @property
    def n_cols(self) -> int:
        return self.phi.shape[1]

    @property
    def scaled_values(self) -> np.ndarray:
        return self.singular_values / self.n_rows

    @property
    def positive(self) -> np.ndarray:
        """Mask of singular values treated as nonzero."""
        top = self.singular_values[0] if self.singular_values.size else 0.0
        return self.singular_values > RANK_THRESHOLD * top

    @property
    def rank(self) -> int:
        """Number of positive modes; they are a prefix, as s is descending."""
        return int(np.count_nonzero(self.positive))


def decompose(phi) -> SpectralDecomposition:
    """Thin SVD; rejects non-finite matrices.

    A matrix with m >= ``WIDE_RATIO`` n columns is decomposed as
    svd(R^T) = U S W^T with R = qr(Phi^T, mode="r"), which forms neither
    QR's Q nor the right vectors; ``right_product`` applies them through
    Phi^T.  A narrower wide matrix (n < m < 2n) is factored through its
    transpose, Phi^T = V S U^T: LAPACK's tall path (QR first) is faster
    than its wide one (LQ first).  The LAPACK buffers (about 36 MiB for the
    SVD at 500 x 2500) come from the heap once earlier frees have raised
    glibc's mmap threshold, and glibc keeps them resident after they are
    freed; trimming hands them back, so the caller's next large array does
    not land on top of them.
    """
    mat = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("feature matrix has non-finite entries")
    n, m = mat.shape
    v = None
    if m >= WIDE_RATIO * n:
        u, s, _ = np.linalg.svd(np.linalg.qr(mat.T, mode="r").T)
    elif m > n:
        v, s, ut = np.linalg.svd(mat.T, full_matrices=False)
        u = ut.T
    else:
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        v = vt.T
    trim_heap()
    return SpectralDecomposition(left_vectors=u, singular_values=s, right_vectors=v, phi=mat)


def right_product(dec: SpectralDecomposition, c: np.ndarray) -> np.ndarray:
    """V_k c for c of shape (k,) or (k, T), k at most the rank: the stored
    right vectors, or Phi^T (U_k (c / s_k)) where ``decompose`` formed none."""
    k = c.shape[0]
    if dec.right_vectors is not None:
        return dec.right_vectors[:, :k] @ c
    s = dec.singular_values[:k]
    return dec.phi.T @ (dec.left_vectors[:, :k] @ (c / (s if c.ndim == 1 else s[:, None])))


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
    r = dec.rank
    uy = dec.left_vectors[:, :r].T @ y
    damp = _damping(dec.singular_values[:r], t, dec.n_rows, dec.n_cols)
    return right_product(dec, damp * (uy if t.ndim == 0 else uy[:, None]))


@dataclass(frozen=True)
class Trajectory:
    """The flow path on a time grid: one array per quantity, one entry per time."""

    time: np.ndarray          # the grid; inf last for the minimum-norm limit
    train_error: np.ndarray   # ||Phi a - y||^2 / (2n)
    test_error: np.ndarray    # RMS of (f_t - f*) over the test set
    param_norm: np.ndarray    # ||a(t)||
    model_norm: np.ndarray    # ||f_t||: RMS of f_t over the test set


def errors_on_grid(dec: SpectralDecomposition, y: np.ndarray, feats: FeatureSet,
                   test_points: Dataset, times,
                   test_features: Optional[np.ndarray] = None) -> Trajectory:
    """The trajectory over an ascending grid (inf allowed as last entry).

    Training error is evaluated in the spectral basis, test error by
    root-mean-square against ``test_points.targets``.  Each time's values
    depend on no other time, so a sub-grid gives the same values up to
    rounding.  ``test_features``, the (N_test, m) values of ``feats`` at the
    test points, is evaluated here unless given; a sweep passes a column
    block of one evaluation at its largest m.

    The grid is walked in consecutive blocks of ``_TIME_BLOCK`` times and
    each block's predictions in blocks of ``_ROW_BLOCK`` test rows, so beyond
    the test block the call holds at most about (r + n + m + 256) x 128
    doubles, whatever the lengths of the grid and the test set.  At m = 2,500
    and N_test = 2,000, ``rfflow run`` on 9,602 grid times peaked at 94.2-94.5
    MiB, where (N_test x 128) prediction blocks took 97.9-98.0 MiB and one
    whole-grid block 462.4 MiB (one BLAS thread).
    """
    grid = _check_times(list(times))
    if np.any(np.isinf(grid[:-1])):
        raise ValueError("inf is only allowed as the last grid point")
    if np.any(np.diff(grid[np.isfinite(grid)]) < 0.0):
        raise ValueError("times must be ascending")
    if test_points.count == 0:
        raise ValueError("empty test set")

    n, m = dec.n_rows, dec.n_cols
    r = dec.rank
    s = dec.singular_values[:r]
    uy = (dec.left_vectors.T @ y)[:r]
    # energy the flow can never fit, outside the span of the positive modes;
    # y.y - uy.uy would cancel to about -1e-16 when y lies in that span.  At
    # rank n that span is all of R^n and the residual is rounding alone
    # (1e-31 to 1e-30, different on each decompose route), so the energy is 0
    outside = y - dec.left_vectors[:, :r] @ uy
    perp = float(outside @ outside) if r < n else 0.0

    if test_features is None:
        test_features = feature_values(feats, test_points.points)
    elif test_features.shape != (test_points.count, m):
        raise ValueError(f"test features of shape {test_features.shape} given, "
                         f"expected {(test_points.count, m)}")
    targets = test_points.targets[:, None]

    train, test_err, param, model_norm = (np.empty(grid.size) for _ in range(4))
    for lo in range(0, grid.size, _TIME_BLOCK):
        block = grid[lo:lo + _TIME_BLOCK]
        cols = slice(lo, lo + block.size)
        # residual energy per mode: exp(-s^2 t/(mn))^2 (u.y)^2, zero at t = inf;
        # no name holds its (r, B) terms, so they are freed before the (m, B)
        # right product is made
        train[cols] = ((np.exp(-_exponents(s, block, n, m)) ** 2 * uy[:, None] ** 2).sum(axis=0)
                       + perp) / (2 * n)
        coeff_basis = _damping(s, block, n, m) * uy[:, None]   # (r+, B)
        param[cols] = np.sqrt((coeff_basis ** 2).sum(axis=0))

        coeff = right_product(dec, coeff_basis)   # (m, B)
        pred_sq, err_sq = np.zeros(block.size), np.zeros(block.size)
        for row in range(0, test_points.count, _ROW_BLOCK):
            rows = slice(row, row + _ROW_BLOCK)
            preds = test_features[rows] @ coeff
            pred_sq += np.einsum("ij,ij->j", preds, preds)
            preds -= targets[rows]
            err_sq += np.einsum("ij,ij->j", preds, preds)
        model_norm[cols] = np.sqrt(pred_sq / test_points.count)
        test_err[cols] = np.sqrt(err_sq / test_points.count)
        del coeff   # before the next block's is made beside it

    return Trajectory(time=grid, train_error=train, test_error=test_err,
                      param_norm=param, model_norm=model_norm)


def spectral_energy_profile(dec: SpectralDecomposition,
                            y: np.ndarray) -> tuple[np.ndarray, int]:
    """Cumulative projections c_p = sum_{i<=p} (u_i.y)^2 / ||y||^2, p <= r.

    Returns the cumulative vector over the r positive modes and the smallest
    p (1-based) with c_p >= ``ENERGY_THRESHOLD``; p = r + 1 signals that the
    span misses the target.
    """
    energy = float(y @ y)
    if energy == 0.0:
        raise ValueError("zero target vector")
    proj = (dec.left_vectors[:, :dec.rank].T @ y) ** 2 / energy
    cum = np.cumsum(proj)
    hits = np.nonzero(cum >= ENERGY_THRESHOLD)[0]
    p = int(hits[0]) + 1 if hits.size else cum.size + 1
    return cum, p
