"""Gram/kernel matrices, their spectra, and Marchenko-Pastur analysis.

The Gram matrix is G = Phi Phi^T / (nm).  Its nonzero eigenvalues coincide
with those of Phi^T Phi / (nm), so the smallest *nonzero* eigenvalue is
always read off the smaller of the two companions; at m = n this is the
plain smallest eigenvalue, which collapses towards zero (the double-descent
resonance).  The Marchenko-Pastur model predicts that collapse:
the smallest eigenvalue scales like c * (1 - sqrt(gamma))^2 for gamma <= 1
and c * (1 - sqrt(1/gamma))^2 above, with a calibration constant c fitted
from measurements near gamma = 1.

The MP density here carries the 1/gamma mass factor,

    v_gamma(x) = sqrt((x_+ - x)(x - x_-)) / (2 pi gamma x),
    x_pm = (1 pm sqrt(gamma))^2,

so that continuous mass plus the point mass max(0, 1 - 1/gamma) at zero is
exactly one for every aspect ratio.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .features import FeatureSet, feature_values
from .kernel_analytic import adaptive_quadrature

_SYM_TOL = 1e-10


def gram_matrix(points, feats: FeatureSet) -> np.ndarray:
    """G = Phi Phi^T / (nm) of the m features at the n points, without Phi.

    Phi_b Phi_b^T is summed over blocks of at most n feature directions and
    divided once at the end, so memory stays O(n^2) however large m is; an
    m <= n Gram is one block, the plain product.
    """
    points = np.asarray(points, dtype=float)
    n, m = points.shape[0], feats.count
    if m == 0:
        raise ValueError("empty feature set")
    gram = 0.0
    for lo in range(0, m, n):
        block = feature_values(FeatureSet(feats.directions[lo:lo + n], feats.kind), points)
        gram += block @ block.T  # the first block turns the 0.0 into an array
    gram /= n * m
    return gram


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Descending spectrum of a symmetric matrix."""
    a = np.asarray(a, dtype=float)
    scale = max(float(np.max(np.abs(a))), 1.0)
    if np.max(np.abs(a - a.T)) > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a)[::-1]


def smallest_gram_eigenvalue(phi, n: int, m: int | Sequence[int]) -> float | np.ndarray:
    """Smallest eigenvalue of the min(n, m)-sized Gram spectrum of phi[:, :m].

    For m < n the n x n Gram matrix is rank deficient by construction, so the
    meaningful smallest value lives on the m x m companion Phi^T Phi / (nm).

    A scalar ``m`` gives a float, a sequence of feature counts an array in the
    given order, all served from the one n x M matrix ``phi``: every m < n
    companion is a leading block of one product over the largest such m, and
    the m >= n companions are a running sum of column-block products
    Phi[:, a:b] Phi[:, a:b]^T, taken in ascending m.
    """
    mat = np.asarray(phi, dtype=float)
    counts = np.atleast_1d(m)
    if mat.ndim != 2 or mat.shape[0] != n:
        raise ValueError(f"expected a feature matrix with {n} rows, got shape {mat.shape}")
    if (counts.size == 0 or not np.issubdtype(counts.dtype, np.integer)
            or counts.min() < 1 or counts.max() > mat.shape[1]):
        raise ValueError(f"feature counts must be integers in 1..{mat.shape[1]} for a feature "
                         f"matrix of shape {mat.shape}, got {counts.tolist()}")
    smallest = {}
    below = sorted({int(k) for k in counts if k < n})
    if below:
        head = mat[:, :below[-1]]
        comp = head.T @ head
        for k in below:
            smallest[k] = float(np.linalg.eigvalsh(comp[:k, :k] / (n * k))[0])
    comp, done = 0.0, 0
    for k in sorted({int(k) for k in counts if k >= n}):
        block = mat[:, done:k]
        comp += block @ block.T  # the first block turns the 0.0 into an array
        done = k
        smallest[k] = float(np.linalg.eigvalsh(comp / (n * k))[0])
    if np.ndim(m) == 0:
        return smallest[int(m)]
    return np.array([smallest[int(k)] for k in counts])


# ---------------------------------------------------------------------------
# Marchenko-Pastur model
# ---------------------------------------------------------------------------

def mp_edges(gamma: float) -> tuple[float, float]:
    """Support edges ((1-sqrt(gamma))^2, (1+sqrt(gamma))^2)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    r = math.sqrt(gamma)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def mp_atom(gamma: float) -> float:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return max(0.0, 1.0 - 1.0 / gamma)


def mp_density(gamma: float, lam) -> np.ndarray | float:
    """Continuous MP density at lam; zero outside the support."""
    lo, hi = mp_edges(gamma)
    lam_arr = np.asarray(lam, dtype=float)
    inside = (lam_arr > lo) & (lam_arr < hi) & (lam_arr > 0)
    out = np.zeros_like(lam_arr)
    lx = lam_arr[inside]
    out[inside] = np.sqrt((hi - lx) * (lx - lo)) / (2.0 * np.pi * gamma * lx)
    return out if out.ndim else float(out)


def mp_mass(gamma: float, tol: float = 1e-10) -> float:
    """Integral of the continuous density over its support.

    Substituting lam = lo + (hi - lo) sin^2(psi) removes the square-root
    endpoint behaviour, so plain adaptive quadrature converges fast even at
    gamma = 1 where the lower edge touches zero.
    """
    lo, hi = mp_edges(gamma)
    width = hi - lo

    def integrand(psi):
        sp, cp = np.sin(psi), np.cos(psi)
        lam = lo + width * sp * sp
        return width * width * sp * sp * cp * cp / (np.pi * gamma * lam)

    return adaptive_quadrature(integrand, 0.0, np.pi / 2, tol=tol)


def mp_shape(gamma) -> np.ndarray | float:
    """Unit-calibration smallest-eigenvalue shape, symmetric in gamma <-> 1/gamma."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g <= 0):
        raise ValueError("gamma must be positive")
    out = np.where(g <= 1.0, (1.0 - np.sqrt(g)) ** 2, (1.0 - np.sqrt(1.0 / g)) ** 2)
    return out if out.ndim else float(out)


def predict_smallest(gamma: float, c: float) -> float:
    """Calibrated smallest-eigenvalue prediction c * shape(gamma)."""
    if c <= 0:
        raise ValueError("calibration must be positive")
    return c * float(mp_shape(gamma))


def calibrate_c(measurements: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares calibration of the prediction against measurements.

    ``measurements`` holds (gamma, smallest eigenvalue) pairs; at least one
    of them must be off resonance (gamma != 1), since the shape vanishes at
    gamma = 1.  Returns (c, rms residual).
    """
    gammas = np.array([g for g, _ in measurements], dtype=float)
    vals = np.array([v for _, v in measurements], dtype=float)
    shapes = np.asarray(mp_shape(gammas))
    use = shapes > 0
    if use.sum() == 0:
        raise ValueError("all measurements sit at gamma = 1; shape is identically zero")
    c = float(vals[use] @ shapes[use] / (shapes[use] @ shapes[use]))
    resid = float(np.sqrt(np.mean((vals - c * shapes) ** 2)))
    return c, resid
