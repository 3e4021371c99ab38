"""Closed-form feature kernels on the sphere and their operator spectra.

For directions b uniform on S^(d-1), the expected product of two ReLU
features E_b[max(0, b.x) max(0, b.x')] depends only on t = x.x' and is
the arc-cosine kernel of Cho & Saul (2009),

    k(t) / (2 pi d),    k(t) = sqrt(1 - t^2) + t * (pi - arccos t),

with k(1) = pi, k(0) = 1, k(-1) = 0.  ``feature_kernel`` gives this exact
kernel for every feature kind; ``fit_profile_scale`` is only the Monte-Carlo
check that the least-squares scale of k against an empirical kernel
converges to 1/(2 pi d).

The induced integral operator on the uniform sphere is zonal, so spherical
harmonics are its eigenfunctions and the eigenvalue depends only on the
harmonic degree n, with multiplicity N(d, n).  ``analytic_spectrum`` takes
each eigenvalue by the Funk-Hecke formula, the integral of the feature
kernel against P_n in ``weighted_cosine_integral``, which evaluates
Int_{-1}^{1} g(t) (1-t^2)^((d-3)/2) dt.  ``legendre`` gives P_n, the
degree-n Legendre polynomial in d dimensions, by its own recurrence

    (k + d - 3) P_k = (2k + d - 4) t P_{k-1} - (k - 1) P_{k-2},

from P_0 = 1 and P_1 = t, so that P_n(1) = 1 for every n and d.  The
integral substitutes t = cos(theta), which absorbs the (1-t^2) weight
analytically and removes the endpoint derivative singularities of k at
d = 3, and then applies one fixed composite Gauss-Legendre rule.
"""

from __future__ import annotations

import functools
from math import comb, prod

import numpy as np

_CLIP_TOL = 1e-12


def _cosines(t, what: str) -> np.ndarray:
    """Cosines as a float array: beyond [-1, 1] by more than 1e-12 is an
    error, anything inside that tolerance is clipped."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _CLIP_TOL):
        raise ValueError(f"{what} argument outside [-1, 1]")
    return np.clip(t, -1.0, 1.0)


def kernel_profile(t):
    """Closed-form kernel profile k(t) = sqrt(1-t^2) + t(pi - arccos t).

    Accepts scalars or arrays of cosines; inputs beyond [-1, 1] by more than
    1e-12 are rejected, anything inside that tolerance is clipped.
    """
    t = _cosines(t, "kernel profile")
    out = np.sqrt(1.0 - t * t) + t * (np.pi - np.arccos(t))
    return out if out.ndim else float(out)


def feature_kernel(t, d: int, kind: str):
    """Exact zonal kernel E_b[phi(x;b) phi(x';b)] of one feature kind in t = x.x'.

    ReLU is k(t)/(2 pi d); the indicator is the order-0 arc-cosine kernel
    (pi - arccos t)/(2 pi); the affine ReLU is ReLU on (x, 1) in d+1
    dimensions, whose cosine is (1+t)/2 and squared norms 2, so
    k((1+t)/2)/(pi (d+1)).  At t = 1 each is the feature's mean square.
    """
    if kind == "relu":
        return kernel_profile(t) / (2.0 * np.pi * d)
    if kind == "indicator":
        out = (np.pi - np.arccos(_cosines(t, "kernel"))) / (2.0 * np.pi)
        return out if out.ndim else float(out)
    if kind == "affine-relu":
        return kernel_profile((1.0 + _cosines(t, "kernel")) / 2.0) / (np.pi * (d + 1))
    raise ValueError(f"unknown feature kind {kind!r}")


def harmonic_multiplicity(d: int, n: int) -> int:
    """Dimension N(d, n) of the degree-n spherical harmonics on S^(d-1)."""
    if d < 3:
        raise ValueError("harmonic multiplicity requires d >= 3")
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return 1
    return (2 * n + d - 2) * comb(n + d - 3, n - 1) // n  # divides exactly


def legendre(d: int, n: int, t):
    """The degree-n Legendre polynomial P_n in d dimensions, P_n(1) = 1.

    Takes cosines ``t`` in [-1, 1] (a scalar gives a float); |P_n| <= 1 there.
    """
    if d < 3:
        raise ValueError("Legendre polynomials require d >= 3")
    if n < 0:
        raise ValueError("order must be >= 0")
    t = _cosines(t, "polynomial")
    p_prev, p_cur = np.ones_like(t), t
    for k in range(2, n + 1):
        p_prev, p_cur = p_cur, ((2 * k + d - 4) * t * p_cur - (k - 1) * p_prev) / (k + d - 3)
    vals = p_cur if n else p_prev
    return vals if vals.ndim else float(vals)


# ---------------------------------------------------------------------------
# fixed composite Gauss-Legendre quadrature in theta
# ---------------------------------------------------------------------------

_PANELS = 32


@functools.lru_cache(maxsize=1)
def _gl_rule():
    return np.polynomial.legendre.leggauss(64)


def weighted_cosine_integral(d: int, g) -> float:
    """Integrate g(t) (1-t^2)^((d-3)/2) over t in [-1, 1].

    Uses t = cos(theta): the weight becomes sin(theta)^(d-2), and for every
    g here (feature kernels times P_n) the integrand is analytic in theta on
    [0, pi], so a fixed rule converges geometrically.  The rule is 32 equal
    panels with 64 Gauss-Legendre nodes each, summed one panel at a time.
    """
    nodes, weights = _gl_rule()
    half = 0.5 * np.pi / _PANELS
    total = 0.0
    for k in range(_PANELS):
        theta = (2 * k + 1) * half + half * nodes
        total += half * float(weights @ (g(np.cos(theta)) * np.sin(theta) ** (d - 2)))
    return total


# ---------------------------------------------------------------------------
# the operator spectrum by Funk-Hecke
# ---------------------------------------------------------------------------

def _vanishes(kind: str, n: int) -> bool:
    """Degrees whose eigenvalue is exactly zero by the kernel's parity.

    ReLU is t/(4d) plus an even function, so its odd degrees >= 3 vanish; the
    indicator kernel 1/4 + arcsin(t)/(2 pi) is a constant plus an odd
    function, so its even degrees >= 2 vanish; the affine ReLU has none.
    """
    if kind == "relu":
        return n >= 3 and n % 2 == 1
    if kind == "indicator":
        return n >= 2 and n % 2 == 0
    return False


def analytic_spectrum(d: int, kind: str, count: int) -> np.ndarray:
    """The ``count`` largest operator eigenvalues of ``feature_kernel``, descending.

    Under the uniform probability measure on S^(d-1) the degree-n eigenvalue
    is lambda_n = Int k P_n w dt / Int w dt with w = (1-t^2)^((d-3)/2), and
    it repeats N(d, n) times.  Degrees n = 0, 1, 2, ... are taken until the
    nonzero ones cover ``count``, and each eigenvalue is repeated only as far
    as ``count`` needs, never N(d, n) times.
    """
    mass = weighted_cosine_integral(d, np.ones_like)
    values, mults, total, n = [], [], 0, 0
    while total < count:
        if not _vanishes(kind, n):
            values.append(weighted_cosine_integral(
                d, lambda t: feature_kernel(t, d, kind) * legendre(d, n, t)) / mass)
            mults.append(harmonic_multiplicity(d, n))
            total += mults[-1]
        n += 1
    order = np.argsort(values)[::-1]
    reps, left = [], count
    for i in order:
        reps.append(min(mults[i], left))
        left -= reps[-1]
    return np.repeat(np.array(values)[order], reps)


# ---------------------------------------------------------------------------
# Monte-Carlo check of the kernel scale, and the spectrum's scale
# ---------------------------------------------------------------------------

def fit_profile_scale(feats, points: np.ndarray) -> tuple[float, float]:
    """Least-squares scalar c with (1/m) Phi Phi^T ~ c * k_profile(X X^T).

    Fitted over all pairs of the supplied points; returns (c, rms residual).
    For ReLU features on the sphere c converges to the exact 1/(2 pi d) of
    ``feature_kernel``; nothing needs the fitted value.
    """
    from . import features as _features

    vals = _features.feature_values(feats, points)
    emp = vals @ vals.T / feats.count
    prof = kernel_profile(points @ points.T)
    p = prof.ravel()
    e = emp.ravel()
    denom = float(p @ p)
    if denom == 0.0:
        raise ValueError("profile vanished on all sampled pairs")
    c = float(e @ p) / denom
    resid = float(np.sqrt(np.mean((e - c * p) ** 2)))
    return c, resid


def spectrum_feature_scale(d: int, profile_scale: float) -> float:
    """Top eigenvalue of the kernel c * k(x.x') under the uniform sphere measure.

    It is c (Omega_{d-2}/Omega_{d-1}) Int k w dt = c 2d R_d^2 / (d-1)^2 with
    R_d = Gamma(d/2)/Gamma((d-1)/2), taken as a product by
    R_{k+2} = R_k k/(k-1) from R_3 or R_4: within 1e-14 up to d = 10^4.
    No verb calls it: the benchmark's tracer wraps it by name, and the tests
    check ``analytic_spectrum``'s ReLU lambda_0 against it.
    """
    first, ratio_sq = (3, np.pi / 4) if d % 2 else (4, 4 / np.pi)
    ratio_sq *= prod((k / (k - 1)) ** 2 for k in range(first, d, 2))
    return profile_scale * 2.0 * d * ratio_sq / (d - 1) ** 2
