"""Closed-form kernel of ReLU features on the sphere and its operator spectrum.

For directions b uniform on S^(d-1), the expected product of two ReLU
features E_b[max(0, b.x) max(0, b.x')] depends only on t = x.x' and is
proportional to the arc-cosine profile

    k(t) = sqrt(1 - t^2) + t * (pi - arccos t),

with k(1) = pi, k(0) = 1, k(-1) = 0.  The profile is treated as defined up
to one global multiplicative constant relative to the empirical kernel;
``fit_profile_scale`` recovers that scalar by least squares (it converges to
1/(2*pi*d)).

The induced integral operator on the uniform sphere is zonal, so spherical
harmonics are its eigenfunctions and the eigenvalue depends only on the
harmonic degree n, with multiplicity N(d, n).  ``analytic_eigenvalue``
evaluates the closed-form eigenvalue family, anchored at

    lambda_0 = 2 sqrt(pi) d Gamma(d/2) / (Gamma(d) Gamma((d-1)/2)),

and ``quadrature_eigenvalue`` provides the independent integral route

    lambda_n = (1/Omega_{d-1}) Int_{-1}^{1} k(t) P_n(t) (1-t^2)^((d-3)/2) dt,

where P_n is the degree-n Legendre polynomial in d dimensions: the Gegenbauer
polynomial C_n of index (d-2)/2 divided by the exact integer
C_n(1) = binom(n+d-3, n), so that P_n(1) = 1.  All quadratures substitute
t = cos(theta), which absorbs the (1-t^2) weight analytically and removes the
endpoint derivative singularities of k at d = 3.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb, exp, gamma, lgamma, log

import numpy as np

_CLIP_TOL = 1e-12


def _rgamma(x: float) -> float:
    """1/Gamma(x), exactly 0 at the poles x = 0, -1, -2, ..."""
    return 0.0 if x <= 0 and x == int(x) else 1.0 / gamma(x)


def surface_area(k: int) -> float:
    """Surface area of the unit sphere S^k embedded in R^(k+1)."""
    return 2.0 * np.pi ** ((k + 1) / 2) / gamma((k + 1) / 2)


def kernel_profile(t):
    """Closed-form kernel profile k(t) = sqrt(1-t^2) + t(pi - arccos t).

    Accepts scalars or arrays of cosines; inputs beyond [-1, 1] by more than
    1e-12 are rejected, anything inside that tolerance is clipped.
    """
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _CLIP_TOL):
        raise ValueError("kernel profile argument outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    out = np.sqrt(1.0 - t * t) + t * (np.pi - np.arccos(t))
    return out if out.ndim else float(out)


def kernel_mc(x, x_prime, feats) -> tuple[float, float]:
    """Monte-Carlo kernel estimate (1/m) sum_k phi(x;b_k) phi(x';b_k).

    Returns the estimate together with its standard error.
    """
    from . import features as _features

    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    if feats.count == 0:
        raise ValueError("empty feature set")
    fx = _features.feature_values(feats, x[None, :])[0]
    fy = _features.feature_values(feats, x_prime[None, :])[0]
    prods = fx * fy
    m = prods.size
    se = float(prods.std(ddof=1) / np.sqrt(m)) if m > 1 else float("inf")
    return float(prods.mean()), se


def harmonic_multiplicity(d: int, n: int) -> int:
    """Dimension N(d, n) of the degree-n spherical harmonics on S^(d-1)."""
    if d < 3:
        raise ValueError("harmonic multiplicity requires d >= 3")
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return 1
    num = (2 * n + d - 2) * comb(n + d - 3, n - 1)
    if num % n:
        raise AssertionError("multiplicity formula did not divide evenly")
    return num // n


@dataclass(frozen=True)
class OrthogonalPolynomial:
    """Gegenbauer / sphere-Legendre polynomial of one cosine variable."""

    family: str  # "legendre" | "gegenbauer"
    dim: int
    order: int

    def __post_init__(self):
        if self.family not in ("legendre", "gegenbauer"):
            raise ValueError(f"unknown polynomial family {self.family!r}")
        if self.dim < 3:
            raise ValueError("polynomial families require d >= 3")
        if self.order < 0:
            raise ValueError("order must be >= 0")


def _gegenbauer_values(d: int, n: int, t: np.ndarray) -> np.ndarray:
    # three-term recurrence for C_n with generating function (1-2st+s^2)^(-(d-2)/2)
    c_prev = np.ones_like(t)
    if n == 0:
        return c_prev
    c_cur = (d - 2) * t
    for k in range(2, n + 1):
        c_next = ((2 * k + d - 4) * t * c_cur - (k + d - 4) * c_prev) / k
        c_prev, c_cur = c_cur, c_next
    return c_cur


def legendre_conversion(d: int, n: int) -> int:
    """Constant relating the two families, C_n(t) = const * P_n(t).

    It is C_n(1) = binom(n+d-3, n), the exact integer, so P_n(1) = 1 and
    the constant stays finite for every dimension.
    """
    if d < 3:
        raise ValueError("conversion constant requires d >= 3")
    return comb(n + d - 3, n)


def poly_eval(p: OrthogonalPolynomial, t):
    """Evaluate an orthogonal polynomial at cosines ``t`` in [-1, 1]."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.abs(t_arr) > 1.0 + _CLIP_TOL):
        raise ValueError("polynomial argument outside [-1, 1]")
    t_arr = np.clip(t_arr, -1.0, 1.0)
    vals = _gegenbauer_values(p.dim, p.order, t_arr)
    if p.family == "legendre":
        vals = vals / legendre_conversion(p.dim, p.order)
    return vals if vals.ndim else float(vals)


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _gl_panel(f, a: float, b: float, order: int) -> float:
    nodes, weights = _gl_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(weights @ f(mid + half * nodes))


def adaptive_quadrature(f, a: float, b: float, tol: float = 1e-12,
                        order: int = 64, max_depth: int = 28) -> float:
    """Adaptive Gauss-Legendre integration with interval halving.

    ``f`` must accept numpy arrays.  Panels are split until the whole-panel
    estimate agrees with the two half-panel estimates within a tolerance
    apportioned by interval length; exhausting the halving budget raises.
    """
    whole = _gl_panel(f, a, b, order)

    def recurse(lo, hi, est, budget, depth):
        mid = 0.5 * (lo + hi)
        left = _gl_panel(f, lo, mid, order)
        right = _gl_panel(f, mid, hi, order)
        if abs(left + right - est) <= budget:
            return left + right
        if depth >= max_depth:
            raise RuntimeError("adaptive quadrature: interval-halving budget exhausted")
        return (recurse(lo, mid, left, budget / 2, depth + 1)
                + recurse(mid, hi, right, budget / 2, depth + 1))

    return recurse(a, b, whole, tol, 0)


def weighted_cosine_integral(d: int, g, tol: float = 1e-12, order: int = 64) -> float:
    """Integrate g(t) (1-t^2)^((d-3)/2) over t in [-1, 1].

    Uses t = cos(theta): the weight becomes sin(theta)^(d-2), so the
    integrand is smooth for every d >= 3 (including the d = 3 case where the
    kernel profile has endpoint derivative singularities in t).
    """
    def integrand(theta):
        return g(np.cos(theta)) * np.sin(theta) ** (d - 2)

    return adaptive_quadrature(integrand, 0.0, np.pi, tol=tol, order=order)


# ---------------------------------------------------------------------------
# eigenvalue formulas
# ---------------------------------------------------------------------------

def _log_lambda_zero(d: int) -> float:
    # log of 2 sqrt(pi) d Gamma(d/2) / (Gamma(d) Gamma((d-1)/2))
    return log(2.0 * np.sqrt(np.pi) * d) + lgamma(d / 2) - lgamma(d) - lgamma((d - 1) / 2)


def _log_lambda_factor(d: int, n: int) -> float:
    # log of 2^(n-1/2) Gamma((n+d-2)/2) / (Gamma(n+d-2) Gamma(n+d) Gamma((n+d-1)/2)
    # Gamma((3-n)/2)^2); lgamma is log|Gamma|, and the square drops the sign
    return ((n - 0.5) * log(2.0) + lgamma((n + d - 2) / 2) - lgamma(n + d - 2)
            - lgamma(n + d) - lgamma((n + d - 1) / 2) - 2.0 * lgamma((3 - n) / 2))


def analytic_eigenvalue(d: int, n: int) -> float:
    """Closed-form operator eigenvalue for harmonic degree n.

    Degree 0 uses the direct-integral value lambda_0; higher degrees follow
    the Gamma-function eigenvalue family anchored at lambda_0, so that the
    two-step decay identity

        lambda_{n+2} / lambda_n = (n-1)^2 / ((n+d-1)^2 (n+d+1) (n+d))

    holds exactly across all n >= 0, and odd degrees >= 3 vanish identically
    (the Gamma((3-n)/2)^-2 pole).  The Gamma functions are combined in log
    space, so the value stays finite in every dimension where it is
    representable.
    """
    if d < 3:
        raise ValueError("analytic eigenvalues require d >= 3")
    if n < 0:
        raise ValueError("order must be >= 0")
    if n >= 3 and n % 2:
        return 0.0
    log_ratio = _log_lambda_factor(d, n) - _log_lambda_factor(d, 0) if n else 0.0
    return exp(_log_lambda_zero(d) + log_ratio)


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Operator eigenvalues lambda_n with multiplicities N(d, n) up to n_max.

    The multiplicities are exact Python integers: N(d, 16) passes 2^63 from d = 97.
    """

    dim: int
    eigenvalues: np.ndarray
    multiplicities: tuple[int, ...]

    def flatten(self, count: int) -> np.ndarray:
        """The ``count`` largest eigenvalues, each repeated by its multiplicity, descending.

        Each eigenvalue is repeated only as often as the first ``count``
        entries need, never N(d, n) times.
        """
        order = np.argsort(self.eigenvalues)[::-1]
        reps, left = [], count
        for i in order:
            reps.append(min(self.multiplicities[i], left))
            left -= reps[-1]
        if left > 0:
            raise ValueError("spectrum truncation: raise n_max to flatten this many")
        return np.repeat(self.eigenvalues[order], reps)


def analytic_spectrum(d: int, n_max: int) -> AnalyticSpectrum:
    eigenvalues = np.array([analytic_eigenvalue(d, n) for n in range(n_max + 1)])
    mult = tuple(harmonic_multiplicity(d, n) for n in range(n_max + 1))
    return AnalyticSpectrum(dim=d, eigenvalues=eigenvalues, multiplicities=mult)


def quadrature_eigenvalue(d: int, n: int, node_count: int = 96) -> float:
    """Integral-route eigenvalue (1/Omega_{d-1}) Int k(t) P_n(t) w(t) dt.

    Independent of the closed-form family; used as an oracle for shapes and
    vanishing odd orders.  Its absolute normalisation (and, beyond degree 0,
    its two-step decay rate) differs from ``analytic_eigenvalue`` by more
    than one global constant; ratios of quadrature values satisfy
    (n-1)^2/(n+d+1)^2 instead.  Comparisons are therefore made per identity,
    never by blanket rescaling.
    """
    if d < 3:
        raise ValueError("quadrature eigenvalues require d >= 3")
    if node_count < 64:
        raise ValueError("node_count must be >= 64")
    conv = legendre_conversion(d, n)

    def g(t):
        return kernel_profile(t) * _gegenbauer_values(d, n, t) / conv

    val = weighted_cosine_integral(d, g, order=node_count)
    return val / surface_area(d - 1)


# closed forms of the three Gegenbauer moments entering the spectrum derivation

def gegenbauer_sqrt_moment(d: int, n: int) -> float:
    """Int (1-t^2)^((d-2)/2) C_n(t) dt in closed form."""
    num = np.pi ** 1.5 * 2.0 ** (n - 2) * (d - 2) * gamma((n + d - 2) / 2)
    rec = (
        _rgamma(n + 1)
        * _rgamma((1 - n) / 2)
        * _rgamma((3 - n) / 2)
        * _rgamma((n + d + 1) / 2)
    )
    return float(num * rec)


def gegenbauer_arc_moment(d: int, n: int) -> float:
    """Int (1-t^2)^((d-3)/2) t (pi - arccos t) C_n(t) dt in closed form."""
    num = (
        np.pi ** 1.5 * 2.0 ** (n - 3) * (d - 2) * (n * n + (d - 2) * n + 1)
        * gamma((n + d - 2) / 2)
    )
    rec = (
        _rgamma(n + 1)
        * _rgamma((3 - n) / 2) ** 2
        * _rgamma((n + d + 1) / 2)
    )
    return float(num * rec / (n + d - 1))


def gegenbauer_kernel_moment(d: int, n: int) -> float:
    """Int (1-t^2)^((d-3)/2) k(t) C_n(t) dt in closed form (sum of the above)."""
    num = np.pi ** 1.5 * d * (d - 2) * 2.0 ** (n - 2) * gamma((n + d - 2) / 2)
    rec = (
        _rgamma(n + 1)
        * _rgamma((3 - n) / 2) ** 2
        * _rgamma((n + d - 1) / 2)
    )
    return float(num * rec / (n + d - 1) ** 2)


# ---------------------------------------------------------------------------
# calibration against empirical kernels
# ---------------------------------------------------------------------------

def fit_profile_scale(feats, points: np.ndarray) -> tuple[float, float]:
    """Least-squares scalar c with (1/m) Phi Phi^T ~ c * k_profile(X X^T).

    Fitted over all pairs of the supplied points; returns (c, rms residual).
    For ReLU features on the sphere c converges to 1/(2 pi d).
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


@functools.lru_cache(maxsize=32)
def _profile_degree_zero_integral(d: int) -> float:
    return weighted_cosine_integral(d, kernel_profile)


def spectrum_feature_scale(d: int, profile_scale: float) -> float:
    """Multiplier mapping analytic eigenvalues onto the Gram-matrix scale.

    The top operator eigenvalue of the empirical kernel c * k(x.x') under
    the uniform sphere measure is c (Omega_{d-2}/Omega_{d-1}) Int k w dt;
    dividing by the analytic lambda_0 gives a single global conversion used
    by every spectrum comparison.
    """
    top = profile_scale * surface_area(d - 2) / surface_area(d - 1) \
        * _profile_degree_zero_integral(d)
    return top / analytic_eigenvalue(d, 0)
