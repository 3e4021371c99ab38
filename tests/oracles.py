"""Reference implementations that only the tests call.

Each is an independent route to a quantity the package computes another
way, kept out of ``rfflow`` because no CLI verb runs it:

- ``ode_oracle``: explicit-Euler integration of the flow (A01, test_flow);
- ``population_mse``: the exact population error of a flow model (A16);
- ``analytic_eigenvalue`` with ``_log_lambda_zero`` and ``_eigenvalue_ratio``:
  the paper's closed-form ReLU eigenvalue family in log space (A05, A06);
- ``quadrature_eigenvalue``: the integral route, normalised differently;
- ``gegenbauer_*_moment``: closed forms of the three Gegenbauer moments (A05);
- ``surface_area`` (A06) and ``kernel_mc``, a Monte-Carlo kernel estimate (A10);
- ``mp_edges`` and ``mp_density``: the Marchenko-Pastur support and density (A09).

Beside them sit the helpers of the tests that run code in a fresh
interpreter, ``fresh_interpreter``, and of those that read resident memory
there: ``rss`` and the ``glibc_only`` skip, since glibc alone keeps freed
heap resident in the way those tests measure.

The MP density carries the 1/gamma mass factor,

    v_gamma(x) = sqrt((x_+ - x)(x - x_-)) / (2 pi gamma x),
    x_pm = (1 pm sqrt(gamma))^2,

so that continuous mass plus the point mass max(0, 1 - 1/gamma) at zero is
exactly one for every aspect ratio.
"""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import textwrap
from math import exp, gamma, lgamma, log, pi, sqrt
from pathlib import Path

import numpy as np
import pytest
from scipy.special import rgamma

import rfflow
from rfflow.kernel_analytic import (feature_kernel, kernel_profile, legendre,
                                    weighted_cosine_integral)

# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def ode_oracle(phi, y: np.ndarray, t: float, step: float) -> np.ndarray:
    """Explicit-Euler integration of the flow from a(0) = 0 to time t.

    Reference implementation for tests only; requires
    step * s_max^2 / (mn) < 0.1 for stability.  Each step
    a <- (I - hH) a + h r is affine, so the N full steps are one power of
    the (m+1)x(m+1) matrix [[I - hH, h r], [0, 1]] applied to (0, 1).
    """
    mat = np.asarray(phi, dtype=float)
    n, m = mat.shape
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ValueError("the Euler oracle needs a finite horizon t >= 0")
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


def population_mse(coefficients, feats) -> np.ndarray:
    """Exact ||f - f*||^2 under the uniform sphere for f = phi(.; B) a and the
    order-0 target f* = 1, one value per column of ``coefficients`` (m, T).

    With x and b in swapped roles, E_x[phi(x; b) phi(x; b')] is the
    feature kernel of b.b', so the error is a^T K_B a - 2 a^T h + ||f*||^2
    with K_B = feature_kernel(B B^T) and h_j = E_x phi(x; b_j): the mean of
    max(0, x_1), Gamma(d/2) / (2 sqrt(pi) Gamma((d+1)/2)), for ReLU and 1/2
    for the indicator.  K_B is formed in row blocks of 256.
    """
    a = np.asarray(coefficients, dtype=float).reshape(feats.count, -1)
    dirs = feats.directions
    d = dirs.shape[1]
    mean = {"relu": exp(lgamma(d / 2) - lgamma((d + 1) / 2)) / (2 * sqrt(pi)),
            "indicator": 0.5}[feats.kind]
    quad = np.zeros(a.shape[1])
    for lo in range(0, feats.count, 256):
        k_rows = feature_kernel(dirs[lo:lo + 256] @ dirs.T, d, feats.kind)
        quad += np.einsum("it,it->t", a[lo:lo + 256], k_rows @ a)
    return quad - 2.0 * mean * a.sum(axis=0) + 1.0


# ---------------------------------------------------------------------------
# kernel_analytic
# ---------------------------------------------------------------------------


def surface_area(k: int) -> float:
    """Surface area of the unit sphere S^k embedded in R^(k+1)."""
    return 2.0 * np.pi ** ((k + 1) / 2) / gamma((k + 1) / 2)


def kernel_mc(x, x_prime, feats) -> tuple[float, float]:
    """Monte-Carlo kernel estimate (1/m) sum_k phi(x;b_k) phi(x';b_k).

    Returns the estimate together with its standard error.
    """
    from rfflow import features as _features

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


def _log_lambda_factor(d: int, n: int) -> float:
    # log of 2^(n-1/2) Gamma((n+d-2)/2) / (Gamma(n+d-2) Gamma(n+d) Gamma((n+d-1)/2)
    # Gamma((3-n)/2)^2); lgamma is log|Gamma|, and the square drops the sign
    return ((n - 0.5) * log(2.0) + lgamma((n + d - 2) / 2) - lgamma(n + d - 2)
            - lgamma(n + d) - lgamma((n + d - 1) / 2) - 2.0 * lgamma((3 - n) / 2))


def _vanishes(n: int) -> bool:
    """Odd degrees >= 3 have eigenvalue exactly zero (the Gamma((3-n)/2)^-2 pole)."""
    return n >= 3 and n % 2 == 1


def _eigenvalue_ratio(d: int, n: int) -> float:
    """lambda_n / lambda_0 from differences of the log factors; finite and
    nonzero for every nonvanishing degree, even where lambda_0 underflows."""
    if _vanishes(n):
        return 0.0
    return exp(_log_lambda_factor(d, n) - _log_lambda_factor(d, 0)) if n else 1.0


def _log_lambda_zero(d: int) -> float:
    # log of 2 sqrt(pi) d Gamma(d/2) / (Gamma(d) Gamma((d-1)/2))
    return log(2.0 * np.sqrt(np.pi) * d) + lgamma(d / 2) - lgamma(d) - lgamma((d - 1) / 2)


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
    return exp(_log_lambda_zero(d)) * _eigenvalue_ratio(d, n)


def quadrature_eigenvalue(d: int, n: int) -> float:
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
    val = weighted_cosine_integral(d, lambda t: kernel_profile(t) * legendre(d, n, t))
    return val / surface_area(d - 1)


# closed forms of the three Gegenbauer moments entering the spectrum derivation


def gegenbauer_sqrt_moment(d: int, n: int) -> float:
    """Int (1-t^2)^((d-2)/2) C_n(t) dt in closed form."""
    num = np.pi ** 1.5 * 2.0 ** (n - 2) * (d - 2) * gamma((n + d - 2) / 2)
    rec = (
        rgamma(n + 1)
        * rgamma((1 - n) / 2)
        * rgamma((3 - n) / 2)
        * rgamma((n + d + 1) / 2)
    )
    return float(num * rec)


def gegenbauer_arc_moment(d: int, n: int) -> float:
    """Int (1-t^2)^((d-3)/2) t (pi - arccos t) C_n(t) dt in closed form."""
    num = (
        np.pi ** 1.5 * 2.0 ** (n - 3) * (d - 2) * (n * n + (d - 2) * n + 1)
        * gamma((n + d - 2) / 2)
    )
    rec = (
        rgamma(n + 1)
        * rgamma((3 - n) / 2) ** 2
        * rgamma((n + d + 1) / 2)
    )
    return float(num * rec / (n + d - 1))


def gegenbauer_kernel_moment(d: int, n: int) -> float:
    """Int (1-t^2)^((d-3)/2) k(t) C_n(t) dt in closed form (sum of the above)."""
    num = np.pi ** 1.5 * d * (d - 2) * 2.0 ** (n - 2) * gamma((n + d - 2) / 2)
    rec = (
        rgamma(n + 1)
        * rgamma((3 - n) / 2) ** 2
        * rgamma((n + d - 1) / 2)
    )
    return float(num * rec / (n + d - 1) ** 2)


# ---------------------------------------------------------------------------
# random_matrix: the Marchenko-Pastur model
# ---------------------------------------------------------------------------


def mp_edges(gamma: float) -> tuple[float, float]:
    """Support edges ((1-sqrt(gamma))^2, (1+sqrt(gamma))^2)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    r = math.sqrt(gamma)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def mp_density(gamma: float, lam) -> np.ndarray | float:
    """Continuous MP density at lam; zero outside the support."""
    lo, hi = mp_edges(gamma)
    lam_arr = np.asarray(lam, dtype=float)
    inside = (lam_arr > lo) & (lam_arr < hi) & (lam_arr > 0)
    out = np.zeros_like(lam_arr)
    lx = lam_arr[inside]
    out[inside] = np.sqrt((hi - lx) * (lx - lo)) / (2.0 * np.pi * gamma * lx)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# fresh interpreters and resident memory
# ---------------------------------------------------------------------------

glibc_only = pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                                reason="reads VmRSS and glibc's heap behaviour")


def rss() -> int:
    """Resident memory of this process in bytes, VmRSS of /proc/self/status."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS:"))


def fresh_interpreter(code: str, timeout: float = 120) -> None:
    """Runs ``code`` (dedented) in a new interpreter that imports rfflow and
    this module, and fails with its stderr unless it exits cleanly."""
    path = os.pathsep.join(str(p) for p in (Path(rfflow.__file__).resolve().parents[1],
                                           Path(__file__).resolve().parent))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
