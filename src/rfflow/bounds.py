"""Generalization-bound formulas for the flow path and their measured constants.

Two bound families are implemented.  The rough family controls the model
norm by sqrt(t) through Hoeffding-corrected estimates of ||f*|| and the
mean squared feature norm; the runner gives it these and the sup-norm bound
M, all exact on the sphere.  The finer family assumes the top Gram
eigen-pairs track the kernel operator (an alignment constant C measured by
``measure_assumptions``) and combines an exponential-decay term with a
capped growth rate

    d(t) = min(sqrt(t), lh_{floor(sqrt(n))+1} * t, 1 / lh_n),

where lh_i = s_i / n are the scaled singular values of the n-row feature
matrix, read as zero past the thin SVD's min(n, m) values: at m < n the
last branch drops and the t = inf row is inf.  ``finer_bound`` returns the
finer bound in its stated form, the ``bound_finer`` column of a run's
trajectory CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import Dataset, FeatureSet, feature_values
from .flow import SpectralDecomposition, right_product, spectral_energy_profile


class HypothesisError(ValueError):
    """A hypothesis of the finer bound fails for this cell: the alignment
    constant has C/sqrt(n) >= 1, or a top mode is zero."""


def norm_bound_rough(t, n: int, m: int, M: float, delta: float,
                     f_norm: float, feat_norm_sq: float):
    """Hoeffding-corrected sqrt(t) bound on the model norm ||f_t||, at one
    time or at every time of an array,

    (||f*||^2 + sqrt(2 M^2 log(2/delta)/n))^(1/2)
    (E_b ||phi(.;b)||^2 + sqrt(2 M^2 log(2/delta)/m))^(1/2) sqrt(t).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if f_norm < 0 or feat_norm_sq < 0 or M < 0:
        raise ValueError("norms must be >= 0")
    hoeff = 2.0 * M * M * math.log(2.0 / delta)
    fac1 = math.sqrt(f_norm ** 2 + math.sqrt(hoeff / n))
    fac2 = math.sqrt(feat_norm_sq + math.sqrt(hoeff / m))
    return fac1 * fac2 * np.sqrt(t)


def capped_rate(t: float, scaled_values: np.ndarray, n: int) -> float:
    """Three-way capped rate d(t) = min(sqrt(t), lh_k t, 1/lh_n) of n samples.

    ``scaled_values`` must be descending and are read as zero past their
    length (a thin SVD at m < n has m); k is floor(sqrt(n)) + 1, 1-based.
    A zero lh_n degenerates to the two-way minimum.
    """
    k = min(math.isqrt(n), n - 1)  # index floor(sqrt(n)) + 1, 1-based -> k 0-based
    lh_k = float(scaled_values[k]) if k < len(scaled_values) else 0.0
    lh_n = float(scaled_values[n - 1]) if n <= len(scaled_values) else 0.0
    # a zero scaled value makes its branch identically zero for every t
    middle = lh_k * t if lh_k > 0.0 else 0.0
    branches = [math.sqrt(t), middle]
    if lh_n > 0.0:
        branches.append(1.0 / lh_n)
    return float(min(branches))


def finer_bound(t: float, C: float, M_kernel: float,
                scaled_values: np.ndarray, n: int) -> float:
    """Spectral-alignment error bound in its stated form,

        3 exp(-2 lh1^2 t) + (5C + 1 + 2 sqrt(C) M d(t))^2 / sqrt(n),

    with lh1 the first of ``scaled_values``.  Requires the hypothesis
    C / sqrt(n) < 1.
    """
    if C / math.sqrt(n) >= 1.0:
        raise HypothesisError("alignment hypothesis violated: C/sqrt(n) >= 1")
    dt = capped_rate(t, scaled_values, n)
    decay = scaled_values[0] * scaled_values[0] * t
    return 3.0 * math.exp(-2.0 * decay) \
        + (5.0 * C + 1.0 + 2.0 * math.sqrt(C) * M_kernel * dt) ** 2 / math.sqrt(n)


@dataclass(frozen=True)
class RegimeWindow:
    """Time window of the flat error regime and its predicted level."""

    t_low: float
    t_high: float
    level: float          # bound on the squared error inside the window
    c1: float
    c2: float


def regime_window(C: float, C_prime: float, M_kernel: float,
                  lamhat1: float, n: int) -> RegimeWindow:
    """Window [c2 log n, c2 n^(1/4)] with c2 = 1/(4 lh1^2) and level c1/sqrt(n)."""
    if lamhat1 <= 0:
        raise ValueError("requires lamhat1 > 0")
    c2 = 1.0 / (4.0 * lamhat1 * lamhat1)
    c1 = 2.0 + 5.0 * C + 2.0 * math.sqrt(C) * C_prime * c2 * M_kernel
    return RegimeWindow(
        t_low=c2 * math.log(n),
        t_high=c2 * n ** 0.25,
        level=c1 / math.sqrt(n),
        c1=c1,
        c2=c2,
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Measured constants feeding the finer bound family."""

    c_measured: float              # sqrt(n) * max of the alignment discrepancies
    c_prime: float                 # min C' with lh_k <= C'/sqrt(k), k <= floor(sqrt n)+1
    m_kernel: float                # sqrt((1/n) E_x ||phi(x;B)||^2)
    discrepancies: tuple[float, float, float, float]
    concentration_index: int       # p with cumulative spectral energy >= 0.99
    regime_constants: tuple[float, float]  # (c1, c2)


def measure_assumptions(dec: SpectralDecomposition, y: np.ndarray, feats: FeatureSet,
                        mc_points: Dataset) -> AssumptionReport:
    """Monte-Carlo measurement of the spectral alignment constants.

    The alignment functions are g_i(x) = (sqrt(n)/s_i) v_i . phi(x; B); the
    report aggregates by maximum: | ||y||^2/n - 1 |, | u_1.y/sqrt(n) - 1 |,
    ||g_1 - psi_1|| with psi_1 = ``mc_points.targets``, and the worst
    pairwise deviation of <g_i, g_j> from
    delta_ij over 2 <= i, j <= floor(sqrt(n)).  SVD pair signs are aligned
    so that u_i.y >= 0 (a sign flip applied jointly to u_i and v_i leaves
    the decomposition valid and makes the discrepancies well defined).
    """
    if mc_points.count == 0:
        raise ValueError("mc_points must be nonempty")
    n = dec.n_rows
    k = int(math.isqrt(n))
    # the top k+1 modes must exist and be positive; missing ones (m <= k) are zero
    if dec.singular_values.size <= k or not np.all(dec.positive[: k + 1]):
        raise HypothesisError("zero singular value among the top floor(sqrt(n))+1 modes")

    uy = dec.left_vectors.T @ y
    signs = np.where(uy >= 0.0, 1.0, -1.0)
    uy = uy * signs

    phi_mc = feature_values(feats, mc_points.points)      # (N, m)
    g_vals = phi_mc @ right_product(dec, np.diag(signs[:k] * np.sqrt(n) / dec.singular_values[:k]))
    psi1 = mc_points.targets

    d1 = abs(float(y @ y) / n - 1.0)
    d2 = abs(float(uy[0]) / math.sqrt(n) - 1.0)
    d3 = float(np.sqrt(np.mean((g_vals[:, 0] - psi1) ** 2)))
    if k >= 2:
        gram = g_vals[:, 1:k].T @ g_vals[:, 1:k] / mc_points.count
        d4 = float(np.max(np.abs(gram - np.eye(k - 1))))
    else:
        d4 = 0.0

    c_measured = math.sqrt(n) * max(d1, d2, d3, d4)

    lh = dec.scaled_values
    idx = np.arange(1, min(k + 1, lh.size) + 1)
    c_prime = float(np.max(lh[: idx.size] * np.sqrt(idx)))

    m_kernel = float(np.sqrt(np.einsum("ij,ij->", phi_mc, phi_mc) / mc_points.count / n))
    _, p = spectral_energy_profile(dec, y)

    window = regime_window(c_measured, c_prime, m_kernel, float(lh[0]), n)

    return AssumptionReport(
        c_measured=c_measured,
        c_prime=c_prime,
        m_kernel=m_kernel,
        discrepancies=(d1, d2, d3, d4),
        concentration_index=p,
        regime_constants=(window.c1, window.c2),
    )
