import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad as scipy_quad

from rfflow import features
from rfflow import kernel_analytic as ka


# ---------------------------------------------------------------------------
# kernel profile
# ---------------------------------------------------------------------------

def test_profile_anchor_values():
    assert ka.kernel_profile(1.0) == pytest.approx(np.pi, abs=1e-15)
    assert ka.kernel_profile(0.0) == pytest.approx(1.0, abs=1e-15)
    assert ka.kernel_profile(-1.0) == pytest.approx(0.0, abs=1e-15)


def test_profile_range_and_clipping():
    t = np.linspace(-1, 1, 1001)
    vals = ka.kernel_profile(t)
    assert np.all(vals >= -1e-12) and np.all(vals <= np.pi + 1e-12)
    ka.kernel_profile(1.0 + 5e-13)  # inside tolerance
    with pytest.raises(ValueError):
        ka.kernel_profile(1.0 + 1e-9)


def test_kernel_mc_indicator_diagonal():
    d = 6
    feats = features.sample_features(0, d, 20_000, "indicator")
    x = features.sample_sphere(1, d, 1)[0]
    val, se = ka.kernel_mc(x, x, feats)
    assert val == pytest.approx(0.5, abs=5 * se)


def test_kernel_mc_relu_diagonal_matches_half_over_d():
    # E[(b.x)^2 1_{b.x>0}] = 1/(2d) by symmetry and E (b.x)^2 = 1/d
    d = 8
    feats = features.sample_features(2, d, 50_000, "relu")
    x = features.sample_sphere(3, d, 1)[0]
    val, se = ka.kernel_mc(x, x, feats)
    assert val == pytest.approx(1.0 / (2 * d), abs=5 * se)


def test_kernel_mc_shape_matches_profile():
    d = 5
    feats = features.sample_features(4, d, 100_000, "relu")
    xs = features.sample_sphere(5, d, 12)
    ys = features.sample_sphere(6, d, 12)
    ref = []
    for x, y in zip(xs, ys):
        val, se = ka.kernel_mc(x, y, feats)
        ref.append((val, se, ka.kernel_profile(float(x @ y))))
    vals = np.array([r[0] for r in ref])
    ses = np.array([r[1] for r in ref])
    prof = np.array([r[2] for r in ref])
    c = float(vals @ prof / (prof @ prof))
    assert np.all(np.abs(vals - c * prof) <= 5 * ses)


def test_kernel_mc_rejects_empty():
    feats = features.FeatureSet(directions=np.empty((0, 3)), kind="relu")
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ka.kernel_mc(x, x, feats)


# ---------------------------------------------------------------------------
# multiplicities and polynomials
# ---------------------------------------------------------------------------

def test_multiplicity_anchor_values():
    assert ka.harmonic_multiplicity(3, 0) == 1
    assert ka.harmonic_multiplicity(3, 1) == 3
    assert ka.harmonic_multiplicity(3, 2) == 5


@pytest.mark.parametrize("d", [3, 4, 5, 8, 10])
@pytest.mark.parametrize("n", range(0, 9))
def test_multiplicity_against_difference_identity(d, n):
    # dimension of degree-n harmonics: binom(n+d-1, n) - binom(n+d-3, n-2)
    expect = math.comb(n + d - 1, n) - (math.comb(n + d - 3, n - 2) if n >= 2 else 0)
    assert ka.harmonic_multiplicity(d, n) == expect


def test_multiplicity_rejects_low_dim():
    with pytest.raises(ValueError):
        ka.harmonic_multiplicity(2, 1)


def test_gegenbauer_degree_zero_and_one():
    for d in (3, 5, 10):
        p0 = ka.OrthogonalPolynomial("gegenbauer", d, 0)
        p1 = ka.OrthogonalPolynomial("gegenbauer", d, 1)
        t = np.linspace(-1, 1, 9)
        np.testing.assert_allclose(ka.poly_eval(p0, t), 1.0)
        np.testing.assert_allclose(ka.poly_eval(p1, t), (d - 2) * t, atol=1e-14)


def test_gegenbauer_first_order_matches_generating_function():
    # C_1(t) is the s-coefficient of (1 - 2st + s^2)^(-(d-2)/2)
    d, s = 7, 1e-6
    t = np.linspace(-0.9, 0.9, 7)
    gen = lambda ss: (1 - 2 * ss * t + ss * ss) ** (-(d - 2) / 2)
    fd = (gen(s) - gen(-s)) / (2 * s)
    p1 = ka.OrthogonalPolynomial("gegenbauer", d, 1)
    np.testing.assert_allclose(ka.poly_eval(p1, t), fd, atol=1e-8)


def test_legendre_is_normalized_at_one():
    for d in (3, 5, 10, 200):
        for n in range(7):
            p = ka.OrthogonalPolynomial("legendre", d, n)
            assert ka.poly_eval(p, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_legendre_conversion_is_the_binomial_value_at_one():
    for d in range(3, 201):
        for n in range(17):
            conv = ka.legendre_conversion(d, n)
            assert conv == math.comb(n + d - 3, n)
            assert conv == pytest.approx(special.eval_gegenbauer(n, (d - 2) / 2, 1.0), rel=1e-12)


def test_legendre_target_has_unit_norm_in_high_dimension():
    # d = 200 is past the overflow of Gamma(n + d - 2) in the Gamma-function form
    d = 200
    target = features.legendre_target(d, 2, np.eye(d)[0])
    vals = features.eval_target_many(target, features.sample_sphere(7, d, 20_000))
    assert np.sqrt(np.mean(vals ** 2)) == pytest.approx(1.0, rel=0.02)


def test_legendre_d3_matches_classic():
    t = np.linspace(-1, 1, 11)
    p2 = ka.OrthogonalPolynomial("legendre", 3, 2)
    np.testing.assert_allclose(ka.poly_eval(p2, t), (3 * t * t - 1) / 2, atol=1e-14)


@pytest.mark.parametrize("d", [3, 5, 10])
def test_legendre_orthogonality_by_quadrature(d):
    for n in range(0, 7):
        for mm in range(n + 1, 7):
            pn = ka.OrthogonalPolynomial("legendre", d, n)
            pm = ka.OrthogonalPolynomial("legendre", d, mm)
            val = ka.weighted_cosine_integral(
                d, lambda t: np.asarray(ka.poly_eval(pn, t)) * np.asarray(ka.poly_eval(pm, t)))
            assert abs(val) < 1e-10


@pytest.mark.parametrize("d", [3, 5, 10])
@pytest.mark.parametrize("n", range(0, 7))
def test_legendre_norm_identity(d, n):
    # Int P_n^2 w dt = Omega_{d-1} / (Omega_{d-2} N(d, n))
    p = ka.OrthogonalPolynomial("legendre", d, n)
    val = ka.weighted_cosine_integral(d, lambda t: np.asarray(ka.poly_eval(p, t)) ** 2)
    expect = ka.surface_area(d - 1) / (ka.surface_area(d - 2) * ka.harmonic_multiplicity(d, n))
    assert val == pytest.approx(expect, rel=1e-8)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        ka.OrthogonalPolynomial("legendre", 2, 1)
    with pytest.raises(ValueError):
        ka.OrthogonalPolynomial("chebyshev", 3, 1)
    p = ka.OrthogonalPolynomial("legendre", 3, 1)
    with pytest.raises(ValueError):
        ka.poly_eval(p, 1.5)


def test_reciprocal_gamma_against_scipy():
    for x in (-3.0, -2.0, -1.0, 0.0):
        assert ka._rgamma(x) == 0.0
    for x in (-2.5, -0.5, 0.5, 1.0, 1.5, 7.0, 40.5):
        assert ka._rgamma(x) == pytest.approx(special.rgamma(x), rel=1e-14)


def test_surface_area_closed_form():
    for d in (3, 4, 10):
        assert ka.surface_area(d - 1) == pytest.approx(
            2 * np.pi ** (d / 2) / special.gamma(d / 2), rel=1e-14)


# ---------------------------------------------------------------------------
# analytic spectrum
# ---------------------------------------------------------------------------

def test_lambda0_d3_value():
    assert ka.analytic_eigenvalue(3, 0) == pytest.approx(3 * np.pi / 2, rel=1e-14)


@pytest.mark.parametrize("d", [3, 10])
def test_odd_orders_vanish_exactly(d):
    for n in (3, 5, 7, 9):
        assert ka.analytic_eigenvalue(d, n) == 0.0


@pytest.mark.parametrize("d", [3, 10])
@pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
def test_two_step_ratio_identity(d, n):
    lam_n = ka.analytic_eigenvalue(d, n)
    lam_n2 = ka.analytic_eigenvalue(d, n + 2)
    expect = (n - 1) ** 2 / ((n + d - 1) ** 2 * (n + d + 1) * (n + d))
    if n == 1:
        assert lam_n2 == 0.0 and expect == 0.0
    else:
        assert lam_n2 / lam_n == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("d", [3, 5, 10])
def test_stage_decay_inequality(d):
    for n in range(0, 8):
        lam_n = ka.analytic_eigenvalue(d, n)
        if lam_n > 0:
            assert ka.analytic_eigenvalue(d, n + 2) <= lam_n / (n + d) ** 2 + 1e-300


def test_spectrum_container():
    spec = ka.analytic_spectrum(10, 8)
    assert spec.eigenvalues.shape == (9,)
    assert spec.multiplicities[0] == 1
    assert np.all(spec.eigenvalues >= 0)
    flat = spec.flatten(12)
    assert np.all(np.diff(flat) <= 0)
    # degree-0 then d copies of degree 1
    assert flat[0] == spec.eigenvalues[0]
    np.testing.assert_allclose(flat[1:11], spec.eigenvalues[1])


@pytest.mark.parametrize("d", [68, 88, 90, 150])
def test_analytic_eigenvalues_stay_finite_in_high_dimension(d):
    # the Gamma products overflow from d = 68; in log space every even degree and
    # degree 1 stay positive and keep the two-step ratio identity
    lams = [ka.analytic_eigenvalue(d, n) for n in range(17)]
    assert all(math.isfinite(v) for v in lams)
    assert all(lams[n] > 0 for n in (0, 1, *range(2, 17, 2)))
    assert all(lams[n] == 0.0 for n in range(3, 17, 2))
    for n in range(2, 15, 2):
        expect = (n - 1) ** 2 / ((n + d - 1) ** 2 * (n + d + 1) * (n + d))
        assert lams[n + 2] / lams[n] == pytest.approx(expect, rel=1e-12)
    lam0 = 2 * math.sqrt(math.pi) * d * math.exp(
        special.gammaln(d / 2) - special.gammaln(d) - special.gammaln((d - 1) / 2))
    assert lams[0] == pytest.approx(lam0, rel=1e-12)


@pytest.mark.parametrize("d", [3, 5, 10])
def test_flatten_is_the_truncated_expansion(d):
    spec = ka.analytic_spectrum(d, 16)
    full = np.sort(np.repeat(spec.eigenvalues, spec.multiplicities))[::-1]
    for count in (1, 2, d, d + 1, 100, 289):
        np.testing.assert_array_equal(spec.flatten(count), full[:count])
    with pytest.raises(ValueError, match="n_max"):
        ka.analytic_spectrum(d, 2).flatten(1 + d + ka.harmonic_multiplicity(d, 2) + 1)


def test_flatten_never_expands_the_whole_spectrum():
    # at d = 200 the multiplicities up to degree 16 sum past 2^63 entries
    spec = ka.analytic_spectrum(200, 16)
    assert sum(spec.multiplicities) > 2 ** 63
    flat = spec.flatten(500)
    assert flat.shape == (500,)
    assert flat[0] == spec.eigenvalues[0]
    np.testing.assert_array_equal(flat[1:201], spec.eigenvalues[1])
    np.testing.assert_array_equal(flat[201:], spec.eigenvalues[2])


def test_analytic_eigenvalue_rejects_low_dim():
    with pytest.raises(ValueError):
        ka.analytic_eigenvalue(2, 0)


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def test_adaptive_quadrature_against_scipy():
    f = lambda x: np.exp(-x) * np.sin(3 * x)
    ours = ka.adaptive_quadrature(f, 0.0, 2.0)
    ref, _ = scipy_quad(lambda x: math.exp(-x) * math.sin(3 * x), 0.0, 2.0,
                        epsabs=1e-13, epsrel=1e-13)
    assert ours == pytest.approx(ref, abs=1e-11)


def test_adaptive_quadrature_budget_exhaustion():
    spike = lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300)
    with pytest.raises(RuntimeError):
        ka.adaptive_quadrature(spike, 0.0, 1.0, tol=1e-14, order=4, max_depth=3)


@pytest.mark.parametrize("d", [3, 10])
def test_quadrature_odd_orders_vanish(d):
    for n in (3, 5, 7):
        assert abs(ka.quadrature_eigenvalue(d, n)) < 1e-10


def test_quadrature_node_count_validation():
    with pytest.raises(ValueError):
        ka.quadrature_eigenvalue(3, 0, node_count=32)


@pytest.mark.parametrize("d", [3, 5, 10])
@pytest.mark.parametrize("n", [0, 2, 4, 6])
def test_quadrature_two_step_ratio(d, n):
    # the integral route decays as (n-1)^2/(n+d+1)^2 per two degrees
    qa = ka.quadrature_eigenvalue(d, n)
    qb = ka.quadrature_eigenvalue(d, n + 2)
    expect = (n - 1) ** 2 / (n + d + 1) ** 2
    assert qb / qa == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("d", [3, 5, 10])
@pytest.mark.parametrize("n", range(0, 9))
def test_gegenbauer_moment_identities(d, n):
    """Closed-form moments against adaptive quadrature (theta substitution)."""
    def geg(t):
        return np.asarray(ka.poly_eval(ka.OrthogonalPolynomial("gegenbauer", d, n), t))

    # sqrt moment carries one extra (1-t^2)^(1/2) inside the d-weight
    lhs1 = ka.weighted_cosine_integral(d, lambda t: np.sqrt(1 - t * t) * geg(t))
    lhs2 = ka.weighted_cosine_integral(
        d, lambda t: t * (np.pi - np.arccos(np.clip(t, -1, 1))) * geg(t))
    lhs3 = ka.weighted_cosine_integral(d, lambda t: ka.kernel_profile(t) * geg(t))
    for lhs, rhs in ((lhs1, ka.gegenbauer_sqrt_moment(d, n)),
                     (lhs2, ka.gegenbauer_arc_moment(d, n)),
                     (lhs3, ka.gegenbauer_kernel_moment(d, n))):
        if abs(rhs) < 1e-14:
            assert abs(lhs) < 1e-10
        else:
            assert lhs == pytest.approx(rhs, rel=1e-8)


@pytest.mark.parametrize("d", [3, 5, 10])
@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_quadrature_consistent_with_kernel_moment(d, n):
    # quadrature eigenvalue = kernel moment / (conversion * Omega_{d-1})
    expect = ka.gegenbauer_kernel_moment(d, n) / (
        ka.legendre_conversion(d, n) * ka.surface_area(d - 1))
    assert ka.quadrature_eigenvalue(d, n) == pytest.approx(expect, rel=1e-10)


def test_moment_sum_identity():
    # the kernel moment is the sum of the other two
    for d in (3, 7):
        for n in (0, 1, 2, 4, 6):
            assert ka.gegenbauer_kernel_moment(d, n) == pytest.approx(
                ka.gegenbauer_sqrt_moment(d, n) + ka.gegenbauer_arc_moment(d, n),
                rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_fit_profile_scale_recovers_half_over_pi_d():
    d = 6
    feats = features.sample_features(10, d, 60_000, "relu")
    pts = features.sample_sphere(11, d, 40)
    c, resid = ka.fit_profile_scale(feats, pts)
    assert c == pytest.approx(1.0 / (2 * np.pi * d), rel=0.02)
    assert resid < 0.01 * c * np.pi
