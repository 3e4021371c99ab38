import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

import oracles
from rfflow import features
from rfflow import kernel_analytic as ka
from rfflow import random_matrix as rm
from rfflow.runner import feature_norm_sq


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
    val, se = oracles.kernel_mc(x, x, feats)
    assert val == pytest.approx(0.5, abs=5 * se)


def test_kernel_mc_relu_diagonal_matches_half_over_d():
    # E[(b.x)^2 1_{b.x>0}] = 1/(2d) by symmetry and E (b.x)^2 = 1/d
    d = 8
    feats = features.sample_features(2, d, 50_000, "relu")
    x = features.sample_sphere(3, d, 1)[0]
    val, se = oracles.kernel_mc(x, x, feats)
    assert val == pytest.approx(1.0 / (2 * d), abs=5 * se)


def test_kernel_mc_shape_matches_profile():
    d = 5
    feats = features.sample_features(4, d, 100_000, "relu")
    xs = features.sample_sphere(5, d, 12)
    ys = features.sample_sphere(6, d, 12)
    ref = []
    for x, y in zip(xs, ys):
        val, se = oracles.kernel_mc(x, y, feats)
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
        oracles.kernel_mc(x, x, feats)


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


def _gegenbauer(d, n, t):
    """C_n(t) = C_n(1) P_n(t)."""
    return math.comb(n + d - 3, n) * np.asarray(ka.legendre(d, n, t))


def test_gegenbauer_degree_zero_and_one():
    for d in (3, 5, 10):
        t = np.linspace(-1, 1, 9)
        np.testing.assert_allclose(_gegenbauer(d, 0, t), 1.0)
        np.testing.assert_allclose(_gegenbauer(d, 1, t), (d - 2) * t, atol=1e-14)


def test_gegenbauer_first_order_matches_generating_function():
    # C_1(t) is the s-coefficient of (1 - 2st + s^2)^(-(d-2)/2)
    d, s = 7, 1e-6
    t = np.linspace(-0.9, 0.9, 7)
    gen = lambda ss: (1 - 2 * ss * t + ss * ss) ** (-(d - 2) / 2)
    fd = (gen(s) - gen(-s)) / (2 * s)
    np.testing.assert_allclose(_gegenbauer(d, 1, t), fd, atol=1e-8)


def test_legendre_is_normalized_at_one():
    for d in (3, 5, 10, 200):
        for n in range(7):
            assert ka.legendre(d, n, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_legendre_is_scipys_gegenbauer_over_its_value_at_one():
    # P_n = C_n / C_n(1) with C_n(1) = binom(n+d-3, n), an independent route
    t = np.linspace(-1.0, 1.0, 41)
    for d in range(3, 201):
        for n in range(17):
            expect = special.eval_gegenbauer(n, (d - 2) / 2, t) / math.comb(n + d - 3, n)
            np.testing.assert_allclose(ka.legendre(d, n, t), expect, rtol=0, atol=1e-12)


def test_legendre_target_has_unit_norm_in_high_dimension():
    # d = 200 is past the overflow of Gamma(n + d - 2) in the Gamma-function form
    d = 200
    target = features.TargetSpec(order=2)
    vals = features.eval_target_many(target, features.sample_sphere(7, d, 20_000))
    assert np.sqrt(np.mean(vals ** 2)) == pytest.approx(1.0, rel=0.02)


def test_legendre_d3_matches_classic():
    t = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(ka.legendre(3, 2, t), (3 * t * t - 1) / 2, atol=1e-14)


@pytest.mark.parametrize("d", [3, 5, 10])
def test_legendre_orthogonality_by_quadrature(d):
    for n in range(0, 7):
        for mm in range(n + 1, 7):
            val = ka.weighted_cosine_integral(
                d, lambda t: ka.legendre(d, n, t) * ka.legendre(d, mm, t))
            assert abs(val) < 1e-10


@pytest.mark.parametrize("d", [3, 5, 10])
@pytest.mark.parametrize("n", range(0, 7))
def test_legendre_norm_identity(d, n):
    # Int P_n^2 w dt = Omega_{d-1} / (Omega_{d-2} N(d, n))
    val = ka.weighted_cosine_integral(d, lambda t: ka.legendre(d, n, t) ** 2)
    expect = oracles.surface_area(d - 1) / (oracles.surface_area(d - 2) * ka.harmonic_multiplicity(d, n))
    assert val == pytest.approx(expect, rel=1e-8)


def test_polynomial_validation():
    with pytest.raises(ValueError, match="d >= 3"):
        ka.legendre(2, 1, 0.5)
    with pytest.raises(ValueError, match="order"):
        ka.legendre(3, -1, 0.5)
    with pytest.raises(ValueError, match="outside"):
        ka.legendre(3, 1, 1.5)
    assert isinstance(ka.legendre(3, 1, 0.5), float)


def test_surface_area_closed_form():
    for d in (3, 4, 10):
        assert oracles.surface_area(d - 1) == pytest.approx(
            2 * np.pi ** (d / 2) / special.gamma(d / 2), rel=1e-14)


# ---------------------------------------------------------------------------
# analytic spectrum
# ---------------------------------------------------------------------------

def test_lambda0_d3_value():
    assert oracles.analytic_eigenvalue(3, 0) == pytest.approx(3 * np.pi / 2, rel=1e-14)


@pytest.mark.parametrize("d", [3, 10])
def test_odd_orders_vanish_exactly(d):
    for n in (3, 5, 7, 9):
        assert oracles.analytic_eigenvalue(d, n) == 0.0


@pytest.mark.parametrize("d", [3, 10])
@pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
def test_two_step_ratio_identity(d, n):
    lam_n = oracles.analytic_eigenvalue(d, n)
    lam_n2 = oracles.analytic_eigenvalue(d, n + 2)
    expect = (n - 1) ** 2 / ((n + d - 1) ** 2 * (n + d + 1) * (n + d))
    if n == 1:
        assert lam_n2 == 0.0 and expect == 0.0
    else:
        assert lam_n2 / lam_n == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("d", [3, 5, 10])
def test_stage_decay_inequality(d):
    for n in range(0, 8):
        lam_n = oracles.analytic_eigenvalue(d, n)
        if lam_n > 0:
            assert oracles.analytic_eigenvalue(d, n + 2) <= lam_n / (n + d) ** 2 + 1e-300


def test_spectrum_container():
    d = 10
    for kind in features.FEATURE_KINDS:
        flat = ka.analytic_spectrum(d, kind, 12)
        assert flat.shape == (12,)
        assert np.all(flat > 0) and np.all(np.diff(flat) <= 0)
        # degree 0, then d copies of degree 1, then the next nonzero degree
        assert flat[0] > flat[1] > flat[11]
        np.testing.assert_array_equal(flat[1:11], flat[1])


@pytest.mark.parametrize("d", [68, 88, 90, 150])
def test_analytic_eigenvalues_stay_finite_in_high_dimension(d):
    # the Gamma products overflow from d = 68; in log space every even degree and
    # degree 1 stay positive and keep the two-step ratio identity
    lams = [oracles.analytic_eigenvalue(d, n) for n in range(17)]
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
    for kind in features.FEATURE_KINDS:
        full = ka.analytic_spectrum(d, kind, 289)
        for count in (1, 2, d, d + 1, 100, 289):
            np.testing.assert_array_equal(ka.analytic_spectrum(d, kind, count), full[:count])


def test_flatten_never_expands_the_whole_spectrum():
    # at d = 200 the third nonzero degree has N(200, 2) = 20,099 harmonics
    # (N(200, 3) = 1,353,400 for the indicator); 500 values need 299 of them
    for kind in features.FEATURE_KINDS:
        tracemalloc.start()
        try:
            flat = ka.analytic_spectrum(200, kind, 500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5
        assert flat.shape == (500,)
        assert flat[0] > flat[1] > flat[201] > 0
        np.testing.assert_array_equal(flat[1:201], flat[1])
        np.testing.assert_array_equal(flat[201:], flat[201])


def test_analytic_eigenvalue_rejects_low_dim():
    with pytest.raises(ValueError):
        oracles.analytic_eigenvalue(2, 0)


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [3, 4, 10, 90])
def test_weighted_cosine_integral_of_exp(d):
    # Int e^t (1-t^2)^(nu-1/2) dt = sqrt(pi) Gamma(nu+1/2) 2^nu I_nu(1), nu = (d-2)/2
    nu = (d - 2) / 2
    expect = math.sqrt(math.pi) * special.gamma(nu + 0.5) * 2.0 ** nu * special.iv(nu, 1.0)
    assert ka.weighted_cosine_integral(d, np.exp) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("d", [3, 10])
def test_quadrature_odd_orders_vanish(d):
    for n in (3, 5, 7):
        assert abs(oracles.quadrature_eigenvalue(d, n)) < 1e-10


@pytest.mark.parametrize("d", [3, 5, 10])
@pytest.mark.parametrize("n", [0, 2, 4, 6])
def test_quadrature_two_step_ratio(d, n):
    # the integral route decays as (n-1)^2/(n+d+1)^2 per two degrees
    qa = oracles.quadrature_eigenvalue(d, n)
    qb = oracles.quadrature_eigenvalue(d, n + 2)
    expect = (n - 1) ** 2 / (n + d + 1) ** 2
    assert qb / qa == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("d", [3, 5, 10])
@pytest.mark.parametrize("n", range(0, 9))
def test_gegenbauer_moment_identities(d, n):
    """Closed-form moments against the fixed quadrature rule (theta substitution)."""
    def geg(t):
        return _gegenbauer(d, n, t)

    # sqrt moment carries one extra (1-t^2)^(1/2) inside the d-weight
    lhs1 = ka.weighted_cosine_integral(d, lambda t: np.sqrt(1 - t * t) * geg(t))
    lhs2 = ka.weighted_cosine_integral(
        d, lambda t: t * (np.pi - np.arccos(np.clip(t, -1, 1))) * geg(t))
    lhs3 = ka.weighted_cosine_integral(d, lambda t: ka.kernel_profile(t) * geg(t))
    for lhs, rhs in ((lhs1, oracles.gegenbauer_sqrt_moment(d, n)),
                     (lhs2, oracles.gegenbauer_arc_moment(d, n)),
                     (lhs3, oracles.gegenbauer_kernel_moment(d, n))):
        if abs(rhs) < 1e-14:
            assert abs(lhs) < 1e-10
        else:
            assert lhs == pytest.approx(rhs, rel=1e-8)


@pytest.mark.parametrize("d", [3, 5, 10])
@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_quadrature_consistent_with_kernel_moment(d, n):
    # quadrature eigenvalue = kernel moment / (conversion * Omega_{d-1})
    expect = oracles.gegenbauer_kernel_moment(d, n) / (
        math.comb(n + d - 3, n) * oracles.surface_area(d - 1))
    assert oracles.quadrature_eigenvalue(d, n) == pytest.approx(expect, rel=1e-10)


def test_moment_sum_identity():
    # the kernel moment is the sum of the other two
    for d in (3, 7):
        for n in (0, 1, 2, 4, 6):
            assert oracles.gegenbauer_kernel_moment(d, n) == pytest.approx(
                oracles.gegenbauer_sqrt_moment(d, n) + oracles.gegenbauer_arc_moment(d, n),
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


# ---------------------------------------------------------------------------
# exact feature kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
@pytest.mark.parametrize("d", [3, 10])
def test_feature_kernel_matches_monte_carlo(kind, d):
    feats = features.sample_features([50, d], d, 200_000, kind)
    xs = features.sample_sphere([51, d], d, 8)
    ys = features.sample_sphere([52, d], d, 8)
    for x, y in zip(xs, ys):
        val, se = oracles.kernel_mc(x, y, feats)
        assert abs(ka.feature_kernel(float(x @ y), d, kind) - val) <= 5 * se


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
@pytest.mark.parametrize("d", [3, 10, 90])
def test_feature_kernel_diagonal_is_the_mean_square(kind, d):
    assert ka.feature_kernel(1.0, d, kind) == pytest.approx(feature_norm_sq(d, kind), rel=1e-15)


def test_feature_kernel_validation():
    with pytest.raises(ValueError, match="unknown feature kind"):
        ka.feature_kernel(0.5, 4, "tanh")
    for kind in features.FEATURE_KINDS:
        with pytest.raises(ValueError, match="outside"):
            ka.feature_kernel(1.0 + 1e-9, 4, kind)
        with pytest.raises(ValueError, match="outside"):
            ka.feature_kernel(np.array([0.0, -2.5]), 4, kind)


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
def test_gram_tracks_the_exact_kernel_matrix(kind):
    # gamma = 8, n = 500, d = 10: the top-10 Gram eigenvalues agree with the
    # exact kernel matrix's within 10%, median over three seeds
    d, n, m = 10, 500, 4000
    rels = []
    for seed in range(3):
        points = features.sample_sphere([seed, 1], d, n)
        feats = features.sample_features([seed, 2], d, m, kind)
        ev_g = rm.symmetric_eigenvalues(rm.gram_matrix(points, feats))[:10]
        ev_k = rm.symmetric_eigenvalues(rm.kernel_matrix(points, kind))[:10]
        rels.append(np.abs(ev_g - ev_k) / ev_k)
    assert np.max(np.median(rels, axis=0)) <= 0.10


def _funk_hecke(d, kind, n):
    """lambda_n of one kind by the Funk-Hecke integral, written out as a reference."""
    num = ka.weighted_cosine_integral(
        d, lambda t: ka.feature_kernel(t, d, kind) * ka.legendre(d, n, t))
    return num / ka.weighted_cosine_integral(d, np.ones_like)


@pytest.mark.parametrize("d", [3, 10, 90])
@pytest.mark.parametrize("count", [1, 4, 156, 157, 300, 1000])
def test_degree_for_count_is_the_smallest_covering_degree(d, count, monkeypatch):
    calls = []
    quadrature = ka.weighted_cosine_integral
    monkeypatch.setattr(ka, "weighted_cosine_integral",
                        lambda *a, **k: calls.append(1) or quadrature(*a, **k))
    for kind in features.FEATURE_KINDS:
        # the nonzero degrees, found by their integrals, until their harmonics
        # cover count; at these d and counts the smallest kept eigenvalue is
        # above 1e-12 lambda_0 and every vanishing integral below 1e-15 lambda_0
        lam0 = _funk_hecke(d, kind, 0)
        mults, n = [], 0
        while sum(mults) < count:
            if abs(_funk_hecke(d, kind, n)) > 1e-12 * lam0:
                mults.append(ka.harmonic_multiplicity(d, n))
            n += 1

        calls.clear()
        flat = ka.analytic_spectrum(d, kind, count)
        assert len(calls) == 1 + len(mults)  # the measure's mass, then one per nonzero degree
        assert flat.shape == (count,)
        assert np.all(flat > 0) and np.all(np.diff(flat) <= 0)
        # one run of equal values per degree: whole multiplicities, the last one cut at count
        runs = np.unique(flat, return_counts=True)[1][::-1]
        assert list(runs) == mults[:-1] + [count - sum(mults[:-1])]


@pytest.mark.parametrize("d", [3, 10, 90, 200, 1000, 3000, 10_000])
def test_relu_spectrum_matches_closed_forms(d):
    # lambda_0 is the closed-form top eigenvalue, lambda_1 = 1/(4 d^2) and
    # lambda_2 = lambda_0 / (d+1)^2, with multiplicities 1, d and N(d, 2);
    # from d = 3000 only the first lambda_2 of its N(d, 2) ~ d^2/2 copies,
    # at rtol 1e-9 instead of 1e-11
    lam0 = ka.spectrum_feature_scale(d, 1 / (2 * np.pi * d))
    count_2, rtol = (ka.harmonic_multiplicity(d, 2), 1e-11) if d <= 1000 else (1, 1e-9)
    expect = np.concatenate([[lam0], np.full(d, 1 / (4 * d * d)),
                             np.full(count_2, lam0 / (d + 1) ** 2)])
    np.testing.assert_allclose(ka.analytic_spectrum(d, "relu", expect.size), expect,
                               rtol=rtol, atol=0.0)


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
@pytest.mark.parametrize("d", [3, 10, 200])
def test_skipped_degrees_vanish(kind, d):
    # the spectrum skips exactly the degrees whose integral is zero: relu's odd
    # degrees >= 3, the indicator's even degrees >= 2, none for the affine ReLU
    skipped = {"relu": [3, 5, 7], "indicator": [2, 4, 6, 8], "affine-relu": []}[kind]
    assert [n for n in range(9) if ka._vanishes(kind, n)] == skipped
    lam0 = _funk_hecke(d, kind, 0)
    for n in range(9):
        lam = _funk_hecke(d, kind, n)
        if n in skipped:
            assert abs(lam) <= 1e-14 * lam0
        else:  # no threshold: at d = 200 relu's lambda_8 is 7.5e-17 lambda_0
            assert lam > 0
