import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from rfflow import features
from rfflow import kernel_analytic as ka
from rfflow import random_matrix as rm
from rfflow.flow import decompose


def _phi(seed, n, m, d=10, kind="relu"):
    data = features.sample_dataset([seed, 1], n, d,
                                   features.TargetSpec(kind="constant-harmonic"))
    feats = features.sample_features([seed, 2], d, m, kind)
    return features.build_feature_matrix(data, feats), data


# ---------------------------------------------------------------------------
# gram matrix and eigenvalues
# ---------------------------------------------------------------------------

def test_gram_identity_matrix():
    n = 4
    g = rm.gram_matrix(np.eye(n), n, n)
    np.testing.assert_allclose(g, np.eye(n) / n ** 2, atol=1e-15)


def test_gram_eigenvalues_match_svd():
    phi, _ = _phi(0, 12, 9)
    dec = decompose(phi)
    ev = rm.symmetric_eigenvalues(rm.gram_matrix(phi, 12, 9))
    expect = np.zeros(12)
    expect[: dec.singular_values.size] = dec.singular_values ** 2 / (12 * 9)
    np.testing.assert_allclose(ev, np.sort(expect)[::-1], rtol=1e-8, atol=1e-14)


def test_gram_shape_validation():
    with pytest.raises(ValueError):
        rm.gram_matrix(np.eye(3), 3, 4)


def test_symmetric_eigenvalues_diag_and_rank_one():
    np.testing.assert_allclose(
        rm.symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0])
    v = np.array([1.0, 2.0, 2.0])
    ev = rm.symmetric_eigenvalues(np.outer(v, v))
    np.testing.assert_allclose(ev, [9.0, 0.0, 0.0], atol=1e-12)


def test_symmetric_eigenvalues_moment_oracle():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 20))
    psd = a @ a.T
    ev = rm.symmetric_eigenvalues(psd)
    assert np.trace(psd) == pytest.approx(ev.sum(), rel=1e-10)
    assert np.linalg.norm(psd, "fro") ** 2 == pytest.approx((ev ** 2).sum(), rel=1e-10)


def test_symmetric_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError):
        rm.symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_companion_spectra_match_on_rectangular():
    phi, _ = _phi(1, 10, 6)
    g_big = rm.gram_matrix(phi, 10, 6)
    g_small = phi.T @ phi / (10 * 6)
    ev_big = rm.symmetric_eigenvalues(g_big)
    ev_small = rm.symmetric_eigenvalues(g_small)
    np.testing.assert_allclose(ev_big[:6], ev_small, atol=1e-10)
    np.testing.assert_allclose(ev_big[6:], 0.0, atol=1e-10)


def test_smallest_gram_eigenvalue_uses_companion():
    phi, _ = _phi(2, 12, 5)
    val = rm.smallest_gram_eigenvalue(phi, 12, 5)
    ev = rm.symmetric_eigenvalues(phi.T @ phi / (12 * 5))
    assert val == pytest.approx(ev[-1], rel=1e-10)
    assert val > 1e-12  # the small companion is full rank


def test_gram_top_eigenvalue_matches_calibrated_analytic():
    # n = m = 500 ReLU at d = 10: top Gram eigenvalue tracks the calibrated
    # top operator eigenvalue within 10%
    d, n, m = 10, 500, 500
    phi, _ = _phi(0, n, m, d)
    top = rm.symmetric_eigenvalues(rm.gram_matrix(phi, n, m))[0]
    feats = features.sample_features([900, 1], d, 50_000, "relu")
    pts = features.sample_sphere([900, 2], d, 48)
    c_fit, _ = ka.fit_profile_scale(feats, pts)
    lam0 = ka.analytic_eigenvalue(d, 0) * ka.spectrum_feature_scale(d, c_fit)
    assert top == pytest.approx(lam0, rel=0.10)


# ---------------------------------------------------------------------------
# Marchenko-Pastur model
# ---------------------------------------------------------------------------

def test_mp_edges_values():
    assert rm.mp_edges(1.0) == (0.0, 4.0)
    lo, hi = rm.mp_edges(0.25)
    assert lo == pytest.approx(0.25) and hi == pytest.approx(2.25)
    with pytest.raises(ValueError):
        rm.mp_edges(0.0)


def test_mp_density_support():
    lo, hi = rm.mp_edges(0.5)
    lam = np.linspace(-1, 4, 200)
    dens = rm.mp_density(0.5, lam)
    outside = (lam <= lo) | (lam >= hi)
    assert np.all(dens[outside] == 0.0)
    assert np.all(dens >= 0.0)


def test_mp_density_mass_against_scipy():
    lo, hi = rm.mp_edges(0.5)
    ref, _ = scipy_quad(lambda x: rm.mp_density(0.5, x), lo, hi, limit=200)
    assert rm.mp_mass(0.5) == pytest.approx(ref, abs=1e-8)
    assert rm.mp_mass(0.5) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 8.0])
def test_mp_total_mass_is_one(gamma):
    assert rm.mp_mass(gamma) + rm.mp_atom(gamma) == pytest.approx(1.0, abs=1e-6)


def test_predict_smallest_anchor_values():
    assert rm.predict_smallest(1.0, 2.0) == 0.0
    assert rm.predict_smallest(4.0, 1.0) == pytest.approx(0.25)
    for g in (0.3, 0.7, 2.5):
        assert rm.predict_smallest(g, 1.3) == pytest.approx(
            rm.predict_smallest(1.0 / g, 1.3), rel=1e-12)


def test_calibrate_exact_fit():
    gammas = [0.5, 0.8, 1.25, 2.0]
    meas = [(g, 2.0 * rm.mp_shape(g)) for g in gammas]
    c, resid = rm.calibrate_c(meas)
    assert c == pytest.approx(2.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_calibrate_single_point():
    c, _ = rm.calibrate_c([(4.0, 1.0), (1.0, 0.0), (1.0, 0.0)])
    assert c == pytest.approx(1.0 / rm.mp_shape(4.0), rel=1e-12)


def test_calibrate_rejects_resonance_only():
    with pytest.raises(ValueError):
        rm.calibrate_c([(1.0, 1e-9), (1.0, 2e-9), (1.0, 3e-9)])


def test_smallest_eigenvalue_dip_at_resonance():
    # gamma = 1 collapses the smallest eigenvalue versus gamma = 2
    n, d, seeds = 300, 10, range(10)
    at_1 = np.median([rm.smallest_gram_eigenvalue(*(
        lambda p: (p[0], n, n))(_phi(s, n, n, d))) for s in seeds])
    at_2 = np.median([rm.smallest_gram_eigenvalue(*(
        lambda p: (p[0], n, 2 * n))(_phi(s, n, 2 * n, d))) for s in seeds])
    assert at_1 <= 0.01 * at_2


def test_kernel_matrix_eigenvalues_cluster_by_degree():
    # stage structure at d = 3: kernel-matrix eigenvalues form groups of
    # size N(3, n) per harmonic degree. At n = 500 the within-group spread
    # sits near 20% (finite-n splitting of the degenerate cluster), while
    # consecutive stages stay strictly order-separated with a wide gap.
    d, n = 3, 500
    pts = features.sample_sphere([7, 1], d, n)
    kmat = ka.kernel_profile(pts @ pts.T) / n
    ev = rm.symmetric_eigenvalues(kmat)
    groups = [(0, 1), (1, 4), (4, 9)]  # multiplicities 1, 3, 5
    means = []
    for lo, hi in groups:
        block = ev[lo:hi]
        spread = (block.max() - block.min()) / block.mean()
        assert spread <= 0.30
        means.append(block.mean())
    for (lo_a, hi_a), (lo_b, hi_b) in zip(groups, groups[1:]):
        assert ev[lo_b:hi_b].max() < ev[lo_a:hi_a].min()  # stages do not overlap
    assert means[0] > 2 * means[1] > 4 * means[2]  # wide gaps between stages
