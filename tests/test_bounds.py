import math

import numpy as np
import pytest

from rfflow import bounds, features, flow


def _instance(seed, n, m, d=5):
    target = features.TargetSpec()
    data = features.sample_dataset([seed, 1], n, d, target)
    feats = features.sample_features([seed, 2], d, m, "relu")
    phi = features.build_feature_matrix(data, feats)
    return flow.decompose(phi), data, feats, target


# ---------------------------------------------------------------------------
# damping: the per-mode flow factor (1 - exp(-s^2 t/(mn)))/s behind the bounds
# ---------------------------------------------------------------------------

def test_damping_zero_mode():
    # zero modes are excluded: a(t) has no component along them, even at t = inf
    dec = flow.decompose(np.diag([2.0, 0.0]))
    assert dec.positive.tolist() == [True, False]
    for t in (123.0, np.inf):
        assert flow.coefficients_at(dec, np.ones(2), t)[1] == 0.0


def test_damping_half_life():
    m = n = 7
    half = flow._damping(np.array([1.0]), m * n * math.log(2), n, m)
    assert half[0] == pytest.approx(0.5, rel=1e-12)


def test_damping_rejects_negative():
    phi, y = np.eye(2), np.ones(2)
    dec = flow.decompose(phi)
    with pytest.raises(ValueError):
        flow.coefficients_at(dec, y, np.array([1.0, -1.0]))
    feats = features.sample_features(0, 2, 2, "relu")
    test = features.Dataset(points=np.eye(2), targets=y)
    with pytest.raises(ValueError):
        flow.errors_on_grid(dec, y, feats, test, [-1.0, 1.0])


def test_damping_sup_bound_on_grid():
    m, n = 11, 13
    t = float(m * n)
    lams = np.logspace(-6, 3, 4000)
    vals = flow._damping(lams, t, n, m)
    sup = math.sqrt(t / (m * n))
    assert sup == pytest.approx(1.0)
    assert np.all(vals <= sup + 1e-12)
    # the envelope min(1/lam, lam t/mn) attains the sup at lam = sqrt(mn/t) = 1
    envelope = np.minimum(1.0 / lams, lams * t / (m * n))
    best = lams[np.argmax(envelope)]
    assert abs(best - 1.0) < 0.02
    assert envelope.max() == pytest.approx(sup, rel=1e-4)
    assert vals.max() > 0.6 * sup


def test_damping_two_sided_inequality():
    m, n = 5, 9
    lams = np.logspace(-3, 2, 50)
    times = np.logspace(-2, 6, 30)
    vals = flow._damping(lams, times, n, m)            # (modes, times)
    assert np.all(vals <= 1.0 / lams[:, None] + 1e-15)
    assert np.all(vals <= np.multiply.outer(lams, times) / (m * n) + 1e-15)


def test_damping_of_a_decomposition():
    dec, data, feats, target = _instance(0, 8, 6)
    factors = flow._damping(dec.singular_values, 2.0, dec.n_rows, dec.n_cols)
    assert factors.shape == dec.singular_values.shape
    assert np.all(factors <= math.sqrt(2.0 / (8 * 6)) + 1e-12)


# ---------------------------------------------------------------------------
# rough norm bound
# ---------------------------------------------------------------------------

def test_rough_bound_zero_time():
    assert bounds.norm_bound_rough(0.0, 10, 10, 1.0, 0.1, 1.0, 0.05) == 0.0


def test_rough_bound_sqrt_scaling():
    b1 = bounds.norm_bound_rough(1.0, 10, 10, 1.0, 0.1, 1.0, 0.05)
    b4 = bounds.norm_bound_rough(4.0, 10, 10, 1.0, 0.1, 1.0, 0.05)
    assert b4 == pytest.approx(2 * b1, rel=1e-12)


def test_rough_bound_large_sample_limit():
    # Hoeffding corrections vanish as n, m -> inf
    b = bounds.norm_bound_rough(9.0, 10 ** 30, 10 ** 30, 1.0, 0.1, 2.0, 0.25)
    assert b == pytest.approx(2.0 * 0.5 * 3.0, rel=1e-10)


def test_rough_bound_delta_validation():
    with pytest.raises(ValueError):
        bounds.norm_bound_rough(1.0, 10, 10, 1.0, 0.0, 1.0, 0.05)
    with pytest.raises(ValueError):
        bounds.norm_bound_rough(1.0, 10, 10, 1.0, 1.5, 1.0, 0.05)


# ---------------------------------------------------------------------------
# capped rate and finer bound
# ---------------------------------------------------------------------------

def test_capped_rate_flat_spectrum():
    lh = np.ones(16)
    for t in (0.01, 0.5, 4.0, 100.0):
        assert bounds.capped_rate(t, lh, 16) == pytest.approx(min(math.sqrt(t), t, 1.0))


def test_capped_rate_branch_selection():
    lh = np.linspace(1.0, 0.01, 25)[::-1].copy()
    lh = np.sort(lh)[::-1]
    k = math.isqrt(25)  # 1-based index 6 -> 0-based 5
    tiny = 1e-8
    assert bounds.capped_rate(tiny, lh, 25) == pytest.approx(lh[k] * tiny)
    assert bounds.capped_rate(1e12, lh, 25) == pytest.approx(1.0 / lh[-1])


def test_capped_rate_degenerate_rank():
    lh = np.array([1.0, 0.5, 0.0])
    # two-way minimum when the last scaled value is zero
    assert bounds.capped_rate(100.0, lh, 3) == pytest.approx(min(10.0, lh[1] * 100.0))


def test_capped_rate_reads_a_thin_spectrum_as_zero_past_its_length():
    # m = 8 < n = 16: lh_5 and lh_16 of the 16-row matrix are 0, not the
    # thin spectrum's lh_{floor(sqrt 8)+1} = lh_3 and lh_8
    lh = np.linspace(1.0, 0.3, 8)
    assert bounds.capped_rate(1e-6, lh, 16) == pytest.approx(lh[4] * 1e-6, rel=1e-12)
    assert bounds.capped_rate(1e12, lh, 16) == pytest.approx(1e6)
    lh[4:] = 0.0
    assert bounds.capped_rate(1e-6, lh, 16) == 0.0
    assert bounds.capped_rate(np.inf, np.linspace(1.0, 0.3, 8), 16) == np.inf


def test_finer_bound_at_zero_with_zero_constant():
    lh = np.ones(16)
    stated = bounds.finer_bound(0.0, 0.0, 1.0, lh, 16)
    assert stated == pytest.approx(3.0 + 1.0 / 4.0, rel=1e-12)  # 3 + n^(-1/2)


def test_finer_bound_large_time_dominated_by_tail():
    lh = np.linspace(1.0, 0.001, 16)
    n = 16
    C, M = 0.5, 1.0
    stated = bounds.finer_bound(1e18, C, M, lh, n)
    tail = (5 * C + 1 + 2 * math.sqrt(C) * M / lh[-1]) ** 2 / math.sqrt(n)
    assert stated == pytest.approx(tail, rel=1e-9)


def test_finer_bound_hypothesis_check():
    lh = np.ones(4)
    with pytest.raises(ValueError):
        bounds.finer_bound(1.0, 5.0, 1.0, lh, 4)


def test_regime_window_arithmetic():
    n = int(round(math.e ** 16))
    win = bounds.regime_window(1.0, 1.0, 1.0, 0.5, n)
    assert win.c2 == pytest.approx(1.0)
    assert win.t_low == pytest.approx(math.log(n))
    assert win.t_high == pytest.approx(n ** 0.25)
    assert win.t_high > win.t_low


def test_regime_window_quarter_scaling():
    a = bounds.regime_window(1.0, 1.0, 1.0, 0.5, 100)
    b = bounds.regime_window(1.0, 1.0, 1.0, 1.0, 100)
    assert b.c2 == pytest.approx(a.c2 / 4)


def test_regime_window_validation():
    with pytest.raises(ValueError):
        bounds.regime_window(1.0, 1.0, 1.0, 0.0, 100)


# ---------------------------------------------------------------------------
# measured assumptions
# ---------------------------------------------------------------------------

def test_alignment_functions_identity_at_training_points():
    # (1/n) sum_k g_i(x_k) g_j(x_k) = delta_ij exactly by SVD algebra
    dec, data, feats, target = _instance(1, 30, 30, d=4)
    n = data.count
    k = math.isqrt(n)
    phi_train = features.feature_values(feats, data.points)
    g = (phi_train @ dec.right_vectors[:, :k]) * (np.sqrt(n) / dec.singular_values[:k])
    gram = g.T @ g / n
    np.testing.assert_allclose(gram, np.eye(k), atol=1e-8)


def test_measure_assumptions_exact_alignment_case():
    dec, data, feats, target = _instance(2, 25, 25, d=4)
    n = data.count
    # post-hoc target: y = sqrt(n) u_1 and psi_1 = g_1 on the probe set
    y = np.sqrt(n) * dec.left_vectors[:, 0]
    probe = features.sample_dataset([2, 9], 400, 4, target)
    phi_probe = features.feature_values(feats, probe.points)
    g1 = phi_probe @ dec.right_vectors[:, 0] * (np.sqrt(n) / dec.singular_values[0])
    aligned = features.Dataset(probe.points, targets=g1)
    rep = bounds.measure_assumptions(dec, y, feats, aligned)
    d1, d2, d3, _ = rep.discrepancies
    assert d1 == pytest.approx(0.0, abs=1e-10)
    assert d2 == pytest.approx(0.0, abs=1e-10)
    assert d3 == pytest.approx(0.0, abs=1e-10)


def test_measure_assumptions_reports_constants():
    dec, data, feats, target = _instance(3, 100, 100, d=6)
    probe = features.sample_dataset([3, 9], 1000, 6, target)
    rep = bounds.measure_assumptions(dec, data.targets, feats, probe)
    assert np.isfinite(rep.c_measured) and rep.c_measured >= 0
    assert rep.c_prime > 0
    assert rep.m_kernel > 0
    assert rep.concentration_index >= 1
    lh = dec.scaled_values
    assert rep.regime_constants[1] == pytest.approx(1.0 / (4.0 * lh[0] ** 2), rel=1e-12)
    # C' really dominates the scaled values on the checked range
    ks = np.arange(1, math.isqrt(100) + 2)
    assert np.all(lh[: ks.size] <= rep.c_prime / np.sqrt(ks) + 1e-12)


def test_measure_assumptions_alignment_holds_on_most_seeds():
    # the finer-bound hypothesis C/sqrt(n) < 1 holds on >= 9 of 10 seeds
    n = m = 500
    hits = 0
    for seed in range(10):
        dec, data, feats, target = _instance(seed, n, m, d=10)
        probe = features.sample_dataset([seed, 9], 2000, 10, target)
        rep = bounds.measure_assumptions(dec, data.targets, feats, probe)
        assert np.isfinite(rep.c_measured)
        if rep.c_measured / math.sqrt(n) < 1.0:
            hits += 1
    assert hits >= 9


def test_measure_assumptions_validation():
    dec, data, feats, target = _instance(4, 16, 16, d=4)
    empty = features.Dataset(points=np.empty((0, 4)), targets=np.empty(0))
    with pytest.raises(ValueError):
        bounds.measure_assumptions(dec, data.targets, feats, empty)


def test_regime_window_from_measured_constants():
    # at n = 500 the predicted flat window is empty (log n exceeds n^0.25),
    # so the in-window error check is vacuous at this scale; the window
    # opens only for much larger sample counts
    dec, data, feats, target = _instance(0, 500, 500, d=10)
    probe = features.sample_dataset([0, 9], 2000, 10, target)
    rep = bounds.measure_assumptions(dec, data.targets, feats, probe)
    win = bounds.regime_window(rep.c_measured, rep.c_prime, rep.m_kernel,
                               float(dec.scaled_values[0]), 500)
    assert win.t_high < win.t_low
    assert win.level > 0
    big_n = 10 ** 6
    win_big = bounds.regime_window(rep.c_measured, rep.c_prime, rep.m_kernel,
                                   float(dec.scaled_values[0]), big_n)
    assert win_big.t_high > win_big.t_low
