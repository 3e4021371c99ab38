import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfflow import features, flow


def _random_instance(seed, n, m, d=5):
    pts = features.sample_sphere([seed, 1], d, n)
    feats = features.sample_features([seed, 2], d, m, "relu")
    data = features.Dataset(points=pts, targets=np.ones(n), dim=d)
    phi = features.build_feature_matrix(data, feats)
    y = np.random.default_rng([seed, 3]).standard_normal(n)
    return phi, y, feats, data


# small random instances for the property tests: (seed, n, m, d) and an
# ascending list of finite flow times
_instance = dict(seed=st.integers(0, 10**6), n=st.integers(1, 12), m=st.integers(1, 12),
                 d=st.integers(2, 8))
_finite_times = st.lists(st.floats(0.0, 1e10), min_size=1, max_size=12).map(sorted)


def test_decompose_scalar():
    dec = flow.decompose(np.array([[2.0]]))
    assert dec.singular_values[0] == pytest.approx(2.0)
    assert abs(dec.left_vectors[0, 0]) == pytest.approx(1.0)
    # u and v signs are consistent: u * s * v reconstructs +2
    recon = dec.left_vectors[0, 0] * 2.0 * dec.right_vectors[0, 0]
    assert recon == pytest.approx(2.0)


def test_decompose_identity():
    dec = flow.decompose(np.eye(3))
    np.testing.assert_allclose(dec.singular_values, 1.0)


def test_decompose_reconstruction_and_orthogonality():
    mat = np.random.default_rng(0).standard_normal((5, 7))
    dec = flow.decompose(mat)
    u, s, v = dec.left_vectors, dec.singular_values, dec.right_vectors
    np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-10)
    recon = u @ np.diag(s) @ v.T
    assert np.linalg.norm(mat - recon) <= 1e-10 * np.linalg.norm(mat)
    assert np.all(np.diff(s) <= 0)


def test_decompose_rejects_nonfinite():
    with pytest.raises(ValueError):
        flow.decompose(np.array([[1.0, np.nan]]))


def test_coefficients_zero_at_time_zero():
    phi, y, _, _ = _random_instance(1, 6, 4)
    dec = flow.decompose(phi)
    np.testing.assert_array_equal(flow.coefficients_at(dec, y, 0.0), 0.0)


def test_coefficients_scalar_closed_form():
    # da/dt = -phi (phi a - y) with mn = 1: a(t) = (y/phi)(1 - exp(-phi^2 t))
    dec = flow.decompose(np.array([[2.0]]))
    y = np.array([3.0])
    for t in (0.3, 1.0, 5.0):
        expect = 1.5 * (1.0 - np.exp(-4.0 * t))
        assert flow.coefficients_at(dec, y, t)[0] == pytest.approx(expect, rel=1e-12)


def test_coefficients_rejects_negative_time():
    dec = flow.decompose(np.eye(2))
    with pytest.raises(ValueError):
        flow.coefficients_at(dec, np.ones(2), -1.0)


@settings(max_examples=60, deadline=None)
@given(**_instance)
def test_min_norm_matches_pseudo_inverse(seed, n, m, d):
    phi, y, _, _ = _random_instance(seed, n, m, d)
    dec = flow.decompose(phi)
    a_inf = flow.coefficients_at(dec, y, np.inf)
    # the pseudo-inverse cut at the flow's rank threshold, so both drop the same modes
    expected = np.linalg.pinv(phi, rcond=flow.RANK_THRESHOLD) @ y
    assert np.linalg.norm(a_inf - expected) <= 1e-8 * np.linalg.norm(a_inf)


@settings(max_examples=60, deadline=None)
@given(times=_finite_times, **_instance)
def test_param_norm_bounded_by_min_norm_solution(seed, n, m, d, times):
    # ||a(t)|| does not decrease in t and stays <= ||a(inf)||
    phi, y, _, _ = _random_instance(seed, n, m, d)
    dec = flow.decompose(phi)
    norm_inf = np.linalg.norm(flow.coefficients_at(dec, y, np.inf))
    norms = np.linalg.norm(flow.coefficients_at(dec, y, times), axis=0)
    assert np.all(np.diff(norms) >= -1e-12 * norm_inf)
    assert np.all(norms <= norm_inf * (1 + 1e-12))


def test_modewise_damping_monotone():
    phi, y, _, _ = _random_instance(4, 6, 6)
    dec = flow.decompose(phi)
    times = np.logspace(-2, 6, 25)
    grid = flow.coefficients_at(dec, y, times)
    in_basis = np.abs(dec.right_vectors.T @ grid)  # mode magnitudes over time
    assert np.all(np.diff(in_basis, axis=1) >= -1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 50), n=st.integers(1, 9), m=st.integers(1, 9),
       times=st.lists(st.one_of(st.floats(0.0, 1e8), st.just(np.inf)),
                      min_size=1, max_size=6))
def test_coefficient_columns_match_scalar_calls(seed, n, m, times):
    phi, y, _, _ = _random_instance(seed, n, m)
    dec = flow.decompose(phi)
    grid = flow.coefficients_at(dec, y, times)
    assert grid.shape == (m, len(times))
    for j, t in enumerate(times):
        col = flow.coefficients_at(dec, y, t)
        np.testing.assert_allclose(grid[:, j], col, rtol=1e-12,
                                   atol=1e-14 * max(1.0, np.linalg.norm(col)))


@pytest.mark.parametrize("seed,n,m,t,step", [
    (11, 5, 5, 1.0, 1e-3),       # 1000 steps
    (12, 8, 5, 2.0, 1e-3),       # 2000 steps
    (13, 4, 9, 0.3705, 1e-3),    # 370 steps and a remainder
    (14, 10, 10, 5.0, 2.5e-3),   # 2000 steps
    (15, 3, 2, 0.0005, 1e-3),    # remainder only
])
def test_ode_oracle_matches_step_loop(seed, n, m, t, step):
    phi, y, _, _ = _random_instance(seed, n, m)
    mat = phi
    hmat = mat.T @ mat / (m * n)
    rhs = mat.T @ y / (m * n)
    a = np.zeros(m)
    n_steps = int(t / step)
    for _ in range(n_steps):
        a = a + step * (rhs - hmat @ a)
    rem = t - n_steps * step
    if rem > 0.0:
        a = a + rem * (rhs - hmat @ a)
    oracle = flow.ode_oracle(phi, y, t, step)
    assert np.linalg.norm(oracle - a) <= 1e-10 * np.linalg.norm(a)


def test_ode_oracle_scalar():
    a = flow.ode_oracle(np.array([[2.0]]), np.array([3.0]), 1.0, 1e-5)
    assert a[0] == pytest.approx(1.5 * (1 - np.exp(-4.0)), abs=1e-4)


def test_ode_oracle_zero_time():
    phi, y, _, _ = _random_instance(5, 4, 4)
    np.testing.assert_array_equal(flow.ode_oracle(phi, y, 0.0, 1e-3), 0.0)


def test_ode_oracle_rejects_unstable_step():
    phi = np.array([[2.0]])
    with pytest.raises(ValueError):
        flow.ode_oracle(phi, np.array([1.0]), 1.0, 1.0)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_oracle_equivalence_5x5(t):
    phi, y, _, _ = _random_instance(6, 5, 5)
    dec = flow.decompose(phi)
    exact = flow.coefficients_at(dec, y, t)
    euler = flow.ode_oracle(phi, y, t, 1e-5)
    assert np.linalg.norm(exact - euler) <= 1e-3 * np.linalg.norm(exact)


@pytest.mark.parametrize("seed,n,m", [(7, 8, 5), (8, 5, 8), (9, 10, 10)])
def test_oracle_equivalence_small_instances(seed, n, m):
    phi, y, _, _ = _random_instance(seed, n, m)
    dec = flow.decompose(phi)
    for t in (0.5, 5.0):
        exact = flow.coefficients_at(dec, y, t)
        euler = flow.ode_oracle(phi, y, t, 1e-4)
        assert np.linalg.norm(exact - euler) <= 1e-3 * np.linalg.norm(exact)


def test_predict_zero_and_single_feature():
    feats = features.sample_features(1, 4, 3, "relu")
    x = features.sample_sphere(2, 4, 1)[0]
    assert flow.predict(np.zeros(3), feats, x) == 0.0
    one = features.FeatureSet(directions=x[None, :].copy(), kind="relu")
    assert flow.predict(np.array([2.0]), one, x) == pytest.approx(2.0)


def test_predict_dimension_mismatch():
    feats = features.sample_features(1, 4, 3, "relu")
    with pytest.raises(ValueError):
        flow.predict(np.zeros(2), feats, np.ones(4) / 2)


def test_min_norm_interpolates_full_rank():
    phi, y, feats, data = _random_instance(12, 6, 6)
    dec = flow.decompose(phi)
    if not np.all(dec.positive):
        pytest.skip("instance not full rank")
    a_inf = flow.coefficients_at(dec, y, np.inf)
    resid = np.linalg.norm(phi @ a_inf - y)
    assert resid <= 1e-8 * np.linalg.norm(y)


def _snapshots(seed, n, m, times, d=5):
    phi, y, feats, data = _random_instance(seed, n, m, d)
    dec = flow.decompose(phi)
    target = features.TargetSpec(kind="constant-harmonic")
    test = features.sample_dataset([seed, 9], 200, d, target)
    return flow.errors_on_grid(dec, y, feats, test, times), y, dec


def test_errors_on_grid_time_zero():
    snaps, y, _ = _snapshots(11, 6, 4, [0.0])
    assert snaps[0].train_error == pytest.approx(float(y @ y) / (2 * 6))
    assert snaps[0].param_norm == 0.0


def test_errors_on_grid_interpolation_at_inf():
    snaps, y, dec = _snapshots(12, 6, 6, [0.0, np.inf])
    if not np.all(dec.positive):
        pytest.skip("instance not full rank")
    assert snaps[-1].train_error <= 1e-12 * snaps[0].train_error


@settings(max_examples=60, deadline=None)
@given(times=_finite_times, **_instance)
def test_errors_on_grid_train_error_non_increasing(seed, n, m, d, times):
    snaps, y, _ = _snapshots(seed, n, m, times + [np.inf], d)
    errs = np.array([s.train_error for s in snaps])
    assert np.all(np.diff(errs) <= 1e-12 * float(y @ y) / (2 * n))


@settings(max_examples=60, deadline=None)
@given(times=_finite_times, **_instance)
def test_errors_on_grid_param_norm_non_decreasing(seed, n, m, d, times):
    # the t = inf snapshot is last, so this also bounds every norm by ||a(inf)||
    snaps, _, _ = _snapshots(seed, n, m, times + [np.inf], d)
    norms = np.array([s.param_norm for s in snaps])
    assert np.all(np.diff(norms) >= -1e-12 * norms[-1])


def test_errors_on_grid_validation():
    phi, y, feats, data = _random_instance(15, 5, 5)
    dec = flow.decompose(phi)
    target = features.TargetSpec(kind="constant-harmonic")
    test = features.sample_dataset(1, 50, 5, target)
    with pytest.raises(ValueError):
        flow.errors_on_grid(dec, y, feats, test, [1.0, 0.5])
    with pytest.raises(ValueError):
        flow.errors_on_grid(dec, y, feats, test, [np.inf, 1.0])
    empty = features.Dataset(points=np.empty((0, 5)), targets=np.empty(0), dim=5)
    with pytest.raises(ValueError):
        flow.errors_on_grid(dec, y, feats, empty, [1.0])


def test_errors_on_grid_test_error_is_rms_against_dataset_targets():
    # raw (non-sphere) points with arbitrary labels, as an IDX dataset has
    phi, y, feats, _ = _random_instance(17, 8, 6)
    dec = flow.decompose(phi)
    rng = np.random.default_rng(5)
    test = features.Dataset(points=3.0 * rng.random((30, 5)),
                            targets=rng.standard_normal(30), dim=5,
                            distribution_tag="external")
    times = [0.0, 1.0, 100.0, np.inf]
    snaps = flow.errors_on_grid(dec, y, feats, test, times)
    phi_test = features.feature_values(feats, test.points)
    for snap, t in zip(snaps, times):
        resid = phi_test @ flow.coefficients_at(dec, y, t) - test.targets
        assert snap.test_error == pytest.approx(np.sqrt(np.mean(resid ** 2)), rel=1e-10)


def test_energy_profile_single_mode():
    phi, _, _, _ = _random_instance(16, 6, 6)
    dec = flow.decompose(phi)
    y = dec.left_vectors[:, 0].copy()
    cum, p = flow.spectral_energy_profile(dec, y)
    assert p == 1
    assert cum[0] == pytest.approx(1.0)


def test_energy_profile_equal_projections():
    dec = flow.decompose(np.diag([3.0, 2.0, 1.0]))
    y = np.ones(3) / np.sqrt(3)
    cum, p = flow.spectral_energy_profile(dec, y)
    np.testing.assert_allclose(cum, [1 / 3, 2 / 3, 1.0], atol=1e-12)
    assert p == 3


def test_energy_profile_rejects_zero_target():
    dec = flow.decompose(np.eye(2))
    with pytest.raises(ValueError):
        flow.spectral_energy_profile(dec, np.zeros(2))


def test_energy_profile_constant_target_concentrates():
    # low-mode concentration of the constant target at n = m = 500, d = 10
    d = 10
    pts = features.sample_sphere([100, 1], d, 500)
    feats = features.sample_features([100, 2], d, 500, "relu")
    data = features.Dataset(points=pts, targets=np.ones(500), dim=d)
    dec = flow.decompose(features.build_feature_matrix(data, feats))
    cum, p = flow.spectral_energy_profile(dec, data.targets)
    assert np.all(np.diff(cum) >= -1e-15)
    assert cum[-1] <= 1 + 1e-10
    assert p <= 10
