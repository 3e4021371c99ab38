import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rfflow import features, flow


def _random_instance(seed, n, m, d=5, kind="relu"):
    pts = features.sample_sphere([seed, 1], d, n)
    feats = features.sample_features([seed, 2], d, m, kind)
    data = features.Dataset(points=pts, targets=np.ones(n))
    phi = features.build_feature_matrix(data, feats)
    y = np.random.default_rng([seed, 3]).standard_normal(n)
    return phi, y, feats, data


# small random instances for the property tests: (seed, n, m, d) and an
# ascending list of finite flow times
_instance = dict(seed=st.integers(0, 10**6), n=st.integers(1, 12), m=st.integers(1, 12),
                 d=st.integers(2, 8))
_finite_times = st.lists(st.floats(0.0, 1e10), min_size=1, max_size=12).map(sorted)
_COLUMNS = ("time", "train_error", "test_error", "param_norm", "model_norm")


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
    # 5 x 7 keeps the SVD's V; at 5 x 12 (m >= 2n) right_product applies V
    # through Phi^T
    for m in (7, 12):
        mat = np.random.default_rng(0).standard_normal((5, m))
        dec = flow.decompose(mat)
        assert (dec.right_vectors is None) == (m >= flow.WIDE_RATIO * 5)
        u, s, v = dec.left_vectors, dec.singular_values, flow.right_product(dec, np.eye(5))
        np.testing.assert_allclose(u.T @ u, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(5), atol=1e-10)
        recon = u @ np.diag(s) @ v.T
        assert np.linalg.norm(mat - recon) <= 1e-10 * np.linalg.norm(mat)
        assert np.all(np.diff(s) <= 0)


@st.composite
def _matrices(draw):
    """Tall, square or wide matrices of any rank from 0 to min(n, m)."""
    a, b = sorted(draw(st.lists(st.integers(1, 30), min_size=2, max_size=2)))
    n, m = draw(st.sampled_from([(b, a), (b, b), (a, b)]))
    rank = draw(st.integers(0, min(n, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))


@settings(max_examples=150, deadline=None)
@given(mat=_matrices())
def test_decompose_is_a_thin_svd_in_every_orientation(mat):
    n, m = mat.shape
    r = min(n, m)
    dec = flow.decompose(mat)
    u, s = dec.left_vectors, dec.singular_values
    assert u.shape == (n, r) and s.shape == (r,)
    if m >= flow.WIDE_RATIO * n:
        assert dec.right_vectors is None
    else:
        assert dec.right_vectors.shape == (m, r)
    assert (dec.n_rows, dec.n_cols) == (n, m)
    top = s[0]
    np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-12)
    # singular values to 1e-13 of the largest: below that they are round-off
    expect = np.linalg.svd(mat, compute_uv=False)
    assert np.max(np.abs(s - expect)) <= 1e-13 * top
    assert dec.rank == np.count_nonzero(dec.positive)
    assert np.all(dec.positive[:dec.rank]) and not np.any(dec.positive[dec.rank:])
    k = dec.rank
    if k == 0:
        return
    # over the positive modes right_product gives svd's V up to sign.  The
    # stored V is orthonormal to 1e-12; Phi^T u_i / s_i loses about eps
    # kappa.  A singular vector is fixed only to about eps s_max over its
    # gap to the other singular values (zero among them), so two routes'
    # vectors may differ by that much
    eps = np.finfo(float).eps
    v = flow.right_product(dec, np.eye(k))
    assert np.max(np.abs(u[:, :k] * s[:k] @ v.T - mat)) <= 1e-12 * top
    np.testing.assert_allclose(v.T @ v, np.eye(k), rtol=0,
                               atol=1e-12 if dec.right_vectors is not None
                               else max(1e-12, 10 * eps * top / s[k - 1]))
    gap = min(s[k - 1], np.min(-np.diff(s[:k]), initial=np.inf))
    want = np.linalg.svd(mat, full_matrices=False)[2][:k].T
    want *= np.sign(np.sum(want * v, axis=0))
    assert np.max(np.abs(v - want)) <= max(1e-12, 10 * eps * top / gap)


def test_decompose_rejects_nonfinite():
    with pytest.raises(ValueError):
        flow.decompose(np.array([[1.0, np.nan]]))


@oracles.glibc_only
def test_decompose_hands_the_svd_workspace_back():
    # Freeing a 30 MiB mapped array raises glibc's mmap threshold, so the
    # QR's and SVD's buffers come from the heap; untrimmed they stay resident
    # after the call, trimmed only the result, U and s, remains.
    oracles.fresh_interpreter("""
        import numpy as np
        from oracles import rss
        from rfflow import features, flow

        big = np.ones(30 * 2**20 // 8)
        del big
        points = features.sample_sphere([0, 1], 10, 500)
        phi = features.feature_values(features.sample_features([0, 2], 10, 2500), points)
        before = rss()
        dec = flow.decompose(phi)
        grown = rss() - before
        assert dec.right_vectors is None  # m >= 2n: QR's R, then its SVD
        held = dec.left_vectors.nbytes + dec.singular_values.nbytes
        assert grown <= held + 8 * 2**20, (grown / 2**20, held / 2**20)
    """)


@pytest.mark.parametrize("shape", [(40, 90), (90, 40), (40, 60)])
def test_decompose_without_malloc_trim_is_identical(shape, monkeypatch):
    phi = np.random.default_rng(5).standard_normal(shape)
    trimmed = flow.decompose(phi)
    monkeypatch.setattr(flow, "_MALLOC_TRIM", None)
    plain = flow.decompose(phi)
    for name in ("left_vectors", "singular_values", "right_vectors"):
        got, want = getattr(plain, name), getattr(trimmed, name)
        assert (got is None) == (want is None)   # None on the QR route, 40 x 90
        assert got is None or got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [80, 100, 200])
def test_wide_min_norm_coefficients_match_a_60_digit_solve(m):
    # at m >= 2n the coefficients come through Phi^T u_i / s_i, which loses
    # about eps kappa; at n = 40 and these m, kappa is 100-125
    phi, y, _, _ = _random_instance(0, 40, m)
    dec = flow.decompose(phi)
    assert dec.right_vectors is None
    want = oracles.min_norm_mp(phi, y)
    got = flow.coefficients_at(dec, y, np.inf)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
    oracle = oracles.ode_oracle(phi, y, t, step)
    assert np.linalg.norm(oracle - a) <= 1e-10 * np.linalg.norm(a)


def test_ode_oracle_scalar():
    a = oracles.ode_oracle(np.array([[2.0]]), np.array([3.0]), 1.0, 1e-5)
    assert a[0] == pytest.approx(1.5 * (1 - np.exp(-4.0)), abs=1e-4)


def test_ode_oracle_zero_time():
    phi, y, _, _ = _random_instance(5, 4, 4)
    np.testing.assert_array_equal(oracles.ode_oracle(phi, y, 0.0, 1e-3), 0.0)


def test_ode_oracle_rejects_unstable_step():
    phi = np.array([[2.0]])
    with pytest.raises(ValueError):
        oracles.ode_oracle(phi, np.array([1.0]), 1.0, 1.0)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_oracle_equivalence_5x5(t):
    phi, y, _, _ = _random_instance(6, 5, 5)
    dec = flow.decompose(phi)
    exact = flow.coefficients_at(dec, y, t)
    euler = oracles.ode_oracle(phi, y, t, 1e-5)
    assert np.linalg.norm(exact - euler) <= 1e-3 * np.linalg.norm(exact)


@pytest.mark.parametrize("seed,n,m", [(7, 8, 5), (8, 5, 8), (9, 10, 10)])
def test_oracle_equivalence_small_instances(seed, n, m):
    phi, y, _, _ = _random_instance(seed, n, m)
    dec = flow.decompose(phi)
    for t in (0.5, 5.0):
        exact = flow.coefficients_at(dec, y, t)
        euler = oracles.ode_oracle(phi, y, t, 1e-4)
        assert np.linalg.norm(exact - euler) <= 1e-3 * np.linalg.norm(exact)


def test_predict_zero_and_single_feature():
    # model value sum_k a_k phi(x; b_k) from the flow's coefficients
    _, _, feats, data = _random_instance(1, 6, 3, d=4)
    x = features.sample_sphere(2, 4, 1)
    dec = flow.decompose(features.build_feature_matrix(data, feats))
    zero = flow.coefficients_at(dec, np.zeros(6), np.inf)
    assert features.feature_values(feats, x)[0] @ zero == 0.0
    # one feature aligned with one training point: phi = [[1]], so a(inf) = y
    one = features.FeatureSet(directions=x.copy(), kind="relu")
    single = flow.decompose(features.feature_values(one, x))
    a_inf = flow.coefficients_at(single, np.array([2.0]), np.inf)
    assert features.feature_values(one, x)[0] @ a_inf == pytest.approx(2.0)


def test_predict_dimension_mismatch():
    phi, _, _, _ = _random_instance(1, 4, 3, d=4)
    with pytest.raises(ValueError):   # targets must have one entry per training point
        flow.coefficients_at(flow.decompose(phi), np.zeros(2), 1.0)


def test_min_norm_interpolates_full_rank():
    phi, y, feats, data = _random_instance(12, 6, 6)
    dec = flow.decompose(phi)
    if not np.all(dec.positive):
        pytest.skip("instance not full rank")
    a_inf = flow.coefficients_at(dec, y, np.inf)
    resid = np.linalg.norm(phi @ a_inf - y)
    assert resid <= 1e-8 * np.linalg.norm(y)


def _trajectory(seed, n, m, times, d=5):
    phi, y, feats, data = _random_instance(seed, n, m, d)
    dec = flow.decompose(phi)
    target = features.TargetSpec()
    test = features.sample_dataset([seed, 9], 200, d, target)
    return flow.errors_on_grid(dec, y, feats, test, times), y, dec


def test_errors_on_grid_time_zero():
    traj, y, _ = _trajectory(11, 6, 4, [0.0])
    assert traj.train_error[0] == pytest.approx(float(y @ y) / (2 * 6))
    assert traj.param_norm[0] == 0.0


def test_errors_on_grid_interpolation_at_inf():
    traj, y, dec = _trajectory(12, 6, 6, [0.0, np.inf])
    if not np.all(dec.positive):
        pytest.skip("instance not full rank")
    assert traj.train_error[-1] <= 1e-12 * traj.train_error[0]


@pytest.mark.parametrize("m", [40, 60, 100])
def test_full_rank_train_error_is_exactly_zero_at_inf(m):
    # at rank n the positive modes span R^n: y - U U^T y is rounding alone
    # (3e-31 to 1e-30 here), so the energy outside the span is set to 0 on
    # the stored-V route (m < 2n) and on the QR route (m = 100) alike
    traj, _, dec = _trajectory(5, 40, m, [1.0, np.inf])
    assert dec.rank == 40 and (dec.right_vectors is None) == (m >= flow.WIDE_RATIO * 40)
    assert traj.train_error[-1] == 0.0 < traj.train_error[0]


@settings(max_examples=60, deadline=None)
@given(times=_finite_times, **_instance)
def test_errors_on_grid_train_error_non_increasing(seed, n, m, d, times):
    traj, y, _ = _trajectory(seed, n, m, times + [np.inf], d)
    assert np.all(np.diff(traj.train_error) <= 1e-12 * float(y @ y) / (2 * n))


@settings(max_examples=200, deadline=None)
@given(times=_finite_times, **_instance)
def test_errors_on_grid_train_error_is_never_negative(seed, n, m, d, times):
    # where y lies in the feature span, y.y - (U^T y).(U^T y) cancels to about
    # -1e-16; the energy outside the span is a squared norm, never negative
    traj, _, _ = _trajectory(seed, n, m, times + [np.inf], d)
    assert np.all(traj.train_error >= 0.0)


@settings(max_examples=60, deadline=None)
@given(times=_finite_times, **_instance)
def test_errors_on_grid_param_norm_non_decreasing(seed, n, m, d, times):
    # the t = inf entry is last, so this also bounds every norm by ||a(inf)||
    traj, _, _ = _trajectory(seed, n, m, times + [np.inf], d)
    norms = traj.param_norm
    assert np.all(np.diff(norms) >= -1e-12 * norms[-1])


@settings(max_examples=60, deadline=None)
@given(times=_finite_times, inf=st.booleans(), data=st.data(), **_instance)
def test_errors_on_grid_sub_grid_gives_the_same_columns(seed, n, m, d, times, inf, data):
    # a cell's budget times are evaluated as a grid of their own, so every
    # time's values must not depend on the rest of the grid
    grid = times + [np.inf] * inf
    keep = sorted(data.draw(st.sets(st.integers(0, len(grid) - 1), min_size=1)))
    full, _, _ = _trajectory(seed, n, m, grid, d)
    sub, _, _ = _trajectory(seed, n, m, [grid[i] for i in keep], d)
    for col in _COLUMNS:
        np.testing.assert_allclose(getattr(sub, col), getattr(full, col)[keep],
                                   rtol=1e-12, atol=0.0, err_msg=col)


@pytest.mark.parametrize("m", [8, 30])
def test_errors_on_grid_blocks_give_the_columns_of_separate_sub_grids(m):
    # three full blocks and seven times more, with t = inf last, against
    # sub-grids cut across the block boundaries; m = 8 keeps V, m = 30 = 3n
    # takes the QR route
    grid = np.logspace(-2, 10, 3 * flow._TIME_BLOCK + 6).tolist() + [np.inf]
    full, _, _ = _trajectory(5, 10, m, grid)
    cuts = [0, 1, 100, flow._TIME_BLOCK + 1, 300, len(grid)]
    for lo, hi in zip(cuts, cuts[1:]):
        sub, _, _ = _trajectory(5, 10, m, grid[lo:hi])
        for col in _COLUMNS:
            np.testing.assert_allclose(getattr(sub, col), getattr(full, col)[lo:hi],
                                       rtol=1e-12, atol=0.0, err_msg=f"{col} [{lo}:{hi}]")


def test_errors_on_grid_memory_does_not_grow_with_the_grid():
    # with the test block held by the caller, a call keeps a few
    # (m + r + _ROW_BLOCK) x _TIME_BLOCK arrays and its length-T columns,
    # whatever T and N_test (here far above m); an (N_test + m) x T allocation
    # would take 4,040 x 3,001 doubles, and two (N_test, _TIME_BLOCK) arrays 8 MB
    n, m, count = 30, 40, 4000
    phi, y, feats, _ = _random_instance(21, n, m)
    dec = flow.decompose(phi)
    test = features.sample_dataset([21, 9], count, 5, features.TargetSpec())
    values = features.feature_values(feats, test.points)
    times = np.logspace(-2, 10, 3000).tolist() + [np.inf]
    tracemalloc.start()
    try:
        flow.errors_on_grid(dec, y, feats, test, times, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = (m + dec.rank + flow._ROW_BLOCK) * flow._TIME_BLOCK * 8
    columns = 6 * len(times) * 8   # the grid and the Trajectory's four others, plus one
    assert peak < 4 * block + columns, (peak, block)


def test_errors_on_grid_validation():
    phi, y, feats, data = _random_instance(15, 5, 5)
    dec = flow.decompose(phi)
    target = features.TargetSpec()
    test = features.sample_dataset(1, 50, 5, target)
    with pytest.raises(ValueError):
        flow.errors_on_grid(dec, y, feats, test, [1.0, 0.5])
    with pytest.raises(ValueError):
        flow.errors_on_grid(dec, y, feats, test, [np.inf, 1.0])
    empty = features.Dataset(points=np.empty((0, 5)), targets=np.empty(0))
    with pytest.raises(ValueError):
        flow.errors_on_grid(dec, y, feats, empty, [1.0])


def test_errors_on_grid_rejects_test_features_of_the_wrong_shape():
    phi, y, feats, _ = _random_instance(15, 5, 4)
    dec = flow.decompose(phi)
    test = features.sample_dataset(1, 50, 5, features.TargetSpec())
    values = features.feature_values(feats, test.points)
    for bad in (values[:, :3], values[:49], values.T,
                np.hstack([values, values])):
        with pytest.raises(ValueError) as info:
            flow.errors_on_grid(dec, y, feats, test, [1.0], bad)
        assert f"{bad.shape}" in str(info.value) and "(50, 4)" in str(info.value)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["relu", "indicator", "affine-relu"]), extra=st.integers(0, 20),
       times=_finite_times, **_instance)
def test_errors_on_grid_takes_the_test_features_or_a_prefix_of_more(kind, extra, times,
                                                                     seed, n, m, d):
    # a sweep evaluates the test features once, at its largest m, and hands
    # each cell the first m columns
    phi, y, feats, _ = _random_instance(seed, n, m, d, kind)
    dec = flow.decompose(phi)
    test = features.sample_dataset([seed, 9], 200, d, features.TargetSpec())
    grid = times + [np.inf]
    own = flow.errors_on_grid(dec, y, feats, test, grid)

    given_values = flow.errors_on_grid(dec, y, feats, test, grid,
                                       features.feature_values(feats, test.points))
    more = features.sample_features([seed, 2], d, m + extra, kind)
    prefix = flow.errors_on_grid(dec, y, feats, test, grid,
                                 features.feature_values(more, test.points)[:, :m])
    for col in _COLUMNS:
        np.testing.assert_array_equal(getattr(given_values, col), getattr(own, col),
                                      err_msg=col)
        np.testing.assert_allclose(getattr(prefix, col), getattr(own, col),
                                   rtol=1e-12, atol=0.0, err_msg=col)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["relu", "indicator", "affine-relu"]), extra=st.integers(0, 100),
       seed=st.integers(0, 10**6), n=st.integers(1, 40), m=st.integers(1, 60),
       d=st.integers(2, 50))
def test_a_column_prefix_of_more_features_has_the_fresh_singular_values(kind, extra, seed,
                                                                       n, m, d):
    # a sweep evaluates the training features once, at its largest m, and each
    # cell decomposes the first m columns; they differ from a fresh m-column
    # evaluation by rounding E, and |s_i - s'_i| <= ||E||_2 (Weyl)
    phi, _, _, data = _random_instance(seed, n, m, d, kind)
    more = features.sample_features([seed, 2], d, m + extra, kind)
    block = features.build_feature_matrix(data, more)
    fresh = flow.decompose(phi).singular_values
    prefix = flow.decompose(block[:, :m]).singular_values
    assert prefix.shape == fresh.shape
    assert np.max(np.abs(prefix - fresh)) <= 1e-12 * fresh[0]


def test_errors_on_grid_test_error_is_rms_against_dataset_targets():
    # raw (non-sphere) points with arbitrary labels, as an IDX dataset has;
    # every column against whole (N_test, T) arrays, and 2 x _ROW_BLOCK + 7
    # test points end in a partial row block.  At n = 8 > m = 6 the residual
    # keeps a fixed share of ||y||, so Phi a - y gives the train error to rounding
    n, m = 8, 6
    phi, y, feats, _ = _random_instance(17, n, m)
    dec = flow.decompose(phi)
    times = np.array([0.0, 0.5, 1.0, 100.0, 1e4, np.inf])
    coeffs = flow.coefficients_at(dec, y, times)   # (m, T)
    rng = np.random.default_rng(5)
    for count in (30, 2 * flow._ROW_BLOCK + 7):
        test = features.Dataset(points=3.0 * rng.random((count, 5)),
                                targets=rng.standard_normal(count))
        traj = flow.errors_on_grid(dec, y, feats, test, times)
        preds = features.feature_values(feats, test.points) @ coeffs
        dense = {"time": times,
                 "train_error": np.sum((phi @ coeffs - y[:, None]) ** 2, axis=0) / (2 * n),
                 "test_error": np.sqrt(np.mean((preds - test.targets[:, None]) ** 2, axis=0)),
                 "param_norm": np.linalg.norm(coeffs, axis=0),
                 "model_norm": np.sqrt(np.mean(preds ** 2, axis=0))}
        for col, want in dense.items():
            np.testing.assert_allclose(getattr(traj, col), want, rtol=1e-12, atol=0.0,
                                       err_msg=f"{col}, N_test = {count}")


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


def test_energy_profile_reads_positive_modes_only():
    # rank 2: the third left vector (s ~ 1e-17) carries all of y, which lies
    # outside the span, so no positive mode reaches the threshold
    phi = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    dec = flow.decompose(phi)
    assert dec.rank == 2
    cum, p = flow.spectral_energy_profile(dec, np.array([1.0, -1.0, 0.0, 0.0]))
    np.testing.assert_allclose(cum, 0.0, atol=1e-15)
    assert cum.size == 2
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
    data = features.Dataset(points=pts, targets=np.ones(500))
    dec = flow.decompose(features.build_feature_matrix(data, feats))
    cum, p = flow.spectral_energy_profile(dec, data.targets)
    assert np.all(np.diff(cum) >= -1e-15)
    assert cum[-1] <= 1 + 1e-10
    assert p <= 10
