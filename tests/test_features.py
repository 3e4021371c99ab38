import numpy as np
import pytest

from rfflow import features


def test_sample_sphere_unit_norm():
    pts = features.sample_sphere(0, 7, 50)
    assert pts.shape == (50, 7)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_sample_sphere_d1_is_signs():
    pts = features.sample_sphere(3, 1, 100)
    assert set(np.unique(pts)) <= {-1.0, 1.0}


def test_sample_sphere_column_means_clt():
    # per-coordinate variance is 1/d, so column means of 1e4 draws sit
    # within 3/sqrt(k) of zero
    d, k = 10, 10_000
    pts = features.sample_sphere(11, d, k)
    bound = 3.0 * (1.0 / np.sqrt(d * k)) * np.sqrt(d)
    assert np.all(np.abs(pts.mean(axis=0)) < bound)


def test_sample_sphere_rejects_degenerate():
    with pytest.raises(ValueError):
        features.sample_sphere(0, 0, 5)
    with pytest.raises(ValueError):
        features.sample_sphere(0, 3, 0)
    with pytest.raises(ValueError, match="unknown feature kind 'bogus'"):
        features.sample_features(0, 3, 5, "bogus")


def test_seed_determinism():
    a = features.sample_sphere(42, 6, 20)
    b = features.sample_sphere(42, 6, 20)
    assert a.tobytes() == b.tobytes()
    fa = features.sample_features(7, 4, 9, "relu")
    fb = features.sample_features(7, 4, 9, "relu")
    assert fa.directions.tobytes() == fb.directions.tobytes()


def _value(kind, b, x):
    """phi(x; b) for one direction and one point, through the array API."""
    feats = features.FeatureSet(directions=np.asarray(b, float)[None, :], kind=kind)
    return features.feature_values(feats, np.asarray(x, float)[None, :])[0, 0]


def test_eval_feature_relu_aligned():
    x = features.sample_sphere(1, 5, 1)[0]
    assert _value("relu", x, x) == pytest.approx(1.0)
    assert _value("relu", -x, x) == 0.0


def test_eval_feature_indicator_boundary_is_zero():
    x = np.zeros(4)
    x[0] = 1.0
    b = np.zeros(4)
    b[1] = 1.0  # b.x = 0 exactly
    assert _value("indicator", b, x) == 0.0


def test_eval_feature_affine():
    x = np.array([1.0, 0.0])
    b = np.array([0.6, 0.0, 0.8])  # (b, c) on S^2
    assert _value("affine-relu", b, x) == pytest.approx(1.4)
    assert _value("affine-relu", -b, x) == 0.0


def test_eval_feature_dimension_mismatch():
    with pytest.raises(ValueError):
        _value("relu", np.ones(3) / np.sqrt(3), np.ones(4) / 2)
    with pytest.raises(ValueError):   # the affine kind needs one extra coordinate
        _value("affine-relu", np.ones(2) / np.sqrt(2), np.ones(2) / np.sqrt(2))


def test_feature_matrix_single_aligned():
    x = features.sample_sphere(2, 3, 1)
    data = features.Dataset(points=x, targets=np.zeros(1))
    feats = features.FeatureSet(directions=x.copy(), kind="relu")
    mat = features.build_feature_matrix(data, feats)
    assert isinstance(mat, np.ndarray)
    np.testing.assert_allclose(mat, [[1.0]], atol=1e-12)


def test_feature_matrix_matches_scalar_evaluation():
    pts = features.sample_sphere(5, 4, 3)
    dirs = features.sample_sphere(6, 4, 2)
    data = features.Dataset(points=pts, targets=np.zeros(3))
    feats = features.FeatureSet(directions=dirs, kind="relu")
    mat = features.build_feature_matrix(data, feats)
    for i in range(3):
        for j in range(2):
            assert mat[i, j] == pytest.approx(
                max(0.0, float(dirs[j] @ pts[i])), abs=1e-15)


def test_indicator_matrix_is_binary():
    pts = features.sample_sphere(8, 6, 40)
    feats = features.sample_features(9, 6, 15, "indicator")
    data = features.Dataset(points=pts, targets=np.zeros(40))
    vals = features.build_feature_matrix(data, feats)
    assert set(np.unique(vals)) <= {0.0, 1.0}


def test_rotation_invariance():
    d = 5
    pts = features.sample_sphere(10, d, 12)
    dirs = features.sample_sphere(11, d, 8)
    rot, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((d, d)))
    base = features.feature_values(
        features.FeatureSet(directions=dirs, kind="relu"), pts)
    rotated = features.feature_values(
        features.FeatureSet(directions=dirs @ rot.T, kind="relu"), pts @ rot.T)
    np.testing.assert_allclose(base, rotated, atol=1e-12)


def test_constant_target():
    # order 0 is the constant 1 in every dimension, d = 2 included
    for d in (2, 3):
        pts = features.sample_sphere(1, d, 10)
        np.testing.assert_array_equal(features.eval_target_many(features.TargetSpec(), pts), 1.0)


def test_legendre_target_at_axis():
    d = 4
    axis = np.zeros(d)
    axis[0] = 1.0
    # P_1(1) = 1, so the value at the first axis is the normaliser sqrt(N(4, 1)) = 2
    assert features.target_normaliser(d, 1) == 2.0
    value = features.eval_target_many(features.TargetSpec(order=1), axis[None, :])[0]
    assert value == pytest.approx(2.0)


def test_legendre_target_unit_norm_mc():
    d = 3
    pts = features.sample_sphere(123, d, 100_000)
    sq = features.eval_target_many(features.TargetSpec(order=2), pts) ** 2
    assert np.mean(sq) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("orders", [(1, 2), (2, 3), (1, 3)])
def test_legendre_targets_orthogonal_mc(orders):
    d = 5
    n_mc = 100_000
    pts = features.sample_sphere(77, d, n_mc)
    a = features.eval_target_many(features.TargetSpec(order=orders[0]), pts)
    b = features.eval_target_many(features.TargetSpec(order=orders[1]), pts)
    prod = a * b
    se = prod.std(ddof=1) / np.sqrt(n_mc)
    assert abs(prod.mean()) < 3 * se


def test_dataset_carries_no_dimension_of_its_own():
    # the points' shape is the one dimension; a separate field went unchecked
    with pytest.raises(TypeError):
        features.Dataset(points=np.eye(3), targets=np.zeros(3), dim=7)


def test_external_target_lookup_and_missing():
    # labelled data carries its labels row by row in Dataset.targets; a
    # target function has an order and nothing else, so no kind looks them up
    pts = features.sample_sphere(4, 3, 5)
    data = features.Dataset(points=2 * pts, targets=np.arange(5.0))
    assert data.targets[2] == 2.0
    with pytest.raises(TypeError, match="kind"):
        features.TargetSpec(kind="external-labels")
    with pytest.raises(ValueError, match="order"):
        features.TargetSpec(order=-1)


def test_dataset_validation():
    pts = features.sample_sphere(0, 3, 4)
    with pytest.raises(ValueError):
        features.Dataset(points=pts, targets=np.zeros(3))
    # raw vectors are fine: nothing downstream assumes unit rows
    features.Dataset(points=2 * pts, targets=np.zeros(4))
