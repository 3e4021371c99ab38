"""Sphere sampling, random feature maps, feature matrices, and targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEATURE_KINDS = ("relu", "indicator", "affine-relu")

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Sample points with target values.

    ``points`` is (n, d): unit rows when sphere-sampled, raw pixels from IDX.
    """

    points: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.targets.shape[0] != self.points.shape[0]:
            raise ValueError("targets length must equal points row count")

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class FeatureSet:
    """Random feature directions; rows of ``directions`` are unit vectors.

    For the affine variant each row is a (d+1)-vector (b, c) and the input is
    implicitly extended by 1, giving max(0, b.x + c).
    """

    directions: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        norms = np.linalg.norm(self.directions, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise ValueError("feature directions must have unit norm")

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    @property
    def input_dim(self) -> int:
        d = self.directions.shape[1]
        return d - 1 if self.kind == "affine-relu" else d


def sample_sphere(rng_seed, dim: int, count: int) -> np.ndarray:
    """Draw ``count`` i.i.d. uniform points on S^(dim-1), deterministic per seed.

    Normalised standard Gaussians: exactly uniform, no rejection step.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def sample_features(rng_seed, dim: int, count: int, kind: str = "relu") -> FeatureSet:
    """Feature directions uniform on the sphere (S^dim for the affine kind);
    FeatureSet rejects an unknown kind."""
    rows = dim + 1 if kind == "affine-relu" else dim
    return FeatureSet(directions=sample_sphere(rng_seed, rows, count), kind=kind)


def feature_values(feats: FeatureSet, points: np.ndarray) -> np.ndarray:
    """Vectorised feature evaluation; returns the (n, m) value array."""
    points = np.asarray(points, dtype=float)
    if points.shape[1] != feats.input_dim:
        raise ValueError("point dimension does not match feature directions")
    if feats.kind == "affine-relu":
        pre = points @ feats.directions[:, :-1].T
        pre += feats.directions[:, -1]
    else:
        pre = points @ feats.directions.T
    if feats.kind == "indicator":
        return (pre > 0.0).astype(float)  # strict inequality at the boundary
    return np.maximum(pre, 0.0, out=pre)  # ReLU in place: pre is a fresh array


def build_feature_matrix(data: Dataset, feats: FeatureSet) -> np.ndarray:
    """(n, m) feature matrix: rows = data index, cols = feature index."""
    return feature_values(feats, data.points)


@dataclass(frozen=True)
class TargetSpec:
    """Target function on the sphere: the zonal harmonic sqrt(N(d, k)) P_k(x_1)
    of order k = ``order`` about the first axis, of unit norm; order 0 is the
    constant 1 in every dimension, and an order >= 1 needs d >= 3.

    Data with given labels (MNIST) needs no target function: its labels are
    the ``targets`` of its ``Dataset``.
    """

    order: int = 0

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"target order must be >= 0, got {self.order!r}")


def target_normaliser(dim: int, order: int) -> float:
    """sqrt(N(d, k)), the normaliser of the order-k target and its sup norm.

    The squared sphere average of P_k(x_1) is 1/N(d, k), and |P_k| <= 1 on
    [-1, 1] with P_k(1) = 1.
    """
    if order == 0:
        return 1.0
    from . import kernel_analytic

    return float(np.sqrt(kernel_analytic.harmonic_multiplicity(dim, order)))


def eval_target_many(spec: TargetSpec, points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if spec.order == 0:
        return np.ones(points.shape[0])
    from . import kernel_analytic

    values = kernel_analytic.legendre(points.shape[1], spec.order, points[:, 0])
    return target_normaliser(points.shape[1], spec.order) * np.asarray(values)


def sample_dataset(rng_seed, n: int, dim: int, target: TargetSpec) -> Dataset:
    """Uniform sphere sample with targets evaluated from ``target``."""
    points = sample_sphere(rng_seed, dim, n)
    return Dataset(points=points, targets=eval_target_many(target, points))
