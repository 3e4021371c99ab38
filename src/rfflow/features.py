"""Sphere sampling, random feature maps, feature matrices, and targets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

FEATURE_KINDS = ("relu", "indicator", "affine-relu")
TARGET_KINDS = ("constant-harmonic", "legendre")

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Sample points with target values.

    ``points`` is (n, d); rows are unit vectors when sphere-sampled.
    """

    points: np.ndarray
    targets: np.ndarray
    dim: int
    distribution_tag: str = "uniform-sphere"

    def __post_init__(self):
        if self.targets.shape[0] != self.points.shape[0]:
            raise ValueError("targets length must equal points row count")
        if self.distribution_tag == "uniform-sphere":
            norms = np.linalg.norm(self.points, axis=1)
            if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
                raise ValueError("sphere-sampled rows must have unit norm")

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
    """Feature directions uniform on the sphere (S^dim for the affine kind)."""
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}")
    rows = dim + 1 if kind == "affine-relu" else dim
    return FeatureSet(directions=sample_sphere(rng_seed, rows, count), kind=kind)


def eval_feature(kind: str, b: np.ndarray, x: np.ndarray) -> float:
    """Single feature value phi(x; b)."""
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if kind == "relu":
        if b.shape != x.shape:
            raise ValueError("direction/point dimension mismatch")
        return float(max(0.0, float(b @ x)))
    if kind == "indicator":
        if b.shape != x.shape:
            raise ValueError("direction/point dimension mismatch")
        return 1.0 if float(b @ x) > 0.0 else 0.0
    if kind == "affine-relu":
        if b.shape[0] != x.shape[0] + 1:
            raise ValueError("affine direction must have one extra coordinate")
        return float(max(0.0, float(b[:-1] @ x) + float(b[-1])))
    raise ValueError(f"unknown feature kind {kind!r}")


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
    """Target function on the sphere: a constant or a zonal harmonic.

    Data with given labels (MNIST) needs no target function: its labels are
    the ``targets`` of its ``Dataset``.
    """

    kind: str = "constant-harmonic"
    order: int = 0
    axis: Optional[np.ndarray] = None
    normalization: float = 1.0

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.normalization <= 0:
            raise ValueError("normalization must be positive")
        if self.kind == "legendre":
            if self.axis is None:
                raise ValueError("legendre targets need an axis")
            if abs(np.linalg.norm(self.axis) - 1.0) > _UNIT_TOL:
                raise ValueError("legendre axis must be a unit vector")


def legendre_target(dim: int, order: int, axis: np.ndarray) -> TargetSpec:
    """Zonal harmonic target sqrt(N(d, n)) P_n(axis . x), unit norm under the sphere.

    The squared sphere average of P_n(axis . x) is 1/N(d, n), so the
    multiplicity root is the exact normaliser.
    """
    from . import kernel_analytic

    norm = float(np.sqrt(kernel_analytic.harmonic_multiplicity(dim, order)))
    return TargetSpec(kind="legendre", order=order, axis=np.asarray(axis, float),
                      normalization=norm)


def eval_target(spec: TargetSpec, x: np.ndarray) -> float:
    """Target value f*(x)."""
    return float(eval_target_many(spec, np.asarray(x, float)[None, :])[0])


def eval_target_many(spec: TargetSpec, points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if spec.kind == "constant-harmonic":
        return np.full(points.shape[0], spec.normalization)
    from . import kernel_analytic

    poly = kernel_analytic.OrthogonalPolynomial(
        family="legendre", dim=points.shape[1], order=spec.order
    )
    cosines = points @ spec.axis
    return spec.normalization * np.asarray(kernel_analytic.poly_eval(poly, cosines))


def sample_dataset(rng_seed, n: int, dim: int, target: TargetSpec) -> Dataset:
    """Uniform sphere sample with targets evaluated from ``target``."""
    points = sample_sphere(rng_seed, dim, n)
    return Dataset(points=points, targets=eval_target_many(target, points),
                   dim=dim, distribution_tag="uniform-sphere")
