"""Gram/kernel matrices, their spectra, and Marchenko-Pastur analysis.

The Gram matrix is G = Phi Phi^T / (nm).  Its nonzero eigenvalues coincide
with those of Phi^T Phi / (nm), so the smallest *nonzero* eigenvalue is
always read off the smaller of the two companions; at m = n this is the
plain smallest eigenvalue, which collapses towards zero (the double-descent
resonance).  The Marchenko-Pastur model predicts that collapse: with
gamma = m/n the smallest eigenvalue scales like c * (1 - sqrt(gamma))^2 for
gamma <= 1 and c * (1 - sqrt(1/gamma))^2 above, with a calibration constant
c fitted from measurements near m = n.

Memory stays O(n^2) at any m: one generator, ``_gram_sums``, evaluates
the features in blocks of at most min(n, _BLOCK) directions and adds each
into a running Gram sum, and the kernel matrix is filled in _PANEL-row
blocks.  ``smallest_gram_eigenvalue`` goes through three phases, and at
each only these arrays are alive:

* the m < n companions: the n x head block of the first head directions and
  the head companion's Cholesky panels, read from the block, about half
  head x head; every smaller companion's factor is a leading block of them;
* the Gram sum: the running n x n sum, one n x _BLOCK block and one
  _PANEL x n product, added into the sum's lower part row panel by row panel;
* each m >= n count: the running sum and its Cholesky panels, about half
  n x n.
No companion product and no full spectrum is formed: the caller builds each
factor and hands it to ``_smallest_eigenvalue``, where a Lanczos basis of at
most _STEPS vectors finds the largest eigenvalue theta of the product's
inverse, and the smallest eigenvalue is 1/theta.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .features import FeatureSet, feature_values
from .flow import trim_heap
from .kernel_analytic import feature_kernel

_SYM_TOL = 1e-10
_BLOCK = 256  # feature directions evaluated per block of a Gram sum
_PANEL = 128  # columns per Cholesky panel, rows per Gram-sum or kernel-matrix panel
_STEPS = 100  # Lanczos steps before _smallest_eigenvalue falls back to eigvalsh
_LANCZOS_TOL = 1e-14  # relative Ritz residual, or Ritz-value change, that stops Lanczos


def _add_product(gram: np.ndarray | None, block: np.ndarray) -> np.ndarray:
    """Adds block block^T into the lower part of ``gram``, row panel by row
    panel: with hi = lo + _PANEL, rows lo..hi gain block[lo:hi] block[:hi]^T,
    so the only temporary is one _PANEL x n product.

    A ``gram`` of None starts a zeroed n x n sum, into which each panel's
    product is written directly.  Returns the sum.  Only the entries on and
    below the diagonal, and every whole diagonal _PANEL x _PANEL block, hold
    the sum; the rest of the upper part is stale.
    """
    start = gram is None
    if start:
        gram = np.zeros((block.shape[0],) * 2)
    for lo in range(0, block.shape[0], _PANEL):
        hi = lo + _PANEL
        if start:
            np.matmul(block[lo:hi], block[:hi].T, out=gram[lo:hi, :hi])
        else:
            gram[lo:hi, :hi] += block[lo:hi] @ block[:hi].T
    return gram


def _gram_sums(points: np.ndarray, feats: FeatureSet, stops: Sequence[int],
               lo: int = 0, gram: np.ndarray | None = None):
    """Yields (k, Phi[:, :k] Phi[:, :k]^T), unscaled, at every count k in the
    ascending ``stops``; only its lower part, as ``_add_product`` leaves it.

    Directions lo..max(stops) are evaluated in blocks of at most min(n, _BLOCK),
    one ending at every stop; ``_add_product`` adds each block into one running
    sum, and the block is freed, so besides the sum only one n x _BLOCK block
    and one _PANEL x n product are alive.  ``gram``, if given, is the sum over
    the first ``lo`` directions.  The yielded array is the running sum itself,
    which the next block is added into in place; its readers stay on or below
    the diagonal, or in whole diagonal blocks.
    """
    width = min(points.shape[0], _BLOCK)
    for stop in stops:
        while lo < stop:
            hi = min(lo + width, stop)
            gram = _add_product(gram, feature_values(FeatureSet(feats.directions[lo:hi],
                                                                feats.kind), points))
            lo = hi
        yield stop, gram


def gram_matrix(points, feats: FeatureSet) -> np.ndarray:
    """G = Phi Phi^T / (nm) of the m features at the n points, without Phi.

    Phi_b Phi_b^T is summed over blocks of at most min(n, _BLOCK) feature
    directions into the lower part of one n x n array, which is mirrored into
    the upper part once, in row panels, and divided once at the end, so
    memory stays O(n^2) however large m is.
    """
    points = np.asarray(points, dtype=float)
    n, m = points.shape[0], feats.count
    if n == 0:  # blocks of min(n, _BLOCK) = 0 directions would never advance
        raise ValueError(f"no points: points of shape {points.shape}")
    if m == 0:
        raise ValueError("empty feature set")
    [(_, gram)] = _gram_sums(points, feats, [m])
    for lo in range(0, n, _PANEL):  # row panel lo above the diagonal from its mirror below
        cols = np.arange(lo, n)
        np.copyto(gram[lo:lo + _PANEL, lo:], gram[lo:, lo:lo + _PANEL].T,
                  where=cols > cols[:_PANEL, None])
    gram /= n * m
    return gram


def kernel_matrix(points, kind: str) -> np.ndarray:
    """K = feature_kernel(x_i . x_j, d, kind) / n of the n points, in row blocks.

    Besides the n x n result only one block of cosines and its kernel
    temporaries is alive, a few _PANEL x n arrays.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    kmat = np.empty((n, n))
    for lo in range(0, n, _PANEL):
        rows = kmat[lo:lo + _PANEL]
        rows[...] = feature_kernel(points[lo:lo + _PANEL] @ points.T, d, kind)
        rows /= n
    return kmat


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Descending spectrum of a symmetric matrix.

    The symmetry test is relative: |a - a^T| may reach _SYM_TOL of a's
    largest magnitude, whatever a's scale.  The heap is trimmed first, so
    what the caller freed while building a (feature blocks, row-panel
    products) is not still resident beside the two n x n temporaries taken
    here: the asymmetry array and, in its place once freed, eigvalsh's copy.
    """
    trim_heap()
    a = np.asarray(a, dtype=float)
    scale = max(float(a.max()), -float(a.min()))
    asym = np.subtract(a, a.T)  # the one temporary: |a - a^T| in place
    if np.abs(asym, out=asym).max() > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    del asym
    return np.linalg.eigvalsh(a)[::-1]


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, exactly lower
    triangular, by halves:

        [[L11, 0], [L21, L22]]^-1 = [[X11, 0], [-X22 L21 X11, X22]],

    with Xii = Lii^-1 found the same way, down to leaves of at most 32 rows
    that ``np.linalg.inv`` inverts.  Against ``inv`` of the whole matrix,
    which pivots and fills the upper part with round-off, a 128-row factor
    takes about a third of the time.
    """
    n = low.shape[0]
    if n <= 32:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    inverse = np.zeros_like(low)
    inverse[:h, :h] = _lower_inverse(low[:h, :h])
    inverse[h:, h:] = _lower_inverse(low[h:, h:])
    inverse[h:, :h] = -(inverse[h:, h:] @ low[h:, :h]) @ inverse[:h, :h]
    return inverse


def _cholesky_panels(columns, n: int, stops: Sequence[int] = ()) -> list[tuple[int, np.ndarray]]:
    """Cholesky factor L of an n x n symmetric positive-definite a, left-looking
    in column panels; ``columns(lo, w)`` returns a fresh a[lo:, lo:lo+w], the
    panel's part of a's lower triangle.

    A panel starts at every multiple of _PANEL and at every count in ``stops``
    below n, so for each such k the panels that start before k, cut to rows
    < k, are the factor of the leading block a[:k, :k].  Returns [(lo, p)]
    for the panels in order: with w = p.shape[1], p[:w] is the inverse of the
    diagonal block L[lo:lo+w, lo:lo+w] and p[w:] is L[lo+w:, lo:lo+w], so the
    panels hold about half an n x n array.  The factor stops at the first
    diagonal block that is not positive definite: the panels before it are
    returned, and their widths then sum to less than n.
    """
    starts = sorted({*range(0, n, _PANEL), *(k for k in stops if k < n)})
    panels = []
    for lo, hi in zip(starts, starts[1:] + [n]):
        w = hi - lo
        panel = columns(lo, w)
        for plo, prev in panels:
            rows = prev[lo - plo:]  # L[lo:, plo:plo+pw], below prev's diagonal block
            panel -= rows @ rows[:w].T
        try:
            inverse = _lower_inverse(np.linalg.cholesky(panel[:w]))
        except np.linalg.LinAlgError:
            break
        panel[w:] = panel[w:] @ inverse.T
        panel[:w] = inverse
        panels.append((lo, panel))
    return panels


def _solve(panels: list[tuple[int, np.ndarray]], v: np.ndarray) -> np.ndarray:
    """a^-1 v by forward (L y = v) and back (L^T x = y) substitution over the
    panels of ``_cholesky_panels``."""
    x = v.copy()
    for lo, p in panels:
        w = p.shape[1]
        x[lo:lo + w] = p[:w] @ x[lo:lo + w]
        x[lo + w:] -= p[w:] @ x[lo:lo + w]
    for lo, p in reversed(panels):
        w = p.shape[1]
        x[lo:lo + w] = p[:w].T @ (x[lo:lo + w] - p[w:].T @ x[lo + w:])
    return x


def _smallest_eigenvalue(columns, n: int, panels: list[tuple[int, np.ndarray]]) -> float:
    """Smallest eigenvalue of an n x n symmetric positive-definite a, read
    through ``columns`` as in ``_cholesky_panels``, without its spectrum.

    It is 1/theta for the largest eigenvalue theta of a^-1, which Lanczos with
    full reorthogonalisation finds from a fixed seeded start vector, applying
    a^-1 through ``panels``: a's Cholesky factor, which the caller builds with
    ``_cholesky_panels`` and hands in, keeping no reference of its own.  Lanczos
    stops once the top Ritz value's residual, or its change over one step, is
    below _LANCZOS_TOL of it.  When the panels cover fewer than n rows (a
    diagonal block of the factor is not positive definite), a^-1 v overflows,
    or _STEPS steps do not converge, the basis and the panels are freed before
    ``eigvalsh`` of columns(0, n) answers.
    """
    if sum(p.shape[1] for _, p in panels) == n:
        steps = min(n, _STEPS)
        basis = np.empty((steps, n))
        start = np.random.default_rng(0).standard_normal(n)
        basis[0] = start / np.linalg.norm(start)
        alphas, betas, previous = [], [], -np.inf
        # a factor with pivots near 0 can overflow a^-1 v; that falls back below
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps):
                w = _solve(panels, basis[k])
                alphas.append(float(basis[k] @ w))
                for _ in range(2):  # against every basis vector, twice
                    w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
                beta = float(np.linalg.norm(w))
                if not np.isfinite([alphas[-1], beta]).all():
                    break
                ritz, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas, -1))
                theta = ritz[-1]
                if theta <= 0:
                    break
                if (beta * abs(vectors[-1, -1]) <= _LANCZOS_TOL * theta
                        or theta - previous <= _LANCZOS_TOL * theta):
                    return float(1.0 / theta)
                if k + 1 < steps:
                    basis[k + 1] = w / beta
                    betas.append(beta)
                previous = theta
        del basis
    del panels
    return float(np.linalg.eigvalsh(columns(0, n))[0])


def smallest_gram_eigenvalue(points, feats: FeatureSet, m: Sequence[int]) -> np.ndarray:
    """Smallest eigenvalue of the min(n, m)-sized Gram spectrum of the first m
    features, for each feature count in ``m``, as an array in the given order.

    For m < n the n x n Gram matrix is rank deficient by construction, so the
    meaningful smallest value lives on the m x m companion Phi^T Phi / (nm).

    Phi is never built.  The m < n companions are products of leading columns
    of one head block, the first max(m < n) directions, and one Cholesky
    factor of the head companion serves them all: each m < n is a panel
    start, so companion m's factor is the panels that start before m, cut to
    rows < m.  The m >= n counts are the running Gram sum, which starts from
    the head block's product and adds the following directions in blocks of
    at most min(n, _BLOCK), taken in ascending m.  Each direction is
    evaluated once.  Each value is ``_smallest_eigenvalue`` of the unscaled
    product divided by nm.

    A singular spectrum (rank below min(n, m), as with a repeated point) has
    a Gram whose smallest eigenvalue carries only the absolute accuracy of
    the product, about eps times the largest, and either sign.  This route
    reads no rank, so it returns that rounding; ``runner._fit``, which holds
    the SVD and its rank, writes exactly 0 for such a cell.
    """
    points = np.asarray(points, dtype=float)
    n, total = points.shape[0], feats.count
    if n == 0:
        raise ValueError(f"no points: points of shape {points.shape}")
    counts = np.asarray(m)
    if (counts.ndim != 1 or counts.size == 0 or not np.issubdtype(counts.dtype, np.integer)
            or counts.min() < 1 or counts.max() > total):
        raise ValueError(f"feature counts must be a sequence of integers in 1..{total} for "
                         f"a feature matrix of shape ({n}, {total}), got {counts.tolist()}")
    below = sorted({int(k) for k in counts if k < n})
    above = sorted({int(k) for k in counts if k >= n})
    smallest, head, gram = {}, max(below, default=0), None
    if below:
        block = feature_values(FeatureSet(feats.directions[:head], feats.kind), points)
        # panels of block^T block, never the whole product; companion k's are
        # views of the panels before k.  A factor that stops early serves the
        # counts it covers, and eigvalsh of its own product answers the rest.
        panels = _cholesky_panels(lambda lo, w: block[:, lo:].T @ block[:, lo:lo + w],
                                  head, below)
        for k in below:
            smallest[k] = _smallest_eigenvalue(
                lambda lo, w: block[:, lo:k].T @ block[:, lo:lo + w], k,
                [(lo, p[:k - lo]) for lo, p in panels if lo < k]) / (n * k)
        del panels  # before the head block's product starts the sum beside the block
        if above:
            gram = _add_product(None, block)
        del block
    for k, running in _gram_sums(points, feats, above, head, gram):
        def columns(lo, w):
            return running[lo:, lo:lo + w].copy()
        smallest[k] = _smallest_eigenvalue(columns, n, _cholesky_panels(columns, n)) / (n * k)
    return np.array([smallest[int(k)] for k in counts])


# ---------------------------------------------------------------------------
# Marchenko-Pastur model
# ---------------------------------------------------------------------------

def mp_shape(gamma) -> np.ndarray | float:
    """Unit-calibration smallest-eigenvalue shape, symmetric in gamma <-> 1/gamma."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g <= 0):
        raise ValueError("gamma must be positive")
    out = np.where(g <= 1.0, (1.0 - np.sqrt(g)) ** 2, (1.0 - np.sqrt(1.0 / g)) ** 2)
    return out if out.ndim else float(out)


def calibrate_c(measurements: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares fit of the prediction c * mp_shape(gamma) to measurements.

    ``measurements`` holds (gamma = m/n of the measured count, smallest
    eigenvalue) pairs; at least one must be off resonance (m != n), where
    the shape vanishes.  Returns (c, rms residual); c must come out positive.
    """
    gammas = np.array([g for g, _ in measurements], dtype=float)
    vals = np.array([v for _, v in measurements], dtype=float)
    shapes = np.asarray(mp_shape(gammas))
    use = shapes > 0
    if use.sum() == 0:
        raise ValueError("all measurements sit at gamma = 1; shape is identically zero")
    c = float(vals[use] @ shapes[use] / (shapes[use] @ shapes[use]))
    if c <= 0:
        raise ValueError(f"calibration must be positive, got c = {c!r}")
    resid = float(np.sqrt(np.mean((vals - c * shapes) ** 2)))
    return c, resid
