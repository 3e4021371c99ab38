import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

import oracles
from rfflow import features, flow
from rfflow import kernel_analytic as ka
from rfflow import random_matrix as rm
from rfflow.flow import decompose


def _draw(seed, n, m, d=10, kind="relu"):
    data = features.sample_dataset([seed, 1], n, d,
                                   features.TargetSpec())
    return data.points, features.sample_features([seed, 2], d, m, kind)


# ---------------------------------------------------------------------------
# gram matrix and eigenvalues
# ---------------------------------------------------------------------------

def test_gram_identity_matrix():
    # ReLU features along the coordinate axes at the coordinate points: Phi = I
    n = 4
    g = rm.gram_matrix(np.eye(n), features.FeatureSet(np.eye(n), "relu"))
    np.testing.assert_allclose(g, np.eye(n) / n ** 2, atol=1e-15)


def test_gram_eigenvalues_match_svd():
    points, feats = _draw(0, 12, 9)
    dec = decompose(features.feature_values(feats, points))
    ev = rm.symmetric_eigenvalues(rm.gram_matrix(points, feats))
    expect = np.zeros(12)
    expect[: dec.singular_values.size] = dec.singular_values ** 2 / (12 * 9)
    np.testing.assert_allclose(ev, np.sort(expect)[::-1], rtol=1e-8, atol=1e-14)


def test_gram_shape_validation():
    with pytest.raises(ValueError, match="point dimension"):
        rm.gram_matrix(np.eye(3), features.FeatureSet(np.eye(4), "relu"))
    with pytest.raises(ValueError, match="empty feature set"):
        rm.gram_matrix(np.eye(3), features.FeatureSet(np.empty((0, 3)), "relu"))


def test_zero_points_are_rejected_before_any_block():
    # blocks of min(n, _BLOCK) directions are empty at n = 0, so a call that
    # reached them would never return: it runs in a subprocess whose timeout
    # turns such a hang into a failure
    oracles.fresh_interpreter("""
        import numpy as np
        from rfflow import random_matrix as rm
        from rfflow.features import FeatureSet
        points, feats = np.empty((0, 3)), FeatureSet(np.eye(3), "relu")
        for call in (lambda: rm.gram_matrix(points, feats),
                     lambda: rm.smallest_gram_eigenvalue(points, feats, [2, 3])):
            try:
                call()
            except ValueError as exc:
                assert "points of shape (0, 3)" in str(exc), exc
            else:
                raise AssertionError("no ValueError for zero points")
    """, timeout=60)


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
@pytest.mark.parametrize("m", [13, 40, 100])  # m < n, m = n, m = 2.5n
def test_gram_block_sum_matches_full_product(kind, m):
    n = 40
    points, feats = _draw(3, n, m, 6, kind)
    phi = features.feature_values(feats, points)
    full = phi @ phi.T / (n * m)
    gram = rm.gram_matrix(points, feats)
    assert np.max(np.abs(gram - full)) <= 1e-14 * np.linalg.eigvalsh(full)[-1]
    if m <= n:  # one block: the plain product, to the last bit
        assert gram.tobytes() == full.tobytes()


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
def test_gram_sum_of_narrow_blocks_matches_full_product(kind, monkeypatch):
    # blocks of 7 directions, narrower than n = 40, the last one short, added
    # in row panels of 7, the last one short too: the mirrored upper part
    # never reads a stale entry above the diagonal
    monkeypatch.setattr(rm, "_BLOCK", 7)
    monkeypatch.setattr(rm, "_PANEL", 7)
    n, m = 40, 100
    points, feats = _draw(4, n, m, 6, kind)
    phi = features.feature_values(feats, points)
    full = phi @ phi.T / (n * m)
    gram = rm.gram_matrix(points, feats)
    assert np.array_equal(gram, gram.T)
    assert np.max(np.abs(gram - full)) <= 1e-14 * np.linalg.eigvalsh(full)[-1]


def test_gram_sum_fallback_reads_only_the_lower_part(monkeypatch):
    # one Lanczos step cannot converge, so the m >= n count falls back to
    # eigvalsh of a running sum added in row panels of 7 from blocks of 8,
    # whose upper part beyond the diagonal blocks is stale
    monkeypatch.setattr(rm, "_PANEL", 7)
    monkeypatch.setattr(rm, "_BLOCK", 8)
    monkeypatch.setattr(rm, "_STEPS", 1)
    n, m = 40, 80
    points, feats = _draw(5, n, m)
    phi = features.feature_values(feats, points)
    spectrum = np.linalg.eigvalsh(phi @ phi.T) / (n * m)
    [got] = rm.smallest_gram_eigenvalue(points, feats, [m])
    assert abs(got - spectrum[0]) <= 1e-14 * spectrum[-1]


def test_gram_sums_form_no_n_by_n_product():
    # at n = 1,000 > _BLOCK a Gram sum holds the running n x n sum, one
    # n x _BLOCK block and one _PANEL x n product: 1.38 n x n arrays of
    # doubles, against 2.26 when each block's n x n product was formed.  mp's
    # default counts add the 850-direction head block (0.85 n x n) beside its
    # sum; the m >= n counts' Cholesky panels (about half n x n) beside the
    # sum stay below that.  No eigvalsh runs, so nothing goes untraced.
    n = 1000
    points, feats = _draw(0, n, 4 * n, 10)
    mp_counts = [500, 700, 850, 1000, 1200, 1500, 2000]
    for run, bound in ((lambda: rm.gram_matrix(points, feats), 1.45),
                       (lambda: rm.smallest_gram_eigenvalue(points, feats, mp_counts), 1.9),
                       (lambda: rm.smallest_gram_eigenvalue(points, feats, [n, 2 * n, 4 * n]), 1.75)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * n * n


def test_companions_free_their_shared_factor_before_the_head_product():
    # at n = 1,000 the companions m = 500 and 999 hold the n x 999 head block
    # and the head companion's panels, 1.67 n x n arrays of doubles; m = 500
    # reads views of those panels.  The panels and every view of them are
    # freed before the head block's product starts the sum for m = n, so that
    # phase holds the block and the sum it starts, 2.00 n x n; a view kept
    # alive through it would hold the panels too, 2.56 n x n.
    n = 1000
    points, feats = _draw(0, n, n, 10)
    for ms, bound in (([n // 2, n - 1], 1.7), ([n // 2, n - 1, n], 2.05)):
        tracemalloc.start()
        try:
            rm.smallest_gram_eigenvalue(points, feats, ms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * n * n


def test_handed_factor_is_freed_before_the_fallback(monkeypatch):
    # at n = 1,000 and m = 2n one Lanczos step cannot converge, so eigvalsh of
    # a copy of the running sum answers.  The Cholesky panels that the caller
    # built and handed in (about half n x n) are freed before that copy is
    # taken: the traced peak is the sum and its copy, 2.00 n x n arrays of
    # doubles; panels still referenced by the caller would add theirs, 2.57.
    # eigvalsh's own workspace is not traced.
    monkeypatch.setattr(rm, "_STEPS", 1)
    n = 1000
    points, feats = _draw(0, n, 2 * n, 10)
    tracemalloc.start()
    try:
        rm.smallest_gram_eigenvalue(points, feats, [2 * n])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 8 * n * n


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
def test_kernel_matrix_matches_the_full_product(kind):
    # 300 rows: two full row blocks of 128 and a short one of 44
    n, d = 300, 10
    points = features.sample_sphere([0, 1], d, n)
    full = ka.feature_kernel(points @ points.T, d, kind) / n
    kmat = rm.kernel_matrix(points, kind)
    assert kmat.shape == (n, n)
    diag = np.eye(n, dtype=bool)
    assert np.max(np.abs(kmat - full)[~diag]) <= 1e-15 * np.max(full)
    # A block's product and the full one may round a diagonal |x|^2 to
    # 1 - 2^-53 and to 1; the indicator's slope is infinite at t = 1, where
    # that ulp moves (pi - arccos t)/(2 pi) by 2.4e-9, 4.7e-9 of its value 1/2.
    diag_tol = 1e-8 if kind == "indicator" else 1e-15
    assert np.max(np.abs(kmat - full)[diag]) <= diag_tol * np.max(full)


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


def test_symmetric_eigenvalues_symmetry_test_is_relative():
    # Gram entries are small: at n = 200, m = 400 the largest is about 3.2e-4,
    # so 5e-11 on one entry is a defect of 1.6e-7 of the matrix
    n = 200
    gram = rm.gram_matrix(*_draw(0, n, 2 * n))
    rm.symmetric_eigenvalues(gram)
    gram[0, 1] += 5e-11
    with pytest.raises(ValueError, match="not symmetric"):
        rm.symmetric_eigenvalues(gram)
    # the same test at any scale: 1e-12 of the largest entry passes
    a = np.array([[2.0, 1.0], [1.0 + 2e-12, 3.0]])
    for scale in (1e-8, 1.0, 1e8):
        rm.symmetric_eigenvalues(scale * a)


@oracles.glibc_only
def test_symmetric_eigenvalues_hands_freed_heap_back_first():
    # Freeing a 30 MiB mapped array raises glibc's mmap threshold, so the
    # 2 MiB blocks freed next stay resident in the heap, as a Gram sum's
    # feature blocks do.  Trimmed on entry, the call leaves resident only
    # the n x n that the asymmetry array and then eigvalsh's copy took (0.45
    # n x n arrays of growth at n = 1,000); untrimmed, the freed blocks stay
    # too (3.5 n x n).
    oracles.fresh_interpreter("""
        import numpy as np
        from oracles import rss
        from rfflow import random_matrix as rm

        n = 1000
        big = np.ones(30 * 2**20 // 8)
        del big
        a = np.random.default_rng(0).standard_normal((n, n))
        a += a.T
        before = rss()
        blocks = [np.ones((n, 256)) for _ in range(16)]
        kept = np.ones((n, 256))  # above the freed blocks, as the next block would be
        del blocks
        rm.symmetric_eigenvalues(a)
        grown = rss() - before
        assert grown <= 2 * a.nbytes + 4 * 2**20, grown / a.nbytes
    """)


def test_symmetric_eigenvalues_trim_goes_through_flow_and_changes_no_bit(monkeypatch):
    a = rm.gram_matrix(*_draw(3, 150, 300))
    calls = []
    monkeypatch.setattr(flow, "_MALLOC_TRIM", lambda pad: calls.append(pad))
    traced = rm.symmetric_eigenvalues(a)
    assert calls == [0]
    monkeypatch.setattr(flow, "_MALLOC_TRIM", None)
    assert rm.symmetric_eigenvalues(a).tobytes() == traced.tobytes()


def test_companion_spectra_match_on_rectangular():
    points, feats = _draw(1, 10, 6)
    phi = features.feature_values(feats, points)
    g_big = rm.gram_matrix(points, feats)
    g_small = phi.T @ phi / (10 * 6)
    ev_big = rm.symmetric_eigenvalues(g_big)
    ev_small = rm.symmetric_eigenvalues(g_small)
    np.testing.assert_allclose(ev_big[:6], ev_small, atol=1e-10)
    np.testing.assert_allclose(ev_big[6:], 0.0, atol=1e-10)


def test_smallest_gram_eigenvalue_uses_companion():
    points, feats = _draw(2, 12, 5)
    phi = features.feature_values(feats, points)
    [val] = rm.smallest_gram_eigenvalue(points, feats, [5])
    ev = rm.symmetric_eigenvalues(phi.T @ phi / (12 * 5))
    assert val == pytest.approx(ev[-1], rel=1e-10)
    assert val > 1e-12  # the small companion is full rank


@st.composite
def _multi_m_cases(draw):
    """Points, directions and feature counts in 1..M: unsorted, with repeats,
    always m = n, and m < n and m > n whenever the shape allows.  The M
    directions span up to four blocks of n; small d and repeated points give
    rank-deficient feature matrices."""
    n = draw(st.integers(1, 25))
    total = n + draw(st.integers(0, 3 * n))
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(features.FEATURE_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    pool = features.sample_sphere(rng, d, draw(st.integers(1, n)))
    points = pool[rng.integers(0, pool.shape[0], size=n)]
    feats = features.sample_features(rng, d, total, kind)
    ms = draw(st.lists(st.integers(1, total), min_size=1, max_size=8)) + [n]
    ms += [draw(st.integers(1, n - 1))] if n > 1 else []
    ms += [draw(st.integers(n + 1, total))] if total > n else []
    return points, feats, draw(st.permutations(ms))


def _blockwise_values(points, feats, ms):
    """The first max(ms) feature columns exactly as ``smallest_gram_eigenvalue``
    evaluates them: one head block of the largest count below n, then blocks
    of at most min(n, _BLOCK) directions, one ending at every count >= n.  A
    fresh m-direction evaluation can differ from a column slice in the last
    bits, which an affine pre-activation near 0 amplifies far beyond 1 ulp."""
    n, width = points.shape[0], min(points.shape[0], rm._BLOCK)
    cuts = [0, max([k for k in ms if k < n], default=0)]
    for stop in sorted({k for k in ms if k >= n}):
        cuts += [*range(cuts[-1] + width, stop, width), stop]
    return np.hstack([features.feature_values(
        features.FeatureSet(feats.directions[lo:hi], feats.kind), points)
        for lo, hi in zip(cuts, cuts[1:])])


def _companion_eigenvalues(phi):
    n, m = phi.shape
    comp = phi @ phi.T if n <= m else phi.T @ phi
    return np.linalg.eigvalsh(comp / (n * m))


def _affine_pair_case(seed=1484):
    # two equal points, affine ReLU, 2 directions: a fresh 1-direction matrix
    # misses the sliced one's smallest eigenvalue by 5.3e-14 lambda_max
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    points = features.sample_sphere(rng, d, 1)[[0, 0]]
    return points, features.sample_features(rng, d, 2, "affine-relu"), [1, 2, 1]


@settings(max_examples=150, deadline=None)
@given(case=_multi_m_cases(), width=st.integers(1, 30), panel=st.integers(1, 16))
@example(case=_affine_pair_case(), width=rm._BLOCK, panel=rm._PANEL)
def test_smallest_gram_eigenvalue_serves_many_m_from_one_matrix(case, width, panel):
    # blocks of any width up to and beyond n, as _BLOCK gives for n > _BLOCK;
    # panels of 1..16 columns, so the head companion's factor is cut both at
    # the m < n counts and at multiples of _PANEL, as at full size
    points, feats, ms = case
    with mock.patch.object(rm, "_BLOCK", width), mock.patch.object(rm, "_PANEL", panel):
        got = rm.smallest_gram_eigenvalue(points, feats, ms)
        assert isinstance(got, np.ndarray) and got.shape == (len(ms),)
        phi = _blockwise_values(points, feats, ms)
        for m, value in zip(ms, got):
            ev = _companion_eigenvalues(phi[:, :m])
            assert abs(value - ev[0]) <= 1e-14 * ev[-1]
            head = features.FeatureSet(feats.directions[:m], feats.kind)  # exactly m features
            [one] = rm.smallest_gram_eigenvalue(points, head, [m])
            ev = _companion_eigenvalues(_blockwise_values(points, head, [m]))
            assert abs(one - ev[0]) <= 1e-14 * ev[-1]


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), m=st.integers(1, 120), d=st.integers(3, 8),
       panel=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_smallest_eigenvalue_at_m_ge_n_matches_eigvalsh(kind, n, m, d, panel, seed):
    # m on both sides of n: the companion's panels come from the head block,
    # the running sum's from the sum.  Panels of 1..16 columns at n <= 40 run
    # the multi-panel factor and substitution that n > _PANEL runs at full size
    rng = np.random.default_rng(seed)
    points = features.sample_sphere(rng, d, n)
    feats = features.sample_features(rng, d, m, kind)
    with mock.patch.object(rm, "_PANEL", panel):
        [got] = rm.smallest_gram_eigenvalue(points, feats, [m])
    ev = _companion_eigenvalues(_blockwise_values(points, feats, [m]))
    assert abs(got - ev[0]) <= 1e-14 * ev[-1]


@st.composite
def _lower_factors(draw):
    """Lower-triangular matrices of widths 1-160, weighted to the halving
    cuts 32, 64 and 128, with condition numbers 1 to 1e8 and any scale: the
    transposed R of a QR of U diag(s) V^T has s for its singular values."""
    width = draw(st.one_of(st.sampled_from([31, 32, 33, 63, 64, 65, 127, 128, 129]),
                           st.integers(1, 160)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    u, v = (np.linalg.qr(rng.standard_normal((width, width)))[0] for _ in range(2))
    s = np.logspace(0, -draw(st.floats(0, 8)), width)
    return np.linalg.qr((u * s) @ v.T).R.T * 10.0 ** draw(st.integers(-100, 100))


@settings(max_examples=150, deadline=None)
@given(low=_lower_factors())
def test_lower_inverse_is_exactly_lower_and_inverts(low):
    # measured over 3,000 draws: |X L - I| reached 2.2 kappa eps and
    # |X - tril(inv(L))| 0.45 kappa eps of |X|
    width = low.shape[0]
    bound = 16 * np.linalg.cond(low) * np.finfo(float).eps
    inverse = rm._lower_inverse(low)
    assert not np.triu(inverse, 1).any()
    assert np.max(np.abs(inverse @ low - np.eye(width))) <= bound
    plain = np.tril(np.linalg.inv(low))
    assert np.max(np.abs(inverse - plain)) <= bound * np.max(np.abs(plain))


def test_cholesky_panels_hold_diagonal_inverses_at_a_companion_stop():
    # the head companion of m = 200 and 300 at n = 400 points: panels start
    # at 0 and 128, at the stop 200, and at 256.  Each p[:w] is the exact
    # lower-triangular inverse of L's diagonal block, p[w:] is L below it.
    points, feats = _draw(2, 400, 300)
    block = features.feature_values(feats, points)
    product = block.T @ block
    panels = rm._cholesky_panels(lambda lo, w: block[:, lo:].T @ block[:, lo:lo + w],
                                 300, [200, 300])
    assert [(lo, p.shape[1]) for lo, p in panels] == [(0, 128), (128, 72), (200, 56),
                                                      (256, 44)]
    factor = np.linalg.cholesky(product)
    for lo, p in panels:
        w = p.shape[1]
        diagonal = factor[lo:lo + w, lo:lo + w]
        assert not np.triu(p[:w], 1).any()
        np.testing.assert_allclose(p[:w] @ diagonal, np.eye(w), rtol=0, atol=1e-11)
        np.testing.assert_allclose(p[w:], factor[lo + w:, lo:lo + w], rtol=0,
                                   atol=1e-11 * np.abs(factor).max())


def _spy_factor_sizes(monkeypatch):
    """Sizes of the matrices that ``_cholesky_panels`` factors, in call order."""
    cholesky, sizes = rm._cholesky_panels, []

    def spy(columns, n, *stops):
        sizes.append(n)
        return cholesky(columns, n, *stops)

    monkeypatch.setattr(rm, "_cholesky_panels", spy)
    return sizes


@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
def test_smallest_eigenvalue_at_m_ge_n_needs_no_spectrum(kind, monkeypatch):
    # six panels of at most 7 columns at n = 40, and one factor for both
    # companions: seven panels of the m = 37 product, which start at the
    # multiples of 7 and at 20, so the first four serve m = 20.  No eigvalsh
    # call answers on either side of n.  At d = 6 a draw can repeat a feature
    # column below m = 37 (seed 6's indicator features do), and such an
    # exactly singular companion rightly falls back; seed 7 repeats none for
    # any kind.
    n = 40
    points, feats = _draw(7, n, 3 * n, 6, kind)
    ms = [n // 2, n - 3, n, 2 * n, 3 * n]
    phi = _blockwise_values(points, feats, ms)
    want = [_companion_eigenvalues(phi[:, :m]) for m in ms]

    def eigvalsh(a):
        raise AssertionError(f"eigvalsh of a {a.shape} matrix")

    monkeypatch.setattr(rm, "_PANEL", 7)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    sizes = _spy_factor_sizes(monkeypatch)
    got = rm.smallest_gram_eigenvalue(points, feats, ms)
    assert sizes == [n - 3, n, n, n]
    for value, ev in zip(got, want):
        assert abs(value - ev[0]) <= 1e-14 * ev[-1]


def test_singular_head_companion_keeps_the_counts_its_factor_covers(monkeypatch):
    # points e1..e4 and directions e1, e2, e1: the head companion at m = 3 is
    # [[1, 0, 1], [0, 1, 0], [1, 0, 1]], whose third pivot is 0.  Its factor
    # stops there, after the panel of m = 2's identity companion: m = 2 keeps
    # that factor, and m = 3 alone falls back to eigvalsh, with no new factor
    points = np.eye(4)
    feats = features.FeatureSet(np.eye(4)[[0, 1, 0]], "relu")
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    sizes = _spy_factor_sizes(monkeypatch)
    at_2, at_3 = rm.smallest_gram_eigenvalue(points, feats, [2, 3])
    assert sizes == [3]
    assert calls == [(3, 3)]
    assert at_2 == pytest.approx(1 / 8, rel=1e-15, abs=0)
    head = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    assert at_3 == eigvalsh(head)[0] / 12


def test_singular_gram_falls_back_to_eigvalsh(monkeypatch):
    # the third point repeats the first: Phi's rows e1, e2, e1 make the third
    # Cholesky pivot of the Gram sum exactly 1 - 1^2 = 0
    points = np.eye(3)[[0, 1, 0]]
    feats = features.FeatureSet(np.eye(3), "relu")
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    [got] = rm.smallest_gram_eigenvalue(points, feats, [3])
    assert calls == [(3, 3)]
    gram = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    assert got == eigvalsh(gram)[0] / 9


def test_lanczos_step_cap_falls_back_to_eigvalsh(monkeypatch):
    # one step cannot converge: the value is eigvalsh's, to the last bit, for
    # the companion Phi^T Phi at m = 25 and for the running sum at m = 80,
    # which starts from the 25-direction head block's product
    n, m, below = 40, 80, 25
    points, feats = _draw(5, n, m)
    phi = features.feature_values(features.FeatureSet(feats.directions[:below], feats.kind),
                                  points)
    [(_, running)] = rm._gram_sums(points, feats, [m], below, phi @ phi.T)
    want = [float(np.linalg.eigvalsh(a)[0]) / (n * k)
            for a, k in [(running, m), (phi.T @ phi, below)]]
    monkeypatch.setattr(rm, "_STEPS", 1)
    assert list(rm.smallest_gram_eigenvalue(points, feats, [m, below])) == want


def test_singular_companion_falls_back_to_eigvalsh(monkeypatch):
    # points e1, e2, e3 and directions e1, e1: Phi's columns are both e1, so
    # the companion Phi^T Phi is [[1, 1], [1, 1]] and its second pivot is 0
    points = np.eye(3)
    feats = features.FeatureSet(np.eye(3)[[0, 0]], "relu")
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    [got] = rm.smallest_gram_eigenvalue(points, feats, [2])
    assert calls == [(2, 2)]
    assert got == eigvalsh(np.ones((2, 2)))[0] / 6


def test_overflowing_inverse_falls_back_to_eigvalsh():
    # a pivot of 1e-160 passes the factor, but a^-1 v then reaches 1e320
    a = np.diag([1.0, 1e-320])

    def columns(lo, w):
        return a[lo:, lo:lo + w].copy()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rm._smallest_eigenvalue(columns, 2, rm._cholesky_panels(columns, 2))
        assert got == np.linalg.eigvalsh(a)[0]


def test_smallest_gram_eigenvalue_evaluates_each_direction_once(monkeypatch):
    # one head block of the largest count below n = 20 serves the m < n
    # companions; blocks of at most min(n, _BLOCK) = 8 directions follow and
    # one ends at every count >= n
    widths = []

    def spy(feats, points):
        widths.append(feats.count)
        return features.feature_values(feats, points)

    monkeypatch.setattr(rm, "feature_values", spy)
    monkeypatch.setattr(rm, "_BLOCK", 8)
    points, feats = _draw(0, 20, 75, 5)
    rm.smallest_gram_eigenvalue(points, feats, [33, 5, 20, 19, 75])
    assert widths == [19, 1, 8, 5, 8, 8, 8, 8, 8, 2]


@pytest.mark.parametrize("shape,m,message", [
    ((6, 8, 4), [3, 8], "dimension does not match feature directions"),  # directions in another dimension
    ((6, 8, 3), [0, 3], "got [0, 3]"),                     # a feature count below 1
    ((6, 8, 3), [3, 9], "1..8 for a feature matrix of shape (6, 8)"),  # beyond the directions
    ((6, 8, 3), [2.5], "got [2.5]"),                       # not a count
    ((6, 8, 3), 5, "must be a sequence of integers"),      # one count, not a sequence
])
def test_smallest_gram_eigenvalue_shape_errors(shape, m, message):
    n, total, dim = shape  # points in 3 dimensions, directions in dim
    feats = features.sample_features([0, 2], dim, total)
    with pytest.raises(ValueError) as err:
        rm.smallest_gram_eigenvalue(features.sample_sphere([0, 1], 3, n), feats, m)
    assert message in str(err.value)


def test_gram_top_eigenvalue_matches_calibrated_analytic():
    # n = m = 500 ReLU at d = 10: top Gram eigenvalue tracks the top operator
    # eigenvalue at the exact ReLU kernel scale 1/(2 pi d) within 10%
    d, n, m = 10, 500, 500
    top = rm.symmetric_eigenvalues(rm.gram_matrix(*_draw(0, n, m, d)))[0]
    lam0 = ka.spectrum_feature_scale(d, 1 / (2 * np.pi * d))
    assert top == pytest.approx(lam0, rel=0.10)


# ---------------------------------------------------------------------------
# Marchenko-Pastur model
# ---------------------------------------------------------------------------

def test_mp_edges_values():
    assert oracles.mp_edges(1.0) == (0.0, 4.0)
    lo, hi = oracles.mp_edges(0.25)
    assert lo == pytest.approx(0.25) and hi == pytest.approx(2.25)
    with pytest.raises(ValueError):
        oracles.mp_edges(0.0)


def test_mp_density_support():
    lo, hi = oracles.mp_edges(0.5)
    lam = np.linspace(-1, 4, 200)
    dens = oracles.mp_density(0.5, lam)
    outside = (lam <= lo) | (lam >= hi)
    assert np.all(dens[outside] == 0.0)
    assert np.all(dens >= 0.0)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 8.0])
def test_mp_total_mass_is_one(gamma):
    mass, _ = scipy_quad(lambda x: oracles.mp_density(gamma, x), *oracles.mp_edges(gamma),
                         limit=200)
    assert mass + max(0.0, 1.0 - 1.0 / gamma) == pytest.approx(1.0, abs=1e-6)


def test_predict_smallest_anchor_values():
    # the calibrated prediction is c * mp_shape(gamma)
    assert 2.0 * rm.mp_shape(1.0) == 0.0
    assert 1.0 * rm.mp_shape(4.0) == pytest.approx(0.25)
    for g in (0.3, 0.7, 2.5):
        assert 1.3 * rm.mp_shape(g) == pytest.approx(1.3 * rm.mp_shape(1.0 / g), rel=1e-12)


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


def test_calibrate_rejects_a_calibration_that_is_not_positive():
    # round-off smallest eigenvalues can be negative; so is then their fit
    with pytest.raises(ValueError, match="calibration must be positive"):
        rm.calibrate_c([(0.5, -1e-17), (2.0, -2e-17)])


def test_smallest_eigenvalue_dip_at_resonance():
    # gamma = 1 collapses the smallest eigenvalue versus gamma = 2
    n, d, seeds = 300, 10, range(10)
    at_1, at_2 = np.median([rm.smallest_gram_eigenvalue(*_draw(s, n, 2 * n, d), [n, 2 * n])
                            for s in seeds], axis=0)
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
