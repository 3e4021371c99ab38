"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import functools
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.stats import spearmanr

import oracles
from rfflow import features, flow, runner
from rfflow import kernel_analytic as ka
from rfflow import random_matrix as rm
from rfflow.cli import main
from rfflow.config import ExperimentConfig


def _report(cid: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def _base_500(seed: int, m: int = 500) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, n=500, m=m, d=10,
                            feature_kind="relu", target_order=0,
                            t_log_start=-2.0, t_log_stop=10.0, t_per_decade=20)


def _median_curve(records):
    times = records[0].trajectory.time
    stack = np.array([rec.trajectory.test_error for rec in records])
    return times, np.median(stack, axis=0)


# ---------------------------------------------------------------------------

def test_a01_trajectory_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(3):
        d = 6
        pts = features.sample_sphere([seed, 1], d, 8)
        feats = features.sample_features([seed, 2], d, 8, "relu")
        data = features.Dataset(points=pts, targets=np.ones(8))
        phi = features.build_feature_matrix(data, feats)
        y = np.random.default_rng([seed, 3]).standard_normal(8)
        dec = flow.decompose(phi)
        for t in (0.1, 1.0, 10.0):
            exact = flow.coefficients_at(dec, y, t)
            euler = oracles.ode_oracle(phi, y, t, 1e-4)
            rel = np.linalg.norm(exact - euler) / np.linalg.norm(exact)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 5.0
    _report("A01 trajectory-oracle equivalence",
            ok, f"worst rel err {worst:.2e} (<=1e-3), {elapsed:.2f}s (<5s)")


def test_a02_slow_deterioration_window():
    t0 = time.perf_counter()
    records = [runner.run_experiment(_base_500(seed)) for seed in range(5)]
    times, med = _median_curve(records)
    finite = np.isfinite(times)
    path_min = float(med[finite].min())
    window = finite & (times >= 1e2) & (times <= 1e6)
    window_median = float(np.median(med[window]))
    min_norm = float(med[~finite][0])
    late = float(med[finite][np.argmin(np.abs(times[finite] - 1e9))])
    elapsed = time.perf_counter() - t0
    ok = (window_median <= 2 * path_min
          and min_norm >= 10 * path_min
          and late < min_norm           # ascent has not completed by t = 1e9
          and elapsed < 60.0)
    _report("A02 slow deterioration (flat window, late blow-up)",
            ok, f"window median {window_median:.4f} vs 2x min {2 * path_min:.4f}; "
                f"min-norm {min_norm:.3f} >= 10x min {10 * path_min:.3f}; "
                f"med(1e9)={late:.3f} < min-norm; {elapsed:.1f}s (<60s)")


def test_a03_sqrt_t_envelope():
    t0 = time.perf_counter()
    per_curve = {}
    for m in (100, 250, 500, 1000, 2500):
        rec = runner.run_experiment(_base_500(0, m=m))
        times, errs = rec.trajectory.time, rec.trajectory.test_error
        fin = np.isfinite(times)
        times, errs = times[fin], errs[fin]
        i0 = int(np.argmin(errs))
        tail_t, tail_e = times[i0 + 1:], errs[i0 + 1:]
        ratio = (tail_e - errs[i0]) / np.sqrt(tail_t)
        per_curve[m] = float(ratio.max()) if ratio.size else 0.0
    c_global = max(per_curve.values())
    # the single global constant satisfies every curve after its minimum
    holds = all(c <= c_global for c in per_curve.values())
    elapsed = time.perf_counter() - t0
    ok = holds and math.isfinite(c_global) and c_global > 0
    _report("A03 sqrt-t envelope across m",
            ok, f"fitted global c = {c_global:.3e} "
                f"(per-m {{{', '.join(f'{m}: {v:.2e}' for m, v in per_curve.items())}}}), "
                f"{elapsed:.1f}s")


def test_a04_norm_bound_holds_on_most_seeds():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(20):
        rec = runner.run_experiment(_base_500(seed))
        measured = rec.trajectory.model_norm
        fin = np.isfinite(rec.trajectory.time)
        if np.all(measured[fin] <= rec.bound_rough[fin]):
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 18 and elapsed < 120.0
    _report("A04 sqrt-t norm bound (delta=0.1)",
            ok, f"bound held on {hits}/20 seeded runs (need >=18), "
                f"{elapsed:.1f}s (<120s)")


def test_a05_analytic_spectrum_identities():
    failures = []
    for d in (3, 10):
        for n in (0, 1, 2, 4, 6):
            lam_n = oracles.analytic_eigenvalue(d, n)
            lam_n2 = oracles.analytic_eigenvalue(d, n + 2)
            expect = (n - 1) ** 2 / ((n + d - 1) ** 2 * (n + d + 1) * (n + d))
            if n == 1:
                if lam_n2 != 0.0:
                    failures.append(f"ratio d={d} n=1")
            elif abs(lam_n2 / lam_n - expect) > 1e-12 * expect:
                failures.append(f"ratio d={d} n={n}")
        for n in (3, 5, 7, 9):
            if oracles.analytic_eigenvalue(d, n) != 0.0:
                failures.append(f"odd d={d} n={n}")
        for n in range(0, 9):
            def geg(t, _d=d, _n=n):
                return math.comb(_n + _d - 3, _n) * np.asarray(ka.legendre(_d, _n, t))

            checks = (
                (ka.weighted_cosine_integral(d, lambda t: np.sqrt(1 - t * t) * geg(t)),
                 oracles.gegenbauer_sqrt_moment(d, n)),
                (ka.weighted_cosine_integral(
                    d, lambda t: t * (np.pi - np.arccos(np.clip(t, -1, 1))) * geg(t)),
                 oracles.gegenbauer_arc_moment(d, n)),
                (ka.weighted_cosine_integral(d, lambda t: ka.kernel_profile(t) * geg(t)),
                 oracles.gegenbauer_kernel_moment(d, n)),
            )
            for idx_c, (lhs, rhs) in enumerate(checks, 1):
                if abs(rhs) < 1e-14:
                    if abs(lhs) > 1e-10:
                        failures.append(f"moment{idx_c} d={d} n={n} (vanishing)")
                elif abs(lhs / rhs - 1) > 1e-8:
                    failures.append(f"moment{idx_c} d={d} n={n}")
    ok = not failures
    _report("A05 analytic spectrum identities",
            ok, "ratio identity 1e-12, odd orders exact zero, "
                "polynomial moment identities 1e-8" if ok else f"failed: {failures}")


def test_a06_lambda0_monte_carlo_cross_check():
    # lambda_0 = (Omega_{d-2}/pi) Int k(t) w(t) dt at d = 3, and the sphere
    # average of the profile is (Omega_{d-2}/Omega_{d-1}) Int k w dt, so the
    # MC oracle is (Omega_{d-1}/pi) * mean over uniform sphere samples.
    d = 3
    samples = features.sample_sphere(20_250_101, d, 1_000_000)
    axis = np.zeros(d)
    axis[0] = 1.0
    mean = float(np.mean(ka.kernel_profile(samples @ axis)))
    oracle = oracles.surface_area(d - 1) / np.pi * mean
    analytic = oracles.analytic_eigenvalue(d, 0)
    rel = abs(oracle - analytic) / analytic
    ok = rel <= 0.005 and abs(analytic - 3 * np.pi / 2) < 1e-12
    _report("A06 lambda_0 Monte-Carlo cross-check (d=3)",
            ok, f"analytic 3pi/2 = {analytic:.6f}, MC oracle {oracle:.6f}, "
                f"rel diff {rel:.2e} (<=5e-3)")


def test_a07_gram_vs_kernel_matrix_at_gamma8():
    t0 = time.perf_counter()
    d, n, gamma = 10, 500, 8.0
    m = int(gamma * n)
    rels = []
    for seed in range(5):
        data = features.sample_dataset([seed, 1], n, d,
                                       features.TargetSpec())
        feats = features.sample_features([seed, 2], d, m, "relu")
        ev_g = rm.symmetric_eigenvalues(rm.gram_matrix(data.points, feats))
        # the exact ReLU kernel k(t)/(2 pi d)
        ev_k = rm.symmetric_eigenvalues(rm.kernel_matrix(data.points, "relu"))
        rels.append(np.abs(ev_g[:10] - ev_k[:10]) / ev_k[:10])
    med = np.median(np.array(rels), axis=0)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(med <= 0.05))
    _report("A07 gram vs kernel-matrix spectra at gamma=8",
            ok, f"median top-10 rel diffs max {med.max():.4f} (<=0.05), "
                f"{elapsed:.1f}s")


def test_a08_smallest_eigenvalue_dip_and_mp_fit():
    t0 = time.perf_counter()
    n, d = 1000, 10
    gammas = [0.5, 0.7, 0.85, 1.0, 1.2, 1.5, 2.0]
    m_values = [int(round(g * n)) for g in gammas]
    per_seed = []
    for seed in range(10):  # one feature draw per seed serves every gamma
        data = features.sample_dataset([seed, 1], n, d,
                                       features.TargetSpec())
        feats = features.sample_features([seed, 2], d, max(m_values), "relu")
        per_seed.append(rm.smallest_gram_eigenvalue(data.points, feats, m_values))
    means = [float(np.mean(vals)) for vals in np.array(per_seed).T]
    dip_at_one = gammas[int(np.argmin(means))] == 1.0
    fit_pts = [(g, v) for g, v in zip(gammas, means) if 0.8 <= g <= 1.25 and g != 1.0]
    c, _ = rm.calibrate_c(fit_pts)
    rel_errs = {}
    for g, v in zip(gammas, means):
        if 0.7 <= g <= 1.5 and g != 1.0:  # prediction is identically 0 at gamma=1
            rel_errs[g] = abs(c * rm.mp_shape(g) - v) / v
    elapsed = time.perf_counter() - t0
    ok = dip_at_one and all(r <= 0.5 for r in rel_errs.values()) and elapsed < 600.0
    _report("A08 smallest-eigenvalue dip and MP prediction",
            ok, f"dip at gamma=1: {dip_at_one}; c={c:.3e}; rel errs "
                f"{{{', '.join(f'{g}: {r:.2f}' for g, r in rel_errs.items())}}} "
                f"(<=0.5); {elapsed:.1f}s (<600s)")


def test_a09_mp_mass_and_edges():
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0, 8.0):
        mass, _ = scipy_quad(lambda x, g=gamma: oracles.mp_density(g, x),
                             *oracles.mp_edges(gamma), limit=200)
        total = mass + max(0.0, 1.0 - 1.0 / gamma)
        worst = max(worst, abs(total - 1.0))
    edges_ok = (oracles.mp_edges(0.25) == ((1 - 0.5) ** 2, (1 + 0.5) ** 2)
                and oracles.mp_edges(1.0) == (0.0, 4.0))
    ok = worst <= 1e-6 and edges_ok
    _report("A09 MP mass and edges",
            ok, f"max |mass+atom-1| = {worst:.2e} (<=1e-6); edges exact: {edges_ok}")


def test_a10_kernel_profile_identities_and_shape():
    exact = (abs(ka.kernel_profile(1.0) - np.pi) < 1e-15
             and abs(ka.kernel_profile(0.0) - 1.0) < 1e-15
             and abs(ka.kernel_profile(-1.0)) < 1e-15)
    d = 10
    feats = features.sample_features([40, 1], d, 100_000, "relu")
    xs = features.sample_sphere([40, 2], d, 16)
    ys = features.sample_sphere([40, 3], d, 16)
    vals, ses, prof = [], [], []
    for x, y in zip(xs, ys):
        v, se = oracles.kernel_mc(x, y, feats)
        vals.append(v)
        ses.append(se)
        prof.append(ka.kernel_profile(float(x @ y)))
    vals, ses, prof = map(np.array, (vals, ses, prof))
    c = float(vals @ prof / (prof @ prof))
    dev = np.abs(vals - c * prof) / ses
    ok = exact and bool(np.all(dev <= 5.0))
    _report("A10 kernel profile identities and MC shape",
            ok, f"k(1)=pi, k(0)=1, k(-1)=0 exact: {exact}; "
                f"max |dev|/SE = {dev.max():.2f} (<=5) at c={c:.4e}")


def test_a11_mnist_pipeline_optional():
    base = os.environ.get("RFFLOW_DATA_DIR")
    paths = None
    if base:
        root = Path(base)
        cand = (root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte",
                root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")
        if all(p.exists() for p in cand):
            paths = cand
    if paths is None:
        print("[SKIP] A11 MNIST pipeline: no IDX files "
              "(set RFFLOW_DATA_DIR to run this optional criterion)")
        pytest.skip("optional criterion: user-supplied IDX files not present")

    from rfflow.idx import load_idx

    n = 500
    train = load_idx(paths[0], paths[1], classes=(0, 1), subsample=n, seed=0)
    test = load_idx(paths[2], paths[3], classes=(0, 1))
    cfg = ExperimentConfig(seed=0, n=n)
    m_values = [int(round(n * g)) for g in
                (0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5, 2.0)]
    tables = runner.sweep_tables(cfg, train, test, m_values, [0])
    errs = {v: cell for (v, _), cell in tables.items()}
    min_norm = np.array([errs[v].min_norm_test_error for v in m_values])
    peak_m = m_values[int(np.argmax(min_norm))]
    peak_ok = 0.8 * n <= peak_m <= 1.2 * n
    budget = np.array([errs[v].budget_errors[1e6][1] for v in m_values])
    near = [i for i, v in enumerate(m_values) if 0.8 * n <= v <= 1.2 * n]
    smooth = all(
        budget[i] <= 2 * min(budget[i - 1] if i > 0 else np.inf,
                             budget[i + 1] if i + 1 < len(budget) else np.inf)
        for i in near)
    ok = peak_ok and smooth
    _report("A11 MNIST double-descent pipeline",
            ok, f"min-norm peak at m={peak_m} (within [{0.8*n:.0f}, {1.2*n:.0f}]); "
                f"T=1e6 curve smooth near m=n: {smooth}")


def test_a12_determinism_and_worker_independence(tmp_path):
    cfg = replace(_base_500(0), n=120, m=120, t_log_stop=6.0)
    paths = []
    for tag in ("a", "b", "c"):
        records = runner.run_sweep(cfg, [0, 1], m_values=[90, 120])
        p_sweep = tmp_path / f"sweep_{tag}.csv"
        runner.emit_sweep_csv("m", {key: rec.summary for key, rec in records.items()}, p_sweep)
        p_run = tmp_path / f"run_{tag}.csv"
        runner.emit_csv(records[(120, 0)], p_run)
        # the mp and spectra tables, each verb run through the CLI
        out = tmp_path / tag
        assert main(["mp", "--set", "n=60", "--set", "d=5", "--seeds", "0,1",
                     "--out", str(out)]) == 0
        assert main(["spectra", "--set", "n=60", "--set", "d=5", "--gamma", "2",
                     "--seed", "1", "--out", str(out)]) == 0
        paths.append((p_sweep.read_bytes(), p_run.read_bytes(),
                      (out / "mp_smallest.csv").read_bytes(),
                      (out / "spectra_gamma2.csv").read_bytes()))
    ok = paths[0] == paths[1] == paths[2]
    _report("A12 determinism across reruns",
            ok, "byte-identical sweep, trajectory, mp and spectra CSVs over three serial runs")


@functools.lru_cache(maxsize=None)
def _stopping_cell(gamma: float, seed: int):
    """One n = 300 cell: (times, test error, validation error) over the finite
    grid, then the min-norm test error and lambda_min = s_r^2/(nm), the
    smallest *positive* Gram eigenvalue (r = rank; the sweep tables' smallest
    eigenvalue is 0 below rank min(n, m)).

    The validation curve is the cell's error on its own Monte-Carlo draw,
    drawn independently of train and test, so stopping on it never reads the
    test set.
    """
    n = 300
    cfg = ExperimentConfig(seed=seed, n=n, m=runner.m_for_gamma(gamma, n), t_log_stop=14.0)
    train, test, feats, mc_points = runner._draws(cfg, cfg.m)
    dec = flow.decompose(features.build_feature_matrix(train, feats))
    grid = cfg.time_grid()
    test_error = flow.errors_on_grid(dec, train.targets, feats, test, grid).test_error
    val_error = flow.errors_on_grid(dec, train.targets, feats, mc_points, grid).test_error
    lam_min = float(dec.singular_values[dec.rank - 1] ** 2 / (n * cfg.m))
    return np.array(grid[:-1]), test_error[:-1], val_error[:-1], float(test_error[-1]), lam_min


def test_a13_late_gap_develops_slower_the_larger_it_is():
    # gap = min-norm error - path minimum; t_half = the first grid time after
    # the minimum where the error has climbed half the gap.  t_half scales as
    # the slowest mode's time 1/lambda_min, and larger gaps take longer.
    t0 = time.perf_counter()
    t_half, gaps, slowest, failures = [], [], [], []
    for gamma in (0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25):
        for seed in range(3):
            times, test_error, _, min_norm, lam_min = _stopping_cell(gamma, seed)
            best = int(np.argmin(test_error))
            gap = min_norm - test_error[best]
            [climbed] = np.nonzero(test_error[best:] - test_error[best] >= gap / 2)
            if gap <= 0 or not climbed.size:
                failures.append(f"gamma={gamma} seed={seed}: no half-gap time")
                continue
            t_half.append(times[best + climbed[0]])
            gaps.append(gap)
            slowest.append(1.0 / lam_min)
    slope = float(np.polyfit(np.log(slowest), np.log(t_half), 1)[0])
    rho = float(spearmanr(gaps, t_half)[0])
    ok = not failures and 0.7 <= slope <= 1.3 and rho >= 0.8
    _report("A13 self-correction: the larger the gap, the slower it develops",
            ok, f"log-log slope of t_half on 1/lambda_min {slope:.3f} (in [0.7, 1.3]), "
                f"Spearman(gap, t_half) {rho:.3f} (>=0.8) over {len(t_half)} cells, "
                f"{time.perf_counter() - t0:.1f}s" + (f"; {failures}" if failures else ""))


def test_a14_stopping_on_the_validation_curve():
    # stop at the argmin of the Monte-Carlo validation curve: the stopped test
    # error is near the path minimum, far below the min-norm error at m = n
    t0 = time.perf_counter()
    worst, at_one, failures = 0.0, [], []
    for gamma in (0.5, 0.9, 1.0, 1.1, 2.0):
        for seed in range(3):
            _, test_error, val_error, min_norm, _ = _stopping_cell(gamma, seed)
            stopped = test_error[np.argmin(val_error)]
            ratio = stopped / test_error.min()
            worst = max(worst, ratio)
            if ratio > 1.05:
                failures.append(f"gamma={gamma} seed={seed}: {ratio:.4f}")
            if gamma == 1.0:
                at_one.append(min_norm / stopped)
    median = float(np.median(at_one))
    ok = not failures and median >= 10
    _report("A14 early stopping on the validation curve",
            ok, f"worst stopped / path-minimum test error {worst:.5f} (<=1.05), "
                f"median min-norm / stopped at gamma=1 {median:.1f} (>=10), "
                f"{time.perf_counter() - t0:.1f}s" + (f"; {failures}" if failures else ""))


def test_a15_analytic_spectrum_matches_the_kernel_matrix():
    # each nonzero degree among 0-2 fills one rank block of the kernel matrix's
    # spectrum; the block's mean eigenvalue is the degree's operator eigenvalue
    t0 = time.perf_counter()
    n, worst, failures = 2000, 0.0, []
    for d in (3, 10):
        points = features.sample_sphere([0, 1], d, n)
        for kind in features.FEATURE_KINDS:
            kernel_ev = rm.symmetric_eigenvalues(rm.kernel_matrix(points, kind))
            analytic = ka.analytic_spectrum(d, kind, n)
            start = 0
            for deg in (0, 1) if kind == "indicator" else (0, 1, 2):  # its degree 2 vanishes
                stop = start + ka.harmonic_multiplicity(d, deg)
                rel = abs(np.mean(kernel_ev[start:stop]) / analytic[start] - 1)
                worst = max(worst, rel)
                if rel > 0.05 or np.any(analytic[start:stop] != analytic[start]):
                    failures.append(f"{kind} d={d} degree {deg}: {rel:.4f}")
                start = stop
    ok = not failures
    _report("A15 analytic spectrum vs kernel-matrix blocks (n=2000)",
            ok, f"worst block-mean relative difference {worst:.4f} (<=0.05), "
                f"{time.perf_counter() - t0:.1f}s" if ok else f"failed: {failures}")


def test_a16_test_error_column_matches_the_population_error():
    # the test-set RMS error of a cell against the exact population error of
    # its flow model, at every grid time: z = (test MSE - exact) / (sample std
    # of the per-point squared errors / sqrt(N_test)), bound fixed at |z| <= 5
    t0 = time.perf_counter()
    worst_z, worst_rel, failures = 0.0, 0.0, []
    for kind in ("relu", "indicator"):
        for m in (100, 500, 2500):
            for seed in (3, 4, 5):
                cfg = replace(_base_500(seed, m=m), feature_kind=kind)
                train, test, feats, _ = runner._draws(cfg, m)
                feats, dec, _, _ = runner._fit(cfg, train, feats)
                grid = cfg.time_grid()
                mse = flow.errors_on_grid(dec, train.targets, feats, test, grid).test_error ** 2
                coeffs = flow.coefficients_at(dec, train.targets, np.array(grid))
                exact = oracles.population_mse(coeffs, feats)
                sq = np.square(features.feature_values(feats, test.points) @ coeffs
                               - test.targets[:, None])
                z = (mse - exact) / (sq.std(axis=0, ddof=1) / np.sqrt(test.count))
                worst_z = max(worst_z, float(np.abs(z).max()))
                worst_rel = max(worst_rel, float(np.max(np.abs(mse / exact - 1))))
                if np.any(np.abs(z) > 5.0):
                    failures.append(f"{kind} m={m} seed={seed}: |z| {np.abs(z).max():.2f}")
    ok = not failures
    _report("A16 test-error column vs exact population error",
            ok, f"worst |z| {worst_z:.2f} (<=5) over 18 cells x {len(grid)} times, "
                f"largest relative gap {worst_rel:.3f}, {time.perf_counter() - t0:.1f}s"
                + (f"; {failures}" if failures else ""))
