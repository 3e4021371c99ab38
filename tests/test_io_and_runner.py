import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfflow
from rfflow import bounds, features, flow, random_matrix, runner, svgplot
from rfflow.config import (MAX_GRID_POINTS, ExperimentConfig, apply_overrides, load_config,
                           parse_config_text)


def _tiny_config(**kw):
    base = dict(seed=0, n=20, m=15, d=4, t_log_start=-1.0, t_log_stop=3.0,
                t_per_decade=5)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

# exponents whose grid times are all positive finite doubles at any
# t_per_decade: the rounded last exponent exceeds t_log_stop by at most 1/2
_LOWEST, _HIGHEST = -323.0, 307.5
_count = st.integers(1, 10**6)


@st.composite
def _configs(draw):
    # t_log_stop lies within (MAX_GRID_POINTS - 1) / t_per_decade decades of
    # t_log_start, so the grid holds at most MAX_GRID_POINTS finite times
    per_decade = draw(st.integers(1, MAX_GRID_POINTS))
    lo = draw(st.floats(_LOWEST, _HIGHEST))
    hi = draw(st.floats(lo, min(_HIGHEST, lo + (MAX_GRID_POINTS - 1) / per_decade)))
    return ExperimentConfig(
        seed=draw(st.integers(0, 2**63)), n=draw(_count),
        m=draw(_count),
        d=draw(st.integers(3, 10**4)),
        feature_kind=draw(st.sampled_from(features.FEATURE_KINDS)),
        target_order=draw(st.integers(0, 50)), t_log_start=lo, t_log_stop=hi,
        t_per_decade=per_decade,
    )


@settings(max_examples=100, deadline=None)
@given(cfg=_configs())
def test_config_text_round_trip(cfg):
    again = parse_config_text(cfg.to_text())
    assert again == cfg
    assert again.digest() == cfg.digest()


@settings(max_examples=100, deadline=None)
@given(cfg=_configs(), other=_configs(), data=st.data())
def test_config_digest_changes_with_every_field(cfg, other, data):
    # every field determines results, so a change to any one of them changes the hash
    key = data.draw(st.sampled_from([f.name for f in fields(ExperimentConfig)]))
    try:
        moved = replace(cfg, **{key: getattr(other, key)})
    except ValueError:  # an invalid combination, e.g. t_log_start above t_log_stop
        return
    if moved != cfg:
        assert moved.digest() != cfg.digest()


def test_config_overrides_and_types():
    cfg = apply_overrides(ExperimentConfig(), ["n=77", "m=9", "t_log_stop=7.5", "target_order=3"])
    assert cfg.n == 77
    assert cfg.m == 9
    assert cfg.t_log_stop == 7.5
    assert cfg.target_order == 3
    for key in ("unknown", "workers", "out_dir", "include_min_norm", "time_map", "digest",
                "target_kind", "eta", "test_count", "assumption_points", "delta"):
        with pytest.raises(KeyError, match=key):
            apply_overrides(cfg, [f"{key}=1"])
    with pytest.raises(ValueError, match="--set: expected 'key = value', got 'n77'"):
        apply_overrides(cfg, ["n77"])


def test_config_file_loading(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\nn = 40\nm = 20\n\nseed = 9\n")
    cfg = load_config(path)
    assert (cfg.n, cfg.m, cfg.seed) == (40, 20, 9)
    with pytest.raises(ValueError, match="line 2: expected 'key = value', got 'garbage line'"):
        parse_config_text("n = 4\n  garbage line  ")


def test_time_grid_shape():
    cfg = _tiny_config()
    grid = cfg.time_grid()
    assert grid[0] == pytest.approx(0.1)
    assert math.isinf(grid[-1])
    finite = grid[:-1]
    assert len(finite) == 4 * 5 + 1
    ratios = np.diff(np.log10(finite))
    np.testing.assert_allclose(ratios, 0.2, atol=1e-12)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def test_run_experiment_scalar_toy_matches_closed_form():
    cfg = _tiny_config(n=1, m=1, d=3)
    rec = runner.run_experiment(cfg)
    # reproduce the scalar trajectory directly from the decomposition
    target = features.TargetSpec(order=cfg.target_order)
    data = features.sample_dataset([cfg.seed, 1], 1, 3, target)
    feats = features.sample_features([cfg.seed, 2], 3, 1, cfg.feature_kind)
    phi = features.build_feature_matrix(data, feats)
    s = float(phi[0, 0])
    y = float(data.targets[0])
    for t, norm in zip(rec.trajectory.time, rec.trajectory.param_norm):
        if math.isinf(t):
            expect = y / s
        else:
            expect = (1 - math.exp(-s * s * t)) * y / s
        assert norm == pytest.approx(abs(expect), rel=1e-10)


def test_run_experiment_deterministic_csv(tmp_path):
    cfg = _tiny_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    runner.emit_csv(runner.run_experiment(cfg), p1)
    runner.emit_csv(runner.run_experiment(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_record_contents():
    cfg = _tiny_config()
    rec = runner.run_experiment(cfg, iteration_budgets=(10.0, 100.0))
    times = rec.trajectory.time.tolist()
    assert all(b > a for a, b in zip(times[:-1], times[1:-1]))
    assert rec.bound_rough.shape == (len(times),)
    assert rec.metadata["config_hash"] == cfg.digest()
    assert rec.summary.smallest_gram_eigenvalue > 0
    assert set(rec.summary.budget_errors) == {10.0, 100.0}
    t_flow, _ = rec.summary.budget_errors[100.0]
    # one discrete step at learning rate eta advances flow time by eta
    assert t_flow == pytest.approx(100.0 * rec.metadata["eta"])


# one perturbation per config field, each a valid config that the run must see
_PERTURBED = {
    "seed": 1,
    "n": 120,
    "m": 150,
    "d": 6,
    "feature_kind": "indicator",
    "target_order": 2,
    "t_log_start": -1.0,
    "t_log_stop": 9.0,
    "t_per_decade": 3,
}


def _run_rows(cfg, path):
    runner.emit_csv(runner.run_experiment(cfg), path)
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def test_every_config_key_changes_the_run_rows(tmp_path):
    # every field determines results: changing any one changes the rows that
    # run writes, not only the config hash in its metadata
    assert list(_PERTURBED) == [f.name for f in fields(ExperimentConfig)]
    base = ExperimentConfig(n=100, m=200, d=5, t_per_decade=2)
    rows = _run_rows(base, tmp_path / "base.csv")
    unchanged = [key for key, value in _PERTURBED.items()
                 if _run_rows(replace(base, **{key: value}), tmp_path / f"{key}.csv") == rows]
    assert unchanged == []


@pytest.mark.parametrize("m", [12, 30, 75])
def test_smallest_gram_eigenvalue_read_from_the_svd(m):
    # m < n, m = n and m > n: s_min^2/(nm) against eigvalsh of the Gram companion
    cfg = _tiny_config(n=30, m=m)
    rec = runner.run_experiment(cfg)
    data, feats = runner.seed_draw(cfg, m)
    [want] = random_matrix.smallest_gram_eigenvalue(data.points, feats, [m])
    top = 1.0 / rec.metadata["eta"]  # the run's SVD: eta = 1/(largest Gram eigenvalue)
    assert abs(rec.summary.smallest_gram_eigenvalue - want) <= 1e-12 * top


def test_grid_without_finite_times_fails():
    # t_log_start > t_log_stop would leave only the t = inf snapshot, whose
    # best finite-time error is undefined: the config refuses it up front
    with pytest.raises(ValueError, match="t_log_start"):
        _tiny_config(t_log_start=2.0, t_log_stop=1.0)
    # a single finite time is the smallest valid grid
    cfg = _tiny_config(t_log_start=1.0, t_log_stop=1.0)
    assert cfg.time_grid() == [10.0, math.inf]
    assert runner.run_experiment(cfg).trajectory.time.tolist() == [10.0, math.inf]


def test_grid_of_max_grid_points_is_valid():
    cfg = _tiny_config(t_log_start=0.0, t_log_stop=1.0, t_per_decade=MAX_GRID_POINTS - 1)
    assert len(cfg.time_grid()) == MAX_GRID_POINTS + 1   # and t = inf


def test_grid_spanning_the_doubles_is_valid():
    # 10^-323 is a subnormal double and 10^308 the last time below the largest
    cfg = _tiny_config(t_log_start=-323.0, t_log_stop=308.0, t_per_decade=1)
    grid = cfg.time_grid()
    assert len(grid) == 633 and grid[0] > 0 and grid[-2] == 1e308 and grid[-1] == math.inf


@pytest.mark.parametrize("key,overrides", [
    ("t_per_decade", dict(t_per_decade=0)),
    ("t_log_start", dict(t_log_start=2.0, t_log_stop=1.0)),
    ("target_order", dict(target_order=-1)),
    ("m", dict(m=-1)),
    ("m", dict(m=0)),
    ("n", dict(n=0)),
    ("d", dict(d=0)),
    ("d", dict(target_order=2, d=2)),
    ("feature_kind", dict(feature_kind="tanh")),
    ("t_log_start", dict(t_log_start=-math.inf)),
    ("t_log_start", dict(t_log_stop=math.inf)),
    ("seed", dict(seed=-1)),              # numpy's seeding rejects it only inside the run
    ("t_log_stop", dict(t_log_stop=400.0)),                    # 10^400 overflows
    ("t_log_stop", dict(t_log_start=308.3, t_log_stop=308.3)),
    ("t_log_stop", dict(t_log_stop=1e308)),
    ("t_log_start", dict(t_log_start=-400.0, t_log_stop=-390.0)),  # every time 0.0
    ("t_log_start", dict(t_log_start=-1e308)),
    # both ends fit, but the rounded point count puts the last time at 10^308.3
    ("t_log_stop", dict(t_log_start=0.3, t_log_stop=308.0, t_per_decade=1)),
    # 1.2e9 finite times, and one past MAX_GRID_POINTS
    ("t_per_decade", dict(t_per_decade=100_000_000)),
    ("t_per_decade", dict(t_log_start=0.0, t_log_stop=1.0, t_per_decade=MAX_GRID_POINTS)),
])
def test_invalid_config_fails_at_construction(key, overrides):
    with pytest.raises(ValueError, match=key):
        _tiny_config(**overrides)


def test_min_norm_train_error_is_not_negative_at_m_equals_n():
    # `rfflow run --set m=500` wrote a t = inf training error of -7.4e-16:
    # the target lies in the feature span, and y.y - (U^T y).(U^T y) cancelled
    rec = runner.run_experiment(ExperimentConfig(seed=0, n=500, m=500))
    assert np.all(rec.trajectory.train_error >= 0.0)


def test_exactly_sqrt_n_modes_fail_the_hypothesis():
    # m = floor(sqrt(500)) = 22: the hypothesis needs 23 positive modes
    cfg = ExperimentConfig(n=500, m=22, t_log_start=-1.0, t_log_stop=3.0,
                           t_per_decade=5)
    assert cfg.m == math.isqrt(cfg.n)
    rec = runner.run_experiment(cfg)
    assert rec.metadata["finer_bound_hypothesis_ok"] is False
    assert np.all(np.isnan(rec.bound_finer))


@pytest.mark.parametrize("d", [3, 10])
@pytest.mark.parametrize("kind", features.FEATURE_KINDS)
def test_feature_norm_sq_matches_monte_carlo(kind, d):
    dirs = features.sample_features([31, d], d, 50_000, kind)
    pts = features.sample_sphere([41, d], d, 200)
    vals = features.feature_values(dirs, pts)
    estimate = np.einsum("ij,ij->", vals, vals) / vals.size
    assert runner.feature_norm_sq(d, kind) == pytest.approx(estimate, rel=0.02)


@pytest.mark.parametrize("order", [2, 4])
def test_target_norm_matches_monte_carlo(order):
    cfg = _tiny_config(d=10, target_order=order)
    pts = features.sample_sphere([43, cfg.d], cfg.d, 400_000)
    values = features.eval_target_many(features.TargetSpec(order=cfg.target_order), pts)
    estimate = np.sqrt(np.mean(values ** 2))
    assert runner.target_norm(cfg) == pytest.approx(estimate, rel=0.02)


def test_unexpected_errors_in_the_bounds_propagate(monkeypatch):
    # an empty measurement set is an error, not a cell with NaN bounds
    cfg = _tiny_config()
    train, test, feats, _ = runner._draws(cfg, cfg.m)
    empty = features.Dataset(points=np.empty((0, 4)), targets=np.empty(0))
    with pytest.raises(ValueError, match="mc_points must be nonempty"):
        runner.run_experiment(cfg, draws=(train, test, feats, empty))
    # only a failed hypothesis is caught
    def broken(*args, **kwargs):
        raise ValueError("not a hypothesis failure")

    monkeypatch.setattr(bounds, "measure_assumptions", broken)
    with pytest.raises(ValueError, match="not a hypothesis failure"):
        runner.run_experiment(_tiny_config())


def test_failed_alignment_hypothesis_leaves_finer_bounds_nan():
    # C/sqrt(n) >= 1: the constants are measured, the finer bound is not defined
    cfg = _tiny_config(seed=1, m=5)
    rec = runner.run_experiment(cfg)
    assert rec.assumption.c_measured / math.sqrt(cfg.n) >= 1.0
    assert np.all(np.isnan(rec.bound_finer))
    assert rec.metadata["finer_bound_hypothesis_ok"] is False
    with pytest.raises(bounds.HypothesisError):
        bounds.finer_bound(1.0, rec.assumption.c_measured, rec.assumption.m_kernel,
                           np.ones(cfg.n), cfg.n)


def test_finer_bound_below_n_features_reads_the_n_row_spectrum():
    # m = 40 < n = 100: d(t) reads lh_11 of the 100-row matrix and lh_100 = 0,
    # so the late-time cap 1/lh_n drops and the t = inf row is inf
    cfg = _tiny_config(n=100, m=40, d=5)
    rec = runner.run_experiment(cfg)
    assert rec.metadata["finer_bound_hypothesis_ok"] is True
    train, feats = runner.seed_draw(cfg, cfg.m)
    lh = flow.decompose(features.build_feature_matrix(train, feats)).scaled_values
    c, m_kernel = rec.assumption.c_measured, rec.assumption.m_kernel
    times = rec.trajectory.time[:-1]
    rate = np.minimum(np.sqrt(times), lh[10] * times)
    expect = 3.0 * np.exp(-2.0 * lh[0] ** 2 * times) \
        + (5.0 * c + 1.0 + 2.0 * math.sqrt(c) * m_kernel * rate) ** 2 / math.sqrt(cfg.n)
    np.testing.assert_allclose(rec.bound_finer[:-1], expect, rtol=1e-12)
    assert rec.bound_finer[-1] == np.inf


def test_too_few_modes_fail_the_hypothesis():
    # m = 3 < floor(sqrt(100)): zero modes among the top ones, no constants
    cfg = _tiny_config(n=100, m=3)
    rec = runner.run_experiment(cfg)
    assert rec.assumption is None
    assert np.all(np.isnan(rec.bound_finer))
    assert rec.metadata["finer_bound_hypothesis_ok"] is False


def test_cli_import_does_not_load_scipy(tmp_path):
    # scipy is a test dependency only: with it blocked, every module imports
    # and the two verbs that use kernel_analytic and random_matrix still run
    code = textwrap.dedent(f"""
        import importlib, pkgutil, sys
        sys.modules["scipy"] = None
        import rfflow, rfflow.cli
        for mod in pkgutil.iter_modules(rfflow.__path__):
            importlib.import_module("rfflow." + mod.name)
        out = {str(tmp_path)!r}
        assert rfflow.cli.main(["spectra", "--gamma", "8", "--set", "n=300", "--out", out]) == 0
        assert rfflow.cli.main(["mp", "--set", "n=300", "--seeds", "0,1", "--out", out]) == 0
    """)
    src = str(Path(rfflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "spectra_gamma8.csv").exists()
    assert (tmp_path / "mp_smallest.csv").exists()


def test_sweep_single_cell_matches_run(tmp_path):
    cfg = _tiny_config()
    rec = runner.run_sweep(cfg, [0], m_values=[15])[(15, 0)]
    solo = runner.run_experiment(replace(cfg, m=15), runner.ITERATION_BUDGETS)
    assert rec.trajectory.test_error.tolist() == solo.trajectory.test_error.tolist()
    assert rec.summary.min_norm_test_error == solo.trajectory.test_error[-1]
    assert rec.summary.budget_errors == solo.summary.budget_errors


def _external_data(d=6, n=30, n_test=50):
    """Labelled non-sphere points, as an IDX file gives them."""
    rng = np.random.default_rng(5)
    train, test = (features.Dataset(points=rng.random((k, d)),
                                    targets=(rng.random(k) < 0.5).astype(float))
                   for k in (n, n_test))
    return train, test


def _csv_row(*values):
    return ",".join(f"{v:.17g}" for v in values)


@pytest.mark.parametrize("axis,values,external", [
    ("m", [15, 5, 40], False),           # the largest m is not last
    ("gamma", [0.5, 1.0, 1.5], False),  # the sweep runs the counts m_for_gamma gives
    ("m", [10, 30, 45], True),
])
def test_shared_draw_sweep_matches_independent_runs(tmp_path, axis, values, external):
    # each cell of a sweep, which shares its seed's draws, writes the same CSV
    # rows as the cell computed alone: run_experiment, which draws everything
    # itself, for sphere cells; for labelled data, _fit and one grid call on
    # the first m columns of the seed's blocks at the largest m, as the sweep
    # evaluates them (a fresh n x m evaluation may round differently in the
    # last bit, so byte equality with it would rest on BLAS blocking)
    budgets = runner.ITERATION_BUDGETS
    cfg = _tiny_config()
    if axis == "gamma":
        values = [runner.m_for_gamma(g, cfg.n) for g in values]
    if external:
        cfg = replace(cfg, n=30)
        train, test = _external_data()
        summaries = runner.sweep_tables(cfg, train, test, values, [2, 0])
    else:
        records = runner.run_sweep(cfg, [2, 0], values)
        summaries = {key: rec.summary for key, rec in records.items()}
    assert list(summaries) == [(v, s) for v in values for s in (2, 0)]
    minnorm, budget = [], []
    for m, seed in summaries:
        if external:
            cell = replace(cfg, seed=seed, m=m)
            _, feats = runner.seed_draw(cell, max(values), train)
            cell_feats, dec, eta, smallest = runner._fit(
                cell, train, feats, train_features=features.feature_values(feats, train.points))
            ascending, times = runner._budget_times(eta, budgets)
            traj = flow.errors_on_grid(dec, train.targets, cell_feats, test, times + [math.inf],
                                       features.feature_values(feats, test.points)[:, :m])
            solo = runner.CellSummary(
                min_norm_test_error=traj.test_error[-1], smallest_gram_eigenvalue=smallest,
                budget_errors=dict(zip(ascending, zip(traj.time[:-1], traj.test_error[:-1]))))
        else:
            rec = runner.run_experiment(replace(cfg, seed=seed, m=m), budgets)
            runner.emit_csv(records[(m, seed)], tmp_path / "sweep.csv")
            runner.emit_csv(rec, tmp_path / "solo.csv")
            assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()
            solo = rec.summary
        minnorm.append(_csv_row(m, seed, solo.min_norm_test_error,
                                solo.smallest_gram_eigenvalue))
        budget.extend(_csv_row(m, seed, T, *solo.budget_errors[T]) for T in budgets)
    # the sweep tables, value-major, hold the same values
    runner.emit_sweep_csv("m", summaries, tmp_path / "minnorm.csv")
    runner.emit_budget_csv("m", summaries, tmp_path / "budgets.csv")
    assert (tmp_path / "minnorm.csv").read_text().splitlines()[1:] == minnorm
    assert (tmp_path / "budgets.csv").read_text().splitlines()[1:] == budget


def test_a_feature_set_shorter_than_m_is_rejected():
    cfg = _tiny_config()
    with pytest.raises(ValueError, match="10 feature directions given for m = 15"):
        runner.run_experiment(cfg, draws=runner._draws(cfg, 10))


def test_fit_takes_the_training_features_of_every_given_direction():
    # a sweep hands each cell the seed's n x max m training block, of which
    # the cell decomposes the first m columns
    cfg = _tiny_config()
    train, _, feats, _ = runner._draws(cfg, 40)
    block = features.build_feature_matrix(train, feats)
    given_block = runner._fit(cfg, train, feats, block)
    own = runner._fit(cfg, train, feats)
    assert given_block[1].n_cols == own[1].n_cols == cfg.m
    np.testing.assert_allclose(given_block[1].singular_values, own[1].singular_values,
                               rtol=0.0, atol=1e-12 * own[1].singular_values[0])
    for bad in (block[:, :cfg.m], block[1:], block.T):
        with pytest.raises(ValueError) as info:
            runner._fit(cfg, train, feats, bad)
        assert f"{bad.shape}" in str(info.value) and "(20, 40)" in str(info.value)


@pytest.mark.parametrize("n,m", [(10, 20), (12, 12)])
def test_a_rank_deficient_cell_has_smallest_gram_eigenvalue_exactly_zero(n, m):
    # a repeated training point drops the rank below min(n, m): s_min is then
    # rounding (about 1e-36 here), and the Gram route, which reads no rank,
    # returns rounding of about eps times the largest eigenvalue, either sign
    cfg = _tiny_config(n=n, m=m, d=5)
    train, feats = runner.seed_draw(cfg, m)
    points = train.points.copy()
    points[1] = points[0]
    train = features.Dataset(points=points, targets=train.targets)
    _, dec, eta, smallest = runner._fit(cfg, train, feats)
    assert dec.rank < min(n, m) and dec.singular_values[-1] > 0.0
    assert smallest == 0.0
    (gram_route,) = random_matrix.smallest_gram_eigenvalue(points, feats, [m])
    assert abs(gram_route) <= 1e3 * np.finfo(float).eps / eta


def test_all_zero_feature_matrix_names_the_cause():
    # `rfflow run --set n=1 --set m=1 --seed 0`: the one direction points
    # away from the one training point, so no ReLU is active
    cfg = ExperimentConfig(n=1, m=1, seed=0)
    train, _, feats, _ = runner._draws(cfg, 1)
    assert np.all(features.build_feature_matrix(train, feats) == 0.0)
    with pytest.raises(ValueError, match=r"no feature is active on any training point "
                                         r"\(n = 1, m = 1, seed = 0\)"):
        runner.run_experiment(cfg)


def test_sweep_validation():
    cfg = _tiny_config()
    with pytest.raises(ValueError):
        runner.run_sweep(cfg, [0], m_values=[])
    with pytest.raises(ValueError, match="distinct"):
        runner.run_sweep(cfg, [0], m_values=[5, 5])
    with pytest.raises(ValueError, match="distinct"):
        runner.run_sweep(cfg, [1, 1], m_values=[5])


def test_translate_curves():
    flat = np.array([3.0, 1.0, 2.0])
    shifted, shifts = runner.translate_curves([flat, flat + 5.0])
    np.testing.assert_allclose(shifted[0], flat)
    np.testing.assert_allclose(shifted[1], flat)
    assert shifts == [0.0, -5.0]
    same, shifts0 = runner.translate_curves([flat, flat.copy()])
    assert shifts0 == [0.0, 0.0]
    with pytest.raises(ValueError):
        runner.translate_curves([np.array([])])


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(*[st.floats()] * 7), max_size=8),
       metadata=st.dictionaries(st.from_regex(r"[a-z_]{1,12}", fullmatch=True),
                                st.one_of(st.floats(), st.integers(), st.booleans()),
                                max_size=5))
def test_csv_round_trip_is_lossless(rows, metadata):
    # every float64, nan and +-inf included, survives emit_csv and a numpy parse
    table = np.array(rows, dtype=float).reshape(-1, 7)
    rec = runner.RunRecord(
        trajectory=flow.Trajectory(time=table[:, 0], train_error=table[:, 1],
                                   test_error=table[:, 2], param_norm=table[:, 3],
                                   model_norm=table[:, 4]),
        bound_rough=table[:, 5], bound_finer=table[:, 6],
        assumption=None, summary=runner.CellSummary(0.0, 0.0, {}), metadata=metadata)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        runner.emit_csv(rec, path)
        lines = path.read_text(encoding="utf-8").splitlines()
    n_meta = sum(line.startswith("#") for line in lines)
    meta = {key.strip(): value.strip()
            for key, _, value in (line[1:].partition("=") for line in lines[:n_meta])}
    header = lines[n_meta].split(",")
    back = np.array([row.split(",") for row in lines[n_meta + 1:]], dtype=float).reshape(-1, 7)
    assert header == runner.CSV_HEADER.split(",")
    assert meta == {key: str(value) for key, value in metadata.items()}
    np.testing.assert_array_equal(back, table)
    signed = ~np.isnan(table)  # nan is written without its sign; -0.0 keeps it
    assert np.array_equal(np.signbit(back[signed]), np.signbit(table[signed]))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), int_columns=st.lists(st.booleans(), min_size=1, max_size=7))
def test_write_csv_round_trip_is_lossless(data, int_columns):
    # the sweep, budget, spectra and mp tables: integer columns (seeds, ranks,
    # feature counts) print as exact integers, and every float64 survives
    column = {True: st.one_of(st.integers(-2 ** 70, 2 ** 70),
                              st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)),
              False: st.floats()}
    rows = data.draw(st.lists(st.tuples(*[column[k] for k in int_columns]), max_size=8))
    header = ",".join(f"col{j}" for j in range(len(int_columns)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        runner.write_csv(path, header, rows, comments=["note = 1"])
        lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ["# note = 1", header]
    back = [line.split(",") for line in lines[2:]]
    assert len(back) == len(rows)
    for row, tokens in zip(rows, back):
        assert len(tokens) == len(int_columns)
        for value, token, is_int in zip(row, tokens, int_columns):
            if is_int:
                assert int(token) == value
            else:
                parsed = float(token)
                assert parsed == value or (math.isnan(parsed) and math.isnan(value))
                assert math.isnan(value) or math.copysign(1, parsed) == math.copysign(1, value)


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

def _spec():
    t = np.logspace(0, 4, 30)
    return svgplot.PlotSpec(
        title="demo",
        series=(svgplot.Series("a", t, 1.0 / t),
                svgplot.Series("b", t, np.sqrt(t), dashed=True)),
    )


def test_svg_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    svgplot.emit_svg(_spec(), p1)
    svgplot.emit_svg(_spec(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_svg_structure(tmp_path):
    text = svgplot.render_svg(_spec())
    assert text.startswith("<svg")
    assert 'viewBox="0 0 960 600"' in text
    assert text.count("<polyline") == 2
    assert ">a</text>" in text and ">b</text>" in text
    assert "1e2" in text  # decade tick labels


def test_svg_drops_nonpositive_on_log_axes():
    t = np.array([1.0, 10.0, 100.0])
    spec = svgplot.PlotSpec(title="x", series=(
        svgplot.Series("s", t, np.array([0.0, 1.0, 2.0])),))
    text = svgplot.render_svg(spec)
    assert text.count(",") >= 1  # polyline survives with the positive points
    bad = svgplot.PlotSpec(title="x", series=(
        svgplot.Series("s", t, np.zeros(3)),))
    with pytest.raises(ValueError):
        svgplot.render_svg(bad)


def test_svg_polyline_runs_in_ascending_x():
    # `mp --gamma-list 2,0.5,1.2` hands its points in list order
    spec = svgplot.PlotSpec(title="x", log_x=False, series=(
        svgplot.Series("s", np.array([3.0, 1.0, 2.0]), np.array([30.0, 10.0, 20.0])),))
    points = re.search(r'<polyline points="([^"]*)"', svgplot.render_svg(spec)).group(1)
    px, py = np.array([pair.split(",") for pair in points.split()], dtype=float).T
    assert np.all(np.diff(px) > 0) and np.all(np.diff(py) < 0)  # y rises with x


def test_failed_render_leaves_no_svg_file(tmp_path):
    # the file is opened only once the render has succeeded
    t = np.array([1.0, 10.0, 100.0])
    bad = svgplot.PlotSpec(title="x", series=(svgplot.Series("s", t, np.zeros(3)),))
    path = tmp_path / "bad.svg"
    with pytest.raises(ValueError, match="nothing to plot"):
        svgplot.emit_svg(bad, path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# sweep-level phenomenology
# ---------------------------------------------------------------------------

def _phenomenology_sweep():
    base = ExperimentConfig(n=200, m=200, d=10, t_log_start=-1.0, t_log_stop=8.0,
                            t_per_decade=8)
    return runner.run_sweep(base, [0, 1, 2], m_values=[100, 160, 200, 240, 400])


def test_min_norm_error_peaks_at_interpolation_threshold():
    sweep = _phenomenology_sweep()
    med = {v: np.median([sweep[(v, s)].summary.min_norm_test_error
                         for s in (0, 1, 2)])
           for v in (100, 160, 200, 240, 400)}
    assert max(med, key=med.get) == 200  # the m = n resonance
    assert med[200] > 3 * max(med[100], med[400])


def test_budget_errors_monotone_in_iterations_at_resonance():
    # at m = n, the eta = 1/lambda_max budgets all land past the plateau
    # onset, so the (median) test error is non-decreasing in T
    sweep = _phenomenology_sweep()
    meds = [np.median([sweep[(200, s)].summary.budget_errors[T][1]
                       for s in (0, 1, 2)])
            for T in runner.ITERATION_BUDGETS]
    assert all(b >= a * 0.98 for a, b in zip(meds, meds[1:]))
