import math
import os
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
from rfflow.config import (M_RULES, ExperimentConfig, apply_overrides, load_config,
                           parse_config_text)


def _tiny_config(**kw):
    base = dict(seed=0, n=20, m="15", d=4, t_log_start=-1.0, t_log_stop=3.0,
                t_per_decade=5, test_count=100, assumption_points=150)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
_count = st.integers(1, 10**6)


@st.composite
def _configs(draw):
    lo, hi = sorted(draw(st.lists(_finite, min_size=2, max_size=2)))
    return ExperimentConfig(
        seed=draw(st.integers(0, 2**63)), n=draw(_count),
        m=draw(st.one_of(st.sampled_from(M_RULES), _count.map(str))),
        d=draw(st.integers(3, 10**4)),
        feature_kind=draw(st.sampled_from(features.FEATURE_KINDS)),
        target_kind=draw(st.sampled_from(features.TARGET_KINDS + ("external-labels",))),
        target_order=draw(st.integers(0, 50)), t_log_start=lo, t_log_stop=hi,
        t_per_decade=draw(_count),
        test_count=draw(_count), assumption_points=draw(_count),
        delta=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        eta=draw(st.one_of(st.just("auto"),
                           st.floats(0.0, exclude_min=True, allow_infinity=False).map(repr))),
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
    cfg = apply_overrides(ExperimentConfig(), ["n=77", "m=sqrt-n", "delta=0.2", "eta=0.5"])
    assert cfg.n == 77
    assert cfg.resolve_m() == 9
    assert cfg.delta == 0.2
    assert cfg.eta == "0.5"
    for key in ("unknown", "workers", "out_dir", "include_min_norm", "time_map", "digest"):
        with pytest.raises(KeyError, match=key):
            apply_overrides(cfg, [f"{key}=1"])
    with pytest.raises(ValueError):
        apply_overrides(cfg, ["n77"])


def test_config_m_rules():
    assert replace(ExperimentConfig(), n=100, m="sqrt-n").resolve_m() == 10
    assert replace(ExperimentConfig(), n=30, m="n^2").resolve_m() == 900
    assert replace(ExperimentConfig(), m="123").resolve_m() == 123


def test_config_file_loading(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\nn = 40\nm = 20\n\nseed = 9\n")
    cfg = load_config(path)
    assert (cfg.n, cfg.resolve_m(), cfg.seed) == (40, 20, 9)
    with pytest.raises(ValueError):
        parse_config_text("garbage line")


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
    cfg = _tiny_config(n=1, m="1", d=3, test_count=50, assumption_points=50)
    rec = runner.run_experiment(cfg)
    # reproduce the scalar trajectory directly from the decomposition
    target = runner.target_spec_for(cfg)
    data = features.sample_dataset([cfg.seed, 1], 1, 3, target)
    feats = features.sample_features([cfg.seed, 2], 3, 1, cfg.feature_kind)
    phi = features.build_feature_matrix(data, feats)
    s = float(phi[0, 0])
    y = float(data.targets[0])
    for snap in rec.snapshots:
        if math.isinf(snap.time):
            expect = y / s
        else:
            expect = (1 - math.exp(-s * s * snap.time)) * y / s
        assert snap.param_norm == pytest.approx(abs(expect), rel=1e-10)


def test_run_experiment_deterministic_csv(tmp_path):
    cfg = _tiny_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    runner.emit_csv(runner.run_experiment(cfg), p1)
    runner.emit_csv(runner.run_experiment(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_record_contents():
    cfg = _tiny_config()
    rec = runner.run_experiment(cfg, iteration_budgets=(10.0, 100.0))
    times = [s.time for s in rec.snapshots]
    assert all(b > a for a, b in zip(times[:-1], times[1:-1]))
    assert rec.bound_rough.shape == (len(times),)
    assert rec.metadata["config_hash"] == cfg.digest()
    assert rec.summary["smallest_gram_eigenvalue"] > 0
    assert set(rec.budget_errors) == {10.0, 100.0}
    t_flow, _ = rec.budget_errors[100.0]
    # one discrete step at learning rate eta advances flow time by eta
    assert rec.metadata["flow_time_per_iteration"] == rec.metadata["eta"]
    assert t_flow == pytest.approx(100.0 * rec.metadata["eta"])


@pytest.mark.parametrize("m", [12, 30, 75])
def test_smallest_gram_eigenvalue_read_from_the_svd(m):
    # m < n, m = n and m > n: s_min^2/(nm) against eigvalsh of the Gram companion
    cfg = _tiny_config(n=30, m=str(m))
    rec = runner.run_experiment(cfg)
    data = features.sample_dataset([cfg.seed, runner._STREAM_DATA], cfg.n, cfg.d,
                                   runner.target_spec_for(cfg))
    feats = features.sample_features([cfg.seed, runner._STREAM_FEATS], cfg.d, m,
                                     cfg.feature_kind)
    want = random_matrix.smallest_gram_eigenvalue(
        features.build_feature_matrix(data, feats), cfg.n, m)
    top = rec.summary["top_gram_eigenvalue"]
    assert abs(rec.summary["smallest_gram_eigenvalue"] - want) <= 1e-12 * top


def test_grid_without_finite_times_fails():
    # t_log_start > t_log_stop would leave only the t = inf snapshot, whose
    # best finite-time error is undefined: the config refuses it up front
    with pytest.raises(ValueError, match="t_log_start"):
        _tiny_config(t_log_start=2.0, t_log_stop=1.0)
    # a single finite time is the smallest valid grid
    cfg = _tiny_config(t_log_start=1.0, t_log_stop=1.0)
    assert cfg.time_grid() == [10.0, math.inf]
    assert [s.time for s in runner.run_experiment(cfg).snapshots] == [10.0, math.inf]


@pytest.mark.parametrize("key,overrides", [
    ("t_per_decade", dict(t_per_decade=0)),
    ("t_log_start", dict(t_log_start=2.0, t_log_stop=1.0)),
    ("target_order", dict(target_order=-1)),
    ("m", dict(m="abc")),
    ("m", dict(m="0")),
    ("eta", dict(eta="-1")),
    ("eta", dict(eta="fast")),
    ("d", dict(target_kind="legendre", target_order=2, d=2)),
    ("feature_kind", dict(feature_kind="tanh")),
    ("delta", dict(delta=1.0)),
    ("test_count", dict(test_count=0)),
    ("seed", dict(seed=-1)),              # numpy's seeding rejects it only inside the run
])
def test_invalid_config_fails_at_construction(key, overrides):
    with pytest.raises(ValueError, match=key):
        _tiny_config(**overrides)


def test_exactly_sqrt_n_modes_fail_the_hypothesis():
    # m = floor(sqrt(500)) = 22: the hypothesis needs 23 positive modes
    cfg = ExperimentConfig(n=500, m="sqrt-n", t_log_start=-1.0, t_log_stop=3.0,
                           t_per_decade=5, test_count=200)
    assert cfg.resolve_m() == math.isqrt(cfg.n)
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
    cfg = _tiny_config(d=10, target_kind="legendre", target_order=order)
    pts = features.sample_sphere([43, cfg.d], cfg.d, 400_000)
    values = features.eval_target_many(runner.target_spec_for(cfg), pts)
    estimate = np.sqrt(np.mean(values ** 2))
    assert runner.target_norm(cfg) == pytest.approx(estimate, rel=0.02)


def test_unexpected_errors_in_the_bounds_propagate(monkeypatch):
    # an empty measurement set is an error, not a cell with NaN bounds
    with pytest.raises(ValueError, match="count"):
        runner.run_experiment(_tiny_config(assumption_points=0))
    # only a failed hypothesis is caught
    def broken(*args, **kwargs):
        raise ValueError("not a hypothesis failure")

    monkeypatch.setattr(bounds, "measure_assumptions", broken)
    with pytest.raises(ValueError, match="not a hypothesis failure"):
        runner.run_experiment(_tiny_config())


def test_failed_alignment_hypothesis_leaves_finer_bounds_nan():
    # C/sqrt(n) >= 1: the constants are measured, the finer bound is not defined
    cfg = _tiny_config(seed=1, m="5")
    rec = runner.run_experiment(cfg)
    assert rec.assumption.c_measured / math.sqrt(cfg.n) >= 1.0
    assert np.all(np.isnan(rec.bound_finer))
    assert rec.metadata["finer_bound_hypothesis_ok"] is False
    with pytest.raises(bounds.HypothesisError):
        bounds.finer_bound(1.0, rec.assumption.c_measured, rec.assumption.m_kernel,
                           1.0, np.ones(cfg.n), cfg.n)


def test_too_few_modes_fail_the_hypothesis():
    # m = 3 < floor(sqrt(100)): zero modes among the top ones, no constants
    cfg = _tiny_config(n=100, m="3")
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
    sweep = runner.run_sweep(cfg, m_values=[15], seeds=[0],
                             iteration_budgets=(100.0,))
    rec = sweep.records[(15, 0)]
    solo = runner.run_experiment(replace(cfg, m="15"),
                                 iteration_budgets=(100.0,))
    assert [s.test_error for s in rec.snapshots] == \
        [s.test_error for s in solo.snapshots]
    assert sweep.min_norm_table[0][2] == solo.snapshots[-1].test_error


def test_sweep_validation():
    cfg = _tiny_config()
    with pytest.raises(ValueError):
        runner.run_sweep(cfg, m_values=[5], gamma_values=[1.0])
    with pytest.raises(ValueError):
        runner.run_sweep(cfg)
    with pytest.raises(ValueError):
        runner.run_sweep(cfg, m_values=[])


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
@given(rows=st.lists(st.tuples(*[st.floats()] * 6), max_size=8),
       metadata=st.dictionaries(st.from_regex(r"[a-z_]{1,12}", fullmatch=True),
                                st.one_of(st.floats(), st.integers(), st.booleans()),
                                max_size=5))
def test_csv_round_trip_is_lossless(rows, metadata):
    # every float64, nan and +-inf included, survives emit_csv -> read_csv
    table = np.array(rows, dtype=float).reshape(-1, 6)
    rec = runner.RunRecord(
        config=ExperimentConfig(),
        snapshots=[flow.TrajectorySnapshot(time=r[0], train_error=r[1], test_error=r[2],
                                           param_norm=r[3], pred_norm=0.0) for r in rows],
        bound_rough=table[:, 4], bound_finer=table[:, 5], bound_finer_proof=table[:, 5],
        assumption=None, summary={}, metadata=metadata, budget_errors={})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        runner.emit_csv(rec, path)
        meta, header, back = runner.read_csv(path)
    assert header == runner.CSV_HEADER.split(",")
    assert meta == {key: str(value) for key, value in metadata.items()}
    np.testing.assert_array_equal(back, table)
    signed = ~np.isnan(table)  # nan is written without its sign; -0.0 keeps it
    assert np.array_equal(np.signbit(back[signed]), np.signbit(table[signed]))


def test_csv_empty_record_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    runner.emit_csv(None, path)
    assert path.read_text() == runner.CSV_HEADER + "\n"


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


# ---------------------------------------------------------------------------
# sweep-level phenomenology
# ---------------------------------------------------------------------------

def _phenomenology_sweep():
    base = ExperimentConfig(n=200, m="200", d=10, t_log_start=-1.0, t_log_stop=8.0,
                            t_per_decade=8, test_count=800, assumption_points=400)
    return runner.run_sweep(base, m_values=[100, 160, 200, 240, 400],
                            seeds=[0, 1, 2], iteration_budgets=(1e4, 1e5, 1e6, 1e8))


def test_min_norm_error_peaks_at_interpolation_threshold():
    sweep = _phenomenology_sweep()
    med = {v: np.median([sweep.records[(v, s)].summary["min_norm_test_error"]
                         for s in (0, 1, 2)])
           for v in (100, 160, 200, 240, 400)}
    assert max(med, key=med.get) == 200  # the m = n resonance
    assert med[200] > 3 * max(med[100], med[400])


def test_budget_errors_monotone_in_iterations_at_resonance():
    # at m = n, the eta = 1/lambda_max budgets all land past the plateau
    # onset, so the (median) test error is non-decreasing in T
    sweep = _phenomenology_sweep()
    meds = [np.median([sweep.records[(200, s)].budget_errors[T][1]
                       for s in (0, 1, 2)])
            for T in (1e4, 1e5, 1e6, 1e8)]
    assert all(b >= a * 0.98 for a, b in zip(meds, meds[1:]))
