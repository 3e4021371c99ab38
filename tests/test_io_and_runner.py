import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rfflow
from rfflow import bounds, features, flow, random_matrix, runner, svgplot
from rfflow.config import ExperimentConfig, apply_overrides, load_config, parse_config_text


def _tiny_config(**kw):
    base = dict(seed=0, n=20, m="15", d=4, t_log_start=-1.0, t_log_stop=3.0,
                t_per_decade=5, test_count=100, assumption_points=150)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_text_round_trip():
    cfg = _tiny_config(seed=3)
    again = parse_config_text(cfg.to_text())
    assert again == cfg
    assert again.digest() == cfg.digest()


def test_config_digest_ignores_execution_fields():
    cfg = _tiny_config()
    assert replace(cfg, workers=4).digest() == cfg.digest()
    assert replace(cfg, out_dir="elsewhere").digest() == cfg.digest()
    assert replace(cfg, seed=1).digest() != cfg.digest()
    # the text form keeps every field, so round trips stay lossless
    moved = replace(cfg, workers=4, out_dir="elsewhere")
    assert parse_config_text(moved.to_text()) == moved


def test_config_overrides_and_types():
    cfg = apply_overrides(ExperimentConfig(), ["n=77", "m=sqrt-n", "delta=0.2",
                                               "include_min_norm=false"])
    assert cfg.n == 77
    assert cfg.resolve_m() == 9
    assert cfg.delta == 0.2
    assert cfg.include_min_norm is False
    with pytest.raises(KeyError):
        apply_overrides(cfg, ["unknown=1"])
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
    s = float(phi.values[0, 0])
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
    assert t_flow == pytest.approx(100.0 * rec.metadata["flow_time_per_iteration"])


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
    # t_log_start > t_log_stop leaves only the t = inf snapshot: the best
    # finite-time error is undefined, so the cell fails instead of quietly
    # reporting NaN bounds
    cfg = _tiny_config(t_log_start=2.0, t_log_stop=1.0)
    assert cfg.time_grid() == [math.inf]
    with pytest.raises(ValueError):
        runner.run_experiment(cfg)


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


def test_cli_import_does_not_load_scipy():
    code = ("import rfflow.cli, rfflow.runner, rfflow.idx, sys; "
            "assert 'scipy' not in sys.modules, 'scipy was imported'")
    src = str(Path(rfflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_time_map_conventions():
    assert runner.flow_time_per_iteration(0.5, 40, "flow-mn") == 0.5
    assert runner.flow_time_per_iteration(0.5, 40, "obj-n") == 20.0
    with pytest.raises(ValueError):
        runner.flow_time_per_iteration(0.5, 40, "bogus")


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


def test_sweep_worker_count_independence(tmp_path):
    cfg = _tiny_config()
    a = runner.run_sweep(cfg, m_values=[10, 15], seeds=[0, 1], workers=1)
    b = runner.run_sweep(cfg, m_values=[10, 15], seeds=[0, 1], workers=3)
    pa, pb = tmp_path / "w1.csv", tmp_path / "w3.csv"
    runner.emit_sweep_csv(a, pa)
    runner.emit_sweep_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


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

def test_csv_round_trip_is_lossless(tmp_path):
    cfg = _tiny_config()
    rec = runner.run_experiment(cfg)
    path = tmp_path / "run.csv"
    runner.emit_csv(rec, path)
    meta, header, table = runner.read_csv(path)
    assert header == runner.CSV_HEADER.split(",")
    assert meta["config_hash"] == cfg.digest()
    for j, snap in enumerate(rec.snapshots):
        assert table[j, 0] == snap.time
        assert table[j, 1] == snap.train_error
        assert table[j, 2] == snap.test_error
        assert table[j, 3] == snap.param_norm
        assert table[j, 4] == rec.bound_rough[j]


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
                            seeds=[0, 1, 2], iteration_budgets=(1e4, 1e5, 1e6, 1e8),
                            workers=4)


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
