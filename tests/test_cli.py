import errno
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rfflow
from rfflow import bounds, features, flow, idx, runner
from rfflow import kernel_analytic as ka
from rfflow import random_matrix as rm
from rfflow.cli import main
from rfflow.config import ExperimentConfig, split_key_value
from reference import regenerate


def _overrides(tmp_path, verb="run"):
    """Small cells for run or sweep; sweep reads no m (its cells take --m-list)."""
    args = ["--out", str(tmp_path),
            "--set", "n=20", "--set", "d=4",
            "--set", "t_log_start=-1", "--set", "t_log_stop=2",
            "--set", "t_per_decade=4"]
    if verb == "run":
        args += ["--set", "m=15"]
    return args


# the flags a verb requires, for cases rejected before any file is opened
_REQUIRED = {"sweep": ["--m-list", "10"],
             "mnist": ["--images", "i", "--labels", "l",
                       "--test-images", "ti", "--test-labels", "tl"]}


def test_run_verb(tmp_path, capsys):
    assert main(["run", *_overrides(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "min test error" in out and "min-norm test error" in out
    csvs = list(tmp_path.glob("run_*.csv"))
    svgs = list(tmp_path.glob("run_*.svg"))
    assert len(csvs) == 1 and len(svgs) == 1
    header = [ln for ln in csvs[0].read_text().splitlines()
              if not ln.startswith("#")][0]
    assert header == ("time,train_error,test_error,param_norm,model_norm,"
                      "bound_rough,bound_finer")
    # the plot shows the model norm next to the sqrt-t bound on it
    assert ">model norm</text>" in svgs[0].read_text()


def test_run_verb_reports_min_norm_only_with_inf_snapshot(tmp_path, capsys):
    # The min-norm figure is the t = inf row of the CSV; the "min test error"
    # line ranges over the finite times only.
    assert main(["run", *_overrides(tmp_path)]) == 0
    out = capsys.readouterr().out
    (csv_path,) = tmp_path.glob("run_*.csv")
    rows = [ln.split(",") for ln in csv_path.read_text().splitlines()
            if not ln.startswith("#")][1:]
    times = [float(r[0]) for r in rows]
    errors = [float(r[2]) for r in rows]
    assert times[-1] == float("inf") and all(np.isfinite(times[:-1]))
    assert f"min-norm test error {errors[-1]:.6g}" in out
    best = min(range(len(rows) - 1), key=lambda i: errors[i])
    assert f"min test error {errors[best]:.6g} at t={times[best]:.6g};" in out


def test_run_verb_with_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 16\nm = 12\nd = 3\nt_log_start = -1\nt_log_stop = 1\n"
                   "t_per_decade = 3\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--seed", "2"]) == 0
    assert list(tmp_path.glob("run_*.csv"))


@pytest.mark.parametrize("make,reason", [
    (lambda path: None, os.strerror(errno.ENOENT)),
    (lambda path: path.mkdir(), os.strerror(errno.EISDIR)),
    (lambda path: path.write_bytes(b"n = 16\nd = \xff\n"), "can't decode byte 0xff"),
], ids=["missing", "directory", "not-utf-8"])
def test_unreadable_config_file_is_a_one_line_usage_error(tmp_path, capsys, make, reason):
    path = tmp_path / "exp.cfg"
    make(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rfflow run: error: ") and err.count("\n") == 1
    assert str(path) in err and reason in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "spectra"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
def test_out_through_a_file_is_a_usage_error_before_the_run(tmp_path, capsys, monkeypatch,
                                                            verb, below):
    # checked before any cell runs: mkdir alone would fail only after the run
    def ran(*args, **kwargs):
        raise AssertionError("the verb ran")

    monkeypatch.setattr(runner, "run_experiment", ran)
    monkeypatch.setattr(runner, "seed_draw", ran)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / below if below else afile
    assert main([verb, "--set", "n=20", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"rfflow {verb}: error: --out {out}: {afile} "
                            f"is not a directory\n")
    assert captured.out == "" and afile.read_text() == "kept\n"


def test_sweep_verb(tmp_path):
    assert main(["sweep", *_overrides(tmp_path, "sweep"),
                 "--m-list", "10,20", "--seeds", "0,1", "--translate"]) == 0
    assert (tmp_path / "sweep_m_minnorm.csv").exists()
    assert (tmp_path / "sweep_m_budgets.csv").exists()
    assert (tmp_path / "sweep_m_curves.svg").exists()
    body = (tmp_path / "sweep_m_minnorm.csv").read_text().splitlines()
    assert body[0] == "m,seed,min_norm_test_error,smallest_gram_eigenvalue"
    assert len(body) == 5  # header + 2 values x 2 seeds


def _sweep_rows(path):
    """(value column, rest of the row) pairs of a sweep CSV, in row order."""
    return [line.split(",", 1) for line in path.read_text().splitlines()[1:]]


def test_gamma_sweep_is_the_count_sweep_relabelled(tmp_path, monkeypatch):
    grid = ["--set", "n=40", "--set", "d=5", "--set", "t_log_start=-1",
            "--set", "t_log_stop=2", "--set", "t_per_decade=4", "--seeds", "0,1"]
    assert main(["sweep", *grid, "--m-list", "20,40,80", "--out", str(tmp_path / "m")]) == 0
    assert main(["sweep", *grid, "--gamma-list", "0.5,1,2",
                 "--out", str(tmp_path / "gamma")]) == 0
    for table in ("minnorm", "budgets"):
        by_m = _sweep_rows(tmp_path / "m" / f"sweep_m_{table}.csv")
        by_gamma = _sweep_rows(tmp_path / "gamma" / f"sweep_gamma_{table}.csv")
        assert [rest for _, rest in by_gamma] == [rest for _, rest in by_m]
        assert [int(float(g) * 40) for g, _ in by_gamma] == [int(m) for m, _ in by_m]

    # gamma = 0.99 and 1 both round to m = 40: one cell per seed serves both rows
    calls = []
    run_experiment = runner.run_experiment

    def counted(cfg, *args, **kwargs):
        calls.append((cfg.m, cfg.seed))
        return run_experiment(cfg, *args, **kwargs)

    monkeypatch.setattr(runner, "run_experiment", counted)
    out = tmp_path / "shared"
    assert main(["sweep", *grid, "--gamma-list", "0.99,1.0,2", "--out", str(out)]) == 0
    assert calls == [(40, 0), (80, 0), (40, 1), (80, 1)]
    rows = _sweep_rows(out / "sweep_gamma_minnorm.csv")
    assert [g for g, _ in rows] == ["0.98999999999999999", "0.98999999999999999",
                                    "1", "1", "2", "2"]
    assert rows[0][1] == rows[2][1] and rows[1][1] == rows[3][1]


def test_sweep_requires_axis(tmp_path, capsys):
    assert main(["sweep", *_overrides(tmp_path, "sweep")]) == 2
    assert capsys.readouterr().err == ("rfflow sweep: error: one of the arguments "
                                       "--m-list --gamma-list is required\n")
    assert main(["sweep", "--out", str(tmp_path / "new")]) == 2
    assert not (tmp_path / "new").exists()  # a usage error makes no output directory


@pytest.mark.parametrize("override,key", [
    ("t_per_decade=0", "t_per_decade"),   # rejected by the config's validation
    ("bogus=1", "bogus"),                 # unknown key
    ("n=abc", "n"),                       # not an integer
    ("n77", "--set: expected 'key = value', got 'n77'"),  # no '='
])
def test_bad_config_value_is_a_one_line_usage_error(tmp_path, capsys, override, key):
    assert main(["run", "--out", str(tmp_path), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rfflow run: error: ") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize("verb", ["run", "sweep"])
@pytest.mark.parametrize("overrides,key", [
    (["t_log_stop=400"], "t_log_stop"),                        # 10^400 overflows a double
    (["t_log_start=-400", "t_log_stop=-390"], "t_log_start"),  # every time underflows to 0
    # both ends fit, but the rounded point count puts the last time at 10^308.3
    (["t_log_start=0.3", "t_log_stop=308", "t_per_decade=1"], "t_log_stop"),
])
def test_time_grid_beyond_a_double_is_a_one_line_usage_error(tmp_path, capsys, verb,
                                                              overrides, key):
    out = tmp_path / "out"
    argv = [verb, "--out", str(out), *[arg for o in overrides for arg in ("--set", o)]]
    assert main(argv + (["--m-list", "5"] if verb == "sweep" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rfflow {verb}: error: {key} ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--m-list", "10.7"], "--m-list"),        # not an integer
    (["sweep", "--m-list", "0,10"], "--m-list"),        # not a feature count
    (["sweep", "--m-list", "10", "--seeds", ","], "--seeds"),  # empty entries
    (["sweep", "--gamma-list", "0.5,nan"], "--gamma-list"),
    (["mp", "--seeds", "0.9"], "--seeds"),
    (["mp", "--gamma-list", "-1"], "--gamma-list"),
    (["mnist", *_REQUIRED["mnist"], "--seeds", "-1"], "--seeds"),
    (["spectra", "--gamma", "0"], "--gamma"),
    (["mnist", *_REQUIRED["mnist"], "--m-list", "20,x"], "--m-list"),
    (["sweep", "--m-list", "100,100"], "--m-list"),     # a cell would run twice
    (["sweep", "--m-list", "10", "--seeds", "0,0"], "--seeds"),
    (["sweep", "--gamma-list", "0.5,0.50"], "--gamma-list"),
    (["mp", "--seeds", "1,2,1"], "--seeds"),
])
def test_bad_list_flag_is_a_one_line_usage_error(tmp_path, capsys, argv, flag):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rfflow {argv[0]}: error: argument {flag}: must be ")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())  # nothing ran


@pytest.mark.parametrize("argv,message", [
    (["spectra", "--gamma", "abc"],
     "rfflow spectra: error: argument --gamma: must be a positive number, got 'abc'"),
    (["run", "--seed", "x"], "rfflow run: error: argument --seed: invalid int value: 'x'"),
    (["run", "--bogus", "1"], "rfflow run: error: unrecognized arguments: --bogus 1"),
    (["mp", "--seeds"], "rfflow mp: error: argument --seeds: expected one argument"),
    (["frob"], "rfflow: error: argument verb: invalid choice: 'frob'"),
    (["mp", "--gamma", "2"], "rfflow mp: error: unrecognized arguments: --gamma 2"),  # no prefixes
    (["sweep", "--m-list", "10", "--gamma-list", "2"],
     "rfflow sweep: error: argument --gamma-list: not allowed with argument --m-list"),
    (["spectra", "--set", "d=2"], "rfflow spectra: error: d must be >= 3 for spectra, got 2"),
    (["mp", "--set", "d=2"], "rfflow mp: error: d must be >= 3 for mp, got 2"),
    # labelled data is read by the mnist verb itself; the target has an order, no kind
    (["run", "--set", "target_kind=external-labels"],
     "rfflow run: error: unknown config key 'target_kind'"),
    (["spectra", "--set", "target_kind=external-labels"],
     "rfflow spectra: error: unknown config key 'target_kind'"),
    (["run", "--set", "m=sqrt-n"], "rfflow run: error: m: expected int, got 'sqrt-n'"),
    # sweep and mp run every --seeds entry, so a --seed would be ignored
    (["sweep", "--seed", "3", "--m-list", "100"],
     "rfflow sweep: error: unrecognized arguments: --seed 3"),
    (["mp", "--seed", "3"], "rfflow mp: error: unrecognized arguments: --seed 3"),
    # the calibration window and the learning rate are constants, not options
    (["mp", "--fit-window", "0.8,1.25"],
     "rfflow mp: error: unrecognized arguments: --fit-window 0.8,1.25"),
    (["run", "--set", "eta=0.5"], "rfflow run: error: unknown config key 'eta'"),
    (["run", "--set", "target_order=1", "--set", "d=2"],
     "rfflow run: error: d must be >= 3 for a target of order >= 1, got 2"),
    # the test-set size, the Monte-Carlo size and delta are runner constants
    *[([verb, *_REQUIRED.get(verb, []), "--set", f"{key}=1"],
       f"rfflow {verb}: error: unknown config key {key!r}")
      for key in ("test_count", "assumption_points", "delta")
      for verb in ("run", "sweep", "spectra", "mp", "mnist")],
    (["mnist"], "rfflow mnist: error: the following arguments are required: "
                "--images, --labels, --test-images, --test-labels"),
])
def test_malformed_command_line_is_a_one_line_usage_error(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not list(tmp_path.iterdir())  # nothing ran


@pytest.mark.parametrize("extra", [
    ["--workers", "2"],
    ["--set", "workers=2"],
    ["--set", "out_dir=x"],
    ["--set", "include_min_norm=false"],
    ["--set", "time_map=obj-n"],
])
def test_removed_execution_keys_are_usage_errors(tmp_path, extra):
    assert main(["run", *_overrides(tmp_path), *extra]) == 2
    assert not list(tmp_path.glob("run_*.csv"))


@pytest.mark.parametrize("line,key", [
    ("target_kind = legendre", "target_kind"),
    ("eta = 0.5", "eta"),
    ("test_count = 50", "test_count"),
    ("assumption_points = 60", "assumption_points"),
    ("delta = 0.2", "delta"),
])
def test_removed_keys_in_a_config_file_are_usage_errors(tmp_path, capsys, line, key):
    path = tmp_path / "exp.cfg"
    path.write_text(f"n = 16\n{line}\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"rfflow run: error: unknown config key {key!r}\n"
    assert not (tmp_path / "out").exists()


# the config keys each verb reads, in the order of its usage error; run reads every key
_READS = {
    # sweep's cells take their m from --m-list and seeds from --seeds
    "sweep": "n, d, feature_kind, target_order, t_log_start, t_log_stop, t_per_decade",
    "spectra": "seed, n, d, feature_kind",
    "mp": "n, d, feature_kind",
    "mnist": "seed, n, feature_kind",
}


@pytest.mark.parametrize("argv,key", [
    (["sweep", "--m-list", "10", "--set", "m=15"], "m"),
    (["sweep", "--m-list", "10", "--set", "seed=3"], "seed"),
    (["spectra", "--set", "n=50", "--set", "target_order=2"], "target_order"),
    (["mp", "--set", "n=50", "--set", "seed=3"], "seed"),
    (["mnist", *_REQUIRED["mnist"], "--set", "t_per_decade=3"], "t_per_decade"),
    (["mnist", *_REQUIRED["mnist"], "--set", "d=3"], "d"),
    # the key is reported before its value is parsed or checked
    (["mp", "--set", "m=abc"], "m"),
    (["mp", "--set", "m=0"], "m"),
], ids=["sweep-m", "sweep-seed", "spectra-target_order", "mp-seed", "mnist-t_per_decade",
        "mnist-d", "mp-m-not-an-int", "mp-m-not-a-count"])
def test_set_of_a_key_the_verb_does_not_read_is_a_usage_error(tmp_path, capsys, argv, key):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"rfflow {argv[0]}: error: {argv[0]} does not read config key "
                            f"{key!r}; it reads {_READS[argv[0]]}\n")
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_config_file_keys_are_not_checked_per_verb(tmp_path):
    # one file may serve several verbs: spectra takes a file that sets m and the time grid
    path = tmp_path / "exp.cfg"
    path.write_text("n = 50\nm = 7\nd = 5\nt_per_decade = 3\n")
    assert main(["spectra", "--config", str(path), "--gamma", "2",
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "spectra_gamma2.csv").exists()


def test_run_verb_at_d2_takes_the_constant_target(tmp_path):
    # order 0 is the constant 1 in every dimension; an order >= 1 needs d >= 3
    assert main(["run", *_overrides(tmp_path), "--set", "d=2"]) == 0
    (csv_path,) = tmp_path.glob("run_*.csv")
    assert "# target = zonal-harmonic:0" in csv_path.read_text().splitlines()


def test_errors_inside_a_run_propagate(tmp_path, monkeypatch):
    from rfflow import runner

    def broken(cfg):
        raise ValueError("failed inside the run")

    monkeypatch.setattr(runner, "run_experiment", broken)
    with pytest.raises(ValueError, match="failed inside the run"):
        main(["run", *_overrides(tmp_path)])


def test_mp_verb(tmp_path, capsys):
    assert main(["mp", "--out", str(tmp_path),
                 "--set", "n=60", "--set", "d=5",
                 "--gamma-list", "0.5,0.8,1.0,1.25,2.0",
                 "--seeds", "0,1,2"]) == 0
    lines = (tmp_path / "mp_smallest.csv").read_text().splitlines()
    assert lines[0] == "gamma,mean_smallest,median_smallest,mp_prediction"
    assert len(lines) == 6
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    at_one = table[np.isclose(table[:, 0], 1.0)][0]
    assert at_one[3] == 0.0  # prediction vanishes exactly at resonance
    assert (tmp_path / "mp_smallest.svg").exists()


def _y_ticks(svg_path):
    """The decade labels of an SVG's log y axis."""
    svg = svg_path.read_text()
    return [float(v) for v in re.findall(r'text-anchor="end" font-size="11">([^<]+)<', svg)]


def test_mp_plot_axis_spans_only_the_plotted_values(tmp_path):
    # the MP prediction is exactly 0 at gamma = 1; the log axis drops that
    # point instead of reaching down to it, which took 299 labels to 1e-300
    assert main(["mp", "--set", "n=300", "--seeds", "0,1", "--out", str(tmp_path)]) == 0
    y_ticks = _y_ticks(tmp_path / "mp_smallest.svg")
    assert y_ticks and min(y_ticks) >= 1e-20 and len(y_ticks) <= 12


def test_spectra_plot_stops_the_gram_series_at_its_rank(tmp_path):
    # at gamma = 0.5 the Gram matrix has rank m = 150 of n = 300; ranks past
    # it are round-off near 1e-18, while every plotted value is above 5e-7
    assert main(["spectra", "--gamma", "0.5", "--set", "n=300", "--out", str(tmp_path)]) == 0
    y_ticks = _y_ticks(tmp_path / "spectra_gamma0.5.svg")
    assert y_ticks and min(y_ticks) >= 1e-7


def test_run_plot_drops_the_train_error_rounding_floor(tmp_path):
    # the order-2 Legendre target lies in the span of 250 features, so the
    # train error falls to round-off; the axis stops near eps times its start
    assert main(["run", "--set", "n=200", "--set", "m=250", "--set", "target_order=2",
                 "--out", str(tmp_path)]) == 0
    (svg_path,) = tmp_path.glob("run_*.svg")
    y_ticks = _y_ticks(svg_path)
    assert y_ticks and min(y_ticks) >= 1e-16


def test_mp_verb_widens_empty_fit_window(tmp_path):
    # the window [0.8, 1.25] misses this grid; the fit falls back to all
    # off-resonance cells instead of failing
    assert main(["mp", "--out", str(tmp_path),
                 "--set", "n=40", "--set", "d=5",
                 "--gamma-list", "0.5,1.0,2.0", "--seeds", "0"]) == 0
    lines = (tmp_path / "mp_smallest.csv").read_text().splitlines()
    assert len(lines) == 4


def test_mp_verb_needs_a_gamma_off_resonance(tmp_path, capsys):
    assert main(["mp", "--gamma-list", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rfflow mp: error: --gamma-list must hold a gamma other than 1")
    assert err.count("\n") == 1 and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,table", [
    (["mp", "--seeds", "0,1", "--gamma-list", "0.5,{g},2"], "mp_smallest.csv"),
    (["spectra", "--gamma", "{g}"], "spectra_gamma{g}.csv"),
], ids=["mp", "spectra"])
def test_gammas_of_one_count_write_the_same_values(tmp_path, argv, table):
    # at n = 50 gamma 0.85 and 0.84 both give m = 42: a row is its count's
    # cell, and gamma only labels it (the sweep's counterpart is
    # test_gamma_sweep_is_the_count_sweep_relabelled)
    values = []
    for g in ("0.85", "0.84"):
        out = tmp_path / g
        assert main([*(a.format(g=g) for a in argv), "--set", "n=50", "--set", "d=5",
                     "--out", str(out)]) == 0
        lines = (out / table.format(g=g)).read_text().splitlines()
        values.append([line.split(",")[1:] for line in lines])
    assert values[0] == values[1]


def test_mp_resonance_is_the_count_m_equals_n(tmp_path):
    # at n = 10 gamma 0.95 rounds to m = n: its row predicts exactly 0, and
    # c is fitted on the rows off resonance, gamma 0.5 and 2, only
    assert main(["mp", "--set", "n=10", "--gamma-list", "0.5,0.95,2", "--seeds", "0,1",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "mp_smallest.csv").read_text().splitlines()[1:]
    (_, mean_lo, _, pred_lo), (_, _, _, pred_at_n), (_, mean_hi, _, pred_hi) = (
        [float(v) for v in line.split(",")] for line in lines)
    assert pred_at_n == 0.0
    c, _ = rm.calibrate_c([(0.5, mean_lo), (2.0, mean_hi)])
    assert pred_lo == pytest.approx(c * rm.mp_shape(0.5), rel=1e-14)
    assert pred_hi == pytest.approx(c * rm.mp_shape(2.0), rel=1e-14)


def test_mp_verb_matches_a_per_cell_recomputation(tmp_path):
    # One feature matrix per seed serves every gamma; each cell recomputed
    # from its own m-row draw agrees within 1e-14 of its top Gram eigenvalue.
    n, d, seeds = 120, 5, (0, 1)
    argv = ["mp", "--set", f"n={n}", "--set", f"d={d}", "--seeds", "0,1"]
    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    text = (tmp_path / "a" / "mp_smallest.csv").read_bytes()
    assert text == (tmp_path / "b" / "mp_smallest.csv").read_bytes()
    rows = [[float(v) for v in ln.split(",")] for ln in text.decode().splitlines()[1:]]
    assert [r[0] for r in rows] == [0.5, 0.7, 0.85, 1.0, 1.2, 1.5, 2.0]
    for gamma, mean, median, _ in rows:
        m = int(round(gamma * n))
        smallest, top = [], []
        for seed in seeds:
            data = features.sample_dataset([seed, 1], n, d,
                                           features.TargetSpec())
            phi = features.build_feature_matrix(
                data, features.sample_features([seed, 2], d, m, "relu"))
            comp = phi @ phi.T if n <= m else phi.T @ phi
            ev = np.linalg.eigvalsh(comp / (n * m))
            smallest.append(ev[0])
            top.append(ev[-1])
        bound = 1e-14 * max(top)
        assert abs(mean - np.mean(smallest)) <= bound
        assert abs(median - np.median(smallest)) <= bound


def test_mp_verb_memory_is_bounded_in_gamma(tmp_path):
    # gamma up to 16 at n = 200: the features are evaluated in blocks of at
    # most n directions, never as the 200 x 3200 matrix (5.1 MB)
    argv = ["mp", "--set", "n=200", "--gamma-list", "0.5,1,2,4,16", "--seeds", "0"]
    assert main([*argv, "--out", str(tmp_path / "warm")]) == 0  # imports the verb's modules
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


# spectra's eigenvalue columns are compared within 1e-13 of their largest
# entry: eigvalsh and the products before it may round in another order (at
# n = 200 the columns read the same at 1 and 2 BLAS threads), and that moves a
# small eigenvalue by far more than 1e-12 of itself.  run's train error decays
# as exp(-2 s^2 t/(mn)) at late times, and that exponent, several hundred at
# the end of the grid, multiplies the rounding of s: cells below about 1e-128
# (run_affine_relu.csv rows 196-204) moved by 1.0e-12 to 5.1e-12 of themselves
# between OpenBLAS's Sandybridge and SkylakeX kernels; that column is
# compared within 1e-12 of itself or (1e3 eps)^2 of its largest entry.  Every
# other cell is compared within 1e-12 of itself (a rank-deficient cell's
# smallest Gram eigenvalue is exactly 0); mp's values moved by 7.3e-14
# between 1 and 2 BLAS threads.
_SPECTRUM_COLUMNS = ("gram", "kernel_matrix")
_RESIDUAL_FLOOR = {"train_error": (1e3 * np.finfo(float).eps) ** 2}


def _reference_table(path):
    """A reference CSV's '# key = value' lines as a dict, and its table."""
    lines = Path(path).read_text().splitlines()
    meta = dict(split_key_value(ln[1:], str(path)) for ln in lines if ln.startswith("#"))
    table = np.genfromtxt([ln for ln in lines if not ln.startswith("#")],
                          delimiter=",", names=True)
    return meta, table


def _moved(got, want, tol) -> list:
    """(row, got, want) of every cell neither equal to ``want`` (inf and nan
    included) nor within ``tol`` of it."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    with np.errstate(invalid="ignore"):  # inf - inf
        close = np.abs(got - want) <= tol
    kept = (got == want) | (np.isnan(got) & np.isnan(want)) | close
    return [(int(row), float(got[row]), float(want[row])) for row in np.flatnonzero(~kept)]


def test_importing_regenerate_leaves_the_environment_alone():
    # only a script run pins OpenBLAS's thread count and kernel; the reference
    # test runs under whatever BLAS set-up the test process was given
    paths = [Path(rfflow.__file__).resolve().parents[1], regenerate.HERE.parent]
    env = {key: value for key, value in os.environ.items() if not key.startswith("OPENBLAS_")}
    code = ("import os; before = dict(os.environ); from reference import regenerate; "
            "assert dict(os.environ) == before")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(env, PYTHONPATH=os.pathsep.join(map(str, paths))), timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(regenerate.RUNS))
def test_verb_matches_its_reference_csv(tmp_path, capsys, name):
    got_meta, got = _reference_table(regenerate.write(name, tmp_path))
    want_meta, want = _reference_table(regenerate.HERE / name)
    assert got_meta.keys() == want_meta.keys()
    for key, value in want_meta.items():
        try:
            moved = _moved(float(got_meta[key]), float(value), 1e-12 * abs(float(value)))
        except ValueError:  # a text value: the hash, a flag, the target
            assert got_meta[key] == value, key
        else:
            assert not moved, f"{key}: (got, want) = {moved[0][1:]}"
    assert got.dtype.names == want.dtype.names and got.shape == want.shape
    for column in want.dtype.names:
        top = np.max(np.abs(want[column][np.isfinite(want[column])]), initial=0.0)
        if column in _SPECTRUM_COLUMNS:
            tol = 1e-13 * top
        else:
            tol = np.maximum(1e-12 * np.abs(want[column]), _RESIDUAL_FLOOR.get(column, 0.0) * top)
        moved = _moved(got[column], want[column], tol)
        assert not moved, f"{column} moved at (row, got, want): {moved}"


def test_the_pinned_script_writes_every_reference_byte_for_byte(tmp_path):
    # the committed references are what regenerate.py writes: a subprocess pins
    # OpenBLAS as the script does, before numpy loads, and writes each one into
    # tmp_path.  Another kernel (a CPU without AVX-512, another BLAS) rounds
    # differently, so there the check does not apply
    paths = [Path(rfflow.__file__).resolve().parents[1], regenerate.HERE.parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)),
               OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE=regenerate.KERNEL)
    code = ("import sys; from pathlib import Path; from reference import regenerate\n"
            "kernel = regenerate.blas_kernel(); print(kernel, flush=True)\n"
            "if kernel == regenerate.KERNEL:\n"
            "    for name in regenerate.RUNS: regenerate.write(name, Path(sys.argv[1]) / name)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    kernel = proc.stdout.splitlines()[0]
    if kernel != regenerate.KERNEL:
        pytest.skip(f"OpenBLAS runs {kernel}, not the references' {regenerate.KERNEL}")
    for name, (_, written) in regenerate.RUNS.items():
        (path,) = (tmp_path / name).glob(written)
        assert path.read_bytes() == (regenerate.HERE / name).read_bytes(), name


def test_spectra_verb(tmp_path, capsys):
    assert main(["spectra", "--out", str(tmp_path),
                 "--set", "n=50", "--set", "d=5", "--gamma", "2.0",
                 "--seed", "1"]) == 0
    path = tmp_path / "spectra_gamma2.csv"
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,gram,kernel_matrix,analytic"
    assert len(lines) == 51
    out = capsys.readouterr().out
    assert "top-10" in out


@pytest.mark.parametrize("gamma,top", [("0.05", 1), ("0.5", 5), ("2", 10)])
def test_spectra_top_difference_compares_only_ranks_within_m(tmp_path, capsys, gamma, top):
    # at n = 10, gamma 0.05 gives m = 1: Gram ranks 2..10 are round-off, which
    # would read as a relative difference of 1 against the kernel matrix
    assert main(["spectra", "--set", "n=10", "--gamma", gamma, "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / f"spectra_gamma{gamma}.csv", delimiter=",", skiprows=1)
    gram, kernel = table[:top, 1], table[:top, 2]
    want = np.max(np.abs(gram - kernel) / kernel)
    out = capsys.readouterr().out
    assert f"top-{top} gram vs kernel rel diff: {want:.4f}" in out
    assert f"{want:.4f}" != "1.0000"


def test_spectra_verb_in_high_dimension(tmp_path):
    assert main(["spectra", "--out", str(tmp_path),
                 "--set", "n=50", "--set", "d=90", "--gamma", "2"]) == 0
    table = np.loadtxt(tmp_path / "spectra_gamma2.csv", delimiter=",", skiprows=1)
    assert table.shape == (50, 4)
    assert np.all(np.isfinite(table)) and np.all(table[:, 3] > 0)


def _relu_closed_form_column(d, count):
    """The first ``count`` ReLU eigenvalues in closed form: lambda_0, then d
    copies of 1/(4 d^2), then N(d, 2) copies of lambda_0 / (d+1)^2."""
    lam0 = ka.spectrum_feature_scale(d, 1 / (2 * np.pi * d))
    column = [lam0] + [1 / (4 * d * d)] * d + [lam0 / (d + 1) ** 2] * ka.harmonic_multiplicity(d, 2)
    assert len(column) >= count
    return np.array(column[:count])


@pytest.mark.parametrize("d", [10, 120, 200])
def test_spectra_verb_returns_in_any_dimension(tmp_path, d):
    # the paper's Gamma-function family underflows from d = 185; the Funk-Hecke
    # integrals stay O(1/d).  A subprocess with a timeout turns a
    # non-terminating degree search into a failure.
    src = str(Path(rfflow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "rfflow.cli", "spectra", "--set", "n=50", "--set", f"d={d}",
         "--gamma", "2", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    table = np.loadtxt(tmp_path / "spectra_gamma2.csv", delimiter=",", skiprows=1)
    analytic = table[:, 3]
    assert np.all(np.isfinite(analytic)) and np.all(analytic > 0)
    np.testing.assert_allclose(analytic, _relu_closed_form_column(d, 50), rtol=1e-11, atol=0.0)


def test_spectra_verb_covers_every_row_with_nonzero_harmonics(tmp_path):
    # at d = 3 the harmonics up to degree 16 with nonzero eigenvalues number
    # only 156; the degrees grow with n so that all 300 analytic values are positive
    assert main(["spectra", "--out", str(tmp_path),
                 "--set", "d=3", "--set", "n=300", "--gamma", "2"]) == 0
    table = np.loadtxt(tmp_path / "spectra_gamma2.csv", delimiter=",", skiprows=1)
    assert table.shape == (300, 4)
    assert np.all(table[:, 3] > 0) and np.all(np.diff(table[:, 3]) <= 0)


@pytest.mark.parametrize("gamma,d", [(8, 10), (8, 90), (32, 10)])
def test_spectra_verb_memory_is_bounded_in_m_and_d(tmp_path, gamma, d):
    # the n x m feature matrix is never held: the Gram is summed over blocks
    # of at most n feature directions, and no calibration draw is made
    tracemalloc.start()
    try:
        assert main(["spectra", "--out", str(tmp_path), "--set", "n=200",
                     "--set", f"d={d}", "--gamma", str(gamma)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


_MNIST_ARGS = ["--set", "n=40", "--m-list", "20,40,60", "--seeds", "0"]


def test_mnist_verb_on_synthetic_idx(tmp_path):
    paths = regenerate.write_synthetic_idx(tmp_path)
    assert main(["mnist", "--out", str(tmp_path / "out"), *paths, *_MNIST_ARGS]) == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "mnist_minnorm.csv").exists()
    assert (out_dir / "mnist_budgets.csv").exists()
    assert (out_dir / "mnist_minnorm.svg").exists()
    # --seed draws the training subsample; its default is 0
    for seed in ("0", "1"):
        assert main(["mnist", "--out", str(tmp_path / seed), *paths, *_MNIST_ARGS,
                     "--seed", seed]) == 0
    table = {name: (tmp_path / name / "mnist_minnorm.csv").read_bytes()
             for name in ("out", "0", "1")}
    assert table["out"] == table["0"] != table["1"]


def test_mnist_verb_takes_all_four_paths_or_none(tmp_path, monkeypatch, capsys):
    paths = regenerate.write_synthetic_idx(tmp_path)
    # the CLI reads no data directory: valid IDX files under MNIST's names in
    # RFFLOW_DATA_DIR do not stand in for the path flags
    monkeypatch.setenv("RFFLOW_DATA_DIR", str(tmp_path))
    for given, missing in (([], "--images, --labels, --test-images, --test-labels"),
                           (paths[:4], "--test-images, --test-labels")):
        out = tmp_path / "out"
        assert main(["mnist", "--out", str(out), *given, *_MNIST_ARGS]) == 2
        assert capsys.readouterr().err == ("rfflow mnist: error: the following arguments "
                                           f"are required: {missing}\n")
        assert not out.exists()


def test_mnist_verb_leaves_no_out_directory_when_an_input_is_missing(tmp_path, capsys):
    out = tmp_path / "deep"
    paths = ["--images", str(tmp_path / "nonexistent"), "--labels", str(tmp_path / "x"),
             "--test-images", str(tmp_path / "y"), "--test-labels", str(tmp_path / "z")]
    assert main(["mnist", "--out", str(out), *paths]) == 2
    assert capsys.readouterr().err.startswith("rfflow mnist: error: ")
    assert not out.exists()


def _kept_rows(labels_path) -> int:
    return int(np.isin(idx.read_idx_labels(labels_path), (0, 1)).sum())


def test_mnist_verb_evaluates_each_dataset_once_per_seed(tmp_path, monkeypatch):
    # per seed: the N_test x max m test features and the n x max m training
    # features; per cell: one SVD of the first m training columns and one
    # grid call at the four budget times and t = inf, on the first m columns
    # of the seed's test features, and no assumption report or finer bound
    paths = regenerate.write_synthetic_idx(tmp_path)
    shapes, grid_calls = [], []
    calls = dict.fromkeys(("measure_assumptions", "finer_bound"), 0)

    def counted_values(feats, points, _original=features.feature_values):
        shapes.append((len(points), feats.count))
        return _original(feats, points)

    def counted_grid(dec, y, feats, test_points, times, test_features=None,
                     _original=flow.errors_on_grid):
        grid_calls.append((len(times), getattr(test_features, "shape", None)))
        return _original(dec, y, feats, test_points, times, test_features)

    for module in (features, flow, bounds):  # flow and bounds bind their own name
        monkeypatch.setattr(module, "feature_values", counted_values)
    monkeypatch.setattr(flow, "errors_on_grid", counted_grid)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(bounds, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(bounds, name, counted)

    decomposed = []

    def counted_decompose(phi, _original=flow.decompose):
        decomposed.append(phi.shape)
        return _original(phi)

    monkeypatch.setattr(flow, "decompose", counted_decompose)

    n, n_test = 40, _kept_rows(paths[7])
    per_seed = [(n_test, 60), (n, 60)]
    assert main(["mnist", "--out", str(tmp_path / "out"), *paths, *_MNIST_ARGS]) == 0
    assert shapes == per_seed
    assert decomposed == [(n, m) for m in (20, 40, 60)]
    assert grid_calls == [(4 + 1, (n_test, m)) for m in (20, 40, 60)]
    assert calls == {"measure_assumptions": 0, "finer_bound": 0}

    shapes.clear()
    assert main(["mnist", "--out", str(tmp_path / "two"), *paths, *_MNIST_ARGS,
                 "--seeds", "0,1"]) == 0
    assert shapes == per_seed * 2

    # the counters see a sweep cell's assumption report and finer bounds
    assert main(["sweep", *_overrides(tmp_path / "sweep", "sweep"),
                 "--m-list", "10", "--seeds", "0"]) == 0
    assert calls == {"measure_assumptions": 1, "finer_bound": 13 + 1}


def _perfbench_spans():
    """The benchmark's span module, loaded from its file as the benchmark runs it."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mnist_verb_under_the_benchmark_tracer(tmp_path):
    # the benchmark's spans bind load_idx's and decompose's parameters by
    # name, so a rename there must fail here, not only in a traced benchmark run
    paths = regenerate.write_synthetic_idx(tmp_path)
    spans = _perfbench_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:  # the tracer wraps rfflow.cli.main, not this module's name for it
        assert rfflow.cli.main(["mnist", "--out", str(tmp_path / "out"), *paths,
                                *_MNIST_ARGS, "--seeds", "0,1"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["features.values_calls"] == 2 * 2
    assert metrics["idx.bytes_read"] == sum(os.path.getsize(p) for p in paths[1::2])
    assert metrics["flow.decompose_calls"] == 3 * 2
    assert metrics["flow.decompose_bytes"] == 2 * 8 * 40 * (20 + 40 + 60)
    assert metrics["cli.main_s"] > 0.0
    assert tracer.self_time_total() == pytest.approx(metrics["cli.main_s"], rel=1e-9)


def _table(path):
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def test_mnist_tables_equal_the_full_grid_cell(tmp_path):
    # each cell's min-norm error is the t = inf row of the full time grid, its
    # budget errors those of a grid call at the budget times alone, and its
    # smallest Gram eigenvalue the SVD's of the first m columns of the seed's
    # training features at the largest m, exactly 0 below rank min(n, m)
    paths = regenerate.write_synthetic_idx(tmp_path)
    assert main(["mnist", "--out", str(tmp_path), *paths, *_MNIST_ARGS]) == 0
    cfg = ExperimentConfig(n=40)
    train = idx.load_idx(paths[1], paths[3], classes=(0, 1), subsample=cfg.n, seed=0)
    test = idx.load_idx(paths[5], paths[7], classes=(0, 1))
    minnorm = _table(tmp_path / "mnist_minnorm.csv")
    budget_rows = _table(tmp_path / "mnist_budgets.csv")
    budgets = [1e4, 1e5, 1e6, 1e8]
    assert [row[:2] for row in minnorm] == [[20, 0], [40, 0], [60, 0]]
    _, seed_feats = runner.seed_draw(cfg, 60, train)
    block = features.build_feature_matrix(train, seed_feats)
    for i, (m, seed, min_norm, smallest) in enumerate(minnorm):
        m = int(m)
        _, feats = runner.seed_draw(cfg, m, train)
        dec = flow.decompose(block[:, :m])
        s = dec.singular_values
        full = flow.errors_on_grid(dec, train.targets, feats, test, cfg.time_grid())
        assert abs(min_norm - full.test_error[-1]) <= 1e-12 * full.test_error[-1]
        assert smallest == (s[-1] ** 2 / (cfg.n * m) if dec.rank == s.size else 0.0)
        eta = 1.0 / float(s[0] ** 2 / (cfg.n * m))
        at = flow.errors_on_grid(dec, train.targets, feats, test, [eta * T for T in budgets])
        rows = budget_rows[4 * i:4 * i + 4]
        assert [row[:3] for row in rows] == [[m, seed, T] for T in budgets]
        assert [row[3] for row in rows] == at.time.tolist()
        for row, want in zip(rows, at.test_error):
            assert abs(row[4] - want) <= 1e-12 * want


@pytest.mark.parametrize("case,message", [
    # n larger than the rows of classes 0 and 1 in the training files
    ("n", "subsample n = 1000 is larger than the 120 rows kept from "),
    ("labels as images", "bad IDX magic 2049, expected 2051"),
    ("count mismatch", "image/label count mismatch: 120 images in "),
    ("missing file", "No such file or directory: "),
    # a test set with only the label 7 keeps no row of classes 0 and 1
    ("no test class", "no label in classes [0, 1]"),
])
def test_mnist_bad_idx_input_is_a_one_line_usage_error(tmp_path, capsys, monkeypatch,
                                                       case, message):
    paths = regenerate.write_synthetic_idx(tmp_path)
    extra = []
    if case == "n":
        extra = ["--set", "n=1000"]
    elif case == "labels as images":
        paths[1] = paths[3]
    elif case == "count mismatch":  # the test set's 40 labels for the 120 training images
        paths[3] = paths[7]
    elif case == "missing file":
        paths[5] = str(tmp_path / "no-such-images-idx3-ubyte")
    else:
        labels = Path(paths[7])
        labels.write_bytes(labels.read_bytes()[:8] + bytes([7]) * 40)

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(runner, "sweep_tables", no_cell)
    assert main(["mnist", "--out", str(tmp_path / "out"), *paths, *_MNIST_ARGS, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rfflow mnist: error: ") and err.count("\n") == 1
    assert message in err
    if case == "count mismatch":
        assert paths[1] in err and paths[3] in err
    if case == "missing file":
        assert paths[5] in err
    if case == "no test class":
        assert paths[7] in err


# small cells of the verbs that read only some keys, and one new value per key
_SMALL_ARGS = {
    "sweep": ["--m-list", "10,30", "--seeds", "0", "--set", "n=20", "--set", "d=4",
              "--set", "t_log_start=-1", "--set", "t_log_stop=2", "--set", "t_per_decade=4"],
    "spectra": ["--gamma", "2", "--set", "n=30", "--set", "d=4"],
    "mp": ["--gamma-list", "0.5,1,2", "--seeds", "0,1", "--set", "n=30", "--set", "d=4"],
    "mnist": _MNIST_ARGS,
}
_NEW_VALUE = {"seed": 1, "n": 24, "d": 5, "feature_kind": "indicator", "target_order": 2,
              "t_log_start": -0.5, "t_log_stop": 3, "t_per_decade": 3}


@pytest.mark.parametrize("verb,key", [(verb, key) for verb, reads in _READS.items()
                                      for key in reads.split(", ")])
def test_every_key_a_verb_reads_changes_what_it_writes(tmp_path, verb, key):
    # the other verbs' counterpart of test_every_config_key_changes_the_run_rows:
    # a key a verb accepts but whose value moves none of its files is ignored silently
    args = list(_SMALL_ARGS[verb])
    if verb == "mnist":
        args += regenerate.write_synthetic_idx(tmp_path)

    def written(name, extra=()):
        out = tmp_path / name
        assert main([verb, *args, *extra, "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    base = written("base")
    moved = written("moved", ["--set", f"{key}={_NEW_VALUE[key]}"])
    assert moved.keys() == base.keys()
    assert moved != base
