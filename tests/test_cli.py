import numpy as np
import pytest

from rfflow import idx
from rfflow.cli import main


def _overrides(tmp_path, extra=()):
    args = ["--out", str(tmp_path),
            "--set", "n=20", "--set", "m=15", "--set", "d=4",
            "--set", "t_log_start=-1", "--set", "t_log_stop=2",
            "--set", "t_per_decade=4", "--set", "test_count=80",
            "--set", "assumption_points=100"]
    args.extend(extra)
    return args


def test_run_verb(tmp_path, capsys):
    assert main(["run", *_overrides(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "min test error" in out and "min-norm test error" in out
    csvs = list(tmp_path.glob("run_*.csv"))
    svgs = list(tmp_path.glob("run_*.svg"))
    assert len(csvs) == 1 and len(svgs) == 1
    header = [ln for ln in csvs[0].read_text().splitlines()
              if not ln.startswith("#")][0]
    assert header == "time,train_error,test_error,param_norm,bound_rough,bound_finer"


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
                   "t_per_decade = 3\ntest_count = 50\nassumption_points = 60\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                 "--seed", "2"]) == 0
    assert list(tmp_path.glob("run_*.csv"))


def test_sweep_verb(tmp_path):
    assert main(["sweep", *_overrides(tmp_path),
                 "--m-list", "10,20", "--seeds", "0,1", "--translate"]) == 0
    assert (tmp_path / "sweep_m_minnorm.csv").exists()
    assert (tmp_path / "sweep_m_budgets.csv").exists()
    assert (tmp_path / "sweep_m_curves.svg").exists()
    body = (tmp_path / "sweep_m_minnorm.csv").read_text().splitlines()
    assert body[0] == "m,seed,min_norm_test_error,smallest_gram_eigenvalue"
    assert len(body) == 5  # header + 2 values x 2 seeds


def test_sweep_requires_axis(tmp_path, capsys):
    assert main(["sweep", *_overrides(tmp_path)]) == 2
    assert capsys.readouterr().err == "rfflow sweep: error: sweep needs --m-list or --gamma-list\n"


@pytest.mark.parametrize("override,key", [
    ("t_per_decade=0", "t_per_decade"),   # rejected by the config's validation
    ("bogus=1", "bogus"),                 # unknown key
    ("n=abc", "n"),                       # not an integer
])
def test_bad_config_value_is_a_one_line_usage_error(tmp_path, capsys, override, key):
    assert main(["run", "--out", str(tmp_path), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rfflow run: error: ") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--m-list", "10.7"], "--m-list"),        # not an integer
    (["sweep", "--m-list", "0,10"], "--m-list"),        # not a feature count
    (["sweep", "--m-list", "10", "--seeds", ","], "--seeds"),  # empty entries
    (["sweep", "--gamma-list", "0.5,nan"], "--gamma-list"),
    (["mp", "--seeds", "0.9"], "--seeds"),
    (["mp", "--gamma-list", "-1"], "--gamma-list"),
    (["mp", "--fit-window", "1"], "--fit-window"),       # needs lo,hi
    (["spectra", "--gamma", "0"], "--gamma"),
    (["mnist", "--m-list", "20,x"], "--m-list"),
])
def test_bad_list_flag_is_a_one_line_usage_error(tmp_path, capsys, argv, flag):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rfflow {argv[0]}: error: {flag} must be ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())  # nothing ran


def _status(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects an unknown flag by exiting
        return exc.code


@pytest.mark.parametrize("extra", [
    ["--workers", "2"],
    ["--set", "workers=2"],
    ["--set", "out_dir=x"],
    ["--set", "include_min_norm=false"],
    ["--set", "time_map=obj-n"],
])
def test_removed_execution_keys_are_usage_errors(tmp_path, extra):
    assert _status(["run", *_overrides(tmp_path), *extra]) == 2
    assert not list(tmp_path.glob("run_*.csv"))


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


def test_mp_verb_widens_empty_fit_window(tmp_path):
    # default window [0.8, 1.25] misses this grid; fit falls back to all
    # off-resonance cells instead of failing
    assert main(["mp", "--out", str(tmp_path),
                 "--set", "n=40", "--set", "d=5",
                 "--gamma-list", "0.5,1.0,2.0", "--seeds", "0"]) == 0
    lines = (tmp_path / "mp_smallest.csv").read_text().splitlines()
    assert len(lines) == 4


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


def test_spectra_verb_in_high_dimension(tmp_path):
    # at d = 90 the analytic eigenvalues' Gamma products overflow unless combined in log space
    assert main(["spectra", "--out", str(tmp_path),
                 "--set", "n=50", "--set", "d=90", "--gamma", "2"]) == 0
    table = np.loadtxt(tmp_path / "spectra_gamma2.csv", delimiter=",", skiprows=1)
    assert table.shape == (50, 4)
    assert np.all(np.isfinite(table)) and np.all(table[:, 3] > 0)


_MNIST_ARGS = ["--set", "n=40", "--set", "t_log_start=-1", "--set", "t_log_stop=2",
               "--set", "t_per_decade=4", "--m-list", "20,40,60", "--seeds", "0"]


def _write_synthetic_idx(root):
    """Small two-class IDX files under MNIST's standard names; returns the path flags."""
    rng = np.random.default_rng(0)
    names = {}
    for split, count in (("train", 120), ("t10k", 40)):
        images = rng.integers(0, 256, size=(count, 5, 5), dtype=np.uint8)
        labels = (rng.random(count) < 0.5).astype(np.uint8)
        names[split] = (root / f"{split}-images-idx3-ubyte", root / f"{split}-labels-idx1-ubyte")
        idx.write_idx_images(names[split][0], images)
        idx.write_idx_labels(names[split][1], labels)
    return ["--images", str(names["train"][0]), "--labels", str(names["train"][1]),
            "--test-images", str(names["t10k"][0]), "--test-labels", str(names["t10k"][1])]


def test_mnist_verb_on_synthetic_idx(tmp_path):
    paths = _write_synthetic_idx(tmp_path)
    assert main(["mnist", "--out", str(tmp_path / "out"), *paths, *_MNIST_ARGS]) == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "mnist_minnorm.csv").exists()
    assert (out_dir / "mnist_budgets.csv").exists()
    assert (out_dir / "mnist_minnorm.svg").exists()


def test_mnist_verb_takes_all_four_paths_or_none(tmp_path, monkeypatch, capsys):
    paths = _write_synthetic_idx(tmp_path)
    # with no path flags the files come from RFFLOW_DATA_DIR
    monkeypatch.setenv("RFFLOW_DATA_DIR", str(tmp_path))
    assert main(["mnist", "--out", str(tmp_path / "env"), *_MNIST_ARGS]) == 0
    flags = tmp_path / "flags"
    assert main(["mnist", "--out", str(flags), *paths, *_MNIST_ARGS]) == 0
    assert (flags / "mnist_minnorm.csv").read_bytes() == \
        (tmp_path / "env" / "mnist_minnorm.csv").read_bytes()
    # some but not all: a usage error naming the missing flags, even with the variable set
    capsys.readouterr()
    assert main(["mnist", "--out", str(tmp_path / "part"), *paths[:4], *_MNIST_ARGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rfflow mnist: error: ") and err.count("\n") == 1
    assert err.endswith("missing --test-images, --test-labels\n")


def test_mnist_verb_requires_paths(tmp_path, monkeypatch):
    monkeypatch.delenv("RFFLOW_DATA_DIR", raising=False)
    with pytest.raises(FileNotFoundError):
        main(["mnist", "--out", str(tmp_path)])
