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
    assert "min test error" in out
    csvs = list(tmp_path.glob("run_*.csv"))
    svgs = list(tmp_path.glob("run_*.svg"))
    assert len(csvs) == 1 and len(svgs) == 1
    header = [ln for ln in csvs[0].read_text().splitlines()
              if not ln.startswith("#")][0]
    assert header == "time,train_error,test_error,param_norm,bound_rough,bound_finer"


def test_run_verb_reports_min_norm_only_with_inf_snapshot(tmp_path, capsys):
    assert main(["run", *_overrides(tmp_path, ["--set", "include_min_norm=false"])]) == 0
    out = capsys.readouterr().out
    assert "min test error" in out and "min-norm" not in out
    assert main(["run", *_overrides(tmp_path)]) == 0
    assert "min-norm test error" in capsys.readouterr().out


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


def test_mnist_verb_on_synthetic_idx(tmp_path):
    rng = np.random.default_rng(0)
    n_all = 120
    images = rng.integers(0, 256, size=(n_all, 5, 5), dtype=np.uint8)
    labels = (rng.random(n_all) < 0.5).astype(np.uint8)
    idx.write_idx_images(tmp_path / "imgs", images)
    idx.write_idx_labels(tmp_path / "labs", labels)
    timgs = rng.integers(0, 256, size=(40, 5, 5), dtype=np.uint8)
    tlabs = (rng.random(40) < 0.5).astype(np.uint8)
    idx.write_idx_images(tmp_path / "timgs", timgs)
    idx.write_idx_labels(tmp_path / "tlabs", tlabs)

    assert main(["mnist", "--out", str(tmp_path / "out"),
                 "--images", str(tmp_path / "imgs"),
                 "--labels", str(tmp_path / "labs"),
                 "--test-images", str(tmp_path / "timgs"),
                 "--test-labels", str(tmp_path / "tlabs"),
                 "--set", "n=40",
                 "--set", "t_log_start=-1", "--set", "t_log_stop=2",
                 "--set", "t_per_decade=4",
                 "--m-list", "20,40,60", "--seeds", "0"]) == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "mnist_minnorm.csv").exists()
    assert (out_dir / "mnist_budgets.csv").exists()
    assert (out_dir / "mnist_minnorm.svg").exists()


def test_mnist_verb_requires_paths(tmp_path, monkeypatch):
    monkeypatch.delenv("RFFLOW_DATA_DIR", raising=False)
    with pytest.raises(FileNotFoundError):
        main(["mnist", "--out", str(tmp_path)])
