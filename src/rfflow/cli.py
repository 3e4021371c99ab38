"""Command-line experiment driver.

Verbs: run, sweep, spectra, mp, mnist.  Every verb accepts --config PATH
(flat key = value file), repeated --set key=value overrides, --seed N and
--out DIR (default: the current directory).  Cells run one after another.
MNIST IDX files are looked up in $RFFLOW_DATA_DIR unless all four paths
are given.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

DATA_DIR_ENV = "RFFLOW_DATA_DIR"


def _build_config(args):
    from .config import ExperimentConfig, apply_overrides, load_config

    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _usage_error(args, message: str) -> int:
    print(f"rfflow {args.verb}: error: {message}", file=sys.stderr)
    return 2


# list flag -> (type of each value, test of the whole list, the rule in words)
LIST_FLAGS = {
    "m_list": (int, lambda vs: all(v >= 1 for v in vs), "comma-separated integers >= 1"),
    "gamma_list": (float, lambda vs: all(0.0 < v < math.inf for v in vs),
                   "comma-separated positive numbers"),
    "seeds": (int, lambda vs: all(v >= 0 for v in vs), "comma-separated integers >= 0"),
    "fit_window": (float, lambda vs: len(vs) == 2 and all(map(math.isfinite, vs)),
                   "two numbers lo,hi"),
}


def _parse_flags(args) -> None:
    """Replace the list flags by lists of numbers; a ValueError names the flag."""
    for dest, (cast, ok, rule) in LIST_FLAGS.items():
        text = getattr(args, dest, None)
        if text is None:
            continue
        try:
            values = [cast(tok) for tok in text.split(",")]
        except ValueError:
            values = []
        if not (values and ok(values)):
            raise ValueError(f"--{dest.replace('_', '-')} must be {rule}, got {text!r}")
        setattr(args, dest, values)
    if getattr(args, "gamma", None) is not None and not 0.0 < args.gamma < math.inf:
        raise ValueError(f"--gamma must be a positive number, got {args.gamma!r}")


def _trajectory_svg(record, path):
    from .svgplot import PlotSpec, Series, emit_svg

    snaps = [s for s in record.snapshots if math.isfinite(s.time)]
    t = np.array([s.time for s in snaps])
    emit_svg(PlotSpec(
        title=f"gradient-flow trajectory (config {record.metadata['config_hash']})",
        series=(
            Series("train error", t, np.array([s.train_error for s in snaps])),
            Series("test error", t, np.array([s.test_error for s in snaps])),
            Series("parameter norm", t, np.array([s.param_norm for s in snaps])),
            Series("sqrt-t norm bound", t,
                   np.array(record.bound_rough[: len(snaps)]), dashed=True),
        ),
        x_label="flow time t",
    ), path)


def cmd_run(args, cfg) -> int:
    from .runner import emit_csv, run_experiment

    record = run_experiment(cfg)
    out = Path(args.out)
    csv_path = out / f"run_{record.metadata['config_hash']}.csv"
    emit_csv(record, csv_path)
    _trajectory_svg(record, out / f"run_{record.metadata['config_hash']}.svg")
    best = min((s for s in record.snapshots if math.isfinite(s.time)),
               key=lambda s: s.test_error)
    print(f"wrote {csv_path}")
    print(f"min test error {best.test_error:.6g} at t={best.time:.6g}; "
          f"min-norm test error {record.summary['min_norm_test_error']:.6g}")
    return 0


def cmd_sweep(args, cfg) -> int:
    from .runner import emit_budget_csv, emit_sweep_csv, run_sweep, translate_curves
    from .svgplot import PlotSpec, Series, emit_svg

    seeds = args.seeds
    if args.m_list:
        sweep = run_sweep(cfg, m_values=args.m_list, seeds=seeds)
    elif args.gamma_list:
        sweep = run_sweep(cfg, gamma_values=args.gamma_list, seeds=seeds)
    else:
        return _usage_error(args, "sweep needs --m-list or --gamma-list")
    out = Path(args.out)
    emit_sweep_csv(sweep, out / f"sweep_{sweep.axis}_minnorm.csv")
    emit_budget_csv(sweep, out / f"sweep_{sweep.axis}_budgets.csv")

    values = sorted({v for v, *_ in sweep.min_norm_table})
    series = []
    rec0 = sweep.records[(values[0], seeds[0])]
    t = np.array([s.time for s in rec0.snapshots if math.isfinite(s.time)])
    curves = []
    for v in values:
        rec = sweep.records[(v, seeds[0])]
        curves.append(np.array([s.test_error for s in rec.snapshots
                                if math.isfinite(s.time)]))
    if args.translate:
        curves, _ = translate_curves(curves)
    for v, c in zip(values, curves):
        series.append(Series(f"{sweep.axis}={v:g}", t, c))
    emit_svg(PlotSpec(title=f"test error curves over {sweep.axis}",
                      series=tuple(series), x_label="flow time t"),
             out / f"sweep_{sweep.axis}_curves.svg")
    print(f"wrote sweep tables under {out}")
    return 0


def cmd_spectra(args, cfg) -> int:
    from . import features as feat
    from . import kernel_analytic as ka
    from . import random_matrix as rm
    from .flow import decompose
    from .svgplot import PlotSpec, Series, emit_svg

    n, d = cfg.n, cfg.d
    m = max(1, int(round(args.gamma * n)))
    data = feat.sample_dataset([cfg.seed, 1], n, d,
                               feat.TargetSpec(kind="constant-harmonic"))
    feats = feat.sample_features([cfg.seed, 2], d, m, cfg.feature_kind)
    phi = feat.build_feature_matrix(data, feats)

    gram_ev = rm.symmetric_eigenvalues(rm.gram_matrix(phi, n, m))
    cal_feats = feat.sample_features([9010, d], d, 100_000, cfg.feature_kind)
    cal_points = feat.sample_sphere([9011, d], d, 64)
    c_fit, _ = ka.fit_profile_scale(cal_feats, cal_points)
    kmat = c_fit * ka.kernel_profile(data.points @ data.points.T) / n
    kernel_ev = rm.symmetric_eigenvalues(kmat)

    spectrum = ka.analytic_spectrum(d, 16)
    scale = ka.spectrum_feature_scale(d, c_fit)

    out = Path(args.out)
    path = out / f"spectra_gamma{args.gamma:g}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank,gram,kernel_matrix,analytic\n")
        flat = spectrum.flatten(min(gram_ev.size, kernel_ev.size)) * scale
        for i in range(min(gram_ev.size, kernel_ev.size)):
            fh.write(f"{i + 1},{gram_ev[i]:.17g},{kernel_ev[i]:.17g},{flat[i]:.17g}\n")
    ranks = np.arange(1, gram_ev.size + 1)
    emit_svg(PlotSpec(
        title=f"spectra at gamma={args.gamma:g} (n={n}, d={d})",
        series=(
            Series("gram", ranks, np.maximum(gram_ev, 1e-300)),
            Series("kernel matrix", np.arange(1, kernel_ev.size + 1),
                   np.maximum(kernel_ev, 1e-300)),
            Series("analytic (calibrated)", np.arange(1, flat.size + 1), flat,
                   dashed=True),
        ),
        x_label="rank", y_label="eigenvalue",
    ), out / f"spectra_gamma{args.gamma:g}.svg")
    top_rel_diff = np.abs(gram_ev[:10] - kernel_ev[:10]) / np.abs(kernel_ev[:10])
    print(f"wrote {path}; top-10 gram vs kernel rel diff: {np.max(top_rel_diff):.4f}")
    return 0


def cmd_mp(args, cfg) -> int:
    from . import features as feat
    from . import random_matrix as rm
    from .svgplot import PlotSpec, Series, emit_svg

    n, d = cfg.n, cfg.d

    def cell(gamma, seed):
        m = max(1, int(round(gamma * n)))
        data = feat.sample_dataset([seed, 1], n, d,
                                   feat.TargetSpec(kind="constant-harmonic"))
        feats = feat.sample_features([seed, 2], d, m, cfg.feature_kind)
        phi = feat.build_feature_matrix(data, feats)
        return rm.smallest_gram_eigenvalue(phi, n, m)

    rows = []
    for g in args.gamma_list:
        vals = [cell(g, s) for s in args.seeds]
        rows.append((g, float(np.mean(vals)), float(np.median(vals))))

    fit_lo, fit_hi = args.fit_window
    fit_pts = [(g, mean) for g, mean, _ in rows if fit_lo <= g <= fit_hi and g != 1.0]
    if not fit_pts:  # window missed the grid: fall back to all off-resonance cells
        fit_pts = [(g, mean) for g, mean, _ in rows if g != 1.0]
    c, resid = rm.calibrate_c(fit_pts)

    out = Path(args.out)
    path = out / "mp_smallest.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("gamma,mean_smallest,median_smallest,mp_prediction\n")
        for g, mean, median in rows:
            fh.write(f"{g:.17g},{mean:.17g},{median:.17g},"
                     f"{rm.predict_smallest(g, c):.17g}\n")
    gam = np.array([g for g, *_ in rows])
    mean_v = np.array([mean for _, mean, _ in rows])
    pred_v = np.array([rm.predict_smallest(g, c) for g in gam])
    emit_svg(PlotSpec(
        title=f"smallest Gram eigenvalue vs gamma (n={n}, d={d}, c={c:.3e})",
        series=(Series("measured mean", gam, np.maximum(mean_v, 1e-300)),
                Series("MP prediction", gam, np.maximum(pred_v, 1e-300), dashed=True)),
        log_x=False, x_label="gamma = m/n", y_label="smallest eigenvalue",
    ), out / "mp_smallest.svg")
    print(f"wrote {path}; calibration c={c:.6e} (rms residual {resid:.3e})")
    return 0


MNIST_FLAGS = ("images", "labels", "test_images", "test_labels")


def _mnist_paths(args):
    """The four IDX paths: all given on the command line, or all from $RFFLOW_DATA_DIR."""
    paths = [getattr(args, flag) for flag in MNIST_FLAGS]
    if all(paths):
        return paths
    base = os.environ.get(DATA_DIR_ENV)
    if not base:
        raise FileNotFoundError(
            f"set {DATA_DIR_ENV} or pass --images, --labels, --test-images and --test-labels")
    root = Path(base)
    return (root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte",
            root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")


def cmd_mnist(args, cfg) -> int:
    from . import features as feat
    from .idx import load_idx
    from .runner import emit_budget_csv, emit_sweep_csv, run_sweep
    from .svgplot import PlotSpec, Series, emit_svg

    missing = [f"--{flag.replace('_', '-')}" for flag in MNIST_FLAGS if not getattr(args, flag)]
    if 0 < len(missing) < len(MNIST_FLAGS):
        return _usage_error(args, f"give all four IDX paths or none; missing {', '.join(missing)}")
    img, lab, timg, tlab = _mnist_paths(args)
    train = load_idx(img, lab, classes=(0, 1), subsample=cfg.n, seed=cfg.seed)
    test = load_idx(timg, tlab, classes=(0, 1))
    cfg = replace(cfg, target_kind="external-labels")

    if args.m_list:
        m_values = args.m_list
    else:
        m_values = sorted({max(1, int(round(cfg.n * g)))
                           for g in (0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.2,
                                     1.5, 2.0, 3.0)})
    sweep = run_sweep(cfg, m_values=m_values, seeds=args.seeds,
                      iteration_budgets=(1e4, 1e5, 1e6, 1e8), train=train, test=test)
    out = Path(args.out)
    emit_sweep_csv(sweep, out / "mnist_minnorm.csv")
    emit_budget_csv(sweep, out / "mnist_budgets.csv")

    values = np.array(m_values, dtype=float)
    med_err = np.array([
        np.median([rec for v2, s, rec, _ in sweep.min_norm_table if v2 == v])
        for v in m_values
    ])
    med_eig = np.array([
        np.median([eig for v2, s, _, eig in sweep.min_norm_table if v2 == v])
        for v in m_values
    ])
    emit_svg(PlotSpec(
        title=f"MNIST double descent (n={cfg.n})",
        series=(Series("min-norm test error", values, med_err),
                Series("smallest Gram eigenvalue", values, med_eig, dashed=True)),
        x_label="feature count m", y_label="",
    ), out / "mnist_minnorm.svg")
    print(f"wrote MNIST tables under {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rfflow", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="K=V", help="override one config key")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default=".", help="output directory (default: .)")

    p_run = sub.add_parser("run", help="single trajectory experiment")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep feature counts or gamma values")
    common(p_sweep)
    p_sweep.add_argument("--m-list", help="comma-separated feature counts")
    p_sweep.add_argument("--gamma-list", help="comma-separated m/n ratios")
    p_sweep.add_argument("--seeds", default="0,1,2,3,4")
    p_sweep.add_argument("--translate", action="store_true",
                         help="shift curves to a common minimum in the plot")
    p_sweep.set_defaults(func=cmd_sweep)

    p_spec = sub.add_parser("spectra", help="gram vs kernel-matrix vs analytic spectra")
    common(p_spec)
    p_spec.add_argument("--gamma", type=float, default=1.0)
    p_spec.set_defaults(func=cmd_spectra)

    p_mp = sub.add_parser("mp", help="smallest-eigenvalue sweep and MP calibration")
    common(p_mp)
    p_mp.add_argument("--gamma-list", default="0.5,0.7,0.85,1.0,1.2,1.5,2.0")
    p_mp.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    p_mp.add_argument("--fit-window", default="0.8,1.25",
                      help="gamma window for the calibration fit")
    p_mp.set_defaults(func=cmd_mp)

    p_mn = sub.add_parser("mnist", help="two-class MNIST double-descent pipeline")
    common(p_mn)
    p_mn.add_argument("--images")
    p_mn.add_argument("--labels")
    p_mn.add_argument("--test-images")
    p_mn.add_argument("--test-labels")
    p_mn.add_argument("--m-list")
    p_mn.add_argument("--seeds", default="0")
    p_mn.set_defaults(func=cmd_mnist)

    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        _parse_flags(args)
    except (KeyError, ValueError) as exc:  # a bad flag or config value, not a failed run
        return _usage_error(args, exc.args[0])
    Path(args.out).mkdir(parents=True, exist_ok=True)
    return args.func(args, cfg)


if __name__ == "__main__":
    raise SystemExit(main())
