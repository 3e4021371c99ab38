"""Command-line experiment driver.

Verbs: run, sweep, spectra, mp, mnist.  Every verb accepts --config PATH
(flat key = value file), repeated --set key=value overrides and --out DIR
(default: the current directory); run, spectra and mnist also take --seed N
(sweep and mp take --seeds).  --set may name only the keys the verb reads;
the keys of a --config file are not checked, as one file may serve several
verbs.  Cells run one after another.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

# Each verb imports the rfflow modules it uses when it runs: tests patch
# runner.run_experiment, runner.seed_draw and runner.sweep_tables, which a
# verb must look up at call time, and loading random_matrix, kernel_analytic
# and idx for every verb would add 6-12 ms (python -X importtime) to each start-up.


def _build_config(args):
    from .config import ExperimentConfig, apply_overrides, load_config, split_key_value

    # a key the verb does not read is reported before any value is parsed;
    # a name that is no config key is left to apply_overrides
    config_keys = {f.name for f in fields(ExperimentConfig)}
    for pair in args.set:
        key, _ = split_key_value(pair, "--set")
        if key in config_keys and key not in args.keys:
            raise ValueError(f"{args.verb} does not read config key {key!r}; "
                             f"it reads {', '.join(args.keys)}")
    cfg = ExperimentConfig()
    if args.config:
        cfg = load_config(args.config, cfg)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _usage_error(args, message: str) -> int:
    print(f"rfflow {args.verb}: error: {message}", file=sys.stderr)
    return 2


class _ParserError(Exception):
    """argparse's complaint about the command line: (prog, message)."""


class _Parser(argparse.ArgumentParser):
    """Raises _ParserError where argparse would print a usage block and exit.

    Long flags are never abbreviated: ``mp --gamma 2`` is an unknown flag, not
    ``--gamma-list 2``.  The verbs' subparsers are _Parsers too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _ParserError(self.prog, message)


def _numbers(cast, each, rule, many=True):
    """An argparse type: distinct comma-separated values, or one value if not
    `many`, each cast and passing `each`; argparse reports any other text as
    'argument FLAG: must be RULE, got TEXT'.  String defaults pass through it too."""
    def parse(text):
        try:
            values = [cast(tok) for tok in (text.split(",") if many else [text])]
        except ValueError:
            values = []
        if not (values and len(set(values)) == len(values) and all(map(each, values))):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return values if many else values[0]
    return parse


M_LIST = _numbers(int, lambda v: v >= 1, "distinct comma-separated integers >= 1")
GAMMA_LIST = _numbers(float, lambda v: 0.0 < v < math.inf,
                      "distinct comma-separated positive numbers")
SEEDS = _numbers(int, lambda v: v >= 0, "distinct comma-separated integers >= 0")
GAMMA = _numbers(float, lambda v: 0.0 < v < math.inf, "a positive number", many=False)


def _out_dir(args) -> Path:
    """The --out directory, made just before a verb's first write: a verb
    that fails on its inputs or in its run leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _trajectory_svg(record, path):
    from .svgplot import PlotSpec, Series, emit_svg

    traj = record.trajectory
    fin = np.isfinite(traj.time)
    t = traj.time[fin]
    train = traj.train_error[fin]
    keep = train >= np.finfo(float).eps * train[0]  # below is rounding noise
    emit_svg(PlotSpec(
        title=f"gradient-flow trajectory (config {record.metadata['config_hash']})",
        series=(
            Series("train error", t[keep], train[keep]),
            Series("test error", t, traj.test_error[fin]),
            Series("parameter norm", t, traj.param_norm[fin]),
            Series("model norm", t, traj.model_norm[fin]),
            Series("sqrt-t norm bound", t, record.bound_rough[fin], dashed=True),
        ),
        x_label="flow time t",
    ), path)


def cmd_run(args, cfg) -> int:
    from .runner import emit_csv, run_experiment

    record = run_experiment(cfg)
    out = _out_dir(args)
    csv_path = out / f"run_{record.metadata['config_hash']}.csv"
    emit_csv(record, csv_path)
    _trajectory_svg(record, out / f"run_{record.metadata['config_hash']}.svg")
    traj = record.trajectory
    best = np.argmin(traj.test_error[np.isfinite(traj.time)])  # inf can only be last
    print(f"wrote {csv_path}")
    print(f"min test error {traj.test_error[best]:.6g} at t={traj.time[best]:.6g}; "
          f"min-norm test error {record.summary.min_norm_test_error:.6g}")
    return 0


def cmd_sweep(args, cfg) -> int:
    """Sweep over --m-list, or over --gamma-list at m = m_for_gamma(gamma, n).

    The runner takes feature counts: the distinct counts run once each, in
    the list's order, and every (value, seed) row reads its count's cell, so
    two gamma values that round to one count share that cell.
    """
    from .runner import (emit_budget_csv, emit_sweep_csv, m_for_gamma, run_sweep,
                         translate_curves)
    from .svgplot import PlotSpec, Series, emit_svg

    seeds = args.seeds
    if args.m_list:
        axis, values, counts = "m", args.m_list, args.m_list
    else:
        axis, values = "gamma", args.gamma_list
        counts = [m_for_gamma(g, cfg.n) for g in values]
    by_m = run_sweep(cfg, seeds, list(dict.fromkeys(counts)))
    records = {(v, seed): by_m[(m, seed)] for v, m in zip(values, counts) for seed in seeds}
    summaries = {key: rec.summary for key, rec in records.items()}
    out = _out_dir(args)
    emit_sweep_csv(axis, summaries, out / f"sweep_{axis}_minnorm.csv")
    emit_budget_csv(axis, summaries, out / f"sweep_{axis}_budgets.csv")

    values = sorted(values)
    time = records[(values[0], seeds[0])].trajectory.time  # every cell's grid
    fin = np.isfinite(time)
    curves = [records[(v, seeds[0])].trajectory.test_error[fin] for v in values]
    if args.translate:
        curves, _ = translate_curves(curves)
    series = tuple(Series(f"{axis}={v:g}", time[fin], c) for v, c in zip(values, curves))
    emit_svg(PlotSpec(title=f"test error curves over {axis}",
                      series=series, x_label="flow time t"),
             out / f"sweep_{axis}_curves.svg")
    print(f"wrote sweep tables under {out}")
    return 0


def cmd_spectra(args, cfg) -> int:
    from . import kernel_analytic as ka
    from . import random_matrix as rm
    from .runner import m_for_gamma, seed_draw, write_csv
    from .svgplot import PlotSpec, Series, emit_svg

    if cfg.d < 3:  # no Gegenbauer weights (1-t^2)^((d-3)/2) or multiplicities N(d, n)
        return _usage_error(args, f"d must be >= 3 for spectra, got {cfg.d}")
    n, d, m = cfg.n, cfg.d, m_for_gamma(args.gamma, cfg.n)
    data, feats = seed_draw(cfg, m)

    gram_ev = rm.symmetric_eigenvalues(rm.gram_matrix(data.points, feats))
    kernel_ev = rm.symmetric_eigenvalues(rm.kernel_matrix(data.points, cfg.feature_kind))

    analytic = ka.analytic_spectrum(d, cfg.feature_kind, n)

    out = _out_dir(args)
    path = out / f"spectra_gamma{args.gamma:g}.csv"
    ranks = np.arange(1, n + 1)
    write_csv(path, "rank,gram,kernel_matrix,analytic", zip(ranks, gram_ev, kernel_ev, analytic))
    emit_svg(PlotSpec(
        title=f"spectra at gamma={args.gamma:g} (n={n}, d={d})",
        series=(
            # the Gram matrix has rank min(n, m); the ranks past it are round-off
            Series("gram", ranks[:m], gram_ev[:m]),
            Series("kernel matrix", ranks, kernel_ev),
            Series("analytic (Funk-Hecke)", ranks, analytic, dashed=True),
        ),
        x_label="rank", y_label="eigenvalue",
    ), out / f"spectra_gamma{args.gamma:g}.svg")
    top = min(10, m, n)  # as in the SVG, Gram ranks past m are round-off
    top_rel_diff = np.abs(gram_ev[:top] - kernel_ev[:top]) / np.abs(kernel_ev[:top])
    print(f"wrote {path}; top-{top} gram vs kernel rel diff: {np.max(top_rel_diff):.4f}")
    return 0


# window of m/n around the m = n resonance for mp's calibration fit; mp's
# fit, prediction and plot read each row's m/n, and gamma only labels the row
FIT_WINDOW = (0.8, 1.25)


def cmd_mp(args, cfg) -> int:
    from . import random_matrix as rm
    from .runner import m_for_gamma, seed_draw, write_csv
    from .svgplot import PlotSpec, Series, emit_svg

    n, d = cfg.n, cfg.d
    if d < 3:  # every smallest Gram eigenvalue is round-off: the calibration fails
        return _usage_error(args, f"d must be >= 3 for mp, got {d}")
    m_values = [m_for_gamma(g, n) for g in args.gamma_list]
    if all(m == n for m in m_values):
        return _usage_error(args, f"--gamma-list must hold a gamma other than 1: every gamma "
                                  f"gives m = n = {n}, where the calibration shape vanishes")

    # one pass per seed: its draw at the largest m serves every gamma
    per_seed = []
    for seed in args.seeds:
        data, feats = seed_draw(replace(cfg, seed=seed), max(m_values))
        per_seed.append(rm.smallest_gram_eigenvalue(data.points, feats, m_values))
    per_m = np.array(per_seed).T
    mean_v = np.array([np.mean(vals) for vals in per_m])
    median_v = np.array([np.median(vals) for vals in per_m])

    ratio = np.array(m_values) / n
    off = np.array(m_values) != n
    fit_lo, fit_hi = FIT_WINDOW
    fit = off & (fit_lo <= ratio) & (ratio <= fit_hi)
    if not fit.any():  # window missed the grid: fall back to all off-resonance cells
        fit = off
    c, resid = rm.calibrate_c(list(zip(ratio[fit], mean_v[fit])))
    pred_v = c * rm.mp_shape(ratio)

    out = _out_dir(args)
    path = out / "mp_smallest.csv"
    write_csv(path, "gamma,mean_smallest,median_smallest,mp_prediction",
              zip(args.gamma_list, mean_v, median_v, pred_v))
    emit_svg(PlotSpec(
        title=f"smallest Gram eigenvalue vs gamma (n={n}, d={d}, c={c:.3e})",
        series=(Series("measured mean", ratio, mean_v),
                Series("MP prediction", ratio, pred_v, dashed=True)),
        log_x=False, x_label="gamma = m/n", y_label="smallest eigenvalue",
    ), out / "mp_smallest.svg")
    print(f"wrote {path}; calibration c={c:.6e} (rms residual {resid:.3e})")
    return 0


def cmd_mnist(args, cfg) -> int:
    from .idx import load_idx
    from .runner import emit_budget_csv, emit_sweep_csv, m_for_gamma, sweep_tables
    from .svgplot import PlotSpec, Series, emit_svg

    try:
        train = load_idx(args.images, args.labels, classes=(0, 1), subsample=cfg.n,
                         seed=cfg.seed)
        test = load_idx(args.test_images, args.test_labels, classes=(0, 1))
    except (OSError, ValueError) as exc:  # missing, unreadable or too small inputs
        return _usage_error(args, str(exc))

    if args.m_list:
        m_values = args.m_list
    else:
        m_values = sorted({m_for_gamma(g, cfg.n)
                           for g in (0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.2,
                                     1.5, 2.0, 3.0)})
    tables = sweep_tables(cfg, train, test, m_values, args.seeds)
    out = _out_dir(args)
    emit_sweep_csv("m", tables, out / "mnist_minnorm.csv")
    emit_budget_csv("m", tables, out / "mnist_budgets.csv")

    values = np.array(m_values, dtype=float)
    med_err, med_eig = (
        np.array([np.median([getattr(tables[(v, seed)], key) for seed in args.seeds])
                  for v in m_values])
        for key in ("min_norm_test_error", "smallest_gram_eigenvalue"))
    emit_svg(PlotSpec(
        title=f"MNIST double descent (n={cfg.n})",
        series=(Series("min-norm test error", values, med_err),
                Series("smallest Gram eigenvalue", values, med_eig, dashed=True)),
        x_label="feature count m", y_label="",
    ), out / "mnist_minnorm.svg")
    print(f"wrote MNIST tables under {out}")
    return 0


def main(argv=None) -> int:
    from .config import ExperimentConfig

    every_key = tuple(f.name for f in fields(ExperimentConfig))
    parser = _Parser(prog="rfflow", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="K=V", help="override one config key")
        if seed:  # sweep and mp run every --seeds entry instead
            p.add_argument("--seed", type=int)
        p.add_argument("--out", default=".", help="output directory (default: .)")

    p_run = sub.add_parser("run", help="single trajectory experiment")
    common(p_run)
    p_run.set_defaults(func=cmd_run, keys=every_key)

    p_sweep = sub.add_parser("sweep", help="sweep feature counts or gamma values")
    common(p_sweep, seed=False)
    axis = p_sweep.add_mutually_exclusive_group(required=True)
    axis.add_argument("--m-list", type=M_LIST, help="comma-separated feature counts")
    axis.add_argument("--gamma-list", type=GAMMA_LIST, help="comma-separated m/n ratios")
    p_sweep.add_argument("--seeds", type=SEEDS, default="0,1,2,3,4")
    p_sweep.add_argument("--translate", action="store_true",
                         help="shift curves to a common minimum in the plot")
    p_sweep.set_defaults(func=cmd_sweep,
                         keys=tuple(k for k in every_key if k not in ("seed", "m")))

    p_spec = sub.add_parser("spectra", help="gram vs kernel-matrix vs analytic spectra")
    common(p_spec)
    p_spec.add_argument("--gamma", type=GAMMA, default=1.0)
    p_spec.set_defaults(func=cmd_spectra, keys=("seed", "n", "d", "feature_kind"))

    p_mp = sub.add_parser("mp", help="smallest-eigenvalue sweep and MP calibration")
    common(p_mp, seed=False)
    p_mp.add_argument("--gamma-list", type=GAMMA_LIST, default="0.5,0.7,0.85,1.0,1.2,1.5,2.0")
    p_mp.add_argument("--seeds", type=SEEDS, default="0,1,2,3,4,5,6,7,8,9")
    p_mp.set_defaults(func=cmd_mp, keys=("n", "d", "feature_kind"))

    p_mn = sub.add_parser("mnist", help="two-class MNIST double-descent pipeline")
    common(p_mn)
    for flag in ("--images", "--labels", "--test-images", "--test-labels"):
        p_mn.add_argument(flag, required=True)
    p_mn.add_argument("--m-list", type=M_LIST)
    p_mn.add_argument("--seeds", type=SEEDS, default="0")
    p_mn.set_defaults(func=cmd_mnist, keys=("seed", "n", "feature_kind"))

    try:
        args, unknown = parser.parse_known_args(argv)
    except _ParserError as exc:  # a malformed or missing flag, or a missing verb
        prog, message = exc.args
        print(f"{prog}: error: {message}", file=sys.stderr)
        return 2
    if unknown:
        return _usage_error(args, f"unrecognized arguments: {' '.join(unknown)}")
    try:
        cfg = _build_config(args)
    except (KeyError, ValueError) as exc:  # a bad config value, not a failed run
        return _usage_error(args, exc.args[0])
    # a file at --out or at one of its parents would fail mkdir after the run
    existing = next(p for p in (Path(args.out), *Path(args.out).parents) if os.path.lexists(p))
    if not existing.is_dir():
        return _usage_error(args, f"--out {args.out}: {existing} is not a directory")
    return args.func(args, cfg)


if __name__ == "__main__":
    raise SystemExit(main())
