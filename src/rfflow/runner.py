"""Seeded experiment runner: single runs, sweeps, and CSV persistence.

Randomness is split into fixed named streams derived from the config seed
(data, features, test set, measurement set), so any cell of a sweep is a
pure function of (config, seed) regardless of grid layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import features as feat_mod
from . import flow as flow_mod
from .config import ExperimentConfig

# rng stream tags: data, features, test points, measurement points
_STREAM_DATA, _STREAM_FEATS, _STREAM_TEST, _STREAM_MC = 1, 2, 3, 4
# sizes of the test set and of the assumption report's Monte-Carlo set
TEST_COUNT = 2000
ASSUMPTION_POINTS = 2000
# confidence of the rough bound's Hoeffding terms
DELTA = 0.1
# a sweep's fixed gradient-descent iteration budgets T
ITERATION_BUDGETS = (1e4, 1e5, 1e6, 1e8)

CSV_HEADER = "time,train_error,test_error,param_norm,model_norm,bound_rough,bound_finer"


def feature_norm_sq(d: int, kind: str) -> float:
    """Exact E_b ||phi(.;b)||^2 for b and x uniform on their spheres.

    E (b.x)^2 = 1/d and the ReLU keeps half of it by symmetry (Cho & Saul's
    arc-cosine moments); the indicator is 1 on half the sphere; the affine
    kind has b on S^d and (x, 1) of squared norm 2, so (1/2) 2/(d+1).
    """
    if kind == "relu":
        return 1.0 / (2 * d)
    if kind == "indicator":
        return 0.5
    if kind == "affine-relu":
        return 1.0 / (d + 1)
    raise ValueError(f"unknown feature kind {kind!r}")


def target_norm(cfg: ExperimentConfig) -> float:
    """||f*|| under the sphere: the target is unit-norm by construction."""
    return 1.0


def sup_bound(cfg: ExperimentConfig) -> float:
    """Exact sup-norm bound M for the feature map and target on the sphere."""
    feat_sup = math.sqrt(2.0) if cfg.feature_kind == "affine-relu" else 1.0
    return max(feat_sup, feat_mod.target_normaliser(cfg.d, cfg.target_order))


@dataclass(frozen=True)
class CellSummary:
    """What a sweep table holds of one cell."""

    min_norm_test_error: float
    # the Gram eigenvalues are s_i^2/(nm); s has min(n, m) entries, and below
    # rank min(n, m) the smallest is exactly 0
    smallest_gram_eigenvalue: float
    budget_errors: dict              # T -> (flow time, test error), ascending T


@dataclass
class RunRecord:
    """All artifacts of one experiment cell."""

    trajectory: flow_mod.Trajectory
    bound_rough: np.ndarray
    bound_finer: np.ndarray          # stated form; nan when hypothesis fails
    assumption: Optional[bounds_mod.AssumptionReport]
    summary: CellSummary
    metadata: dict


def m_for_gamma(gamma: float, n: int) -> int:
    """Feature count of the aspect ratio gamma = m/n: round(gamma n), at least 1."""
    return max(1, int(round(gamma * n)))


def seed_draw(cfg: ExperimentConfig, m: int,
              train: Optional[feat_mod.Dataset] = None) -> tuple:
    """The config seed's n training points, drawn from their stream unless
    given, and its m feature directions.  The m-direction draw is the first
    m rows of any larger draw, so one draw at a seed's largest m serves all.
    """
    if train is None:
        train = feat_mod.sample_dataset([cfg.seed, _STREAM_DATA], cfg.n, cfg.d,
                                        feat_mod.TargetSpec(order=cfg.target_order))
    feats = feat_mod.sample_features([cfg.seed, _STREAM_FEATS], train.points.shape[1],
                                     m, cfg.feature_kind)
    return train, feats


def _draws(cfg: ExperimentConfig, m: int) -> tuple:
    """A cell's (train, test, feats, mc_points), each drawn from its stream
    of the config seed, with m feature directions."""
    target = feat_mod.TargetSpec(order=cfg.target_order)
    test = feat_mod.sample_dataset([cfg.seed, _STREAM_TEST], TEST_COUNT, cfg.d, target)
    mc_points = feat_mod.sample_dataset([cfg.seed, _STREAM_MC], ASSUMPTION_POINTS,
                                        cfg.d, target)
    train, feats = seed_draw(cfg, m)
    return train, test, feats, mc_points


def _fit(cfg: ExperimentConfig, train: feat_mod.Dataset, feats: feat_mod.FeatureSet,
         train_features: Optional[np.ndarray] = None) -> tuple:
    """The prologue of every cell: its m directions (the first m rows of the
    seed's draw ``feats``), the decomposed training features, the learning
    rate eta = 1/(largest Gram eigenvalue) and the smallest Gram eigenvalue,
    as (feats, dec, eta, smallest).  The smallest is s_min^2/(nm), or exactly
    0 when the rank is below min(n, m): s_min is then a zero singular value's
    rounding (1e-39 to 1e-33 on small MNIST cells), not data; the smallest
    *positive* value s[rank - 1]^2/(nm) is another quantity.
    ``train_features``, the values of all of ``feats`` at the training
    points, is evaluated here unless given; a sweep passes one evaluation at
    its largest m, of which the cell decomposes the first m columns."""
    m, n = cfg.m, train.count
    if feats.count < m:
        raise ValueError(f"{feats.count} feature directions given for m = {m}")
    if train_features is not None and train_features.shape != (n, feats.count):
        raise ValueError(f"training features of shape {train_features.shape} given, "
                         f"expected {(n, feats.count)}")
    if feats.count > m:
        feats = feat_mod.FeatureSet(directions=feats.directions[:m], kind=feats.kind)
    if train_features is None:
        train_features = feat_mod.build_feature_matrix(train, feats)

    dec = flow_mod.decompose(train_features[:, :m])
    s = dec.singular_values
    if s[0] == 0.0:
        raise ValueError(f"no feature is active on any training point "
                         f"(n = {n}, m = {m}, seed = {cfg.seed})")
    # under the flow's 1/(mn) rate convention one discrete step at learning
    # rate eta advances flow time by eta
    eta = 1.0 / float(s[0] ** 2 / (n * m))
    smallest = float(s[-1] ** 2 / (n * m)) if dec.rank == s.size else 0.0
    return feats, dec, eta, smallest


def _budget_times(eta: float, iteration_budgets: Sequence[float]) -> tuple[list, list]:
    """The ascending budgets T and their flow times eta T."""
    budgets = sorted(float(T) for T in iteration_budgets)
    return budgets, [eta * T for T in budgets]


def run_experiment(cfg: ExperimentConfig,
                   iteration_budgets: Sequence[float] = (),
                   draws: Optional[tuple] = None) -> RunRecord:
    """Build, decompose, and evaluate one experiment cell on the sphere.

    ``draws`` is the cell's (train, test, feats, mc_points), drawn here by
    ``_draws(cfg, cfg.m)`` unless given.  A sweep passes each of its cells
    one seed's draws at its largest m: ``feats`` then holds more than m
    directions, and its first m rows are exactly the m-row draw of the same
    stream.
    """
    m = cfg.m
    train, test, feats, mc_points = _draws(cfg, m) if draws is None else draws
    feats, dec, eta, smallest_gram = _fit(cfg, train, feats)
    n = train.count
    y = train.targets

    times = cfg.time_grid()
    trajectory = flow_mod.errors_on_grid(dec, y, feats, test, times)

    budget_errors = {}
    if iteration_budgets:
        budgets, budget_times = _budget_times(eta, iteration_budgets)
        at_budgets = flow_mod.errors_on_grid(dec, y, feats, test, budget_times)
        budget_errors = dict(zip(budgets, zip(at_budgets.time.tolist(),
                                              at_budgets.test_error.tolist())))

    # bound constants
    f_norm = target_norm(cfg)
    feat_sq = feature_norm_sq(cfg.d, cfg.feature_kind)
    m_sup = sup_bound(cfg)

    # M > 0 here (s_max > 0), so the t = inf row is inf
    bound_rough = bounds_mod.norm_bound_rough(times, n, m, m_sup, DELTA, f_norm, feat_sq)

    assumption = None
    hypothesis_ok = False
    bound_finer = np.full(len(times), np.nan)
    try:
        assumption = bounds_mod.measure_assumptions(dec, y, feats, mc_points)
        lh = dec.scaled_values
        for j, t in enumerate(times):
            bound_finer[j] = bounds_mod.finer_bound(
                t, assumption.c_measured, assumption.m_kernel, lh, n)
        hypothesis_ok = True
    except bounds_mod.HypothesisError:
        pass  # bounds stay nan, flagged by finer_bound_hypothesis_ok below

    summary = CellSummary(min_norm_test_error=float(trajectory.test_error[-1]),
                          smallest_gram_eigenvalue=smallest_gram, budget_errors=budget_errors)
    metadata = {
        "config_hash": cfg.digest(),
        "target": f"zonal-harmonic:{cfg.target_order}",
        "rank_threshold": flow_mod.RANK_THRESHOLD,
        "eta": eta,
        "f_norm": f_norm,
        "feature_norm_sq": feat_sq,
        "sup_bound": m_sup,
        "finer_bound_hypothesis_ok": hypothesis_ok,
    }
    return RunRecord(
        trajectory=trajectory,
        bound_rough=bound_rough,
        bound_finer=bound_finer,
        assumption=assumption,
        summary=summary,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _check_grid(values: list, seeds: Sequence[int]) -> None:
    if not values:
        raise ValueError("empty sweep axis")
    if len(set(values)) < len(values) or len(set(seeds)) < len(seeds):
        raise ValueError("sweep axis values and seeds must be distinct")


def run_sweep(base: ExperimentConfig, seeds: Sequence[int], m_values: Sequence[int]) -> dict:
    """(m, seed) -> RunRecord of every cell at ``ITERATION_BUDGETS``,
    value-major; any cell failure aborts with its id.

    Cells run one seed at a time.  A seed's datasets and its feature
    directions, drawn once at the seed's largest m, serve all of its cells;
    each cell is identical to a ``run_experiment`` call that draws its own.
    """
    values = list(m_values)
    _check_grid(values, seeds)
    records = {}
    for seed in seeds:
        draws = _draws(replace(base, seed=seed), max(values))
        for m in values:
            try:
                records[(m, seed)] = run_experiment(replace(base, seed=seed, m=m),
                                                    ITERATION_BUDGETS, draws)
            except Exception as exc:
                raise RuntimeError(f"sweep cell m={m} seed={seed} failed: {exc}") from exc
        del draws   # free this seed's draws before the next seed's are made

    return {(m, seed): records[(m, seed)] for m in values for seed in seeds}


def sweep_tables(base: ExperimentConfig, train: feat_mod.Dataset, test: feat_mod.Dataset,
                 m_values: Sequence[int], seeds: Sequence[int]) -> dict:
    """(m, seed) -> CellSummary over a labelled train/test pair, value-major.

    Each cell makes one grid call, at the times of ``ITERATION_BUDGETS`` and
    t = inf; no trajectory, bound or assumption report is computed.  A
    seed's feature directions are drawn once, at the largest m, and the test
    and training sets are each featurized once per seed over all of them: a
    cell reads the first m columns of both, views.  That holds
    (N_test + n) x max m doubles per seed.  Any cell failure aborts with its
    id.
    """
    values = list(m_values)
    _check_grid(values, seeds)
    tables = {}
    for seed in seeds:
        _, feats = seed_draw(replace(base, seed=seed), max(values), train)
        test_features = feat_mod.feature_values(feats, test.points)
        train_features = feat_mod.feature_values(feats, train.points)
        for m in values:
            try:
                cell_feats, dec, eta, smallest = _fit(replace(base, seed=seed, m=m),
                                                      train, feats, train_features)
                budgets, budget_times = _budget_times(eta, ITERATION_BUDGETS)
                traj = flow_mod.errors_on_grid(dec, train.targets, cell_feats, test,
                                               budget_times + [math.inf],
                                               test_features[:, :m])
            except Exception as exc:
                raise RuntimeError(f"sweep cell m={m} seed={seed} failed: {exc}") from exc
            tables[(m, seed)] = CellSummary(
                min_norm_test_error=float(traj.test_error[-1]),
                smallest_gram_eigenvalue=smallest,
                budget_errors=dict(zip(budgets, zip(traj.time[:-1].tolist(),
                                                    traj.test_error[:-1].tolist()))))
        del test_features, train_features   # free this seed's before the next seed's
    return {(m, seed): tables[(m, seed)] for m in values for seed in seeds}


def translate_curves(curves: Sequence[np.ndarray]) -> tuple[list[np.ndarray], list[float]]:
    """Shift curves along the error axis so every minimum matches the lowest one.

    Returns the shifted curves and the applied shifts (additive only).
    """
    curves = [np.asarray(c, dtype=float) for c in curves]
    if any(c.size == 0 for c in curves):
        raise ValueError("empty curve")
    minima = [float(np.min(c[np.isfinite(c)])) for c in curves]
    target = min(minima)
    shifts = [target - m for m in minima]
    return [c + s for c, s in zip(curves, shifts)], shifts


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    # an integer (seed, rank, feature count) exactly, a float in 17 digits
    return str(v) if isinstance(v, (int, np.integer)) else f"{v:.17g}"


def write_csv(path, header: str, rows, comments: Sequence[str] = ()) -> None:
    """The one table writer: '# ' comment lines, the header, then one line per
    row; every number re-parses to the value written."""
    lines = [f"# {line}" for line in comments]
    lines.append(header)
    lines.extend(",".join(map(_cell, row)) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_csv(record: RunRecord, path) -> None:
    """Trajectory CSV: '# key = value' metadata lines, header, then rows."""
    traj = record.trajectory
    write_csv(path, CSV_HEADER,
              zip(traj.time, traj.train_error, traj.test_error, traj.param_norm,
                  traj.model_norm, record.bound_rough, record.bound_finer),
              [f"{key} = {record.metadata[key]}" for key in sorted(record.metadata)])


def emit_sweep_csv(axis: str, summaries: dict, path) -> None:
    """Min-norm / smallest-eigenvalue table of a sweep, one row per
    (axis value, seed) -> CellSummary entry."""
    write_csv(path, f"{axis},seed,min_norm_test_error,smallest_gram_eigenvalue",
              ((value, seed, cell.min_norm_test_error, cell.smallest_gram_eigenvalue)
               for (value, seed), cell in summaries.items()))


def emit_budget_csv(axis: str, summaries: dict, path) -> None:
    """Fixed-iteration-budget test errors of a sweep."""
    write_csv(path, f"{axis},seed,iterations,flow_time,test_error",
              ((value, seed, T, t_flow, err)
               for (value, seed), cell in summaries.items()
               for T, (t_flow, err) in cell.budget_errors.items()))
