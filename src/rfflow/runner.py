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

CSV_HEADER = "time,train_error,test_error,param_norm,bound_rough,bound_finer"


def target_spec_for(cfg: ExperimentConfig) -> feat_mod.TargetSpec:
    if cfg.target_kind == "constant-harmonic":
        return feat_mod.TargetSpec(kind="constant-harmonic", normalization=1.0)
    if cfg.target_kind == "legendre":
        axis = np.zeros(cfg.d)
        axis[0] = 1.0
        return feat_mod.legendre_target(cfg.d, cfg.target_order, axis)
    raise ValueError(f"target kind {cfg.target_kind!r} needs external data")


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
    """||f*|| under the sphere: both synthetic targets are unit-norm by construction."""
    return 1.0


def sup_bound(cfg: ExperimentConfig) -> float:
    """Exact sup-norm bound M for the feature map and target on the sphere."""
    feat_sup = math.sqrt(2.0) if cfg.feature_kind == "affine-relu" else 1.0
    if cfg.target_kind == "constant-harmonic":
        target_sup = 1.0
    elif cfg.target_kind == "legendre":
        # |P_n| <= 1 on [-1, 1], so the normaliser is the sup
        target_sup = target_spec_for(cfg).normalization
    else:
        raise ValueError("external targets need a measured sup")
    return max(feat_sup, target_sup)


@dataclass
class RunRecord:
    """All artifacts of one experiment cell."""

    config: ExperimentConfig
    snapshots: list
    bound_rough: np.ndarray
    bound_finer: np.ndarray          # stated form; nan when hypothesis fails
    bound_finer_proof: np.ndarray
    assumption: Optional[bounds_mod.AssumptionReport]
    summary: dict
    metadata: dict
    budget_errors: dict              # T -> (flow time, test error)


def run_experiment(cfg: ExperimentConfig,
                   iteration_budgets: Sequence[float] = (),
                   train: Optional[feat_mod.Dataset] = None,
                   test: Optional[feat_mod.Dataset] = None) -> RunRecord:
    """Build, decompose, and evaluate one experiment cell.

    Synthetic cells sample sphere data and targets from the config; external
    cells (MNIST) pass pre-built train/test datasets and use their labels.
    """
    m = cfg.resolve_m()
    external = train is not None
    if external:
        if test is None:
            raise ValueError("external runs need a test dataset")
        d = train.points.shape[1]
        feats = feat_mod.sample_features([cfg.seed, _STREAM_FEATS], d, m,
                                         cfg.feature_kind)
    else:
        d = cfg.d
        target = target_spec_for(cfg)
        train = feat_mod.sample_dataset([cfg.seed, _STREAM_DATA], cfg.n, d, target)
        test = feat_mod.sample_dataset([cfg.seed, _STREAM_TEST], cfg.test_count,
                                       d, target)
        feats = feat_mod.sample_features([cfg.seed, _STREAM_FEATS], d, m,
                                         cfg.feature_kind)

    n = train.count
    phi = feat_mod.build_feature_matrix(train, feats)
    dec = flow_mod.decompose(phi)
    y = train.targets

    times = cfg.time_grid()
    snapshots = flow_mod.errors_on_grid(dec, y, feats, test, times)

    # learning rate; under the flow's 1/(mn) rate convention one discrete
    # step at learning rate eta advances flow time by eta
    top_gram = float(dec.singular_values[0] ** 2 / (n * m))
    eta = 1.0 / top_gram if cfg.eta == "auto" else float(cfg.eta)

    budget_errors = {}
    if iteration_budgets:
        budget_times = sorted(eta * float(T) for T in iteration_budgets)
        snaps = flow_mod.errors_on_grid(dec, y, feats, test, budget_times)
        for T, snap in zip(sorted(float(T) for T in iteration_budgets), snaps):
            budget_errors[T] = (snap.time, snap.test_error)

    # bound constants
    if external:
        f_norm = float(np.sqrt(np.mean(test.targets ** 2)))
        feat_sq = float(np.einsum("ij,ij->", phi, phi) / phi.size)
        m_sup = bounds_mod.sup_norm(phi, test.targets)
    else:
        f_norm = target_norm(cfg)
        feat_sq = feature_norm_sq(d, cfg.feature_kind)
        m_sup = sup_bound(cfg)

    bound_rough = np.array([
        bounds_mod.norm_bound_rough(t, n, m, m_sup, cfg.delta, f_norm, feat_sq)
        if not math.isinf(t) else math.inf
        for t in times
    ])

    assumption = None
    hypothesis_ok = False
    bound_finer = np.full(len(times), np.nan)
    bound_finer_proof = np.full(len(times), np.nan)
    if external:
        mc_points = test
    else:
        mc_points = feat_mod.sample_dataset([cfg.seed, _STREAM_MC],
                                            cfg.assumption_points, d, target)
    try:
        assumption = bounds_mod.measure_assumptions(dec, y, feats, mc_points, cfg.delta)
        lh = dec.scaled_values
        for j, t in enumerate(times):
            stated, proof = bounds_mod.finer_bound(
                t, assumption.c_measured, assumption.m_kernel,
                float(lh[0]), lh, n)
            bound_finer[j] = stated
            bound_finer_proof[j] = proof
        hypothesis_ok = True
    except bounds_mod.HypothesisError:
        pass  # bounds stay nan, flagged by finer_bound_hypothesis_ok below

    summary = {
        "top_gram_eigenvalue": top_gram,
        # the Gram eigenvalues are s_i^2/(nm); s has min(n, m) entries
        "smallest_gram_eigenvalue": float(dec.singular_values[-1] ** 2 / (n * m)),
        "min_norm_test_error": snapshots[-1].test_error,
        "concentration_index": assumption.concentration_index if assumption else None,
    }
    metadata = {
        "config_hash": cfg.digest(),
        "target": f"{cfg.target_kind}:{cfg.target_order}" if not external else "external-labels",
        "rank_threshold": flow_mod.RANK_THRESHOLD,
        "eta": eta,
        "flow_time_per_iteration": eta,
        "f_norm": f_norm,
        "feature_norm_sq": feat_sq,
        "sup_bound": m_sup,
        "finer_bound_hypothesis_ok": hypothesis_ok,
    }
    return RunRecord(
        config=cfg,
        snapshots=snapshots,
        bound_rough=bound_rough,
        bound_finer=bound_finer,
        bound_finer_proof=bound_finer_proof,
        assumption=assumption,
        summary=summary,
        metadata=metadata,
        budget_errors=budget_errors,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """RunRecords of a sweep keyed by (axis value, seed), plus derived tables."""

    axis: str                      # "m" | "gamma"
    records: dict
    min_norm_table: list           # rows (value, seed, min-norm error, smallest eig)
    budget_table: list             # rows (value, seed, T, flow t, test error)


def run_sweep(base: ExperimentConfig,
              m_values: Optional[Sequence] = None,
              gamma_values: Optional[Sequence[float]] = None,
              seeds: Sequence[int] = (0, 1, 2, 3, 4),
              iteration_budgets: Sequence[float] = (1e4, 1e5, 1e6, 1e8),
              train: Optional[feat_mod.Dataset] = None,
              test: Optional[feat_mod.Dataset] = None) -> SweepResult:
    """Run every (axis value, seed) cell in order; any cell failure aborts with its id."""
    if (m_values is None) == (gamma_values is None):
        raise ValueError("exactly one of m_values / gamma_values must be given")
    if m_values is not None:
        axis, values = "m", list(m_values)
        cell_m = {v: v for v in values}
    else:
        axis, values = "gamma", list(gamma_values)
        cell_m = {g: max(1, int(round(g * base.n))) for g in values}
    if not values:
        raise ValueError("empty sweep axis")

    results, min_norm_table, budget_table = {}, [], []
    for value in values:
        for seed in seeds:
            cfg = replace(base, seed=seed, m=str(cell_m[value]))
            try:
                rec = run_experiment(cfg, iteration_budgets=iteration_budgets,
                                     train=train, test=test)
            except Exception as exc:
                raise RuntimeError(f"sweep cell {axis}={value} seed={seed} failed: {exc}") from exc
            results[(value, seed)] = rec
            min_norm_table.append((value, seed,
                                   rec.summary["min_norm_test_error"],
                                   rec.summary["smallest_gram_eigenvalue"]))
            for T in sorted(rec.budget_errors):
                t_flow, err = rec.budget_errors[T]
                budget_table.append((value, seed, T, t_flow, err))

    return SweepResult(axis=axis, records=results,
                       min_norm_table=min_norm_table, budget_table=budget_table)


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

def _g17(v: float) -> str:
    return f"{v:.17g}"


def emit_csv(record: Optional[RunRecord], path) -> None:
    """Trajectory CSV: '# key = value' metadata lines, header, then rows."""
    lines = []
    if record is not None:
        for key in sorted(record.metadata):
            lines.append(f"# {key} = {record.metadata[key]}")
    lines.append(CSV_HEADER)
    if record is not None:
        for j, snap in enumerate(record.snapshots):
            lines.append(",".join(_g17(v) for v in (
                snap.time, snap.train_error, snap.test_error, snap.param_norm,
                record.bound_rough[j], record.bound_finer[j],
            )))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> tuple[dict, list[str], np.ndarray]:
    """Parse an emitted CSV back into (metadata, column names, value array)."""
    meta, rows, header = {}, [], None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    table = np.array(rows) if rows else np.empty((0, len(header or [])))
    return meta, header or [], table


def emit_sweep_csv(sweep: SweepResult, path) -> None:
    """Min-norm / smallest-eigenvalue table of a sweep, one row per cell."""
    lines = [f"{sweep.axis},seed,min_norm_test_error,smallest_gram_eigenvalue"]
    for value, seed, err, eig in sweep.min_norm_table:
        lines.append(f"{_g17(float(value))},{seed},{_g17(err)},{_g17(eig)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_budget_csv(sweep: SweepResult, path) -> None:
    """Fixed-iteration-budget test errors of a sweep."""
    lines = [f"{sweep.axis},seed,iterations,flow_time,test_error"]
    for value, seed, T, t_flow, err in sweep.budget_table:
        lines.append(f"{_g17(float(value))},{seed},{_g17(T)},{_g17(t_flow)},{_g17(err)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
