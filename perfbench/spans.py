"""Spans around the calls into rfflow's modules, installed from outside the package.

``Tracer.install`` replaces each function listed in ``TRACED`` by a wrapper
that records a span: its name, the span that was open when it was called,
its start and end, and for a few functions an exact work count.  Names that
other rfflow modules bound with ``from .module import name`` are rebound to
the wrapper too; without that, calls such as ``flow.errors_on_grid`` ->
``feature_values`` would go unseen.  Spans are kept in memory and reduced to
the per-layer metrics by ``Tracer.metrics``.  The tracer assumes one thread,
which is the CLI's default (``--workers 1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

# module -> public functions that get a span named "<module>.<function>"
TRACED = {
    "features": ("sample_sphere", "sample_features", "sample_dataset",
                 "feature_values", "eval_target_many"),
    "flow": ("decompose", "errors_on_grid"),
    "bounds": ("measure_assumptions", "finer_bound", "norm_bound_rough"),
    "random_matrix": ("gram_matrix", "symmetric_eigenvalues",
                      "smallest_gram_eigenvalue"),
    "kernel_analytic": ("fit_profile_scale", "analytic_spectrum",
                        "spectrum_feature_scale"),
    "runner": ("run_experiment", "feature_norm_sq", "target_norm",
               "emit_csv", "emit_sweep_csv", "emit_budget_csv"),
    "idx": ("load_idx",),
    "svgplot": ("emit_svg",),
    "cli": ("main",),
}


def _feature_evaluations(args):
    return len(args["points"]) * args["feats"].count


def _decompose_bytes(args):
    phi = args["phi"]
    rows, cols = (phi.values if hasattr(phi, "values") else phi).shape
    return 8 * rows * cols            # float64 matrix handed to the SVD


def _grid_points(args):
    return len(args["times"])


def _idx_bytes(args):
    return os.path.getsize(args["images_path"]) + os.path.getsize(args["labels_path"])


# span name -> exact work count, computed from the call's bound arguments
WORK = {
    "features.feature_values": _feature_evaluations,
    "flow.decompose": _decompose_bytes,
    "flow.errors_on_grid": _grid_points,
    "idx.load_idx": _idx_bytes,
}

# Runner's Monte-Carlo constants evaluate features too.  runner.constants_s
# reports that work as a whole, so the features.* metrics leave it out and
# count only the work of the experiment cells.
CONSTANT_SPANS = ("runner.feature_norm_sq", "runner.target_norm")

# metric stem -> the spans it covers
GROUPS = {
    "flow.decompose": ("flow.decompose",),
    "flow.grid": ("flow.errors_on_grid",),
    "features.values": ("features.feature_values",),
    "features.sample": ("features.sample_sphere", "features.sample_features",
                        "features.sample_dataset"),
    "features.target": ("features.eval_target_many",),
    "bounds.assumptions": ("bounds.measure_assumptions",),
    "bounds.finer_bound": ("bounds.finer_bound",),
    "bounds.rough_bound": ("bounds.norm_bound_rough",),
    "random_matrix.smallest_eig": ("random_matrix.smallest_gram_eigenvalue",),
    "random_matrix.eigvals": ("random_matrix.symmetric_eigenvalues",),
    "random_matrix.gram": ("random_matrix.gram_matrix",),
    "kernel_analytic.fit_profile": ("kernel_analytic.fit_profile_scale",),
    "kernel_analytic.spectrum": ("kernel_analytic.analytic_spectrum",
                                 "kernel_analytic.spectrum_feature_scale"),
    "runner.cell": ("runner.run_experiment",),
    "runner.constants": CONSTANT_SPANS,
    "runner.emit": ("runner.emit_csv", "runner.emit_sweep_csv",
                    "runner.emit_budget_csv"),
    "idx.load": ("idx.load_idx",),
    "svgplot.emit": ("svgplot.emit_svg",),
    "cli.main": ("cli.main",),
}

# Statistics of a group:
#   busy   seconds inside the group's outermost spans (nested ones not re-added)
#   self   seconds inside the group's spans minus their child spans
#   calls  number of outermost spans
#   work   sum of the spans' WORK counts
#   failed number of spans that raised
# per-layer metric -> (group, statistic, unit)
METRICS = {
    "flow.decompose_s": ("flow.decompose", "busy", "s"),
    "flow.decompose_calls": ("flow.decompose", "calls", "count"),
    "flow.decompose_bytes": ("flow.decompose", "work", "bytes"),
    "flow.grid_self_s": ("flow.grid", "self", "s"),
    "flow.grid_calls": ("flow.grid", "calls", "count"),
    "flow.grid_points": ("flow.grid", "work", "count"),
    "features.values_s": ("features.values", "busy", "s"),
    "features.values_calls": ("features.values", "calls", "count"),
    "features.values_evaluated": ("features.values", "work", "count"),
    "features.sample_s": ("features.sample", "busy", "s"),
    "features.sample_calls": ("features.sample", "calls", "count"),
    "features.target_s": ("features.target", "busy", "s"),
    "bounds.assumptions_self_s": ("bounds.assumptions", "self", "s"),
    "bounds.finer_bound_s": ("bounds.finer_bound", "busy", "s"),
    "bounds.finer_bound_calls": ("bounds.finer_bound", "calls", "count"),
    "bounds.rough_bound_s": ("bounds.rough_bound", "busy", "s"),
    "bounds.rough_bound_calls": ("bounds.rough_bound", "calls", "count"),
    "random_matrix.smallest_eig_s": ("random_matrix.smallest_eig", "busy", "s"),
    "random_matrix.smallest_eig_calls": ("random_matrix.smallest_eig", "calls", "count"),
    "random_matrix.eigvals_s": ("random_matrix.eigvals", "busy", "s"),
    "random_matrix.gram_s": ("random_matrix.gram", "busy", "s"),
    "kernel_analytic.fit_profile_s": ("kernel_analytic.fit_profile", "busy", "s"),
    "kernel_analytic.spectrum_s": ("kernel_analytic.spectrum", "busy", "s"),
    "runner.cell_s": ("runner.cell", "busy", "s"),
    "runner.cell_self_s": ("runner.cell", "self", "s"),
    "runner.cells": ("runner.cell", "calls", "count"),
    "runner.cells_failed": ("runner.cell", "failed", "count"),
    "runner.constants_s": ("runner.constants", "busy", "s"),
    "runner.emit_s": ("runner.emit", "busy", "s"),
    "idx.load_s": ("idx.load", "busy", "s"),
    "idx.bytes_read": ("idx.load", "work", "bytes"),
    "svgplot.emit_s": ("svgplot.emit", "busy", "s"),
    "cli.main_s": ("cli.main", "busy", "s"),
    "cli.main_self_s": ("cli.main", "self", "s"),
}

# metrics derived from others: SVD share of cell time in the traced process,
# and traced cli.main_s over untraced wall_s, which the parent computes
DERIVED_UNITS = {"runner.svd_share": "ratio", "trace.overhead": "ratio"}

UNITS = {**{name: unit for name, (_, _, unit) in METRICS.items()}, **DERIVED_UNITS}

# exact counts: they must repeat between traced runs of one input
EXACT = tuple(name for name, (_, stat, _) in METRICS.items()
              if stat in ("calls", "work", "failed"))


class Tracer:
    """Records spans around rfflow's public functions once installed."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.work: list[int] = []
        self.failed: list[bool] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        count = WORK.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.work.append(count(signature.bind(*args, **kwargs).arguments) if count else 0)
            self.failed.append(False)
            self.ends.append(0.0)
            self._stack.append(i)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[i] = True
                raise
            finally:
                self.ends[i] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED and rebind each rfflow name bound to one."""
        wrappers = {}
        for module, functions in TRACED.items():
            mod = importlib.import_module(f"rfflow.{module}")
            for fn_name in functions:
                original = getattr(mod, fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{module}.{fn_name}", original))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rfflow" or mod_name.startswith("rfflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _group_stats(self) -> dict[str, dict[str, float]]:
        count = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child_time = [0.0] * count
        under_constants = [False] * count
        for i in range(count):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += durations[i]
                under_constants[i] = under_constants[p] or self.names[p] in CONSTANT_SPANS
        stats = {}
        for group, members in GROUPS.items():
            members = set(members)
            skip_constants = group.startswith("features.")
            s = dict.fromkeys(("busy", "self", "calls", "work", "failed"), 0)
            for i in range(count):
                if self.names[i] not in members or (skip_constants and under_constants[i]):
                    continue
                s["self"] += durations[i] - child_time[i]
                s["work"] += self.work[i]
                s["failed"] += self.failed[i]
                p = self.parents[i]
                while p >= 0 and self.names[p] not in members:
                    p = self.parents[p]
                if p < 0:              # outermost span of its group
                    s["busy"] += durations[i]
                    s["calls"] += 1
            stats[group] = s
        return stats

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of METRICS plus runner.svd_share."""
        stats = self._group_stats()
        out = {name: stats[group][stat] for name, (group, stat, _) in METRICS.items()}
        cell = out["runner.cell_s"]
        out["runner.svd_share"] = out["flow.decompose_s"] / cell if cell > 0 else 0.0
        return out

    def self_time_total(self) -> float:
        """Sum of every span's self time; equals the root spans' total time."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return sum(self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names)))
