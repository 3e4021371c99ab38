"""Tests of the benchmark itself: span bookkeeping, pinned exact counts, generated inputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _hand_built_tracer():
    # run_experiment [0, 10] with children: feature_values [1, 3];
    # errors_on_grid [4, 7] > feature_values [4.5, 6];
    # feature_norm_sq [8, 9] > feature_values [8.2, 8.8] (a Monte-Carlo constant)
    t = spans.Tracer()
    t.names = ["runner.run_experiment", "features.feature_values", "flow.errors_on_grid",
               "features.feature_values", "runner.feature_norm_sq", "features.feature_values"]
    t.parents = [-1, 0, 0, 2, 0, 4]
    t.starts = [0.0, 1.0, 4.0, 4.5, 8.0, 8.2]
    t.ends = [10.0, 3.0, 7.0, 6.0, 9.0, 8.8]
    t.work = [0, 100, 3, 50, 0, 7]
    t.failed = [False] * 6
    return t


def test_busy_self_and_counts_from_spans():
    t = _hand_built_tracer()
    m = t.metrics()
    assert m["runner.cell_s"] == 10.0
    assert m["runner.cell_self_s"] == 10.0 - (2.0 + 3.0 + 1.0)
    assert m["runner.cells"] == 1
    assert m["flow.grid_self_s"] == 1.5 and m["flow.grid_calls"] == 1 and m["flow.grid_points"] == 3
    # the constant's feature evaluation is reported under runner.constants_s only
    assert m["features.values_s"] == 3.5
    assert m["features.values_calls"] == 2 and m["features.values_evaluated"] == 150
    assert m["runner.constants_s"] == 1.0
    assert m["runner.svd_share"] == 0.0
    assert t.self_time_total() == 10.0


def test_nested_names_are_rebound_then_restored():
    from rfflow import bounds, features, flow

    original = features.feature_values
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert features.feature_values is not original
        assert flow.feature_values is features.feature_values is bounds.feature_values
        data = features.sample_dataset([0, 1], 5, 3, features.TargetSpec())
        features.build_feature_matrix(data, features.sample_features([0, 2], 3, 4))
    finally:
        tracer.uninstall()
    assert features.feature_values is original and flow.feature_values is original
    m = tracer.metrics()
    assert m["features.values_calls"] == 1 and m["features.values_evaluated"] == 20
    assert m["features.sample_calls"] == 2      # the nested sample_sphere calls are not re-counted


def test_sweep_m_counts_at_this_commit(tmp_path):
    """Exact counts of the traced sweep-m workload at seed 0, and its output checks."""
    workload = workloads.WORKLOADS["sweep-m"]
    out = tmp_path / "out"
    out.mkdir()
    prepared = workload.prepare(0, tmp_path, out)
    layers = run.spawn(tmp_path, workload.modules, prepared.calls, trace=True)["layers"]
    assert layers["features.values_evaluated"] == 141_375_000
    assert layers["features.values_calls"] == 100
    assert layers["flow.decompose_calls"] == 25
    assert layers["flow.decompose_bytes"] == 8 * 500 * 5 * (100 + 250 + 500 + 1000 + 2500)
    assert layers["flow.grid_calls"] == 50
    assert layers["bounds.finer_bound_calls"] == 6_050
    assert layers["runner.cells"] == 25 and layers["runner.cells_failed"] == 0
    failed = [c for c in workload.check(prepared, out) if not c.ok]
    assert not failed, failed


def test_synthetic_digits_are_seeded_sparse_and_readable(tmp_path):
    from rfflow import idx

    def draw():
        rng = np.random.default_rng([3, 77])
        return workloads.synthetic_digits(rng, workloads._stroke_templates(rng), 200)

    (images, labels), (again, _) = draw(), draw()
    assert np.array_equal(images, again)
    assert (images > 0).mean() < 0.3
    workloads.write_idx(tmp_path / "img", images)
    workloads.write_idx(tmp_path / "lab", labels)
    assert np.array_equal(idx.read_idx_images(tmp_path / "img"), images)
    assert np.array_equal(idx.read_idx_labels(tmp_path / "lab"), labels)


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-m",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
