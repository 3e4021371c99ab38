"""Pipeline benchmark of rfflow: seeded CLI workloads, timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rfflow is imported from its
``src/``.  Every workload process is a fresh interpreter that calls
``rfflow.cli.main`` (see ``child.py``), one after another, never two at
once, with the CLI's default ``--workers 1`` and one BLAS thread.  The
benchmark starts processes until ``--seconds`` have passed (at least
``MIN_PROCESSES``).

``--trace 0`` reports the end-to-end metrics, medians over the processes:

* ``wall_s``       seconds from the call into ``rfflow.cli.main`` to its return
                   (summed over the workload's calls); lazy set-up inside the
                   CLI, such as the Monte-Carlo constants, is included;
* ``setup_s``      seconds from starting the interpreter until ``rfflow.cli``
                   and the verb's modules are imported; besides the workload
                   processes, ``PROBES_PER_PROCESS`` import-only processes
                   per workload process add samples, since it is the noisiest;
* ``peak_rss_mb``  peak resident memory of a workload process (MiB).

``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics of ``spans.py``: medians over the traced processes for
times, exact counts that must repeat between them, and ``trace.overhead``,
the traced ``cli.main_s`` over the untraced ``wall_s``.

Output checks: every process exits cleanly; its CSVs are byte-identical to
the first process's; the CSVs match reference values recomputed from the
seed and show the workload's paper property (``workloads.py``); in traced
runs, exact counts repeat and the span self times add up to ``cli.main_s``.
The share of failed checks is the error rate; ``attempted`` and ``failed``
in the result count checks.  Writing the inputs and checking the outputs is
the benchmark's own time and is not measured.

Workloads, and the candidates that are not workloads, are described in
WORKLOADS.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, Check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_PROCESSES = 3             # workload processes per untraced run
MIN_TRACED = 2                # traced processes, so exact counts can be compared
PROBES_PER_PROCESS = 2        # import-only processes per workload process
CHILD_TIMEOUT_S = 150.0
SPAN_TOTAL_TOLERANCE = 0.03   # span self times vs cli.main_s, relative
# One BLAS thread per process.  On a small shared host a multi-threaded BLAS
# waits at its barriers whenever another tenant holds a core, which made
# wall_s swing by a quarter between runs of the same code; one thread is
# slower but steady.
BLAS_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class ChildFailed(RuntimeError):
    pass


def machine_block() -> dict:
    import numpy
    import scipy

    quota = "unavailable"
    for path in (Path("/sys/fs/cgroup/cpu.max"), Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")):
        try:
            quota = f"{path}: {path.read_text().strip()}"
            break
        except OSError:
            continue
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota": quota,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREAD_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def csv_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def spawn(work: Path, modules, calls, trace: bool) -> dict:
    """Run one child process to completion and return its result."""
    spec_path, result_path = work / "spec.json", work / "result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({
        "modules": list(modules), "calls": calls, "trace": trace,
        "src": str(SRC), "result": str(result_path),
    }), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREAD_ENV)
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), str(spec_path), repr(started)],
                          cwd=work, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise ChildFailed(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "rfflow" / "cli.py").is_file():
        print(f"perfbench: no rfflow sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass                      # another run is still using it


def measure(workload, args, work: Path) -> int:
    out = work / "out"
    prepared = workload.prepare(args.seed, work, out)
    checks: list[Check] = []
    plain, traced, setups = [], [], []
    reference_csvs = None

    def run_workload(trace: bool) -> dict:
        nonlocal reference_csvs
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        label = f"{'traced' if trace else 'untraced'} process {len(plain) + len(traced) + 1}"
        try:
            result = spawn(work, workload.modules, prepared.calls, trace)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            checks.append(Check(f"{label} completes", False, str(exc)))
            raise
        checks.append(Check(f"{label} completes", True, ""))
        digests = csv_digests(out)
        if reference_csvs is None:
            reference_csvs = digests
        else:
            checks.append(Check(f"{label} CSVs byte-identical to the first process",
                                digests == reference_csvs, ", ".join(sorted(digests))))
        (traced if trace else plain).append(result)
        return result

    spawn(work, workload.modules, [], False)      # untimed: byte-compiles the sources
    start = time.monotonic()
    try:
        while True:
            if args.trace:
                run_workload(False)
                run_workload(True)
                done = len(traced) >= MIN_TRACED
            else:
                setups.append(run_workload(False)["setup_s"])
                for _ in range(PROBES_PER_PROCESS):
                    try:
                        setups.append(spawn(work, workload.modules, [], False)["setup_s"])
                    except (ChildFailed, subprocess.TimeoutExpired) as exc:
                        checks.append(Check("import-only process completes", False, str(exc)))
                        raise
                done = len(plain) >= MIN_PROCESSES
            elapsed = time.monotonic() - start
            per_round = elapsed / len(plain)
            if done and elapsed + per_round / 2 > args.seconds:   # end nearest to --seconds
                break
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)

    if reference_csvs is not None:
        try:
            checks.extend(workload.check(prepared, out))
        except (OSError, KeyError, IndexError, ValueError) as exc:
            checks.append(Check("outputs readable for the reference checks", False, repr(exc)))
    if traced:
        checks.extend(trace_checks(traced))
    if not plain or (args.trace and not traced):
        print("perfbench: no complete workload process; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(plain, traced)
    else:
        samples = {"wall_s": [r["wall_s"] for r in plain], "setup_s": setups,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
        metrics = {}
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": END_TO_END_UNITS[name]}
            print(f"{name}: median {med:.6g} {END_TO_END_UNITS[name]} "
                  f"(quartiles {q1:.6g}, {q3:.6g}; {len(values)} samples)")
            print(f"{name} samples: " + " ".join(f"{v:.4g}" for v in values))

    failed = [c for c in checks if not c.ok]
    for c in checks:
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}{': ' + c.detail if c.detail else ''}")
    print(f"error_rate: {len(failed)}/{len(checks)} = {len(failed) / len(checks):g} "
          f"(failed checks / checks attempted)")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced workload processes, {len(setups)} set-up samples")
    print("machine " + json.dumps(machine_block(), sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def trace_checks(traced: list[dict]) -> list[Check]:
    checks = []
    for name in spans.EXACT:
        values = [r["layers"][name] for r in traced]
        checks.append(Check(f"exact count {name} repeats across traced processes",
                            len(set(values)) == 1, f"values {values}"))
    for i, r in enumerate(traced):
        main_s = r["layers"]["cli.main_s"]
        gap = abs(r["span_self_total_s"] - main_s) / main_s
        checks.append(Check(f"traced process {i + 1}: span self times sum to cli.main_s",
                            gap <= SPAN_TOTAL_TOLERANCE,
                            f"relative gap {gap:.2e}, tolerance {SPAN_TOTAL_TOLERANCE}"))
    return checks


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for name, unit in spans.UNITS.items():
        if name == "trace.overhead":
            value = (statistics.median(r["layers"]["cli.main_s"] for r in traced)
                     / statistics.median(r["wall_s"] for r in plain))
        elif name in spans.EXACT:      # equal in every traced process (checked)
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
