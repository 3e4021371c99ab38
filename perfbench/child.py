"""One benchmark process: import the CLI, optionally install spans, call rfflow.cli.main.

Run by ``run.py`` as ``python3 child.py SPEC_JSON SPAWN_TIME``.  SPAWN_TIME
is the parent's ``time.monotonic()`` just before it started this process,
so ``setup_s`` covers interpreter start and the imports.  The result is
written as JSON to the path named in the spec.
"""

import sys
import time

SPAWN_TIME = float(sys.argv[2])

import importlib  # noqa: E402  (the clock above must start first)
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    for name in spec["modules"]:
        importlib.import_module(name)
    result = {"setup_s": time.monotonic() - SPAWN_TIME}

    import rfflow.cli

    src = Path(spec["src"]).resolve()
    if not Path(rfflow.cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"rfflow was imported from {rfflow.cli.__file__}, not {src}")

    if spec["calls"]:
        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        start = time.perf_counter()
        for argv in spec["calls"]:
            status = rfflow.cli.main(argv)
            if status != 0:
                raise RuntimeError(f"rfflow {' '.join(argv)} returned {status}")
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["span_self_total_s"] = tracer.self_time_total()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
