"""Benchmark entry point: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/`` of the
same checkout. Operations repeat until their summed wall time reaches
``--seconds``; every output is checked and a failed check counts as a
failed operation. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Fixed thread counts, the same for every workload, set before numpy loads.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SHIFTSCOPE_THREADS")
IMPORT_REPEATS = 5
FIXTURE_REPEATS = 3
OUT_DIR = ROOT / ".perfbench"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import shiftscope.cli; "
    "print(time.perf_counter() - t)"
)
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("peak_rss_mb", "MiB"))


def _import_seconds() -> float:
    """Time ``import shiftscope.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(workload, tracer) -> float:
    """Median import time plus median time of the program's fixture build."""
    imports = [_import_seconds() for _ in range(IMPORT_REPEATS)]
    builds = [0.0]
    if workload.fixture is not None:
        builds = []
        for i in range(FIXTURE_REPEATS):
            t0 = time.perf_counter()
            if tracer is None:
                workload.fixture()
            else:
                tracer.traced(f"setup{i}", workload.fixture)
            builds.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds)


def run_loop(workload, seconds: float, tracer):
    """Closed loop until the operations' summed wall time reaches ``seconds``.

    A traced run alternates an untraced and a traced operation, so the
    difference of their medians is the tracing overhead.
    """
    modes = (False, True) if tracer is not None else (False,)
    res = {"attempted": 0, "failed": 0, "wrong": 0, "times": {False: [], True: []},
           "traced_ops": [], "gaps": []}
    busy = 0.0
    while busy < seconds:
        for traced in modes:
            op_id = f"op{res['attempted']}"
            res["attempted"] += 1
            t0 = time.perf_counter()
            try:
                out = tracer.traced(op_id, workload.op) if traced else workload.op()
            except Exception:  # the loop must go on; the failure is counted
                busy += time.perf_counter() - t0
                res["failed"] += 1
                print(f"{op_id} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            busy += dt
            try:
                problems, gaps = workload.check(out)
            except Exception:
                problems, gaps = [f"check raised:\n{traceback.format_exc()}"], {}
            if problems:
                res["failed"] += 1
                res["wrong"] += 1
                print(f"{op_id} failed its check: {problems}", file=sys.stderr)
                continue
            res["times"][traced].append(dt)
            if traced:
                res["traced_ops"].append(op_id)
                res["gaps"].append(gaps)
    return res


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np

    from perfbench import spans
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import shiftscope.cli

    if not Path(shiftscope.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"shiftscope imported from {shiftscope.cli.__file__}, not {ROOT}/src")

    workload = WORKLOADS[args.workload]()
    tracer = spans.Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload.prepare(workdir, args.seed)
        setup_s = measure_setup(workload, tracer)
        res = run_loop(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = res["times"][False]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "op_samples": len(untraced), "op_s": untraced, "threads": THREADS,
        "thread_vars": list(THREAD_VARS), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
    }
    if tracer is None:
        values = {"setup_s": setup_s, "op_s_p50": _median(untraced), "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        values = tracer.layer_metrics(res["traced_ops"])
        for m in spans.METHODS:
            values[f"estimator.gap_abs_err.{m}"] = _median(
                [g[m] for g in res["gaps"] if m in g])
        values["trace.overhead_s"] = _median(res["times"][True]) - _median(untraced)
        units = spans.PER_LAYER
        info["traced_samples"] = len(res["times"][True])
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"info": info, "metrics": values})
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(info))
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
