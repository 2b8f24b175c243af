"""One measured pass of a workload, in a fresh interpreter.

Usage: ``python3 bench/child.py REPORT WORKLOAD SEED TRACE OUTDIR`` from the
root of a checkout, with that checkout's ``src`` on ``PYTHONPATH``.

Runs the workload's ops in sequence in this process through
``tubescore.cli.main``, writing each artifact under OUTDIR, and writes a JSON
report to REPORT: the wall and CPU time of the ops, the process's peak
resident memory, each op's exit code and error record, the environment, and
with TRACE=1 the per-layer figures of the span tracer.  A fresh process per
pass is what makes the peak-memory figure belong to this pass alone.
"""
from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def run_op(op, outdir: str) -> dict:
    """Run one op; a crash is recorded as the op's outcome, not raised."""
    import tubescore.cli

    out = os.path.join(outdir, f"{op.name}.{op.fmt}")
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            # looked up on the module at call time so a tracer's wrapper runs
            code = tubescore.cli.main([*op.argv, "--out", out])
    except Exception:
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    text = err.getvalue()
    error = None
    for line in reversed(text.strip().splitlines()):
        try:
            error = json.loads(line).get("error")
        except (ValueError, AttributeError):
            continue
        break
    return {"name": op.name, "exit_code": code, "seconds": seconds,
            "error": error, "stderr": text[-2000:], "artifact": out}


def run_ops(ops, outdir: str, tracer=None) -> dict:
    """Run every op in order, optionally under an installed tracer."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        records = [run_op(op, outdir) for op in ops]
    return {"wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
            "ops": records}


def blas_threads():
    """(library path, thread count) of the loaded OpenBLAS, when found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return path, int(fn())
    return None, None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        lib, threads = blas_threads()
    except OSError:
        lib, threads = None, None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": lib,
        "blas_threads": threads,
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                             if k in os.environ},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv) -> int:
    report_path, workload, seed, traced, outdir = argv
    # imported before the clock starts: import cost is set-up, not study time
    import tubescore.cli

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(tubescore.__file__).startswith(src + os.sep):
        sys.stderr.write(f"tubescore was imported from {tubescore.__file__}, "
                         f"not from {src}\n")
        return 2
    import workloads

    ops = workloads.build(workload, int(seed))
    tracer = None
    if traced == "1":
        from tracer import Tracer
        tracer = Tracer()
    report = run_ops(ops, outdir, tracer)
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        report["layers"] = tracer.metrics()
    report["env"] = environment()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
