"""One pass of a workload in a fresh interpreter; prints one JSON record.

    python3 perfbench/one_pass.py --workload NAME --seed N --mode plain|traced|setup

`setup` stops after the import of todahess and the generation of inputs.
`plain` and `traced` then time every op of the workload, run its checks,
and report wall time, peak memory and failures; `traced` also wraps the
layers' public functions and reports per-layer metrics and spans.  run.py
starts this script once per pass so that no cache of todahess carries over
from one pass to the next.

The speed of a shared machine drifts by tens of percent within seconds.
So a fixed reference kernel, which uses no todahess code, runs before
set-up, after set-up and between ops, and every time is also given
rescaled to the speed at which the kernel takes REF_SECONDS: each op's time
is divided by the mean of the kernel times just before and after it.  Each
workload uses the kernel closest to where its own time goes (see
REFERENCE); set-up is rescaled by the pure-Python kernel.
"""

import time

#: nominal duration of a reference kernel; rescaled times are in seconds at that speed
REF_SECONDS = 0.02


def python_kernel() -> float:
    """Seconds taken by a fixed float and big-integer loop."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(1, 100000):
        acc += (i * 1.0001) / (i + 3.0)
    big = 1
    for i in range(1, 2500):
        big = big * (3 * i + 1) // (i + 1) + i
    return time.perf_counter() - t


REF_BEFORE_SETUP = python_kernel()
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (imports todahess, numpy, scipy, mpmath)
from todahess.errors import TodaHessError  # noqa: E402


def numpy_kernel() -> float:
    """Seconds taken by a fixed loop of small-array numpy calls."""
    t = time.perf_counter()
    x = np.arange(1.0, 1025.0)
    for _ in range(1200):
        np.cumprod((x * 3.0 + 1.0) / (x + 2.0) * 0.3)
    return time.perf_counter() - t


#: reference kernel per workload: soft_sweep's time is in many short numpy
#: calls; stiff_sweep's in long series loops and analytic's in mpmath and
#: exact rationals, which both track the pure-Python kernel more closely
REFERENCE = {"stiff_sweep": python_kernel, "soft_sweep": numpy_kernel, "analytic": python_kernel}


def environment() -> dict:
    import importlib.util
    import platform

    import mpmath
    import scipy

    from todahess import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "has_numba": bool(_kernels.HAS_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def rescaled(seconds: float, ref_a: float, ref_b: float) -> float:
    return seconds * REF_SECONDS / (0.5 * (ref_a + ref_b))


def run_pass(ops, tracer, reference) -> tuple:
    """Time the ops in order, with the reference kernel around each one.

    A TodaHessError marks the op as failed.
    """
    results, errors, op_s = [], [], []
    refs = [reference()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            results.append(op.run())
            errors.append(None)
        except TodaHessError as exc:
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        op_s.append(time.perf_counter() - t)
        refs.append(reference())
    return results, errors, op_s, refs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    args = ap.parse_args()

    ops, diag = workloads.build(args.workload, args.seed)
    setup_wall_s = time.perf_counter() - T_START
    ref_after_setup = python_kernel()
    record = {
        "mode": args.mode,
        "setup_wall_s": setup_wall_s,
        "setup_s": rescaled(setup_wall_s, REF_BEFORE_SETUP, ref_after_setup),
    }
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results, errors, op_s, refs = run_pass(ops, tracer, REFERENCE[args.workload])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    for i, op in enumerate(ops):
        if errors[i] is None:
            try:
                errors[i] = op.check(results[i])
            except TodaHessError as exc:
                errors[i] = f"check raised {type(exc).__name__}: {exc}"

    record.update(
        run_wall_s=sum(op_s),
        run_s=sum(rescaled(t, a, b) for t, a, b in zip(op_s, refs, refs[1:])),
        ref_s=statistics.median(refs),
        peak_rss_mb=peak_rss_mb,
        attempted=len(ops),
        failed=sum(e is not None for e in errors),
        ops=[
            {"name": op.name, "seconds": t, "error": e}
            for op, t, e in zip(ops, op_s, errors)
        ],
        diagnostics=diag,
        environment=environment(),
    )
    if tracer is not None:
        record["layers"] = tracer.metrics(sum(op_s))
        record["series_kernel_found"] = tracer.series_kernel_found
        record["spans"] = tracer.spans()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
