"""todahess benchmark: one seeded workload, timed in fresh interpreters.

    python3 perfbench/run.py --workload stiff_sweep|soft_sweep|analytic \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  Every pass starts a new interpreter (one_pass.py), so no module
cache of todahess carries over between repeats.  Passes repeat until S
seconds are used, with at least MIN_PASSES of each kind.

--trace 0 prints the end-to-end metrics: setup_s (import plus input
generation, median over extra set-up-only interpreters and the passes),
run_s (time of one pass, median) and peak_rss_mb (median).  setup_s and
run_s are wall times rescaled to a fixed machine speed by a reference
kernel (see one_pass.py); the raw wall times are in the results file.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones, in raw wall time; trace.overhead_frac compares
the rescaled run_s of the two kinds.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  A full record with the environment, every pass and the
spans goes to perfbench/results/.  The exit code is 1 when an op fails or a
pass cannot run, 2 when the todahess sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: workloads and metric names with their units
SPEC = ROOT / "BENCHMARK.json"
#: set-up-only interpreters per untraced run, added to the passes' set-ups
SETUP_PROBES = 2
MIN_PASSES = {0: 3, 1: 2}
#: no pass starts once the run would exceed this many seconds
HARD_CAP_S = 150
#: BLAS threads per pass; the matrices are at most 32 x 32
BLAS_THREADS = "1"


class PassError(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str, timeout: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "one_pass.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = time.perf_counter() - t0
    return record


def git_sha() -> "str | None":
    """HEAD's commit when the checkout is a git work tree with a loose ref."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "todahess").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def collect(workload: str, seed: int, seconds: float, trace: int):
    """Run set-up probes and passes; return (probes, passes)."""
    t0 = time.perf_counter()

    def remaining():
        return HARD_CAP_S - (time.perf_counter() - t0)

    probes = []
    if trace == 0:
        for _ in range(SETUP_PROBES):
            probes.append(run_child(workload, seed, "setup", remaining()))
    modes = ("plain",) if trace == 0 else ("plain", "traced")
    passes = []
    while True:
        elapsed = time.perf_counter() - t0
        per_pass = statistics.median(p["wall_s"] for p in passes) if passes else 0.0
        enough = all(
            sum(p["mode"] == m for p in passes) >= MIN_PASSES[trace] for m in modes
        )
        if passes and elapsed + per_pass > HARD_CAP_S:
            break
        if enough and elapsed + per_pass > seconds:
            break
        mode = modes[len(passes) % len(modes)]
        passes.append(run_child(workload, seed, mode, max(remaining(), 1.0)))
    return probes, passes


def summarize(spec: dict, probes: list, passes: list, trace: int) -> dict:
    plain = [p for p in passes if p["mode"] == "plain"]
    run_s = statistics.median(p["run_s"] for p in plain)
    if trace == 0:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes + plain),
            "run_s": run_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    else:
        traced = [p for p in passes if p["mode"] == "traced"]
        values = {}
        for name, first in traced[0]["layers"].items():
            # Counts repeat exactly; keep them whole numbers.
            median = statistics.median_low if isinstance(first, int) else statistics.median
            values[name] = median(p["layers"][name] for p in traced)
        values.update(traced[-1]["diagnostics"])
        traced_run_s = statistics.median(p["run_s"] for p in traced)
        values["trace.overhead_frac"] = traced_run_s / run_s - 1.0
    metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def main() -> int:
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "todahess" / "__init__.py").is_file():
        print(f"todahess sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        probes, passes = collect(args.workload, args.seed, args.seconds, args.trace)
    except PassError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for op in p["ops"]:
            if op["error"]:
                print(f"FAIL [{p['mode']}] {op['name']}: {op['error']}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summarize(spec, probes, passes, args.trace),
    }

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = dict(
        result,
        args=vars(args),
        git_sha=git_sha(),
        source_sha256=source_sha256(),
        environment=passes[0]["environment"],
        setup_probes=probes,
        passes=passes,
    )
    out = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
