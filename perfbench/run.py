"""crossingsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` operations run untraced for about S seconds
and the end-to-end metrics are printed. With ``--trace 1`` a fixed number
of operations run once untraced and once traced (on evaluate-paired
followed by one pass of every CLI stage at a tiny size), and the
per-layer metrics are printed.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

BLAS is pinned to one thread here, before numpy loads, and everything
runs in this one process, so the figures measure the program and not
the scheduler.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_VERSION = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9
MIN_OPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_libraries() -> list[dict]:
    """Loaded BLAS libraries and the thread count each reports."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        entry = {"library": Path(path).name}
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "benchmark_version": BENCH_VERSION,
        "workload_seed": seed,
        "machine": f"{platform.machine()} {cpu}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Tally:
    """Attempted and failed operations, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempts: int, problems: list[str]) -> None:
        self.attempted += attempts
        if problems:
            self.failed += attempts
            self.problems.extend(problems)


def run_op(workload, index: int, tally: Tally, tracer=None, tamper: bool = False) -> float:
    """Run, time and check one operation; returns its wall time."""
    import layers

    if tracer is not None:
        tracer.run_id = f"op-{index}"
        layers.install(tracer)
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(index)
        else:
            output = tracer.span("op", workload.run, index)
    except Exception as exc:  # a crash of the program is a failed operation
        wall = time.perf_counter() - start
        tally.add(workload.attempts_per_op, [f"op {index} raised {exc!r}"])
        return wall
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    if tamper:
        output = workload.tamper(index, output)
    tally.add(workload.attempts_per_op, [f"op {index}: {p}" for p in workload.check(index, output)])
    return wall


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the package.

    A module imports once per process, so each set-up repetition times
    the import in a child interpreter; numpy and scipy are included.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import crossingsim.cli; print(time.perf_counter() - t)"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(child.stdout)


def set_up(workload) -> float:
    """Set the workload up from scratch in its work_dir; returns seconds.

    One set-up is the package import plus the workload's own set-up.
    """
    shutil.rmtree(workload.work_dir, ignore_errors=True)
    workload.work_dir.mkdir(parents=True)
    start = time.perf_counter()
    workload.setup()
    own = time.perf_counter() - start
    return import_seconds() + own


def measure_untraced(workload, seconds: float, tally: Tally, spare) -> tuple[list[float], float]:
    """Closed loop: next operation once the last returned, until the
    operations have taken ``seconds``. Returns (operation wall times,
    median set-up seconds).

    The set-up is timed SETUP_REPS times: once before the first
    operation, and again on ``spare``, a second instance of the workload
    in its own directory, at even steps of operation time. Set-up then
    sees the same stretches of machine load as the operations.
    """
    setups = [set_up(workload)]
    workload.prepare()
    walls: list[float] = []
    index = 0
    while True:
        walls.append(run_op(workload, index, tally))
        index += 1
        spent = sum(walls)
        done = index >= MIN_OPS and spent + statistics.median(walls) > seconds
        due = SETUP_REPS if done else 1 + int((SETUP_REPS - 1) * spent / seconds)
        while len(setups) < due:
            setups.append(set_up(spare))
        if done:
            return walls, statistics.median(setups)


def measure_traced(workload, tally: Tally, trace_path: Path | None = None):
    """Each of the first ``traced_ops`` operations untraced, then traced;
    then, if the workload asks for it, one coverage pass, traced.
    Returns (per-layer metrics, tracer)."""
    import layers
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    for index in range(workload.traced_ops):
        plain.append(run_op(workload, index, tally))
        traced.append(run_op(workload, index, tally, tracer))
    if workload.coverage:
        tracer.run_id = "coverage"
        layers.install(tracer)
        try:
            outcomes = tracer.span(
                "coverage", workloads.coverage_pass, workload.work_dir / "coverage"
            )
        finally:
            tracer.uninstall()
        for stage, status, err in outcomes:
            tally.add(1, [f"coverage {stage} exited {status}: {err}"] if status else [])
    metrics = layers.per_layer_metrics(tracer)
    metrics["trace_overhead_ratio"] = sum(traced) / sum(plain)
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
    return metrics, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crossingsim" / "__init__.py").is_file():
        print(f"error: no crossingsim sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import crossingsim.cli  # noqa: F401
    if Path(crossingsim.__file__).resolve().parent != (SRC / "crossingsim").resolve():
        print(f"error: crossingsim imported from {crossingsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    spare_dir = work_dir.with_name(work_dir.name + "-spare")
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tally = Tally()
    try:
        if args.trace:
            set_up(workload)
            workload.prepare()
            trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}.jsonl"
            values, _ = measure_traced(workload, tally, trace_path)
            units = layers.metric_units()
            summary = {}
        else:
            spare = workloads.WORKLOADS[args.workload](args.seed, spare_dir)
            walls, setup_s = measure_untraced(workload, args.seconds, tally, spare)
            op_s = statistics.median(walls)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = {"op_s": op_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
            units = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            summary = {"ops": len(walls), workload.rate_name: workload.rate(op_s)}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        shutil.rmtree(spare_dir, ignore_errors=True)
    summary["error_rate"] = tally.failed / tally.attempted
    print("env " + json.dumps(environment(args.seed)))
    print("summary " + json.dumps(summary))
    for problem in tally.problems[:20]:
        print("problem " + problem)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
