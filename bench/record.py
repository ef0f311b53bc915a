"""Record one BENCH_<label>.json for a crossingsim source checkout.

    python3 bench/record.py --label NAME [--root CHECKOUT]

The file holds three things:

* ``environment``: machine, platform, core count, Python and numpy
  versions (and scipy's, when it is installed; crossingsim needs numpy
  alone), and the BLAS thread settings the timed processes run with;
* ``per_layer``: for every workload in the checkout's BENCHMARK.json, the
  result of ``perfbench/run.py --trace 1`` at workload seed 5 (per-layer
  counts and times, and whether every output was correct);
* ``cli_stages``: the wall time of each README pipeline stage, five runs
  each, every run in a fresh interpreter, so the import of the package is
  part of it. The ``import`` stage is ``import crossingsim.cli`` alone.
  Each stage records its median and quartiles of wall time and the peak
  resident set size of its own child process (its ``ru_maxrss``; worker
  processes that ``evaluate --parallel`` starts are not counted).

``--root`` (default: the checkout holding this script) names the source
tree that is imported and benchmarked, so the same script can record an
older commit checked out elsewhere, for a before/after pair with the same
settings. The output is ``bench/BENCH_<label>.json``, beside this script.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FORMAT = "crossingsim-bench"
VERSION = 2
HERE = Path(__file__).resolve().parent
# The timed processes use one BLAS thread, as perfbench/run.py does.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
REPEATS = 5
WORKLOAD_SEED = 5

# The README pipeline on the 3000 rows of one fit-sweep data set, fitted
# over K = 1..4 with the fit-sweep EM settings (a default fit takes minutes).
PIPELINE_CONFIG = {
    "master_seed": 10000,
    "mixture": {"k_min": 1, "k_max": 4, "max_iterations": 100, "mc_moment_draws": 2000},
    "ingest": {"n_synthetic": 3000},
    "eval": {"n_experiments": 50},
}
STAGES = [
    ("import", None),
    ("gen-data", ["gen-data"]),
    ("fit", ["fit"]),
    ("condition", ["condition", "--given", "inv_R=0.12", "--given", "v=5.0", "--free", "v_p"]),
    ("simulate", ["simulate"]),
    ("evaluate --parallel 1", ["evaluate", "--parallel", "1"]),
    ("evaluate --parallel 2", ["evaluate", "--parallel", "2"]),
]

# Imports the package from the given src directory (and from nowhere
# else), then runs one CLI stage when arguments follow.
CHILD = """
import sys
src = sys.argv[1]
sys.path.insert(0, src)
import crossingsim.cli
if not crossingsim.__file__.startswith(src):
    sys.exit(f"crossingsim imported from {crossingsim.__file__}, not {src}")
if len(sys.argv) > 2:
    sys.exit(crossingsim.cli.main(sys.argv[2:]))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file")
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="source checkout to benchmark (default: this one)")
    return parser.parse_args(argv)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    env = {
        "machine": f"{platform.machine()} {cpu}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_env": BLAS_ENV,
    }
    try:
        env["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        pass
    return env


def source(root: Path) -> dict:
    """The commit of ``root`` and the tracked files that differ from it."""

    def git(*args: str) -> str:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    return {
        "commit": git("rev-parse", "HEAD") or None,
        "modified": git("status", "--porcelain", "--untracked-files=no").splitlines(),
    }


def per_layer(root: Path) -> dict:
    """``perfbench/run.py --trace 1`` for every workload of the checkout."""
    workloads = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    out = {}
    for workload in (w["name"] for w in workloads):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(WORKLOAD_SEED), "--seconds", "1", "--trace", "1"],
            cwd=root, capture_output=True, text=True, check=True,
        )
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        out[workload] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "problems": [line[len("problem "):] for line in lines if line.startswith("problem ")],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "units": {name: m["unit"] for name, m in result["metrics"].items()},
        }
        print(f"per-layer {workload}: correct={result['correct']}", file=sys.stderr)
    return out


def run_stage(name: str, cmd: list[str], env: dict) -> tuple[float, float]:
    """Wall time (s) and peak RSS (MB) of one stage's child process.

    The child is reaped with ``os.wait4``, whose resource usage is that
    child's alone, so ``ru_maxrss`` (KiB on Linux) is its own peak.
    """
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"stage {name} exited {proc.returncode}: {err.read().decode()}")
    return wall, usage.ru_maxrss / 1024.0


def cli_stages(root: Path) -> dict:
    """Wall time and peak RSS of every pipeline stage, each run in a fresh interpreter."""
    src = str((root / "src").resolve())
    env = {**os.environ, **BLAS_ENV}
    env.pop("PYTHONPATH", None)
    walls: dict[str, list[float]] = {name: [] for name, _ in STAGES}
    rss: dict[str, list[float]] = {name: [] for name, _ in STAGES}
    with tempfile.TemporaryDirectory(prefix="crossingsim-bench-") as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(PIPELINE_CONFIG), encoding="utf-8")
        common = ["--config", str(config), "--out", tmp]
        for _ in range(REPEATS):
            for name, argv in STAGES:
                cmd = [sys.executable, "-c", CHILD, src] + ([] if argv is None else argv + common)
                wall, peak = run_stage(name, cmd, env)
                walls[name].append(wall)
                rss[name].append(peak)
        print(f"cli stages: {REPEATS} runs each", file=sys.stderr)
    stages = {}
    for name, argv in STAGES:
        q1, _, q3 = statistics.quantiles(walls[name], n=4)
        stages[name] = {
            "argv": argv,
            "median_s": statistics.median(walls[name]),
            "quartiles_s": [q1, q3],
            "wall_s": walls[name],
            "peak_rss_mb": rss[name],
        }
    return {"config": PIPELINE_CONFIG, "repeats": REPEATS, "stages": stages}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "crossingsim" / "__init__.py").is_file():
        print(f"error: no crossingsim sources under {root / 'src'}", file=sys.stderr)
        return 2
    document = {
        "format": FORMAT,
        "version": VERSION,
        "label": args.label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "source": source(root),
        "environment": environment(),
        "per_layer_seed": WORKLOAD_SEED,
        "per_layer": per_layer(root),
        "cli_stages": cli_stages(root),
    }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
