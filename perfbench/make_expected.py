"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_expected.py evaluate-paired
    python3 perfbench/make_expected.py episodes-crowd

For the named workload, runs the operation for every entry of its
input panel and writes the summary of each output to
``perfbench/expected-<workload>.json``, in panel order. Run it at the
commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins BLAS and locates the sources, as a benchmark run does

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from crossingsim.metrics import EvaluationReport  # noqa: E402


def reference(workload) -> list[dict]:
    out = []
    for index in range(workload.period):
        output = workload.run(index)
        if isinstance(workload, workloads.EvaluatePaired):
            status, err = output
            if status != 0:
                raise RuntimeError(f"evaluate exited {status}: {err}")
            output = EvaluationReport.load(workload.work_dir / "report.json")
        out.append(workload.summarize(output))
    return out


def main(name: str) -> int:
    work_dir = run.ROOT / ".perfbench_work" / f"expected-{name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](0, work_dir)
        workload.setup()
        table = reference(workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path = workloads.expected_path(name)
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"{name}: wrote {len(table)} reference outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
