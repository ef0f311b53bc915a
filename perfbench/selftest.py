"""Self-test of the benchmark: one operation of each workload.

    python3 perfbench/selftest.py

Run from the root of a source checkout. For every workload it checks
that traced child spans nest inside their parents, that the self times
under each top-level span add up to no more than that span's wall time,
that an honest operation passes its output check, and that a corrupted
output counts as a failure and lifts error_rate above 0. Exits 1 on any
failed check.
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # pins BLAS and locates the sources, as a benchmark run does

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

EPS = 1e-9


def span_problems(tracer) -> list[str]:
    spans = tracer.finished_spans()
    own = tracer.self_times()
    problems = []
    subtree_self = [0.0] * len(spans)
    child_wall = [0.0] * len(spans)
    # A child is recorded after its parent's slot, so walking backwards
    # finishes every subtree before its parent is reached.
    for index in range(len(spans) - 1, -1, -1):
        span = spans[index]
        subtree_self[index] += own[index]
        if own[index] < -EPS:
            problems.append(f"{span.name}: negative self time {own[index]}")
        if subtree_self[index] > span.end - span.start + EPS:
            problems.append(f"{span.name}: self times under it exceed its wall time")
        if span.parent is None:
            continue
        parent = spans[span.parent]
        if not (parent.start <= span.start and span.end <= parent.end):
            problems.append(f"{span.name} is not inside its parent {parent.name}")
        if span.run_id != parent.run_id:
            problems.append(f"{span.name} and its parent {parent.name} differ in run id")
        subtree_self[span.parent] += subtree_self[index]
        child_wall[span.parent] += span.end - span.start
    for index, span in enumerate(spans):
        if child_wall[index] > span.end - span.start + EPS:
            problems.append(f"{span.name}: children last longer than it does")
    return problems


def check_workload(name: str) -> list[str]:
    work_dir = run.ROOT / ".perfbench_work" / f"selftest-{name}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](0, work_dir)
    workload.traced_ops = 1
    try:
        run.set_up(workload)
        workload.prepare()
        honest = run.Tally()
        _, tracer = run.measure_traced(workload, honest)
        problems = span_problems(tracer)
        if not tracer.finished_spans():
            problems.append("no spans recorded")
        if honest.failed:
            problems.append(f"honest operations failed: {honest.problems}")
        tampered = run.Tally()
        run.run_op(workload, 0, tampered, tamper=True)
        if not tampered.failed / tampered.attempted > 0:
            problems.append("a corrupted output passed its check")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return problems


def main() -> int:
    failed = False
    for name in workloads.WORKLOADS:
        problems = check_workload(name)
        print(f"{name}: {'FAIL' if problems else 'PASS'}")
        for problem in problems[:10]:
            print(f"  {problem}")
        if len(problems) > 10:
            print(f"  ... {len(problems) - 10} more")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
