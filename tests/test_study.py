"""The study's answer pinned: a 1000-pair evaluate, one simulate and fit-sweep's fits.

``study_corpus.json`` holds, for the 1000-pair ``evaluate`` at master
seed 10004 on the reference generator, mu, sigma, cv and kappa as
``float.hex``, the five counts and SHA-256 of ``report.json`` and
``series.csv``; SHA-256 of ``trajectory.csv`` from ``simulate`` at the
same seed; and for each of ``fit-sweep``'s eight fits, the selected K,
each K's BIC and SHA-256 of ``model.json`` and ``bic_curve.csv``.
Each row runs its CLI stages in-process and must give the recorded
output with ``==``.  The pin is computed and compared in ``pins.py``.

Re-record every pin (only for a change that moves results on purpose,
quoting the study line it prints before and after in CHANGES.md):

    PYTHONPATH=src python3 tests/pins.py
"""

import sys

import pytest

import pins

ROWS = pins.STUDY.rows()


@pytest.mark.parametrize(
    "inputs, recorded", ROWS, ids=[f"{x['stage']}-{x['seed']}" for x, _ in ROWS]
)
def test_stage_matches_the_recording(inputs, recorded):
    assert pins.STUDY.compute(inputs) == recorded


def test_rows_are_the_study_and_fit_sweeps_panel():
    sys.path.insert(0, str(pins.PERFBENCH))
    try:
        from workloads import FitSweep
    finally:
        sys.path.remove(str(pins.PERFBENCH))
    evaluate = {"stage": "evaluate", "seed": 10004, "config": {"eval": {"n_experiments": 1000}}}
    simulate = {"stage": "simulate", "seed": 10004, "config": {}}
    fits = [{"stage": "fit", "seed": 10000 + slot, "config": FitSweep.config} for slot in range(8)]
    assert [inputs for inputs, _ in ROWS] == [evaluate, simulate, *fits]


def test_study_line_quotes_the_document():
    document = {
        "rows": [
            {
                "inputs": {"stage": "evaluate"},
                "output": {
                    "mu": float.hex(1.25), "kappa": float.hex(0.125),
                    "candidate_crashes": 3, "candidate_timeouts": 122, "baseline_crashes": 24,
                },
            },
            {"inputs": {"stage": "fit"}, "output": {"selected_k": 3}},
            {"inputs": {"stage": "fit"}, "output": {"selected_k": 2}},
        ]
    }
    assert pins.study_line(document) == (
        "study: mu 1.250000 kappa 0.125 (3 crashes, 122 time-outs), baseline 24 crashes; "
        "fit K by slot 3 2"
    )
