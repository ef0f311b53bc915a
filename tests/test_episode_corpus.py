"""Engine results and per-step commands pinned against recordings.

``episode_corpus.json`` holds, for every episode of a few fixed
configurations, each ``EpisodeResult`` field (floats as ``float.hex``)
and a SHA-256 of the rows that ``record_trajectory=True`` writes.  The
episodes run with and without recording, and both must match with
``==``.  ``strategy_corpus.json`` pins the per-step commands that both
strategies give over paired episodes, from which the engine integrates.
Both pins are computed and compared in ``pins.py``.

Re-record every pin (only for a change that moves results on purpose,
and name it in CHANGES.md):

    PYTHONPATH=src python3 tests/pins.py
"""

from __future__ import annotations

from functools import partial

import pytest

import pins
from pins import EveryStep, episode_fields, trajectory_sha256
from crossingsim import sim
from crossingsim.agents import (
    HumanDriver,
    HumanDriverParams,
    SoftYieldParams,
    SoftYieldStrategy,
    StrategyDecision,
)
from crossingsim.ingest import reference_generator
from crossingsim.seeds import derive_seed
from crossingsim.sim import EpisodeResult, SimConfig, experiment_schedule, run_episode


def assert_pin_holds(pin: pins.Pin) -> dict:
    """The recorder rewrites nothing in ``pin``'s file; returns its document."""
    recorded = pin.load()
    document, summary = pins.refresh(pin, recorded)
    assert summary.rewritten == 0
    assert document == recorded
    return recorded


def test_episodes_match_the_recording():
    document = assert_pin_holds(pins.EPISODES)
    # The corpus exercises every way an episode can end.
    fields = [e["fields"] for episodes in document["cases"].values() for e in episodes]
    assert any(f["crashed"] for f in fields)
    assert any(f["timed_out"] for f in fields)
    assert any(f["passing_time"] is not None for f in fields)
    assert any(f["strategy_fallbacks"] for f in fields)


def assert_same(held: EpisodeResult, asked: EpisodeResult) -> None:
    """Equal fields and trajectory rows, bit for bit."""
    assert episode_fields(held) == episode_fields(asked)
    assert trajectory_sha256(held.trajectory) == trajectory_sha256(asked.trajectory)


def ends_parked(result: EpisodeResult, last: StrategyDecision) -> bool:
    """True when a recorded episode timed out under a final hold without
    end, with the vehicle at speed 0 short of the line."""
    row = result.trajectory[-1]
    return (
        result.timed_out
        and last.final
        and last.until == float("inf")
        and row.vehicle_speed == 0.0
        and row.longitudinal_gap > 0.0
    )


# (config, master seed, pairs, whether some vehicle parks).  None parks in
# hidden-spawns, and the evaluate-200 vehicles that stop short of the line
# keep creeping at about 3e-15 m/s.
HELD_CASES = {
    name: (SimConfig(**case["sim"]), case["master_seed"], case["n"], name != "hidden-spawns")
    for name, case in pins.PAIRED_CASES.items()
}
HELD_CASES["evaluate-200"] = (SimConfig(), 10004, 200, False)


@pytest.mark.parametrize("held_case", list(HELD_CASES.values()), ids=list(HELD_CASES))
def test_held_decisions_change_no_result(held_case, monkeypatch):
    """Each pair's soft-yield and human episodes give the same bits whether
    the engine applies held decisions or asks on every step."""
    config, master, n, parks = held_case
    finished = []
    last_step = sim._last_step
    monkeypatch.setattr(sim, "_last_step", lambda *args: finished.append(args) or last_step(*args))
    model = reference_generator()
    soft_yield = partial(SoftYieldStrategy, SoftYieldParams(), config.crossing_length)
    human = partial(HumanDriver, model, HumanDriverParams(), config.free_flow_speed)
    finals = parked = 0
    for index in range(n):
        schedule = experiment_schedule(config, master, index)
        seeds = [derive_seed(master, f"walk-{index}", j) for j in range(len(schedule))]

        def run(strategy, record, walk_speeds=None):
            return run_episode(
                config, strategy, schedule, model=model, walk_speed_seeds=seeds,
                walk_speeds=walk_speeds, record_trajectory=record,
            )

        every_step = EveryStep(soft_yield())
        asked = run(every_step, True)
        assert_same(run(soft_yield(), True), asked)
        # Without a trajectory, a parked vehicle's episode ends at once.
        plain = run(soft_yield(), False)
        assert episode_fields(plain) == episode_fields(asked)
        finals += every_step.last.final
        parked += ends_parked(asked, every_step.last)
        speeds = plain.walk_speeds
        assert_same(run(human(), True, speeds), run(EveryStep(human()), True, speeds))
    assert finals
    # Exactly the parked plain episodes end by the parked finish.
    assert len(finished) == parked
    assert bool(parked) == parks


def test_per_step_commands_match_the_recording():
    candidates, baselines = pins.strategy_recordings()
    # Some soft-yield plans get revised, some step flags a fallback, and
    # the baseline's updates went through the engine's batched search.
    assert any(len(rec.decision_times) > 1 for rec in candidates)
    assert any(flag for rec in candidates + baselines for _, flag in rec.steps)
    assert any(rec.resumed for rec in baselines)
    assert_pin_holds(pins.STRATEGY_COMMANDS)
