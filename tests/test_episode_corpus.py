"""Engine results and per-step commands pinned against recordings.

``episode_corpus.json`` holds, for every episode of a few fixed
configurations, each ``EpisodeResult`` field (floats as ``float.hex``)
and a SHA-256 of the rows that ``record_trajectory=True`` writes.  The
episodes run with and without recording, and both must match with
``==``.  ``strategy_corpus.json`` pins the per-step commands that both
strategies give over paired episodes, from which the engine integrates.

Re-record both (only for a change that moves results on purpose, and
name it in CHANGES.md):

    PYTHONPATH=src python3 tests/test_episode_corpus.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from functools import partial
from pathlib import Path

import numpy as np

from crossingsim.agents import (
    ArrivalSchedule,
    HumanDriver,
    HumanDriverParams,
    ModeQuery,
    SoftYieldParams,
    SoftYieldStrategy,
    StrategyDecision,
)
from crossingsim import sim
from crossingsim.ingest import reference_generator
from crossingsim.seeds import derive_seed
from crossingsim.sim import (
    EpisodeResult,
    SimConfig,
    experiment_schedule,
    run_episode,
    run_paired_experiments,
)

CORPUS = Path(__file__).with_name("episode_corpus.json")
STRATEGY_CORPUS = Path(__file__).with_name("strategy_corpus.json")

# Paired soft-yield / human episodes, as run_paired_experiments runs them.
PAIRED_CASES = {
    "fixed": dict(sim=dict(fixed_count=3, arrival_rate=0.2), master_seed=11, n=8),
    "poisson": dict(sim=dict(arrival_mode="poisson", arrival_rate=0.15), master_seed=12, n=8),
    # Pedestrians spawn at 60 m but are visible only from 40 m.
    "hidden-spawns": dict(
        sim=dict(
            trigger_range=60.0, detection_range=40.0, arrival_mode="poisson", arrival_rate=0.3
        ),
        master_seed=13,
        n=6,
    ),
}

# Acceptance test 12's set-up: a vehicle that never brakes, replayed walk
# speeds, one or three walkers; 19 of these 113 episodes crash.
CRASH_SPEEDS = [round(0.3 + 0.05 * i, 2) for i in range(55)]
CRASH_TRIPLES = [(0.6, 0.9, 1.2), (1.45, 0.65, 2.0), (0.7, 0.7, 0.7)]


class NeverBrake:
    def command(self, clock, longitudinal_gap, vehicle_speed, pedestrians):
        return StrategyDecision(0.0)


def _encode(value):
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _trajectory_sha256(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        line = ",".join(float.hex(v) if isinstance(v, float) else repr(v) for v in row)
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def _fields(result: EpisodeResult) -> dict:
    return {
        f.name: _encode(getattr(result, f.name))
        for f in dataclasses.fields(result)
        if f.name != "trajectory"
    }


def _both_ways(run) -> tuple[dict, EpisodeResult]:
    """Run one episode plain and recorded; the plain fields must match.

    Returns the corpus entry and the plain result.
    """
    plain = run(False)
    recorded = run(True)
    assert plain.trajectory is None
    fields = _fields(recorded)
    assert _fields(plain) == fields
    entry = {"fields": fields, "trajectory_sha256": _trajectory_sha256(recorded.trajectory)}
    return entry, plain


def paired_episodes(case: dict) -> list[dict]:
    config = SimConfig(**case["sim"])
    model = reference_generator()
    master = case["master_seed"]
    episodes = []
    for index in range(case["n"]):
        schedule = experiment_schedule(config, master, index)
        seeds = [derive_seed(master, f"walk-{index}", j) for j in range(len(schedule))]

        def candidate(record):
            strategy = SoftYieldStrategy(SoftYieldParams(), config.crossing_length)
            return run_episode(
                config, strategy, schedule, model=model, walk_speed_seeds=seeds,
                record_trajectory=record,
            )

        first, plain = _both_ways(candidate)
        speeds = plain.walk_speeds

        def baseline(record):
            return run_episode(
                config, HumanDriver(model, HumanDriverParams(), config.free_flow_speed),
                schedule, model=model, walk_speed_seeds=seeds, walk_speeds=speeds,
                record_trajectory=record,
            )

        episodes += [first, _both_ways(baseline)[0]]
    return episodes


def crash_episodes() -> list[dict]:
    config = SimConfig()
    runs = [((0.0,), (side,), (speed,)) for side in ("near", "far") for speed in CRASH_SPEEDS]
    runs += [((0.0, 0.8, 1.9), ("near", "far", "near"), triple) for triple in CRASH_TRIPLES]
    episodes = []
    for times, sides, speeds in runs:
        schedule = ArrivalSchedule(np.array(times), sides)
        entry, _ = _both_ways(
            lambda record: run_episode(
                config, NeverBrake(), schedule, walk_speeds=speeds, record_trajectory=record
            )
        )
        episodes.append(entry)
    return episodes


def build_corpus() -> dict:
    cases = {name: paired_episodes(case) for name, case in PAIRED_CASES.items()}
    cases["never-brake-crashes"] = crash_episodes()
    return cases


def test_episodes_match_the_recording():
    corpus = json.loads(CORPUS.read_text())
    built = build_corpus()
    # The corpus exercises every way an episode can end.
    fields = [e["fields"] for episodes in built.values() for e in episodes]
    assert any(f["crashed"] for f in fields)
    assert any(f["timed_out"] for f in fields)
    assert any(f["passing_time"] is not None for f in fields)
    assert any(f["strategy_fallbacks"] for f in fields)
    for name in built:
        assert built[name] == corpus["cases"][name], name
    assert set(built) == set(corpus["cases"])


class EveryStep:
    """Pass-through strategy that removes each decision's hold, so the
    engine asks it on every step.

    ``steps`` logs every step's (acceleration, fallback).  A step that the
    wrapped strategy answers with a mode query is logged when the engine
    resumes it, with the decision ``resume`` returns; ``resumed`` counts
    those steps.  ``last`` is the last decision passed on, and
    ``decision_times`` holds every decision time of a soft-yield plan.
    The wrapper appends itself to ``log`` when one is given.
    """

    def __init__(self, strategy, log=None):
        self.strategy = strategy
        self.last = None
        self.steps = []
        self.decision_times = set()
        self.resumed = 0
        if log is not None:
            log.append(self)

    def command(self, *args):
        decision = self.strategy.command(*args)
        if decision.__class__ is ModeQuery:
            return decision
        return self._every_step(decision)

    def resume(self, mode):
        self.resumed += 1
        return self._every_step(self.strategy.resume(mode))

    def _every_step(self, decision):
        self.last = decision
        self.steps.append((decision.acceleration, decision.fallback))
        if getattr(self.strategy, "decision_taken", False):
            self.decision_times.add(self.strategy.decision_time)
        return decision._replace(until=0.0, final=False)


def assert_same(held: EpisodeResult, asked: EpisodeResult) -> None:
    """Equal fields and trajectory rows, bit for bit."""
    assert _fields(held) == _fields(asked)
    assert _trajectory_sha256(held.trajectory) == _trajectory_sha256(asked.trajectory)


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
    for name, case in PAIRED_CASES.items()
}
HELD_CASES["evaluate-200"] = (SimConfig(), 10004, 200, False)


def pytest_generate_tests(metafunc):
    # Parametrized here, so that re-recording the corpus needs numpy only.
    if "held_case" in metafunc.fixturenames:
        metafunc.parametrize("held_case", list(HELD_CASES.values()), ids=list(HELD_CASES))


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
        assert _fields(plain) == _fields(asked)
        finals += every_step.last.final
        parked += ends_parked(asked, every_step.last)
        speeds = plain.walk_speeds
        assert_same(run(human(), True, speeds), run(EveryStep(human()), True, speeds))
    assert finals
    # Exactly the parked plain episodes end by the parked finish.
    assert len(finished) == parked
    assert bool(parked) == parks


# Poisson arrivals dense enough that some soft-yield plans get revised.
STRATEGY_CASE = dict(
    sim=dict(arrival_mode="poisson", arrival_rate=0.15), master_seed=7, n_experiments=20
)


def strategy_recordings() -> tuple[list[EveryStep], list[EveryStep]]:
    """The candidate and baseline recorders of STRATEGY_CASE's pairs."""
    config = SimConfig(**STRATEGY_CASE["sim"])
    model = reference_generator()
    log = []
    run_paired_experiments(
        config,
        model,
        lambda: EveryStep(SoftYieldStrategy(SoftYieldParams(), config.crossing_length), log),
        lambda: EveryStep(HumanDriver(model, HumanDriverParams(), config.free_flow_speed), log),
        STRATEGY_CASE["n_experiments"],
        STRATEGY_CASE["master_seed"],
    )
    return log[0::2], log[1::2]


def run_lengths(steps):
    """[acceleration, fallback, count] for each run of equal steps."""
    runs = []
    for acceleration, fallback in steps:
        if runs and runs[-1][:2] == [acceleration, fallback]:
            runs[-1][2] += 1
        else:
            runs.append([acceleration, fallback, 1])
    return runs


def strategy_document(candidates, baselines) -> dict:
    return {
        "description": (
            "Per-step (acceleration, fallback) of SoftYieldStrategy (candidate) and "
            "HumanDriver (baseline) with default parameters over paired episodes on "
            "reference_generator(); each run is [acceleration, fallback, steps]."
        ),
        **STRATEGY_CASE,
        "pairs": [
            {"candidate": run_lengths(c.steps), "baseline": run_lengths(b.steps)}
            for c, b in zip(candidates, baselines)
        ],
    }


def test_per_step_commands_match_the_recording():
    candidates, baselines = strategy_recordings()
    # Some soft-yield plans get revised, some step flags a fallback, and
    # the baseline's updates went through the engine's batched search.
    assert any(len(rec.decision_times) > 1 for rec in candidates)
    assert any(flag for rec in candidates + baselines for _, flag in rec.steps)
    assert any(rec.resumed for rec in baselines)
    recorded = json.loads(STRATEGY_CORPUS.read_text())
    assert strategy_document(candidates, baselines) == recorded


def _compact_json(document) -> str:
    """``json.dumps`` with indent 1, but each innermost list or object on
    one line."""
    return re.sub(
        r"([\[{])\n\s*([^\[\]{}]*?)\n\s*([\]}])",
        lambda m: m[1] + re.sub(r",\n\s*", ", ", m[2]) + m[3],
        json.dumps(document, indent=1),
    ) + "\n"


if __name__ == "__main__":
    document = {
        "description": (
            "Every EpisodeResult field (floats as float.hex) and a SHA-256 of the "
            "record_trajectory rows, per episode; see tests/test_episode_corpus.py."
        ),
        "cases": build_corpus(),
    }
    CORPUS.write_text(json.dumps(document, indent=1) + "\n")
    STRATEGY_CORPUS.write_text(_compact_json(strategy_document(*strategy_recordings())))
