"""Every pinned output: how it is computed, compared and re-recorded.

A pin is a JSON file of recorded entries.  For each pin this module
holds the function that computes an entry from its fixed inputs and the
function that says whether a recorded entry agrees with a computed one.
The pin's test and the recorder call the same two.  The benchmark's
``perfbench/expected-*.json`` files are pins too, recorded by
``perfbench/make_expected.py``.

Re-record every pin (only for a change that moves outputs on purpose,
with the printed summary in CHANGES.md):

    PYTHONPATH=src python3 tests/pins.py

The recorder keeps each recorded entry that its pin's comparison accepts
and writes the computed entry only where the comparison fails, so an
unchanged tree re-records byte for byte.  Per pin it prints the entries
checked, the entries rewritten and the largest absolute change of any
number in a rewritten entry, ``float.hex`` strings decoded; a change of
shape or kind (an error that became a number) counts as ``inf``.  Its
last line is the study's answer as ``study_corpus.json`` holds it (mu,
kappa and the crash counts of the 1000-pair evaluate, each fit's
selected K), to quote before and after any change.

Only numpy and crossingsim are needed: no pytest, hypothesis or scipy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from crossingsim import cli, mixture
from crossingsim.agents import (
    ArrivalSchedule,
    HumanDriver,
    HumanDriverParams,
    ModeQuery,
    SoftYieldParams,
    SoftYieldStrategy,
    StrategyDecision,
    decide_walk_speed,
)
from crossingsim.ingest import reference_generator
from crossingsim.mixture import Conditioner, FitConfig, conditional_mode, select_components
from crossingsim.scenario import OBS_INV_RANGE, OBS_INV_TIME_ADVANTAGE, OBS_WALK_SPEED
from crossingsim.seeds import derive_seed
from crossingsim.sim import (
    EpisodeResult,
    SimConfig,
    experiment_schedule,
    run_episode,
    run_paired_experiments,
)

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


class Pin:
    """A JSON file at ``path`` holding one recorded entry per input.

    A pin defines ``inputs(document)``, the inputs of every entry in file
    order; ``recorded(document)``, the recorded entry of each input (None
    where there is none); ``compute(inputs)``; ``agrees(inputs, recorded,
    computed)``; ``document(document, entries)``, the document with
    ``entries`` as its recorded entries; and ``text(document)``, the file.
    """

    path: Path

    def load(self) -> dict:
        return json.loads(self.path.read_text())


class Summary(NamedTuple):
    checked: int
    rewritten: int
    largest_change: float


def refresh(pin: Pin, document: dict) -> tuple[dict, Summary]:
    """``document`` re-recorded: each recorded entry that agrees with its
    computed one is kept, every other entry is the computed one."""
    inputs = pin.inputs(document)
    entries, changes = [], []
    for x, old in zip(inputs, pin.recorded(document)):
        new = pin.compute(x)
        if old is not None and pin.agrees(x, old, new):
            entries.append(old)
        else:
            entries.append(new)
            changes.append(_change(old, new))
    summary = Summary(len(inputs), len(changes), max(changes, default=0.0))
    return pin.document(document, entries), summary


_HEX_FLOAT = re.compile(r"-?0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]?\d+|-?inf|nan")


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, str) and _HEX_FLOAT.fullmatch(value):
        yield float.fromhex(value)
    else:
        yield value


def _change(old, new) -> float:
    """Largest absolute difference of the numbers in the same places of
    two entries; other leaves (hashes) may differ freely, but a change of
    shape or kind is infinite."""
    a, b = list(_leaves(old)), list(_leaves(new))
    if old is None or len(a) != len(b):
        return math.inf
    change = 0.0
    for x, y in zip(a, b):
        numbers = [isinstance(v, (int, float)) for v in (x, y)]
        if all(numbers):
            change = max(change, abs(x - y))
        elif any(numbers) or type(x) is not type(y):
            return math.inf
    return change


# ---------------------------------------------------------------------------
# Tables: rows of recorded inputs and output
# ---------------------------------------------------------------------------


class Table(Pin):
    """``{"description": ..., "rows": [{"inputs": ..., "output": ...}]}``.

    The inputs are recorded with the outputs and kept as the file has them.
    """

    def rows(self) -> list[tuple]:
        """(inputs, output) of every recorded row."""
        return [(row["inputs"], row["output"]) for row in self.load()["rows"]]

    def inputs(self, document):
        return [row["inputs"] for row in document["rows"]]

    def recorded(self, document):
        return [row["output"] for row in document["rows"]]

    def document(self, document, entries):
        rows = [{"inputs": x, "output": y} for x, y in zip(self.inputs(document), entries)]
        return {"description": document["description"], "rows": rows}

    def text(self, document):
        description = json.dumps(document["description"])
        rows = ",\n".join(f"  {json.dumps(row)}" for row in document["rows"])
        return f'{{\n "description": {description},\n "rows": [\n{rows}\n ]\n}}\n'


@cache
def reference_model():
    return reference_generator()


# The default scenario's walk-speed clamp (SimConfig.walk_speed_min/max).
WALK_BOUNDS = (SimConfig().walk_speed_min, SimConfig().walk_speed_max)


class WalkSpeeds(Table):
    """(range, speed, seed) -> [walk speed, fallback] of decide_walk_speed."""

    path = TESTS / "walk_speed_corpus.json"

    def compute(self, inputs):
        vehicle_range, vehicle_speed, seed = inputs
        decision = decide_walk_speed(
            reference_model(), vehicle_range, vehicle_speed, seed, WALK_BOUNDS
        )
        return list(decision)

    def agrees(self, inputs, recorded, computed):
        return recorded == computed


@cache
def _human_search() -> tuple[Conditioner, tuple[float, float]]:
    model = reference_model()
    observed = [OBS_INV_RANGE, OBS_WALK_SPEED, OBS_INV_TIME_ADVANTAGE]
    return Conditioner(model, observed), HumanDriver._speed_interval(model)


def human_conditional(inputs) -> mixture.GaussianMixture:
    """The human driver's 1-D desired-speed conditional at (1/R, v_p, 1/T_adv)."""
    return _human_search()[0](inputs)


class HumanDecisions(Table):
    """(1/R, v_p, 1/T_adv) -> the desired speed's conditional mode, or the
    name of the error its search raised."""

    path = TESTS / "human_corpus.json"

    def compute(self, inputs):
        try:
            return conditional_mode(human_conditional(inputs), _human_search()[1])
        except ValueError as error:
            return type(error).__name__

    def agrees(self, inputs, recorded, computed):
        if isinstance(recorded, str) or isinstance(computed, str):
            return recorded == computed
        if not abs(computed - recorded) <= 1e-6:
            return False
        # The recorded golden-section results sit within 4e-8 of the mode,
        # where the density is flat to rounding; allow a few ulps.
        new, old = human_conditional(inputs).density(np.array([[computed], [recorded]]))
        return bool(new >= old * (1.0 - 4 * np.finfo(float).eps))


class TruncatedSweeps(Table):
    """seed -> [K, BIC, n_iterations, converged, restart_index,
    reinit_events] for K = 1..3 of a truncated select_components."""

    path = TESTS / "truncated_corpus.json"

    def compute(self, seed):
        diagnostics = {}
        em_fit = mixture.em_fit

        def recording_em_fit(data, config, box=None):
            model, diag = em_fit(data, config, box)
            diagnostics[config.n_components] = diag
            return model, diag

        rows = reference_generator().sample(600, seed=seed)
        config = FitConfig(
            n_components=1, truncation_mode="truncated", max_iterations=50,
            restarts=2, seed=seed, mc_moment_draws=2000,
        )
        mixture.em_fit = recording_em_fit
        try:
            curve = select_components(rows, [1, 2, 3], config).curve
        finally:
            mixture.em_fit = em_fit
        out = []
        for point in curve:
            diag = diagnostics[point.n_components]
            out.append([
                point.n_components, point.bic_value, diag.n_iterations, diag.converged,
                diag.restart_index, [list(event) for event in diag.reinit_events],
            ])
        return out

    def agrees(self, seed, recorded, computed):
        return len(recorded) == len(computed) and all(
            old[0] == new[0]
            and abs(new[1] - old[1]) <= 1e-9 * abs(old[1])
            and old[2:] == new[2:]
            for old, new in zip(recorded, computed)
        )


# ---------------------------------------------------------------------------
# Engine corpora: every episode result, every per-step command
# ---------------------------------------------------------------------------

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
CRASH_CASE = "never-brake-crashes"
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


def trajectory_sha256(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        line = ",".join(float.hex(v) if isinstance(v, float) else repr(v) for v in row)
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def episode_fields(result: EpisodeResult) -> dict:
    """Every field but the trajectory, floats as ``float.hex``."""
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
    fields = episode_fields(recorded)
    assert episode_fields(plain) == fields
    entry = {"fields": fields, "trajectory_sha256": trajectory_sha256(recorded.trajectory)}
    return entry, plain


def paired_episodes(case: dict) -> list[dict]:
    config = SimConfig(**case["sim"])
    model = reference_model()
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


class Episodes(Pin):
    """Case name -> every EpisodeResult field and a SHA-256 of the
    ``record_trajectory`` rows, per episode, compared with ``==``."""

    path = TESTS / "episode_corpus.json"

    def inputs(self, document):
        return [*PAIRED_CASES, CRASH_CASE]

    def recorded(self, document):
        return [document["cases"].get(name) for name in self.inputs(document)]

    def compute(self, name):
        return crash_episodes() if name == CRASH_CASE else paired_episodes(PAIRED_CASES[name])

    def agrees(self, name, recorded, computed):
        return recorded == computed

    def document(self, document, entries):
        return {
            "description": (
                "Every EpisodeResult field (floats as float.hex) and a SHA-256 of the "
                "record_trajectory rows, per episode; see tests/test_episode_corpus.py."
            ),
            "cases": dict(zip(self.inputs(document), entries)),
        }

    def text(self, document):
        return json.dumps(document, indent=1) + "\n"


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


# Poisson arrivals dense enough that some soft-yield plans get revised.
STRATEGY_CASE = dict(
    sim=dict(arrival_mode="poisson", arrival_rate=0.15), master_seed=7, n_experiments=20
)


@cache
def strategy_recordings() -> tuple[list[EveryStep], list[EveryStep]]:
    """The candidate and baseline recorders of STRATEGY_CASE's pairs."""
    config = SimConfig(**STRATEGY_CASE["sim"])
    model = reference_model()
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


def compact_json(document) -> str:
    """``json.dumps`` with indent 1, but each innermost list or object on
    one line."""
    return re.sub(
        r"([\[{])\n\s*([^\[\]{}]*?)\n\s*([\]}])",
        lambda m: m[1] + re.sub(r",\n\s*", ", ", m[2]) + m[3],
        json.dumps(document, indent=1),
    ) + "\n"


def run_lengths(steps):
    """[acceleration, fallback, count] for each run of equal steps."""
    runs = []
    for acceleration, fallback in steps:
        if runs and runs[-1][:2] == [acceleration, fallback]:
            runs[-1][2] += 1
        else:
            runs.append([acceleration, fallback, 1])
    return runs


class StrategyCommands(Pin):
    """Pair index -> the per-step commands of both strategies, as runs,
    compared with ``==``."""

    path = TESTS / "strategy_corpus.json"

    def inputs(self, document):
        return list(range(STRATEGY_CASE["n_experiments"]))

    def recorded(self, document):
        pairs = document["pairs"]
        return [pairs[i] if i < len(pairs) else None for i in self.inputs(document)]

    def compute(self, index):
        candidates, baselines = strategy_recordings()
        return {
            "candidate": run_lengths(candidates[index].steps),
            "baseline": run_lengths(baselines[index].steps),
        }

    def agrees(self, index, recorded, computed):
        return recorded == computed

    def document(self, document, entries):
        return {
            "description": (
                "Per-step (acceleration, fallback) of SoftYieldStrategy (candidate) and "
                "HumanDriver (baseline) with default parameters over paired episodes on "
                "reference_generator(); each run is [acceleration, fallback, steps]."
            ),
            **STRATEGY_CASE,
            "pairs": entries,
        }

    def text(self, document):
        return compact_json(document)


# ---------------------------------------------------------------------------
# The study's answer: a 1000-pair evaluate, one simulate, fit-sweep's fits
# ---------------------------------------------------------------------------

STUDY_COUNTS = (
    "n_excluded", "candidate_crashes", "candidate_timeouts", "baseline_crashes",
    "baseline_timeouts",
)


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_stage(stage: str, directory: Path, seed: int) -> None:
    """Run one CLI stage in-process in ``directory``, on its config.json."""
    argv = [stage, "--config", str(directory / "config.json"), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main([*argv, "--out", str(directory)])
    if status != cli.EXIT_OK:
        raise RuntimeError(f"{stage} --seed {seed} exited {status}")


def study_evaluate(directory: Path, seed: int) -> dict:
    """``evaluate`` on the reference generator: mu, sigma, cv and kappa as
    ``float.hex``, the five counts, and SHA-256 of both written files."""
    reference_model().save(directory / "model.json")
    run_stage("evaluate", directory, seed)
    report = json.loads((directory / "report.json").read_text())
    return {
        **{key: float.hex(report[key]) for key in ("mu", "sigma", "cv", "kappa")},
        **{key: report[key] for key in STUDY_COUNTS},
        "report_sha256": file_sha256(directory / "report.json"),
        "series_sha256": file_sha256(directory / "series.csv"),
    }


def study_simulate(directory: Path, seed: int) -> dict:
    """``simulate`` on the reference generator: SHA-256 of ``trajectory.csv``.

    Its rows hold the vehicle's state between steps, which the evaluate's
    passing times, whole steps of ``dt``, do not show.
    """
    reference_model().save(directory / "model.json")
    run_stage("simulate", directory, seed)
    return {"trajectory_sha256": file_sha256(directory / "trajectory.csv")}


def study_fit(directory: Path, seed: int) -> dict:
    """``gen-data`` then ``fit``: the selected K, each K's BIC as
    ``float.hex``, and SHA-256 of ``model.json`` and ``bic_curve.csv``."""
    run_stage("gen-data", directory, seed)
    run_stage("fit", directory, seed)
    curve = [line.split(",") for line in (directory / "bic_curve.csv").read_text().split()[1:]]
    return {
        "selected_k": json.loads((directory / "model.json").read_text())["n_components"],
        "bic": [[int(k), float.hex(float(value))] for k, value, _ in curve],
        "model_sha256": file_sha256(directory / "model.json"),
        "bic_curve_sha256": file_sha256(directory / "bic_curve.csv"),
    }


STUDY_STAGES = {"evaluate": study_evaluate, "simulate": study_simulate, "fit": study_fit}


class Study(Table):
    """{stage, seed, config} -> the pinned outputs of that CLI stage, run
    in-process in a fresh directory and compared with ``==``.

    The rows are the study's evaluate (the reference generator as the
    model, master seed 10004, 1000 pairs, default settings otherwise), the
    simulate of that seed's first episode, and ``fit-sweep``'s fits
    (``perfbench/workloads.py``) on its panel's slots 0-7, master seeds
    10000-10007.
    """

    path = TESTS / "study_corpus.json"

    def compute(self, inputs):
        with tempfile.TemporaryDirectory() as name:
            directory = Path(name)
            (directory / "config.json").write_text(json.dumps(inputs["config"]))
            return STUDY_STAGES[inputs["stage"]](directory, inputs["seed"])

    def agrees(self, inputs, recorded, computed):
        return recorded == computed

    def text(self, document):
        return compact_json(document)


def study_line(document: dict) -> str:
    """The study's answer in one line, from a ``study_corpus.json`` document."""
    fits, evaluate = [], None
    for row in document["rows"]:
        if row["inputs"]["stage"] == "evaluate":
            evaluate = row["output"]
        elif row["inputs"]["stage"] == "fit":
            fits.append(row["output"]["selected_k"])
    mu, kappa = (float.fromhex(evaluate[key]) for key in ("mu", "kappa"))
    return (
        f"study: mu {mu:.6f} kappa {kappa:.6g} ({evaluate['candidate_crashes']} crashes, "
        f"{evaluate['candidate_timeouts']} time-outs), baseline "
        f"{evaluate['baseline_crashes']} crashes; fit K by slot {' '.join(map(str, fits))}"
    )


WALK_SPEEDS = WalkSpeeds()
HUMAN_DECISIONS = HumanDecisions()
TRUNCATED_SWEEPS = TruncatedSweeps()
EPISODES = Episodes()
STRATEGY_COMMANDS = StrategyCommands()
STUDY = Study()
PINS = (WALK_SPEEDS, HUMAN_DECISIONS, TRUNCATED_SWEEPS, EPISODES, STRATEGY_COMMANDS, STUDY)


def refresh_expected(path: Path) -> Summary:
    """Re-record one ``perfbench/expected-<workload>.json`` with
    ``perfbench/make_expected.py``, which rewrites every entry."""
    old = json.loads(path.read_text())
    workload = path.stem.removeprefix("expected-")
    subprocess.run(
        [sys.executable, str(PERFBENCH / "make_expected.py"), workload],
        check=True, stdout=subprocess.DEVNULL,
    )
    new = json.loads(path.read_text())
    changes = [
        _change(old[i] if i < len(old) else None, entry)
        for i, entry in enumerate(new)
        if i >= len(old) or old[i] != entry
    ]
    return Summary(len(new), len(changes), max(changes, default=0.0))


def main() -> None:
    summaries = []
    for pin in PINS:
        document, summary = refresh(pin, pin.load())
        pin.path.write_text(pin.text(document))
        summaries.append((pin.path, summary))
    for path in sorted(PERFBENCH.glob("expected-*.json")):
        summaries.append((path, refresh_expected(path)))
    for path, (checked, rewritten, change) in summaries:
        print(
            f"{path.relative_to(TESTS.parent)}: {checked} checked, {rewritten} rewritten, "
            f"largest change {change:.3g}"
        )
    print(study_line(STUDY.load()))


if __name__ == "__main__":
    main()
