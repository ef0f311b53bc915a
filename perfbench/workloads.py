"""The three workloads, each driving one layer of crossingsim hard.

All three are closed loops: one client issues operation ``index`` only
after operation ``index - 1`` returned. Operation ``index`` always gets
the same inputs for a given workload seed, so its outputs can be checked
against oracles, self-consistency rules, and the reference values in
``expected-<workload>.json`` (written by ``make_expected.py``).

Each workload has a fixed panel of ``period`` inputs, made from master
seeds ``10000 + slot``. The workload seed sets the slot a run starts at,
and a run goes round the panel in order, so successive operations see
different inputs and runs with different seeds cover nearly the same
work. See NOTES.md for why each workload exists and which layer it
isolates.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

from crossingsim import agents, cli, ingest, mixture, seeds, sim
from crossingsim.metrics import EvaluationReport

HERE = Path(__file__).resolve().parent

# Reference mu may move by this share and cv by this amount before an
# evaluate output counts as wrong: a legitimate change to the mode search
# can shift a passing time by one step in a pair without being a bug.
MU_REL_TOL = 1e-3
CV_ABS_TOL = 2e-3


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI stage in-process; returns (exit status, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, err.getvalue().strip()


def write_json(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def expected_path(workload: str) -> Path:
    return HERE / f"expected-{workload}.json"


def load_expected(workload: str) -> list[dict]:
    return json.loads(expected_path(workload).read_text(encoding="utf-8"))


class Workload:
    """One closed-loop workload; subclasses fill in the operation."""

    name = ""
    items_per_op = 1
    attempts_per_op = 1  # operations counted toward error_rate per call of run()
    period = 1  # inputs in the workload's panel
    traced_ops = 1  # operations a traced run records
    coverage = False  # whether a traced run ends with coverage_pass()
    rate_name = "items_per_s"  # how the summary line reports the median op

    def rate(self, op_s: float) -> float:
        return self.items_per_op / op_s

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def slot(self, index: int) -> int:
        """Panel entry that operation ``index`` of this run uses."""
        return (self.seed + index) % self.period

    def master_seed(self, index: int) -> int:
        return 10_000 + self.slot(index)

    def setup(self) -> None:
        """Timed set-up: write config and input artifacts under work_dir."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: load what the output checks compare against."""

    def run(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> list[str]:
        """Problems found in one operation's output; empty when correct."""
        raise NotImplementedError

    def tamper(self, index: int, output):
        """Corrupt one operation's output the way a bug might (self-test)."""
        raise NotImplementedError


class FitSweep(Workload):
    """``fit`` over K = 1..3 with truncated EM on 3000 synthetic rows.

    Most of the time is Monte Carlo truncated moments inside EM. EM is
    capped at 100 iterations and 2000 accepted moment draws per call, so
    one fit takes seconds, not minutes. K = 4 is left out; NOTES.md says
    why. EM runs three restarts, as the README's example config does: the
    generator check below holds for the best of several local EM optima,
    not for any one of them.
    """

    name = "fit-sweep"
    rate_name = "fit_s"
    period = 8
    traced_ops = 2
    config = {
        "mixture": {
            "k_min": 1,
            "k_max": 3,
            "restarts": 3,
            "max_iterations": 100,
            "mc_moment_draws": 2000,
        },
        "ingest": {"n_synthetic": 3000},
    }

    def rate(self, op_s: float) -> float:
        return op_s

    def _dir(self, index: int) -> Path:
        return self.work_dir / f"data-{self.slot(index)}"

    def _argv(self, stage: str, index: int) -> list[str]:
        return [
            stage,
            "--config", str(self.work_dir / "config.json"),
            "--seed", str(self.master_seed(index)),
            "--out", str(self._dir(index)),
        ]

    def setup(self) -> None:
        write_json(self.work_dir / "config.json", self.config)
        for index in range(self.period):
            self._dir(index).mkdir()
            status, err = run_cli(self._argv("gen-data", index))
            if status != 0:
                raise RuntimeError(f"gen-data failed: {err}")

    def prepare(self) -> None:
        generator = ingest.reference_generator()
        self.data = {}
        self.generator_loglik = {}
        for index in range(self.period):
            rows = ingest.read_observations(self._dir(index) / "observations.csv").data
            self.data[self.slot(index)] = rows
            self.generator_loglik[self.slot(index)] = generator.log_likelihood(rows)

    def run(self, index: int):
        for name in ("model.json", "bic_curve.csv"):
            (self._dir(index) / name).unlink(missing_ok=True)
        return run_cli(self._argv("fit", index))

    def check(self, index: int, output) -> list[str]:
        status, err = output
        if status != 0:
            return [f"fit exited {status}: {err}"]
        directory = self._dir(index)
        rows = self.data[self.slot(index)]
        n, dim = rows.shape
        try:
            curve = _read_bic_curve(directory / "bic_curve.csv")
            model = mixture.GaussianMixture.load(directory / "model.json")
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable fit output: {exc!r}"]
        problems = []
        if sorted(curve) != [1, 2, 3]:
            problems.append(f"fitted counts {sorted(curve)}, expected 1..3")
        floor = self.generator_loglik[self.slot(index)]
        for k, value in curve.items():
            params = (k - 1) + k * dim + k * dim * (dim + 1) // 2
            loglik = (params * math.log(n) - value) / 2.0
            if k >= 3 and loglik < floor:
                problems.append(f"K={k} log-likelihood {loglik} below generator's {floor}")
        k = model.n_components
        if k not in curve:
            problems.append(f"model.json has K={k}, not on the BIC curve")
        elif not math.isclose(mixture.bic(model, rows), curve[k], rel_tol=1e-9):
            problems.append(f"model.json does not reproduce the curve's BIC at K={k}")
        return problems

    def tamper(self, index: int, output):
        path = self._dir(index) / "bic_curve.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        k, value, rate = lines[3].split(",")  # the K=3 row
        lines[3] = f"{k},{float(value) + 1000.0!r},{rate}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return output


def _read_bic_curve(path: Path) -> dict[int, float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "K,bic,change_rate":
        raise ValueError(f"bad header {lines[0]!r}")
    return {int(line.split(",")[0]): float(line.split(",")[1]) for line in lines[1:]}


class EvaluatePaired(Workload):
    """Serial ``evaluate`` of soft-yield against the human baseline.

    One pedestrian per episode, default SimConfig, and the built-in
    reference generator as model.json, so a change to EM cannot change
    this workload's inputs. The human baseline's conditional-mode search
    takes most of the time.
    """

    name = "evaluate-paired"
    rate_name = "pairs_per_s"
    items_per_op = 25
    period = 16
    traced_ops = 3
    coverage = True

    def setup(self) -> None:
        write_json(self.work_dir / "config.json", {"eval": {"n_experiments": self.items_per_op}})
        ingest.reference_generator().save(self.work_dir / "model.json")

    def prepare(self) -> None:
        self.expected = load_expected(self.name)

    def run(self, index: int):
        (self.work_dir / "report.json").unlink(missing_ok=True)
        return run_cli([
            "evaluate",
            "--config", str(self.work_dir / "config.json"),
            "--seed", str(self.master_seed(index)),
            "--out", str(self.work_dir),
        ])

    @staticmethod
    def summarize(report: EvaluationReport) -> dict:
        return {
            "n_pairs": report.n_pairs,
            "n_excluded": report.n_excluded,
            "candidate_crashes": report.candidate_crashes,
            "candidate_timeouts": report.candidate_timeouts,
            "baseline_crashes": report.baseline_crashes,
            "baseline_timeouts": report.baseline_timeouts,
            "mu": report.mu,
            "cv": report.cv,
        }

    def check(self, index: int, output) -> list[str]:
        status, err = output
        if status != 0:
            return [f"evaluate exited {status}: {err}"]
        try:
            report = EvaluationReport.load(self.work_dir / "report.json")
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable report.json: {exc!r}"]
        problems = []
        if not report.running_mean or report.running_mean[-1] != report.mu:
            problems.append("running_mean[-1] != mu")
        got = self.summarize(report)
        want = self.expected[self.slot(index)]
        for key, value in want.items():
            if key == "mu":
                ok = math.isclose(got[key], value, rel_tol=MU_REL_TOL)
            elif key == "cv":
                ok = abs(got[key] - value) <= CV_ABS_TOL
            else:
                ok = got[key] == value
            if not ok:
                problems.append(f"{key} = {got[key]!r}, reference {value!r}")
        return problems

    def tamper(self, index: int, output):
        path = self.work_dir / "report.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        document["mu"] += 0.1
        write_json(path, document)
        return output


class EpisodesCrowd(Workload):
    """Candidate-only soft-yield episodes under Poisson arrivals.

    540 pedestrians per hour, about 8.5 per episode, each choosing a walk
    speed by conditioning the reference model; stepping and walk-speed
    decisions share the time, and no mode search runs.
    """

    name = "episodes-crowd"
    rate_name = "episodes_per_s"
    items_per_op = 50
    attempts_per_op = 50
    period = 32
    traced_ops = 2
    sim_config = sim.SimConfig(arrival_mode="poisson", arrival_rate=0.15)

    def setup(self) -> None:
        path = self.work_dir / "model.json"
        ingest.reference_generator().save(path)
        self.model = mixture.GaussianMixture.load(path)

    def prepare(self) -> None:
        self.expected = load_expected(self.name)

    def run(self, index: int):
        config = self.sim_config
        master = self.master_seed(index)
        results = []
        for episode in range(self.items_per_op):
            schedule = sim.experiment_schedule(config, master, episode)
            walk_seeds = [
                seeds.derive_seed(master, f"walk-{episode}", j) for j in range(len(schedule))
            ]
            strategy = agents.SoftYieldStrategy(agents.SoftYieldParams(), config.crossing_length)
            results.append(
                sim.run_episode(
                    config, strategy, schedule, model=self.model, walk_speed_seeds=walk_seeds
                )
            )
        return results

    @staticmethod
    def summarize(results) -> dict:
        return {
            "spawned": sum(len(r.walk_speeds) for r in results),
            "crashes": sum(r.crashed for r in results),
            "timeouts": sum(r.timed_out for r in results),
        }

    def check(self, index: int, output) -> list[str]:
        lo, hi = self.sim_config.walk_speed_min, self.sim_config.walk_speed_max
        problems = [
            f"walk speed {speed!r} outside [{lo}, {hi}]"
            for result in output
            for speed in result.walk_speeds
            if not lo <= speed <= hi
        ]
        got = self.summarize(output)
        want = self.expected[self.slot(index)]
        problems += [
            f"{key} = {got[key]}, reference {value}"
            for key, value in want.items()
            if got[key] != value
        ]
        return problems

    def tamper(self, index: int, output):
        first = output[0]
        speeds = (self.sim_config.walk_speed_max * 2,) + first.walk_speeds[1:]
        return [dataclasses.replace(first, walk_speeds=speeds)] + output[1:]


WORKLOADS = {w.name: w for w in (FitSweep, EvaluatePaired, EpisodesCrowd)}


def coverage_pass(directory: Path) -> list[tuple[str, int, str]]:
    """Run every CLI stage once at a tiny size; returns (stage, status, stderr).

    The traced run of evaluate-paired ends with this pass, so that
    condition and simulate, which no workload drives, are timed at all.
    """
    directory.mkdir()
    config = directory / "config.json"
    write_json(config, {
        "master_seed": 7,
        "mixture": {"k_min": 1, "k_max": 2, "max_iterations": 5, "mc_moment_draws": 500},
        "ingest": {"n_synthetic": 300},
        "eval": {"n_experiments": 2},
    })
    common = ["--config", str(config), "--out", str(directory)]
    outcomes = []
    for stage, extra in (
        ("gen-data", []),
        ("fit", []),
        ("condition", ["--given", "inv_R=0.12", "--given", "v=5.0", "--points", "201"]),
        ("simulate", []),
        ("evaluate", []),
    ):
        status, err = run_cli([stage, *common, *extra])
        outcomes.append((stage, status, err))
        if stage == "fit":
            # The later stages run on the reference model, as the workloads do.
            ingest.reference_generator().save(directory / "model.json")
    return outcomes
