"""Command-line pipeline driver.

Subcommands cover the full study loop: ``gen-data`` draws synthetic
observations, ``fit`` selects and fits the interaction model,
``condition`` tabulates a conditional density curve, ``simulate`` dumps
one episode trajectory, and ``evaluate`` runs the paired experiment
batch and applies the aggressiveness gates.

Every command is deterministic given the config file and master seed;
``evaluate --parallel`` only changes how work is partitioned.  Exit
statuses: 0 success (and gate pass), 1 usage or input error, 2 runtime
failure, 3 gate fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from crossingsim.agents import HumanDriver, SoftYieldStrategy
from crossingsim.config import RunConfig
from crossingsim.ingest import (
    generate_synthetic,
    read_observations,
    reference_generator,
    write_observations,
)
from crossingsim.metrics import compute_report, write_series
from crossingsim.mixture import GaussianMixture, n_free_parameters, select_components
from crossingsim.scenario import OBS_COLUMNS
from crossingsim.seeds import derive_seed
from crossingsim.sim import experiment_inputs, run_episode, run_paired_experiments

__all__ = [
    "main",
    "build_parser",
    "cmd_gen_data",
    "cmd_fit",
    "cmd_condition",
    "cmd_simulate",
    "cmd_evaluate",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_RUNTIME",
    "EXIT_GATE",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_GATE = 3


class UsageError(Exception):
    """Bad arguments, unreadable config, or missing input artifacts."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossingsim",
        description="Fit crossing-interaction mixtures and score passing strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")

    p = sub.add_parser("gen-data", help="draw synthetic observations")
    common(p)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("fit", help="select K by BIC and fit the mixture")
    common(p)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("condition", help="tabulate a conditional density curve")
    common(p)
    p.add_argument(
        "--given",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help=f"observed assignment; names among {', '.join(OBS_COLUMNS)} (repeatable)",
    )
    p.add_argument("--free", default="v_p", help="variable to tabulate (default v_p)")
    p.add_argument("--points", type=int, default=2001, help="grid resolution")
    p.set_defaults(handler=cmd_condition)

    p = sub.add_parser("simulate", help="run one episode and dump its trajectory")
    common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("evaluate", help="run the paired batch and score it")
    common(p)
    p.add_argument("--parallel", type=int, default=1, help="worker processes")
    p.set_defaults(handler=cmd_evaluate)

    return parser


def _load_setup(args: argparse.Namespace) -> tuple[RunConfig, Path]:
    if args.config is not None:
        if not args.config.is_file():
            raise UsageError(f"config file not found: {args.config}")
        try:
            config = RunConfig.load(args.config)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        config = RunConfig()
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    out_dir: Path = args.out
    if not out_dir.is_dir():
        raise UsageError(f"output directory does not exist: {out_dir}")
    return config, out_dir


def _resolve(out_dir: Path, name: str) -> Path:
    path = Path(name)
    return path if path.is_absolute() else out_dir / path


def _load_model(config: RunConfig, out_dir: Path) -> GaussianMixture:
    path = _resolve(out_dir, config.paths.model)
    if not path.is_file():
        raise UsageError(f"model file not found: {path}")
    try:
        return GaussianMixture.load(path)
    except ValueError as exc:
        raise UsageError(f"bad model file {path}: {exc}") from exc


def cmd_gen_data(config: RunConfig, args: argparse.Namespace) -> int:
    out_dir = args.out
    generator = reference_generator()
    matrix = generate_synthetic(
        generator,
        config.ingest.n_synthetic,
        derive_seed(config.master_seed, "gen-data", 0),
    )
    obs_path = _resolve(out_dir, config.paths.observations)
    write_observations(matrix, obs_path)
    gen_path = _resolve(out_dir, config.paths.generator)
    gen_path.write_text(
        json.dumps(matrix.generator, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(matrix)} observations to {obs_path}")
    return EXIT_OK


def cmd_fit(config: RunConfig, args: argparse.Namespace) -> int:
    out_dir = args.out
    obs_path = _resolve(out_dir, config.paths.observations)
    if not obs_path.is_file():
        raise UsageError(f"observation file not found: {obs_path}")
    try:
        matrix = read_observations(obs_path)
    except ValueError as exc:
        raise UsageError(f"bad observation file {obs_path}: {exc}") from exc
    mix = config.mixture
    # More rows than free parameters, or the smallest fit is not identified.
    minimum = n_free_parameters(mix.k_min, matrix.data.shape[1]) + 1
    if len(matrix) < minimum:
        raise UsageError(
            f"{obs_path} has {len(matrix)} observation rows; fitting K={mix.k_min} "
            f"needs at least {minimum}"
        )
    result = select_components(
        matrix.data,
        range(mix.k_min, mix.k_max + 1),
        mix.fit_config(derive_seed(config.master_seed, "fit", 0)),
        mix.rate_threshold,
    )
    for k, message in result.failures:
        print(f"fit failed for K={k}: {message}", file=sys.stderr)
    result.model.save(_resolve(out_dir, config.paths.model))
    curve_lines = ["K,bic,change_rate"]
    for point in result.curve:
        rate = "" if point.change_rate is None else repr(point.change_rate)
        curve_lines.append(f"{point.n_components},{point.bic_value!r},{rate}")
    _resolve(out_dir, config.paths.bic_curve).write_text(
        "\n".join(curve_lines) + "\n", encoding="utf-8"
    )
    print(f"selected K={result.selected_k} over {len(result.curve)} fitted counts")
    return EXIT_OK


def _parse_assignments(items: Sequence[str]) -> tuple[list[int], list[float]]:
    dims: dict[int, float] = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"expected NAME=VALUE, got {item!r}")
        name = name.strip()
        if name not in OBS_COLUMNS:
            raise UsageError(
                f"unknown variable {name!r}; choose from {', '.join(OBS_COLUMNS)}"
            )
        idx = OBS_COLUMNS.index(name)
        if idx in dims:
            raise UsageError(f"variable {name!r} assigned twice")
        try:
            dims[idx] = float(value)
        except ValueError as exc:
            raise UsageError(f"bad value in {item!r}: {exc}") from exc
        if not np.isfinite(dims[idx]):
            raise UsageError(f"value in {item!r} is not finite")
    ordered = sorted(dims)
    return ordered, [dims[i] for i in ordered]


def cmd_condition(config: RunConfig, args: argparse.Namespace) -> int:
    out_dir = args.out
    model = _load_model(config, out_dir)
    if not args.given:
        raise UsageError("need at least one --given NAME=VALUE assignment")
    obs_dims, values = _parse_assignments(args.given)
    free_name = args.free.strip()
    if free_name not in OBS_COLUMNS:
        raise UsageError(
            f"unknown variable {free_name!r}; choose from {', '.join(OBS_COLUMNS)}"
        )
    free_idx = OBS_COLUMNS.index(free_name)
    if free_idx in obs_dims:
        raise UsageError(f"--free variable {free_name!r} is already assigned")
    if len(obs_dims) >= model.dim:
        raise UsageError("every variable is assigned; nothing left to tabulate")
    if args.points < 16:
        raise UsageError("--points must be >= 16")
    if max(obs_dims) >= model.dim:
        raise UsageError(f"model has dimension {model.dim}; assignment out of range")
    if free_idx >= model.dim:
        raise UsageError(f"model has dimension {model.dim}; --free {free_name} out of range")
    box = model.truncation
    for idx, value in zip(obs_dims, values):
        if box is not None and not box.lower[idx] <= value <= box.upper[idx]:
            raise UsageError(
                f"{OBS_COLUMNS[idx]}={value!r} lies outside the model's truncation box "
                f"[{box.lower[idx]:g}, {box.upper[idx]:g}]"
            )

    curve = model.condition(obs_dims, values, [free_idx])

    means = curve.means[:, 0]
    sds = np.sqrt(curve.covariances[:, 0, 0])
    lo = float((means - 10.0 * sds).min())
    hi = float((means + 10.0 * sds).max())
    if curve.truncation is not None:
        lo = max(lo, float(curve.truncation.lower[0]))
        hi = min(hi, float(curve.truncation.upper[0]))
    if hi <= lo:  # conditional mass sits against a box edge
        hi = lo + 20.0 * float(sds.max())
    grid = np.linspace(lo, hi, args.points)
    pdf = curve.density(grid[:, None])

    lines = [f"{free_name},pdf"]
    for x, p in zip(grid, pdf):
        lines.append(f"{float(x)!r},{float(p)!r}")
    table_path = _resolve(out_dir, config.paths.conditional)
    table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.points}-point conditional table to {table_path}")
    return EXIT_OK


def _human_factory(config: RunConfig, model: GaussianMixture):
    """The human driver, recovering to the scenario's free-flow speed."""
    return partial(HumanDriver, model, config.agents.human, config.sim.free_flow_speed)


def _candidate_factory(config: RunConfig, model: GaussianMixture):
    if config.agents.av_strategy == "human":
        return _human_factory(config, model)
    return partial(
        SoftYieldStrategy, config.agents.soft_yield, config.sim.crossing_length
    )


def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> int:
    out_dir = args.out
    model = _load_model(config, out_dir)
    if model.dim != 4:
        raise UsageError(f"simulation needs a 4-D model, got dim {model.dim}")
    schedule, walk_seeds = experiment_inputs(config.sim, config.master_seed, 0)
    result = run_episode(
        config.sim,
        _candidate_factory(config, model)(),
        schedule,
        model=model,
        walk_speed_seeds=walk_seeds,
        record_trajectory=True,
    )
    lines = ["event_id,t,R,L,v"]
    for point in result.trajectory:
        if point.pedestrian_id is None:
            lines.append(f"none,{point.t!r},{point.longitudinal_gap!r},,{point.vehicle_speed!r}")
        else:
            lines.append(
                f"ped{point.pedestrian_id},{point.t!r},{point.longitudinal_gap!r},"
                f"{point.lateral_gap!r},{point.vehicle_speed!r}"
            )
    traj_path = _resolve(out_dir, config.paths.trajectory)
    traj_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if result.crashed:
        outcome = f"crashed at t={result.crash_time}"
    elif result.timed_out:
        outcome = "timed out"
    else:
        outcome = f"passed in {result.passing_time} s"
    print(f"episode {outcome}; trajectory written to {traj_path}")
    return EXIT_OK


def cmd_evaluate(config: RunConfig, args: argparse.Namespace) -> int:
    if args.parallel < 1:
        raise UsageError("--parallel must be >= 1")
    out_dir = args.out
    model = _load_model(config, out_dir)
    if model.dim != 4:
        raise UsageError(f"evaluation needs a 4-D model, got dim {model.dim}")
    pairs = run_paired_experiments(
        config.sim,
        model,
        _candidate_factory(config, model),
        _human_factory(config, model),
        config.eval.n_experiments,
        config.master_seed,
        parallel=args.parallel,
    )
    report = compute_report(pairs, config.eval.mu_0, config.eval.kappa_0)
    report.save(_resolve(out_dir, config.paths.report))
    write_series(report, _resolve(out_dir, config.paths.series))
    print(
        f"n={report.n_pairs} mu={report.mu:.6f} cv={report.cv:.6f} "
        f"kappa={report.kappa:.6f} excluded={report.n_excluded}"
    )
    if report.gate is not None:
        verdict = "pass" if report.gate.passed else "fail"
        print(
            f"gates mu_0={report.gate.mu_0} kappa_0={report.gate.kappa_0}: {verdict}"
        )
        if not report.gate.passed:
            return EXIT_GATE
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        config, out_dir = _load_setup(args)
        args.out = out_dir
        return args.handler(config, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # computation or IO failure after valid inputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
