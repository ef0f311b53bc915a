"""Run configuration: one JSON document driving the whole pipeline.

The document has named sections mirroring the package modules (sim,
mixture, agents, eval, ingest, paths) plus a single master seed; every
per-purpose random stream is derived from that seed, so one knob
reproduces a full study.  Unknown keys anywhere are errors: a silently
ignored typo in an experiment config corrupts results far downstream.
Each section's class checks its own values, under the one rule of
:mod:`crossingsim.checks` for what a number is; the loader adds the
section's name to the message.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Optional

from crossingsim import checks
from crossingsim.agents import HumanDriverParams, SoftYieldParams
from crossingsim.mixture import FitConfig
from crossingsim.sim import SimConfig, dt_fits

__all__ = [
    "MixtureConfig",
    "AgentsConfig",
    "EvalConfig",
    "IngestConfig",
    "PathsConfig",
    "RunConfig",
]

# MixtureConfig's fields that its FitConfig takes as they are.
_EM_KNOBS = set(FitConfig.__dataclass_fields__) - {"n_components", "seed"}


@dataclass(frozen=True)
class MixtureConfig:
    """Model-selection sweep and EM knobs."""

    k_min: int = 1
    k_max: int = 15
    rate_threshold: float = 0.10
    truncation_mode: str = "truncated"
    max_iterations: int = 300
    loglik_tolerance: float = 1e-10
    restarts: int = 1
    covariance_floor: float = 1e-6
    mc_moment_draws: int = 20_000

    def __post_init__(self) -> None:
        checks.fields(self, checks.integer, "k_min", low=1)
        checks.fields(self, checks.integer, "k_max", low=self.k_min)
        checks.fields(self, checks.real, "rate_threshold")
        fit = self.fit_config(seed=0)  # FitConfig checks the EM knobs
        for name in _EM_KNOBS:
            object.__setattr__(self, name, getattr(fit, name))

    def fit_config(self, seed: int) -> FitConfig:
        """EM settings of the sweep, starting at K = k_min."""
        knobs = {name: getattr(self, name) for name in _EM_KNOBS}
        return FitConfig(n_components=self.k_min, seed=seed, **knobs)


@dataclass(frozen=True)
class AgentsConfig:
    """Strategy parameters and which strategy drives the candidate."""

    av_strategy: str = "soft-yield"
    soft_yield: SoftYieldParams = field(default_factory=SoftYieldParams)
    human: HumanDriverParams = field(default_factory=HumanDriverParams)

    def __post_init__(self) -> None:
        if self.av_strategy not in ("soft-yield", "human"):
            raise ValueError(
                f"av_strategy must be 'soft-yield' or 'human', got {self.av_strategy!r}"
            )


@dataclass(frozen=True)
class EvalConfig:
    """Batch size and optional aggressiveness gates.

    The gates have no defensible defaults, so they stay unset unless a
    study provides both.
    """

    n_experiments: int = 50
    mu_0: Optional[float] = None
    kappa_0: Optional[float] = None

    def __post_init__(self) -> None:
        checks.fields(self, checks.integer, "n_experiments", low=1)
        gates = [name for name in ("mu_0", "kappa_0") if getattr(self, name) is not None]
        checks.fields(self, checks.real, *gates, low=0, strict=True)
        if len(gates) == 1:
            raise ValueError("mu_0 and kappa_0 must be set together")


@dataclass(frozen=True)
class IngestConfig:
    """Synthetic-data size."""

    n_synthetic: int = 3000

    def __post_init__(self) -> None:
        checks.fields(self, checks.integer, "n_synthetic", low=0)


@dataclass(frozen=True)
class PathsConfig:
    """Artifact file names, resolved against the output directory."""

    observations: str = "observations.csv"
    generator: str = "generator.json"
    model: str = "model.json"
    bic_curve: str = "bic_curve.csv"
    conditional: str = "conditional.csv"
    trajectory: str = "trajectory.csv"
    report: str = "report.json"
    series: str = "series.csv"

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Complete, fully defaulted configuration of one pipeline run."""

    master_seed: int = 0
    sim: SimConfig = field(default_factory=SimConfig)
    mixture: MixtureConfig = field(default_factory=MixtureConfig)
    agents: AgentsConfig = field(default_factory=AgentsConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def __post_init__(self) -> None:
        checks.fields(self, checks.integer, "master_seed")
        # The episode engine's own test: the human baseline's updates must
        # fall at least ten steps apart.
        interval = self.agents.human.update_interval
        if not dt_fits(self.sim.dt, interval):
            raise ValueError(
                f"sim.dt={self.sim.dt} too coarse for agents.human.update_interval "
                f"{interval}: need dt <= update_interval / 10"
            )

    def to_document(self) -> dict:
        return asdict(self)

    @classmethod
    def from_document(cls, doc: dict) -> "RunConfig":
        return _build(cls, doc)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_document(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_document(doc)


def _build(target: type, raw: object, label: str = "") -> object:
    """``target`` built from the JSON object ``raw``, whose keys are checked
    against ``target``'s fields; ``target`` checks the values.

    A dataclass-typed field is built from its nested object the same way,
    under the label ``<label>.<key>``; the top level has an empty label.
    A section's error names the section: ``sim.dt must be ...``.
    """
    if not isinstance(raw, dict):
        where = f"config section {label!r}" if label else "config document"
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(raw) - set(target.__dataclass_fields__)
    if unknown:
        where = f"keys in section {label!r}" if label else "top-level config keys"
        raise ValueError(f"unknown {where}: {sorted(unknown)}")
    kinds = typing.get_type_hints(target)
    values = {
        key: _build(kinds[key], value, f"{label}.{key}" if label else key)
        if is_dataclass(kinds[key])
        else value
        for key, value in raw.items()
    }
    try:
        return target(**values)
    except ValueError as exc:
        if not label:
            raise
        raise ValueError(f"{label}.{exc}") from exc
