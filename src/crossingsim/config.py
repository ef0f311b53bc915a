"""Run configuration: one JSON document driving the whole pipeline.

The document has named sections mirroring the package modules (sim,
mixture, agents, eval, ingest, paths) plus a single master seed; every
per-purpose random stream is derived from that seed, so one knob
reproduces a full study.  Unknown keys anywhere are errors: a silently
ignored typo in an experiment config corrupts results far downstream.
So are values of the wrong type: an integer field takes an integer (not
a bool or a float), a float field any finite number.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Optional, Union

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
        if self.k_min < 1 or self.k_max < self.k_min:
            raise ValueError(f"need 1 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if not math.isfinite(self.rate_threshold):
            raise ValueError("rate_threshold must be finite")
        self.fit_config(seed=0)  # FitConfig checks the EM knobs

    def fit_config(self, seed: int) -> FitConfig:
        """EM settings of the sweep, starting at K = k_min."""
        return FitConfig(
            n_components=self.k_min,
            max_iterations=self.max_iterations,
            loglik_tolerance=self.loglik_tolerance,
            restarts=self.restarts,
            covariance_floor=self.covariance_floor,
            seed=seed,
            truncation_mode=self.truncation_mode,
            mc_moment_draws=self.mc_moment_draws,
        )


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
        if self.n_experiments < 1:
            raise ValueError("n_experiments must be >= 1")
        if (self.mu_0 is None) != (self.kappa_0 is None):
            raise ValueError("mu_0 and kappa_0 must be set together")
        for name in ("mu_0", "kappa_0"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class IngestConfig:
    """Synthetic-data size."""

    n_synthetic: int = 3000

    def __post_init__(self) -> None:
        if self.n_synthetic < 0:
            raise ValueError("n_synthetic must be >= 0")


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

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_document(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_document(doc)


def _build(target: type, raw: object, label: str = "") -> object:
    """``target`` built from the JSON object ``raw``, whose keys and values
    are checked against ``target``'s fields.

    A dataclass-typed field is built from its nested object the same way,
    under the label ``<label>.<key>``; the top level has an empty label.
    Numbers in float fields come back as floats.
    """
    if not isinstance(raw, dict):
        where = f"config section {label!r}" if label else "config document"
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(raw) - set(target.__dataclass_fields__)
    if unknown:
        where = f"keys in section {label!r}" if label else "top-level config keys"
        raise ValueError(f"unknown {where}: {sorted(unknown)}")
    kinds = typing.get_type_hints(target)
    values = {}
    for key, value in raw.items():
        name = f"{label}.{key}" if label else key
        kind = kinds[key]
        if is_dataclass(kind):
            values[key] = _build(kind, value, name)
        else:
            values[key] = _typed(name, value, kind)
    return target(**values)


def _typed(key: str, value: object, kind: object) -> object:
    """``value`` checked against ``kind``: int, float, str, or Optional of one."""
    if typing.get_origin(kind) is Union:
        if value is None:
            return None
        (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    return value
