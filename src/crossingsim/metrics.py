"""Efficiency, stability, and safety metrics over paired experiments.

Each paired experiment yields a time ratio tau_i (candidate passing
time over baseline passing time).  The report aggregates:

* mu, the mean of tau over pairs where both episodes produced a
  passing time (efficiency; smaller is faster than the baseline);
* cv, the population coefficient of variation of tau (stability);
* kappa, the fraction of candidate episodes that crashed or timed out
  (safety), over all N pairs regardless of tau exclusions.

mu and kappa are compared against the aggressiveness gates mu_0 and
kappa_0 with strict inequalities when gates are configured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from crossingsim.sim import PairResult

__all__ = [
    "GateDecision",
    "EvaluationReport",
    "compute_report",
    "write_series",
]

_FORMAT = "crossingsim-report"
_VERSION = 1


def _required(doc: dict, key: str, prefix: str = ""):
    if key not in doc:
        raise ValueError(f"report document lacks key {prefix + key!r}")
    return doc[key]


def _to_float(value, name: str) -> float:
    # bool is an int subclass, but true is not a number in a report.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"report key {name!r} must be a number, got {value!r}")


def _number(doc: dict, key: str, prefix: str = "") -> float:
    return _to_float(_required(doc, key, prefix), prefix + key)


def _numbers(doc: dict, key: str) -> tuple[float, ...]:
    values = _required(doc, key)
    if not isinstance(values, list):
        raise ValueError(f"report key {key!r} must be a list of numbers, got {values!r}")
    return tuple(_to_float(v, key) for v in values)


def _count(doc: dict, key: str) -> int:
    value = _required(doc, key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"report key {key!r} must be an integer >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class GateDecision:
    """Aggressiveness thresholds and the strict-inequality verdict."""

    mu_0: float
    kappa_0: float
    passed: bool


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregated metrics over one batch of paired experiments.

    ``tau`` keeps experiment order; ``running_mean[i]`` is the mean of
    ``tau[: i + 1]``, so ``running_mean[-1] == mu``.  When no pair has
    both passing times defined, ``tau`` is empty and mu, sigma, and cv
    are NaN.  ``kappa`` counts crashed and timed-out candidate episodes
    against the full pair count.
    """

    n_pairs: int
    tau: tuple[float, ...]
    running_mean: tuple[float, ...]
    mu: float
    sigma: float
    cv: float
    kappa: float
    n_excluded: int
    candidate_crashes: int
    candidate_timeouts: int
    baseline_crashes: int
    baseline_timeouts: int
    gate: Optional[GateDecision] = None

    def to_document(self) -> dict:
        doc: dict = {
            "format": _FORMAT,
            "version": _VERSION,
            "n_pairs": self.n_pairs,
            "mu": self.mu,
            "sigma": self.sigma,
            "cv": self.cv,
            "kappa": self.kappa,
            "n_excluded": self.n_excluded,
            "candidate_crashes": self.candidate_crashes,
            "candidate_timeouts": self.candidate_timeouts,
            "baseline_crashes": self.baseline_crashes,
            "baseline_timeouts": self.baseline_timeouts,
            "tau": list(self.tau),
            "running_mean": list(self.running_mean),
            "gate": None,
        }
        if self.gate is not None:
            doc["gate"] = {
                "mu_0": self.gate.mu_0,
                "kappa_0": self.gate.kappa_0,
                "passed": self.gate.passed,
            }
        return doc

    @classmethod
    def from_document(cls, doc: dict) -> "EvaluationReport":
        """Rebuild a report from :meth:`to_document` output.

        Raises:
            ValueError: not a version-1 report, or a key that is missing
                or holds a value of the wrong type, a negative count, or a
                ``running_mean`` whose length is not ``tau``'s (the message
                names the key).
        """
        if not isinstance(doc, dict):
            raise ValueError(f"a report document is a JSON object, got {type(doc).__name__}")
        if doc.get("format") != _FORMAT:
            raise ValueError(f"not a report document: format={doc.get('format')!r}")
        if doc.get("version") != _VERSION:
            raise ValueError(f"unsupported report version {doc.get('version')!r}")
        gate_doc = _required(doc, "gate")
        gate = None
        if gate_doc is not None:
            if not isinstance(gate_doc, dict):
                raise ValueError(f"report key 'gate' must be an object or null, got {gate_doc!r}")
            passed = _required(gate_doc, "passed", "gate.")
            if not isinstance(passed, bool):
                raise ValueError(f"report key 'gate.passed' must be a boolean, got {passed!r}")
            gate = GateDecision(
                mu_0=_number(gate_doc, "mu_0", "gate."),
                kappa_0=_number(gate_doc, "kappa_0", "gate."),
                passed=passed,
            )
        tau = _numbers(doc, "tau")
        running_mean = _numbers(doc, "running_mean")
        if len(running_mean) != len(tau):
            raise ValueError(
                f"report key 'running_mean' must have one entry per 'tau' entry, "
                f"got {len(running_mean)} for {len(tau)}"
            )
        return cls(
            n_pairs=_count(doc, "n_pairs"),
            tau=tau,
            running_mean=running_mean,
            mu=_number(doc, "mu"),
            sigma=_number(doc, "sigma"),
            cv=_number(doc, "cv"),
            kappa=_number(doc, "kappa"),
            n_excluded=_count(doc, "n_excluded"),
            candidate_crashes=_count(doc, "candidate_crashes"),
            candidate_timeouts=_count(doc, "candidate_timeouts"),
            baseline_crashes=_count(doc, "baseline_crashes"),
            baseline_timeouts=_count(doc, "baseline_timeouts"),
            gate=gate,
        )

    def save(self, path: Union[str, Path]) -> None:
        text = json.dumps(self.to_document(), indent=2)
        Path(path).write_text(text + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EvaluationReport":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_document(doc)


def compute_report(
    pairs: Sequence[PairResult],
    mu_0: Optional[float] = None,
    kappa_0: Optional[float] = None,
) -> EvaluationReport:
    """Aggregate paired results into an EvaluationReport.

    Pairs missing either passing time are excluded from tau but still
    count toward kappa when the candidate crashed or timed out.  Gates
    must be given together or not at all; the verdict is the strict
    conjunction mu < mu_0 and kappa < kappa_0.

    Raises ValueError on an empty batch, on a completed episode with a
    nonpositive passing time (malformed input), or on a half-set gate.
    """
    if len(pairs) == 0:
        raise ValueError("need at least one pair")
    if (mu_0 is None) != (kappa_0 is None):
        raise ValueError("mu_0 and kappa_0 must be set together")

    tau: list[float] = []
    candidate_crashes = 0
    candidate_timeouts = 0
    baseline_crashes = 0
    baseline_timeouts = 0
    for pair in pairs:
        cand, base = pair.candidate, pair.baseline
        candidate_crashes += cand.crashed
        candidate_timeouts += cand.timed_out
        baseline_crashes += base.crashed
        baseline_timeouts += base.timed_out
        if any(ep.completed and ep.passing_time <= 0 for ep in (cand, base)):
            raise ValueError(
                f"pair {pair.index}: nonpositive passing time "
                f"({cand.passing_time}, {base.passing_time})"
            )
        ratio = pair.time_ratio
        if ratio is not None:
            tau.append(ratio)

    n = len(pairs)
    kappa = (candidate_crashes + candidate_timeouts) / n

    running: list[float] = []
    total = 0.0
    for i, t in enumerate(tau):
        total += t
        running.append(total / (i + 1))
    if tau:
        mu = running[-1]
        sigma = math.sqrt(sum((t - mu) ** 2 for t in tau) / len(tau))
        cv = sigma / mu
    else:
        mu = sigma = cv = math.nan

    gate = None
    if mu_0 is not None and kappa_0 is not None:
        gate = GateDecision(
            mu_0=float(mu_0),
            kappa_0=float(kappa_0),
            passed=bool(mu < mu_0 and kappa < kappa_0),
        )

    return EvaluationReport(
        n_pairs=n,
        tau=tuple(tau),
        running_mean=tuple(running),
        mu=mu,
        sigma=sigma,
        cv=cv,
        kappa=kappa,
        n_excluded=n - len(tau),
        candidate_crashes=candidate_crashes,
        candidate_timeouts=candidate_timeouts,
        baseline_crashes=baseline_crashes,
        baseline_timeouts=baseline_timeouts,
        gate=gate,
    )


def write_series(report: EvaluationReport, path: Union[str, Path]) -> None:
    """Write the plot-ready convergence series as (n, running_mean, tau)."""
    lines = ["n,running_mean,tau"]
    for i, (r, t) in enumerate(zip(report.running_mean, report.tau), start=1):
        lines.append(f"{i},{r!r},{t!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
