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

from crossingsim import checks
from crossingsim.sim import PairResult

__all__ = [
    "GateDecision",
    "EvaluationReport",
    "compute_report",
    "write_series",
]

_FORMAT = "crossingsim-report"
_VERSION = 1
_COUNTS = ("candidate_crashes", "candidate_timeouts", "baseline_crashes", "baseline_timeouts")


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

        ``n_pairs``, ``tau``, the four counts and the gate thresholds are
        read; every other value is computed from them as
        :func:`compute_report` computes it, and must equal the stored one
        bit for bit (NaN matching NaN).

        Raises:
            ValueError: not a version-1 report, or a key that is missing,
                holds a value of the wrong type, breaks a count invariant
                (``len(tau) <= n_pairs``, ``len(running_mean) == len(tau)``,
                each side's failures at most ``n_pairs - len(tau)``) or
                contradicts the values it is computed from.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"a report document is a JSON object, got {type(doc).__name__}")
        if doc.get("format") != _FORMAT:
            raise ValueError(f"not a report document: format={doc.get('format')!r}")
        if doc.get("version") != _VERSION:
            raise ValueError(f"unsupported report version {doc.get('version')!r}")
        gate_doc = checks.present("'gate'", doc, "gate")
        if gate_doc is not None and not isinstance(gate_doc, dict):
            raise ValueError(f"'gate' must be an object or null, got {gate_doc!r}")
        n_pairs = checks.integer("'n_pairs'", checks.present("'n_pairs'", doc, "n_pairs"), low=1)
        tau = checks.present("'tau'", doc, "tau")
        if not isinstance(tau, list):
            raise ValueError(f"'tau' must be a list, got {tau!r}")
        tau = checks.reals("'tau'", tau, (len(tau),))
        if len(tau) > n_pairs:
            raise ValueError(f"'n_pairs' is {n_pairs}, fewer than the {len(tau)} entries of 'tau'")
        counts = {
            key: checks.integer(repr(key), checks.present(repr(key), doc, key), low=0)
            for key in _COUNTS
        }
        for side in ("candidate", "baseline"):
            # Every failed episode is an excluded pair; a side's crashes
            # take the first of them, its time-outs what is left.
            left = n_pairs - len(tau)
            for key in (f"{side}_crashes", f"{side}_timeouts"):
                if counts[key] > left:
                    raise ValueError(f"{key!r} is {counts[key]}, more than the {left} pairs left")
                left -= counts[key]
        gate = None if gate_doc is None else tuple(
            checks.real(f"'gate.{key}'", checks.present(f"'gate.{key}'", gate_doc, key))
            for key in ("mu_0", "kappa_0")
        )
        report = _report(n_pairs, tau, gate, **counts)
        running_mean = checks.present("'running_mean'", doc, "running_mean")
        if isinstance(running_mean, list) and len(running_mean) != len(tau):
            raise ValueError(
                f"'running_mean' has {len(running_mean)} entries, but 'tau' has {len(tau)}"
            )
        derived = [
            (repr(key), doc, key, getattr(report, key))
            for key in ("running_mean", "n_excluded", "mu", "sigma", "cv", "kappa")
        ]
        if gate_doc is not None:
            derived.append(("'gate.passed'", gate_doc, "passed", report.gate.passed))
        for name, section, key, want in derived:
            value = checks.present(name, section, key)
            if not _agrees(name, value, want):
                raise ValueError(f"{name} is {value!r}, but recomputed it is {want!r}")
        return report

    def save(self, path: Union[str, Path]) -> None:
        text = json.dumps(self.to_document(), indent=2)
        Path(path).write_text(text + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EvaluationReport":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"report document is not valid JSON: {exc}") from exc
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

    Raises ValueError on malformed input: an empty batch, an episode that
    both crashed and timed out, a nonpositive passing time, time ratios
    that are not finite and positive or whose spread overflows, or a
    half-set or non-finite gate.
    """
    if len(pairs) == 0:
        raise ValueError("need at least one pair")
    if (mu_0 is None) != (kappa_0 is None):
        raise ValueError("mu_0 and kappa_0 must be set together")

    tau: list[float] = []
    counts = dict.fromkeys(_COUNTS, 0)
    for pair in pairs:
        for side, ep in (("candidate", pair.candidate), ("baseline", pair.baseline)):
            if ep.crashed and ep.timed_out:
                raise ValueError(f"pair {pair.index}: the {side} both crashed and timed out")
            if ep.completed and ep.passing_time <= 0:
                raise ValueError(
                    f"pair {pair.index}: nonpositive {side} passing time {ep.passing_time}"
                )
            counts[f"{side}_crashes"] += ep.crashed
            counts[f"{side}_timeouts"] += ep.timed_out
        ratio = pair.time_ratio
        if ratio is not None:
            tau.append(ratio)

    gate = None if mu_0 is None else (checks.real("mu_0", mu_0), checks.real("kappa_0", kappa_0))
    return _report(len(pairs), tau, gate, **counts)


def _report(
    n_pairs: int, tau: Sequence[float], gate: Optional[tuple[float, float]], **counts: int
) -> EvaluationReport:
    """The report of ``n_pairs`` pairs with time ratios ``tau``, the gate
    thresholds ``(mu_0, kappa_0)`` or None, and the four failure counts.

    Every derived value is computed here, for :func:`compute_report` and
    the reader alike.
    """
    if not all(0 < t < math.inf for t in tau):
        raise ValueError(f"'tau' must hold finite positive time ratios, got {list(tau)!r}")
    kappa = (counts["candidate_crashes"] + counts["candidate_timeouts"]) / n_pairs
    running: list[float] = []
    total = 0.0
    for i, t in enumerate(tau):
        total += t
        running.append(total / (i + 1))
    if tau:
        mu = running[-1]
        try:
            sigma = math.sqrt(sum((t - mu) ** 2 for t in tau) / len(tau))
        except OverflowError as exc:
            raise ValueError(f"'tau' gives no sigma: {exc}") from exc
        cv = sigma / mu
    else:
        mu = sigma = cv = math.nan

    decision = None
    if gate is not None:
        mu_0, kappa_0 = gate
        decision = GateDecision(mu_0=mu_0, kappa_0=kappa_0, passed=mu < mu_0 and kappa < kappa_0)

    return EvaluationReport(
        n_pairs=n_pairs,
        tau=tuple(tau),
        running_mean=tuple(running),
        mu=mu,
        sigma=sigma,
        cv=cv,
        kappa=kappa,
        n_excluded=n_pairs - len(tau),
        gate=decision,
        **counts,
    )


def _agrees(name: str, value: object, want: object) -> bool:
    """Whether a stored derived ``value`` is ``want``, of its type and bit
    for bit, NaN matching NaN; a value of the wrong type raises ValueError
    that names ``name``."""
    if isinstance(want, bool):
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be a boolean, got {value!r}")
        return value is want
    if isinstance(want, int):
        return checks.integer(name, value) == want
    if isinstance(want, tuple):
        return isinstance(value, list) and len(value) == len(want) and all(
            _agrees(name, v, w) for v, w in zip(value, want))
    # A NaN or infinite want is matched by the stored float itself, so no
    # NaN goes through checks.real.
    if not (isinstance(value, float) and not math.isfinite(want)):
        value = checks.real(name, value)
    return value.hex() == want.hex()


def write_series(report: EvaluationReport, path: Union[str, Path]) -> None:
    """Write the plot-ready convergence series as (n, running_mean, tau)."""
    lines = ["n,running_mean,tau"]
    for i, (r, t) in enumerate(zip(report.running_mean, report.tau), start=1):
        lines.append(f"{i},{r!r},{t!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
