"""Trajectory-log ingestion and synthetic observation generation.

Input logs are comma-delimited UTF-8 text with a header row naming the
columns (event_id, t, R, L, v): one passing event per event_id, rows
sampled at the sensor rate with time t in seconds, range to the
crossing line R and the pedestrian's remaining lateral gap L in metres,
and vehicle speed v in m/s.  Extraction estimates the walk speed from
the lateral-gap slope, resamples each event at a fixed time stride, and
maps the surviving rows into (1/R, v, v_p, 1/T_Adv) observation space.

Because the naturalistic dataset behind the model is not distributed,
the module also ships a documented synthetic generator whose draws
stand in for real observations end to end.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from crossingsim.mixture import GaussianMixture, TruncationBox
from crossingsim.scenario import OBS_COLUMNS, OBS_DIM, Kinematics, to_observation

__all__ = [
    "TrajectoryLog",
    "ObservationMatrix",
    "read_trajectories",
    "write_trajectories",
    "extract_observations",
    "read_observations",
    "write_observations",
    "generate_synthetic",
    "reference_generator",
]

_TRAJECTORY_HEADER = ("event_id", "t", "R", "L", "v")


@dataclass(frozen=True)
class TrajectoryLog:
    """One passing event: time-stamped (R, L, v) samples."""

    event_id: str
    t: np.ndarray
    R: np.ndarray
    L: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("t", "R", "L", "v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-D array")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
            arrays[name] = arr
        lengths = {arr.shape[0] for arr in arrays.values()}
        if len(lengths) != 1:
            raise ValueError("t, R, L, v must have equal lengths")
        if len(arrays["t"]) == 0:
            raise ValueError("a trajectory log needs at least one row")
        if not (np.diff(arrays["t"]) > 0).all():
            raise ValueError("t must be strictly increasing within an event")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class ObservationMatrix:
    """n x 4 matrix of observation rows plus provenance bookkeeping.

    ``provenance`` is "real" for extracted data and "synthetic" for
    generated data; synthetic matrices carry the serialized generator
    document so the ground truth travels with the sample.
    """

    data: np.ndarray
    provenance: str = "real"
    generator: Optional[dict] = field(default=None)

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != OBS_DIM:
            raise ValueError(f"data must be an n x {OBS_DIM} matrix, got {data.shape}")
        if data.size and not (np.isfinite(data).all() and (data > 0).all()):
            raise ValueError("every observation entry must be positive and finite")
        if self.provenance not in ("real", "synthetic"):
            raise ValueError(f"provenance must be 'real' or 'synthetic', got {self.provenance!r}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    def __len__(self) -> int:
        return self.data.shape[0]


def _utf8_text(path: Union[str, Path]) -> io.StringIO:
    """The whole file decoded as UTF-8, ready for csv.reader.

    Decoding up front, not chunk by chunk under the reader, lets a bad
    byte be reported with the line it sits on.
    """
    data = Path(path).read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: not UTF-8 text ({exc.reason})") from exc


def read_trajectories(path: Union[str, Path]) -> list[TrajectoryLog]:
    """Read trajectory logs, grouped by event_id in first-seen order.

    Rows with an empty L field are skipped: episode dumps include
    pedestrian-free samples that carry no lateral gap.

    Raises:
        ValueError: a malformed file, with the line number: a bad
            header, text that is not UTF-8 or not CSV, a row without
            exactly 5 fields, a number that does not parse or is not
            finite, or a time that does not increase within its event.
    """
    groups: dict[str, list[tuple[float, float, float, float]]] = {}
    reader = csv.reader(_utf8_text(path))
    try:
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != _TRAJECTORY_HEADER:
            raise ValueError(f"expected header {','.join(_TRAJECTORY_HEADER)}, got {header!r}")
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) != 5:
                raise ValueError(f"expected 5 fields per row, got {len(row)}")
            event_id, t_s, r_s, l_s, v_s = (fld.strip() for fld in row)
            if l_s == "":
                continue
            values = tuple(float(fld) for fld in (t_s, r_s, l_s, v_s))
            if not all(map(math.isfinite, values)):
                raise ValueError(f"non-finite value in {row!r}")
            rows = groups.setdefault(event_id, [])
            if rows and not values[0] > rows[-1][0]:
                raise ValueError(f"event {event_id!r}: t must be strictly increasing")
            rows.append(values)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc
    logs = []
    for event_id, rows in groups.items():
        cols = np.asarray(rows, dtype=float)
        logs.append(
            TrajectoryLog(event_id, t=cols[:, 0], R=cols[:, 1], L=cols[:, 2], v=cols[:, 3])
        )
    return logs


def write_trajectories(logs: Sequence[TrajectoryLog], path: Union[str, Path]) -> None:
    lines = [",".join(_TRAJECTORY_HEADER)]
    for log in logs:
        for i in range(len(log)):
            lines.append(
                f"{log.event_id},{float(log.t[i])!r},{float(log.R[i])!r},"
                f"{float(log.L[i])!r},{float(log.v[i])!r}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def extract_observations(
    log: TrajectoryLog,
    sample_stride: float = 0.5,
) -> ObservationMatrix:
    """Convert one passing event into observation rows.

    The walk speed at every sample is the negated slope of L over t
    (centred differences inside the event, one-sided at the ends), so
    an approaching pedestrian has positive v_p.  Rows are then thinned
    to one per ``sample_stride`` seconds (0 keeps every row) and mapped
    through the observation transform; rows the transform rejects
    (vehicle past the line or stopped, pedestrian standing or past the
    path, exact arrival tie) are dropped.  An event whose rows are all
    dropped produces an empty matrix and a warning, not an error.
    """
    if len(log) < 2:
        raise ValueError(f"event {log.event_id!r}: need at least 2 rows, got {len(log)}")
    if not (math.isfinite(sample_stride) and sample_stride >= 0):
        raise ValueError(f"sample_stride must be >= 0, got {sample_stride!r}")

    walk = -np.gradient(log.L, log.t)

    kept: list[int] = []
    next_time = log.t[0]
    for i, t in enumerate(log.t):
        if t >= next_time - 1e-12:
            kept.append(i)
            next_time = t + sample_stride

    rows = []
    for i in kept:
        try:
            kin = Kinematics(
                longitudinal_gap=float(log.R[i]),
                lateral_gap=float(log.L[i]),
                vehicle_speed=float(log.v[i]),
                walk_speed=float(walk[i]),
            )
            obs = to_observation(kin)
        except ValueError:
            continue
        rows.append(obs.as_array())

    if not rows:
        warnings.warn(
            f"event {log.event_id!r}: every row was dropped", stacklevel=2
        )
        return ObservationMatrix(np.empty((0, OBS_DIM)), provenance="real")
    return ObservationMatrix(np.asarray(rows), provenance="real")


def read_observations(path: Union[str, Path], provenance: str = "real") -> ObservationMatrix:
    """Read an observation matrix written by :func:`write_observations`.

    Raises:
        ValueError: a malformed file: a bad header, text that is not
            UTF-8 or not CSV, a row without one number per column, or an
            entry that is not positive and finite.
    """
    reader = csv.reader(_utf8_text(path))
    rows = []
    try:
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != OBS_COLUMNS:
            raise ValueError(f"expected header {','.join(OBS_COLUMNS)}, got {header!r}")
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) != OBS_DIM:
                raise ValueError(f"expected {OBS_DIM} fields, got {len(row)}")
            rows.append([float(fld) for fld in row])
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, OBS_DIM))
    return ObservationMatrix(data, provenance=provenance)


def write_observations(matrix: ObservationMatrix, path: Union[str, Path]) -> None:
    """Write observation rows as delimited text; floats keep full precision."""
    lines = [",".join(OBS_COLUMNS)]
    for row in matrix.data:
        lines.append(",".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate_synthetic(model: GaussianMixture, n: int, seed: int) -> ObservationMatrix:
    """Draw n observation rows from a 4-D positive-orthant model.

    The returned matrix is tagged synthetic and embeds the generator's
    own serialized document, so downstream fits can be compared against
    the ground truth that produced the data.
    """
    if model.dim != OBS_DIM:
        raise ValueError(f"generator must be {OBS_DIM}-D, got dim {model.dim}")
    box = model.truncation
    if box is None or not ((box.lower == 0).all() and np.isposinf(box.upper).all()):
        raise ValueError("generator must be truncated to the positive orthant")
    if n < 0:
        raise ValueError("n must be >= 0")
    data = model.sample(n, seed)
    return ObservationMatrix(
        data, provenance="synthetic", generator=json.loads(model.to_text())
    )


def reference_generator() -> GaussianMixture:
    """Three-component stand-in for the unavailable naturalistic data.

    The components sketch three interaction regimes in
    (1/R, v, v_p, 1/T_Adv) space:

    * far approach: vehicle far from the line and fast, ample time
      advantage (R about 22 m, v 8.5 m/s, T_Adv about 4.5 s);
    * negotiation: mid range at moderate speed (R about 8 m, v 5 m/s,
      T_Adv about 1.8 s);
    * close interaction: near the line and slow, small time advantage
      (R about 3 m, v 2.2 m/s, T_Adv about 0.9 s).

    All components share one mild correlation structure: speed drops as
    range closes and as the time advantage shrinks.  Component means sit
    at least 3 standard deviations inside the positive orthant, so the
    truncation correction is small and rejection sampling is cheap.
    """
    weights = np.array([0.45, 0.35, 0.20])
    means = np.array(
        [
            [0.045, 8.5, 1.25, 0.22],
            [0.120, 5.0, 1.45, 0.55],
            [0.300, 2.2, 1.10, 1.10],
        ]
    )
    sds = np.array(
        [
            [0.012, 1.2, 0.22, 0.07],
            [0.030, 1.0, 0.28, 0.16],
            [0.070, 0.7, 0.25, 0.30],
        ]
    )
    correlation = np.array(
        [
            [1.00, -0.35, 0.05, 0.10],
            [-0.35, 1.00, 0.10, -0.25],
            [0.05, 0.10, 1.00, 0.15],
            [0.10, -0.25, 0.15, 1.00],
        ]
    )
    covariances = np.array([np.outer(s, s) * correlation for s in sds])
    return GaussianMixture(
        weights, means, covariances, truncation=TruncationBox.positive_orthant(OBS_DIM)
    )
