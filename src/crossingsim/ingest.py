"""Observation files and the synthetic observation generator.

An observation file is comma-delimited UTF-8 text with the header row
``inv_R,v,v_p,inv_T_adv`` and one observation row of four positive,
finite numbers per line; :func:`read_observations` and
:func:`write_observations` read and write it.

The naturalistic trajectories behind the paper's model are not
distributed, so the module also ships a documented synthetic generator
whose draws stand in for real observations end to end.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from crossingsim.mixture import GaussianMixture, TruncationBox
from crossingsim.scenario import OBS_COLUMNS, OBS_DIM

__all__ = [
    "ObservationMatrix",
    "read_observations",
    "write_observations",
    "generate_synthetic",
    "reference_generator",
]


@dataclass(frozen=True)
class ObservationMatrix:
    """n x 4 matrix of observation rows."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != OBS_DIM:
            raise ValueError(f"data must be an n x {OBS_DIM} matrix, got {data.shape}")
        if data.size and not (np.isfinite(data).all() and (data > 0).all()):
            raise ValueError("every observation entry must be positive and finite")
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


def read_observations(path: Union[str, Path]) -> ObservationMatrix:
    """Read an observation matrix written by :func:`write_observations`.

    Raises:
        ValueError: a malformed file, with the line number: a bad
            header, text that is not UTF-8 or not CSV, a row without one
            number per column, or an entry that is not positive and
            finite.
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
            values = [float(fld) for fld in row]
            for x in values:
                if not 0 < x < math.inf:
                    raise ValueError(f"every entry must be positive and finite, got {row!r}")
            rows.append(values)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, OBS_DIM))
    return ObservationMatrix(data)


def write_observations(matrix: ObservationMatrix, path: Union[str, Path]) -> None:
    """Write observation rows as delimited text; floats keep full precision."""
    lines = [",".join(OBS_COLUMNS)]
    lines.extend(",".join(map(repr, row)) for row in matrix.data.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate_synthetic(model: GaussianMixture, n: int, seed: int) -> ObservationMatrix:
    """Draw n observation rows from a 4-D positive-orthant model."""
    if model.dim != OBS_DIM:
        raise ValueError(f"generator must be {OBS_DIM}-D, got dim {model.dim}")
    box = model.truncation
    if box is None or not ((box.lower == 0).all() and np.isposinf(box.upper).all()):
        raise ValueError("generator must be truncated to the positive orthant")
    return ObservationMatrix(model.sample(n, seed))  # which checks n as its count


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
