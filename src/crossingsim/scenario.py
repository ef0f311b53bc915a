"""Passing-event geometry and the layout of model space.

A passing event is described in a perpendicular straight-line frame: the
crossing line sits at longitudinal coordinate 0 and the vehicle path at
lateral coordinate 0.  The vehicle approaches along the longitudinal
axis while the pedestrian walks across it.

Model space is the four-vector (1/R, v, v_p, 1/T_Adv): inverse range to
the crossing line, vehicle speed, walk speed, and inverse time
advantage.  Inverting R and T_Adv compresses far-away, low-interaction
states toward zero so the mixture concentrates resolution on close
interactions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Kinematics",
    "time_advantage",
    "OBS_DIM",
    "OBS_INV_RANGE",
    "OBS_VEHICLE_SPEED",
    "OBS_WALK_SPEED",
    "OBS_INV_TIME_ADVANTAGE",
    "OBS_COLUMNS",
]

OBS_DIM = 4
OBS_INV_RANGE = 0
OBS_VEHICLE_SPEED = 1
OBS_WALK_SPEED = 2
OBS_INV_TIME_ADVANTAGE = 3

# Column labels used by every observation file the package reads or writes.
OBS_COLUMNS = ("inv_R", "v", "v_p", "inv_T_adv")


@dataclass(frozen=True)
class Kinematics:
    """Instantaneous state of one vehicle-pedestrian pair.

    Attributes:
        longitudinal_gap: metres from the vehicle front to the crossing
            line; positive while approaching, negative once past.
        lateral_gap: metres the pedestrian still has to walk to reach
            the vehicle path line (never negative).
        vehicle_speed: vehicle speed in m/s (never negative).
        walk_speed: pedestrian speed in m/s (never negative).
    """

    longitudinal_gap: float
    lateral_gap: float
    vehicle_speed: float
    walk_speed: float

    def __post_init__(self) -> None:
        for name in ("longitudinal_gap", "lateral_gap", "vehicle_speed", "walk_speed"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.lateral_gap < 0:
            raise ValueError(f"lateral_gap must be >= 0, got {self.lateral_gap}")
        if self.vehicle_speed < 0:
            raise ValueError(f"vehicle_speed must be >= 0, got {self.vehicle_speed}")
        if self.walk_speed < 0:
            raise ValueError(f"walk_speed must be >= 0, got {self.walk_speed}")


def time_advantage(kin: Kinematics) -> float:
    """Absolute gap between vehicle and pedestrian arrival times at the conflict point.

    T_Adv = |TTC - L / v_p| with TTC = R / v, the plain kinematic
    estimate that assumes the vehicle holds its current speed.  Small
    values mean the two road users reach the shared zone nearly
    simultaneously; the measure is symmetric in who arrives first.

    Raises:
        ZeroDivisionError: if vehicle_speed or walk_speed is zero; the
            caller decides the fallback for a stopped participant.
    """
    if kin.vehicle_speed == 0.0:
        raise ZeroDivisionError("time_advantage undefined for a stopped vehicle")
    if kin.walk_speed == 0.0:
        raise ZeroDivisionError("time_advantage undefined for a stopped pedestrian")
    ttc = kin.longitudinal_gap / kin.vehicle_speed
    return abs(ttc - kin.lateral_gap / kin.walk_speed)

