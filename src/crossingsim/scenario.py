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

__all__ = [
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


def time_advantage(
    longitudinal_gap: float, lateral_gap: float, vehicle_speed: float, walk_speed: float
) -> float:
    """Absolute gap between vehicle and pedestrian arrival times at the conflict point.

    T_Adv = |R / v - L / v_p|: R is the longitudinal gap from the vehicle
    front to the crossing line, v the vehicle speed, L the lateral gap the
    pedestrian still has to walk to the vehicle path, and v_p the walk
    speed.  R / v is the plain kinematic time to the line, assuming the
    vehicle holds its current speed.  Small values mean the two road users
    reach the shared zone nearly simultaneously; the measure is symmetric
    in who arrives first.

    Returns ``math.inf`` where T_Adv is undefined: the vehicle at or past
    the line (R <= 0), a stopped participant (v <= 0 or v_p <= 0), a
    negative L, or any input that is not finite.
    """
    if not (
        0.0 < longitudinal_gap < math.inf
        and 0.0 <= lateral_gap < math.inf
        and 0.0 < vehicle_speed < math.inf
        and 0.0 < walk_speed < math.inf
    ):
        return math.inf
    return abs(longitudinal_gap / vehicle_speed - lateral_gap / walk_speed)
