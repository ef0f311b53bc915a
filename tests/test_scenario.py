"""Geometry frame, model-space layout, and their edge cases."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from crossingsim.scenario import (
    OBS_COLUMNS,
    OBS_DIM,
    OBS_INV_RANGE,
    OBS_INV_TIME_ADVANTAGE,
    OBS_VEHICLE_SPEED,
    OBS_WALK_SPEED,
    time_advantage,
)


def test_column_layout_is_fixed():
    # File formats and conditioning code index by these positions.
    assert OBS_DIM == 4
    assert (OBS_INV_RANGE, OBS_VEHICLE_SPEED, OBS_WALK_SPEED, OBS_INV_TIME_ADVANTAGE) == (
        0,
        1,
        2,
        3,
    )
    assert OBS_COLUMNS == ("inv_R", "v", "v_p", "inv_T_adv")


# Arguments in signature order: R, L, v, v_p.
DEFINED = (10.0, 4.0, 5.0, 1.0)


def _with(position, value):
    args = list(DEFINED)
    args[position] = value
    return tuple(args)


UNDEFINED = [
    (0.0, 4.0, 5.0, 1.0),  # vehicle at the line
    (-3.0, 4.0, 5.0, 1.0),  # vehicle past the line
    (10.0, 4.0, 0.0, 1.0),  # stopped vehicle
    (10.0, 4.0, 5.0, 0.0),  # stopped pedestrian
    (10.0, -0.1, 5.0, 1.0),  # negative lateral gap
    (1e308, 1e308, 1e-10, 1e-10),  # both quotients overflow: inf - inf
] + [
    _with(position, value)
    for position in range(4)
    for value in (math.nan, math.inf, -math.inf)
]


class TestTimeAdvantage:
    def test_hand_value(self):
        # TTC = 30/5 = 6 s, pedestrian needs 4.5/1.5 = 3 s, gap 3 s.
        assert time_advantage(30.0, 4.5, 5.0, 1.5) == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_in_arrival_order(self):
        early_vehicle = (10.0, 4.0, 5.0, 1.0)  # TTC 2, ped 4
        early_ped = (20.0, 2.0, 5.0, 1.0)  # TTC 4, ped 2
        assert time_advantage(*early_vehicle) == pytest.approx(2.0)
        assert time_advantage(*early_ped) == pytest.approx(2.0)

    def test_convention_is_distance_over_speed(self):
        assert time_advantage(12.0, 3.0, 4.0, 1.0) == pytest.approx(abs(12.0 / 4.0 - 3.0 / 1.0))

    @pytest.mark.parametrize("args", UNDEFINED)
    def test_undefined_is_inf(self, args):
        assert time_advantage(*args) == math.inf

    def test_lateral_gap_zero_is_defined(self):
        # A pedestrian on the vehicle path: T_Adv is the time to the line.
        assert time_advantage(10.0, 0.0, 5.0, 1.0) == 2.0

    @given(
        gap=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        lateral=st.floats(min_value=0.0, allow_infinity=False),
        speed=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        walk=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_defined_is_the_formula_bit_for_bit(self, gap, lateral, speed, walk):
        want = abs(gap / speed - lateral / walk)
        assume(not math.isnan(want))  # inf - inf: undefined, so inf
        assert time_advantage(gap, lateral, speed, walk).hex() == want.hex()

    @given(
        args=st.tuples(*(st.floats(min_value=0.0, max_value=1e308) for _ in range(4)))
    )
    def test_never_nan_on_finite_nonnegative_inputs(self, args):
        assert not math.isnan(time_advantage(*args))
