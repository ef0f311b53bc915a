"""Geometry frame, model-space layout, and their edge cases."""

import math

import pytest

from crossingsim.scenario import (
    Kinematics,
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


class TestKinematics:
    def test_negative_lateral_gap_rejected(self):
        with pytest.raises(ValueError):
            Kinematics(10.0, -0.1, 5.0, 1.5)

    def test_negative_speeds_rejected(self):
        with pytest.raises(ValueError):
            Kinematics(10.0, 1.0, -5.0, 1.5)
        with pytest.raises(ValueError):
            Kinematics(10.0, 1.0, 5.0, -1.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Kinematics(math.nan, 1.0, 5.0, 1.5)

    def test_negative_longitudinal_gap_allowed(self):
        # The vehicle can be past the line.
        kin = Kinematics(-3.0, 1.0, 5.0, 1.5)
        assert kin.longitudinal_gap == -3.0


class TestTimeAdvantage:
    def test_hand_value(self):
        # TTC = 30/5 = 6 s, pedestrian needs 4.5/1.5 = 3 s, gap 3 s.
        kin = Kinematics(30.0, 4.5, 5.0, 1.5)
        assert time_advantage(kin) == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_in_arrival_order(self):
        early_vehicle = Kinematics(10.0, 4.0, 5.0, 1.0)  # TTC 2, ped 4
        early_ped = Kinematics(20.0, 2.0, 5.0, 1.0)  # TTC 4, ped 2
        assert time_advantage(early_vehicle) == pytest.approx(2.0)
        assert time_advantage(early_ped) == pytest.approx(2.0)

    def test_stopped_participants_raise(self):
        with pytest.raises(ZeroDivisionError):
            time_advantage(Kinematics(10.0, 4.0, 0.0, 1.0))
        with pytest.raises(ZeroDivisionError):
            time_advantage(Kinematics(10.0, 4.0, 5.0, 0.0))

    def test_convention_is_distance_over_speed(self):
        kin = Kinematics(12.0, 3.0, 4.0, 1.0)
        assert time_advantage(kin) == pytest.approx(abs(12.0 / 4.0 - 3.0 / 1.0))
