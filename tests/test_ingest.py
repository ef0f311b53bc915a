"""Trajectory parsing, observation extraction, and the synthetic generator."""

import json

import numpy as np
import pytest

from crossingsim.ingest import (
    ObservationMatrix,
    TrajectoryLog,
    extract_observations,
    generate_synthetic,
    read_observations,
    read_trajectories,
    reference_generator,
    write_observations,
    write_trajectories,
)
from crossingsim.mixture import GaussianMixture
from crossingsim.scenario import OBS_COLUMNS


def ramp_log(n=15, dt=0.2, walk=1.5):
    """Constant-speed approach with a linearly closing lateral gap."""
    t = np.arange(n) * dt
    return TrajectoryLog(
        event_id="ev1",
        t=t,
        R=30.0 - 5.0 * t,
        L=4.5 - walk * t,
        v=np.full(n, 5.0),
    )


class TestTrajectoryLog:
    def test_requires_increasing_time(self):
        with pytest.raises(ValueError):
            TrajectoryLog("e", [0.0, 0.0], [30, 29], [4, 3], [5, 5])

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            TrajectoryLog("e", [0.0, 1.0], [30], [4, 3], [5, 5])

    def test_requires_at_least_one_row(self):
        with pytest.raises(ValueError):
            TrajectoryLog("e", [], [], [], [])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TrajectoryLog("e", [0.0, 1.0], [30, np.inf], [4, 3], [5, 5])


class TestTrajectoryIo:
    def test_round_trip_is_exact(self, tmp_path):
        logs = [ramp_log(), ramp_log(n=8)]
        logs[1] = TrajectoryLog("ev2", logs[1].t, logs[1].R, logs[1].L, logs[1].v)
        path = tmp_path / "traj.csv"
        write_trajectories(logs, path)
        back = read_trajectories(path)
        assert [b.event_id for b in back] == ["ev1", "ev2"]
        for orig, got in zip(logs, back):
            np.testing.assert_array_equal(got.t, orig.t)
            np.testing.assert_array_equal(got.R, orig.R)
            np.testing.assert_array_equal(got.L, orig.L)
            np.testing.assert_array_equal(got.v, orig.v)

    def test_rows_without_a_pedestrian_are_skipped(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(
            "event_id,t,R,L,v\n"
            "e,0.0,50.0,,5.0\n"  # lead-in sample, no pedestrian yet
            "e,1.0,45.0,4.5,5.0\n"
            "e,2.0,40.0,3.0,5.0\n"
        )
        (log,) = read_trajectories(path)
        assert len(log) == 2
        np.testing.assert_array_equal(log.t, [1.0, 2.0])

    def test_groups_interleaved_events_in_first_seen_order(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(
            "event_id,t,R,L,v\n"
            "b,0.0,30.0,4.0,5.0\n"
            "a,0.0,30.0,4.0,5.0\n"
            "b,1.0,25.0,3.0,5.0\n"
        )
        logs = read_trajectories(path)
        assert [log.event_id for log in logs] == ["b", "a"]
        assert len(logs[0]) == 2

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("event,time,R,L,v\ne,0,30,4,5\n")
        with pytest.raises(ValueError):
            read_trajectories(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("event_id,t,R,L,v\ne,0,30,4\n")
        with pytest.raises(ValueError):
            read_trajectories(path)


class TestExtractObservations:
    def test_linear_ramp_walk_speed_is_exact(self):
        # Centred differences recover a linear slope exactly, so every
        # retained row must carry v_p = 1.5 and T_Adv = |6-t - (3-t)| = 3 s.
        matrix = extract_observations(ramp_log(), sample_stride=0.0)
        assert matrix.provenance == "real"
        assert len(matrix) == 15
        np.testing.assert_allclose(matrix.data[:, 2], 1.5, atol=1e-12)
        np.testing.assert_allclose(matrix.data[:, 3], 1.0 / 3.0, atol=1e-12)
        t = np.arange(15) * 0.2
        np.testing.assert_allclose(matrix.data[:, 0], 1.0 / (30.0 - 5.0 * t), atol=1e-12)
        np.testing.assert_allclose(matrix.data[:, 1], 5.0, atol=1e-12)

    def test_stride_thins_by_time(self):
        # Sensor rate 0.2 s, stride 0.5 s: keep t = 0, 0.6, 1.2, 1.8, 2.4.
        matrix = extract_observations(ramp_log(), sample_stride=0.5)
        assert len(matrix) == 5
        inv_r = matrix.data[:, 0]
        t_back = (30.0 - 1.0 / inv_r) / 5.0
        np.testing.assert_allclose(t_back, [0.0, 0.6, 1.2, 1.8, 2.4], atol=1e-9)

    def test_huge_stride_keeps_first_row_only(self):
        matrix = extract_observations(ramp_log(), sample_stride=1e6)
        assert len(matrix) == 1

    def test_standing_pedestrian_event_drops_everything(self):
        # Step of 0.25 s is exact in binary, so the slope of a constant
        # L is exactly zero rather than rounding noise, and every row
        # fails the positive-walk-speed requirement.
        n = 10
        t = np.arange(n) * 0.25
        log = TrajectoryLog("still", t, 30.0 - 5.0 * t, np.full(n, 4.5), np.full(n, 5.0))
        with pytest.warns(UserWarning, match="every row was dropped"):
            matrix = extract_observations(log)
        assert len(matrix) == 0

    def test_rows_past_the_line_are_dropped_not_fatal(self):
        # R goes negative mid-event; only the positive-range prefix maps.
        t = np.arange(10) * 1.0
        log = TrajectoryLog("over", t, 20.0 - 5.0 * t, 9.0 - 0.5 * t, np.full(10, 5.0))
        matrix = extract_observations(log, sample_stride=0.0)
        assert 0 < len(matrix) < 10
        assert (matrix.data[:, 0] > 0).all()

    def test_needs_two_rows(self):
        log = TrajectoryLog("tiny", [0.0], [30.0], [4.5], [5.0])
        with pytest.raises(ValueError):
            extract_observations(log)

    def test_negative_stride_rejected(self):
        with pytest.raises(ValueError):
            extract_observations(ramp_log(), sample_stride=-1.0)


class TestObservationMatrix:
    def test_shape_and_positivity_enforced(self):
        with pytest.raises(ValueError):
            ObservationMatrix(np.ones((3, 3)))
        with pytest.raises(ValueError):
            ObservationMatrix(np.array([[0.1, 5.0, 0.0, 0.3]]))
        with pytest.raises(ValueError):
            ObservationMatrix(np.ones((1, 4)), provenance="guessed")

    def test_data_is_read_only(self):
        matrix = ObservationMatrix(np.ones((1, 4)))
        with pytest.raises(ValueError):
            matrix.data[0, 0] = 2.0


class TestObservationIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(6))
        matrix = ObservationMatrix(rng.uniform(0.01, 10.0, size=(40, 4)))
        path = tmp_path / "obs.csv"
        write_observations(matrix, path)
        back = read_observations(path)
        np.testing.assert_array_equal(back.data, matrix.data)
        assert path.read_text().splitlines()[0] == ",".join(OBS_COLUMNS)

    def test_empty_matrix_round_trip(self, tmp_path):
        path = tmp_path / "obs.csv"
        write_observations(ObservationMatrix(np.empty((0, 4))), path)
        back = read_observations(path)
        assert len(back) == 0

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ValueError):
            read_observations(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.1,5,1.2,abc", "line 3: could not convert"),
            ("0.1,5,1.2", "line 3: expected 4 fields, got 3"),
            ("0.1,5,1.2,0.4,7", "line 3: expected 4 fields, got 5"),
            ("0.1,5," + "1" * 200_000 + ",0.4", "line 3: field larger than field limit"),
            ("0.1,5,-1.2,0.4", "positive and finite"),
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, row, message):
        path = tmp_path / "obs.csv"
        path.write_text(",".join(OBS_COLUMNS) + "\n0.1,5,1.2,0.4\n" + row + "\n")
        with pytest.raises(ValueError, match=message):
            read_observations(path)


class TestGenerateSynthetic:
    def test_matches_model_sampling(self):
        model = reference_generator()
        matrix = generate_synthetic(model, 200, seed=21)
        assert matrix.provenance == "synthetic"
        assert len(matrix) == 200
        np.testing.assert_array_equal(matrix.data, model.sample(200, seed=21))

    def test_generator_document_embedded(self):
        model = reference_generator()
        matrix = generate_synthetic(model, 5, seed=0)
        assert matrix.generator == json.loads(model.to_text())
        rebuilt = GaussianMixture.from_text(json.dumps(matrix.generator))
        assert rebuilt == model

    def test_zero_rows(self):
        matrix = generate_synthetic(reference_generator(), 0, seed=0)
        assert len(matrix) == 0

    def test_untruncated_generator_rejected(self):
        model = reference_generator()
        bare = GaussianMixture(model.weights, model.means, model.covariances)
        with pytest.raises(ValueError):
            generate_synthetic(bare, 10, seed=0)

    def test_wrong_dimension_rejected(self):
        model = reference_generator().marginalize([0, 1])
        with pytest.raises(ValueError):
            generate_synthetic(model, 10, seed=0)


class TestReferenceGenerator:
    def test_is_a_valid_positive_orthant_model(self):
        model = reference_generator()
        assert model.dim == 4
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(model.truncation.lower, np.zeros(4))
        assert np.isposinf(model.truncation.upper).all()
        for cov in model.covariances:
            np.linalg.cholesky(cov)  # positive definite

    def test_draws_are_physically_plausible(self):
        draws = reference_generator().sample(2_000, seed=1)
        assert (draws > 0).all()
        ranges = 1.0 / draws[:, 0]
        assert 1.0 < np.median(ranges) < 60.0
        assert 0.2 < np.median(draws[:, 2]) < 3.0  # walking pace
