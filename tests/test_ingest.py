"""Trajectory parsing, observation extraction, and the synthetic generator."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


TRAJECTORY_HEADER = ["event_id", "t", "R", "L", "v"]
VALID_TRAJECTORY_ROWS = [
    ["e", repr(0.2 * i), repr(30.0 - i), repr(4.5 - 0.3 * i), "5.0"] for i in range(4)
]


NOT_FLOATS = st.sampled_from(["abc", "1.2.3", "1e", "--1", "0x1f", "1_", "."])


@st.composite
def malformed_trajectory_files(draw):
    """A valid trajectory.csv with exactly one thing broken, as bytes.

    Returns the bytes and the line the reader must name.
    """
    header = list(TRAJECTORY_HEADER)
    rows = [list(row) for row in VALID_TRAJECTORY_ROWS]
    index = draw(st.integers(0, len(rows) - 1))
    row = rows[index]
    col = draw(st.integers(1, 4))  # a numeric column
    fault = draw(
        st.sampled_from(
            ["header", "field", "ragged", "nonfinite", "oversized", "order", "encoding"]
        )
    )
    line = index + 2
    if fault == "header":
        line = 1
        header = draw(
            st.one_of(
                st.just([]),
                st.just(header[:col] + header[col + 1 :]),
                st.just(header[:col] + ["x"] + header[col + 1 :]),
                st.just(header[::-1]),
            )
        )
    elif fault == "field":
        row[col] = draw(NOT_FLOATS)
    elif fault == "ragged":
        if draw(st.booleans()):
            del row[col]
        else:
            row.append(row[col])
    elif fault == "nonfinite":
        row[col] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400"]))
    elif fault == "oversized":
        row[col] = "1" * draw(st.integers(131_073, 140_000))
    elif fault == "order":
        index = max(index, 1)
        rows[index][1] = rows[index - 1][1]
        line = index + 2
    lines = [",".join(header)] + [",".join(r) for r in rows]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if fault == "encoding":
        data = data.replace(row[col].encode(), b"\xff" + row[col].encode(), 1)
        line = data.count(b"\n", 0, data.index(b"\xff")) + 1
    return data, line


class TestMalformedTrajectories:
    def test_valid_rows_read_back(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        lines = [",".join(TRAJECTORY_HEADER)] + [",".join(r) for r in VALID_TRAJECTORY_ROWS]
        path.write_text("\n".join(lines) + "\n")
        (log,) = read_trajectories(path)
        assert len(log) == len(VALID_TRAJECTORY_ROWS)

    def test_oversized_field_is_a_value_error(self, tmp_path):
        path = tmp_path / "trajectory.csv"
        path.write_text(",".join(TRAJECTORY_HEADER) + "\ne,0.0,30.0,4.5," + "5" * 131_073 + "\n")
        with pytest.raises(ValueError, match="^line 2: "):
            read_trajectories(path)

    @settings(max_examples=150)
    @given(case=malformed_trajectory_files())
    def test_every_fault_is_a_value_error_with_its_line(self, tmp_path_factory, case):
        data, line = case
        path = tmp_path_factory.mktemp("trajectories") / "trajectory.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^line {line}: "):
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
            ("0.1,5,\udcff1.2,0.4", "line 3: not UTF-8 text"),  # the byte 0xff
        ],
    )
    def test_malformed_rows_rejected(self, tmp_path, row, message):
        path = tmp_path / "obs.csv"
        text = ",".join(OBS_COLUMNS) + "\n0.1,5,1.2,0.4\n" + row + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
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
