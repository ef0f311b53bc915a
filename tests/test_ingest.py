"""Observation files, the observation matrix, and the synthetic generator."""

import json

import numpy as np
import pytest

from crossingsim.ingest import (
    ObservationMatrix,
    generate_synthetic,
    read_observations,
    reference_generator,
    write_observations,
)
from crossingsim.mixture import GaussianMixture
from crossingsim.scenario import OBS_COLUMNS


class TestObservationMatrix:
    def test_shape_and_positivity_enforced(self):
        with pytest.raises(ValueError):
            ObservationMatrix(np.ones((3, 3)))
        with pytest.raises(ValueError):
            ObservationMatrix(np.array([[0.1, 5.0, 0.0, 0.3]]))

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

    def test_bytes_equal_per_value_repr(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(9))
        data = rng.uniform(1e-9, 1e9, size=(300, 4)) ** rng.choice([1.0, -1.0], size=(300, 4))
        data[0] = [5e-324, 1e-300, 1e300, 1.7976931348623157e308]
        data[1] = [0.1, 1.0, 1e16, 123456789.0]
        path = tmp_path / "obs.csv"
        write_observations(ObservationMatrix(data), path)
        lines = [",".join(OBS_COLUMNS)]
        lines += [",".join(repr(float(x)) for x in row) for row in data]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

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
            ("0.1,5,-1.2,0.4", "line 3: every entry must be positive and finite"),
            ("0,5,1.2,0.4", "line 3: every entry must be positive and finite"),
            ("0.1,nan,1.2,0.4", "line 3: every entry must be positive and finite"),
            ("0.1,5,1.2,inf", "line 3: every entry must be positive and finite"),
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
