"""Exit codes, artifacts, and determinism of the command-line driver.

Everything runs in process through ``main`` so the tests can inspect
emitted files and captured output without spawning interpreters.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from crossingsim.cli import EXIT_GATE, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from crossingsim.config import (
    AgentsConfig,
    EvalConfig,
    IngestConfig,
    MixtureConfig,
    RunConfig,
)
from crossingsim.ingest import read_trajectories, reference_generator
from crossingsim.metrics import EvaluationReport
from crossingsim.mixture import GaussianMixture
from crossingsim.scenario import OBS_COLUMNS

OBS_HEADER = ",".join(OBS_COLUMNS)


def write_config(directory, config):
    path = directory / "config.json"
    config.save(path)
    return path


def small_fit_config():
    # single untruncated component keeps the full pipeline test fast
    return RunConfig(
        ingest=IngestConfig(n_synthetic=120),
        mixture=MixtureConfig(k_min=1, k_max=1, truncation_mode="none"),
    )


def untruncated_diagonal_model(means=(0.1, 5.0, 1.3, 0.4), sds=(0.03, 0.5, 0.2, 0.1)):
    mu = np.asarray(means, dtype=float)
    cov = np.diag(np.asarray(sds, dtype=float) ** 2)
    return GaussianMixture(np.array([1.0]), mu[None, :], cov[None, :, :])


VALID_MODEL = json.loads(reference_generator().to_text())
REQUIRED_KEYS = ["format", "version", "dim", "n_components", "weights", "means", "covariances"]
NOT_NUMBERS = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.text(max_size=2), min_size=1, max_size=2),
)
NOT_LISTS = st.one_of(NOT_NUMBERS.filter(lambda v: not isinstance(v, list)), st.floats(), st.none())


@st.composite
def malformed_model_documents(draw):
    """A valid model document with exactly one thing broken, as JSON text."""
    doc = json.loads(json.dumps(VALID_MODEL))
    fault = draw(
        st.sampled_from(["drop", "count", "array", "entry", "box", "bound", "seed"])
    )
    if fault == "drop":
        del doc[draw(st.sampled_from(REQUIRED_KEYS))]
    elif fault == "count":
        doc[draw(st.sampled_from(["dim", "n_components"]))] = draw(
            st.one_of(NOT_LISTS, st.integers(max_value=0), st.just([4]))
        )
    elif fault == "array":
        doc[draw(st.sampled_from(["weights", "means", "covariances"]))] = draw(
            st.one_of(NOT_LISTS, st.integers())
        )
    elif fault == "entry":
        key = draw(st.sampled_from(["weights", "means", "covariances"]))
        bad = draw(st.one_of(NOT_NUMBERS, st.none()))
        if key == "weights":
            doc[key][draw(st.integers(0, 2))] = bad
        else:
            doc[key][draw(st.integers(0, 2))][draw(st.integers(0, 3))] = bad
    elif fault == "box":
        doc["truncation"] = draw(NOT_LISTS.filter(lambda v: v is not None))
    elif fault == "bound":
        side = draw(st.sampled_from(["lower", "upper"]))
        doc["truncation"][side][draw(st.integers(0, 3))] = draw(NOT_NUMBERS)
    else:
        doc["fit_seed"] = draw(st.one_of(NOT_NUMBERS, st.floats()))
    return json.dumps(doc)


def read_two_columns(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    rows = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
    return lines[0], rows[:, 0], rows[:, 1]


class TestGenData:
    def test_writes_observations_and_generator_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RunConfig(ingest=IngestConfig(n_synthetic=40)))
        rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert "wrote 40 observations" in capsys.readouterr().out
        lines = (tmp_path / "observations.csv").read_text().splitlines()
        assert lines[0] == OBS_HEADER
        assert len(lines) == 41
        doc = json.loads((tmp_path / "generator.json").read_text())
        assert doc["format"] == "crossingsim-mixture"
        assert len(doc["weights"]) == 3

    def test_zero_rows_gives_header_only_file(self, tmp_path):
        cfg = write_config(tmp_path, RunConfig(ingest=IngestConfig(n_synthetic=0)))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "observations.csv").read_text() == OBS_HEADER + "\n"

    def test_same_config_twice_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, RunConfig(ingest=IngestConfig(n_synthetic=25)))
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for artifact in ("observations.csv", "generator.json"):
            assert (tmp_path / "a" / artifact).read_bytes() == (
                tmp_path / "b" / artifact
            ).read_bytes()

    def test_seed_override_changes_the_draws(self, tmp_path):
        cfg = write_config(tmp_path, RunConfig(ingest=IngestConfig(n_synthetic=25)))
        contents = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            out.mkdir()
            args = ["gen-data", "--config", str(cfg), "--out", str(out), "--seed", seed]
            assert main(args) == EXIT_OK
            contents.append((out / "observations.csv").read_bytes())
        assert contents[0] != contents[1]


class TestFit:
    def test_single_component_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_fit_config())
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert "selected K=1 over 1 fitted counts" in capsys.readouterr().out

        model = GaussianMixture.load(tmp_path / "model.json")
        assert model.n_components == 1
        assert model.dim == 4

        curve_lines = (tmp_path / "bic_curve.csv").read_text().splitlines()
        assert curve_lines[0] == "K,bic,change_rate"
        assert len(curve_lines) == 2
        k, bic, rate = curve_lines[1].split(",")
        assert k == "1"
        assert np.isfinite(float(bic))
        assert rate == ""  # no previous count to compare against

    def test_missing_observations_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_fit_config())
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "observation file not found" in capsys.readouterr().err

    def test_unparseable_observations_is_runtime_error(self, tmp_path):
        cfg = write_config(tmp_path, small_fit_config())
        (tmp_path / "observations.csv").write_text(OBS_HEADER + "\nfoo,1,2,3\n")
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_RUNTIME


class TestCondition:
    def test_matches_free_marginal_for_independent_model(self, tmp_path):
        # with a diagonal single component the conditional slice must
        # reproduce the untouched walk-speed marginal exactly
        cfg = write_config(tmp_path, RunConfig())
        untruncated_diagonal_model().save(tmp_path / "model.json")
        rc = main(
            [
                "condition",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path),
                "--given",
                "inv_R=0.1",
                "--given",
                "v=5.0",
            ]
        )
        assert rc == EXIT_OK
        header, grid, pdf = read_two_columns(tmp_path / "conditional.csv")
        assert header == "v_p,pdf"
        assert len(grid) == 2001
        np.testing.assert_allclose(pdf, stats.norm.pdf(grid, 1.3, 0.2), rtol=1e-12)
        assert np.trapezoid(pdf, grid) == pytest.approx(1.0, abs=5e-3)

    def test_truncated_table_integrates_to_one(self, tmp_path):
        cfg = write_config(tmp_path, RunConfig())
        reference_generator().save(tmp_path / "model.json")
        rc = main(
            [
                "condition",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path),
                "--given",
                "inv_R=0.12",
                "--given",
                "v=5.0",
                "--free",
                "v_p",
            ]
        )
        assert rc == EXIT_OK
        _, grid, pdf = read_two_columns(tmp_path / "conditional.csv")
        assert grid[0] >= 0.0  # grid clipped to the support box
        assert np.trapezoid(pdf, grid) == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize(
        "extra",
        [
            [],
            ["--given", "v_p"],
            ["--given", "bogus=1.0"],
            ["--given", "v=5.0", "--given", "v=4.0"],
            ["--given", "v_p=1.0"],
            ["--given", "inv_R=0.1", "--given", "v=5.0", "--points", "8"],
            [
                "--given",
                "inv_R=0.1",
                "--given",
                "v=5.0",
                "--given",
                "v_p=1.0",
                "--given",
                "inv_T_adv=0.4",
            ],
        ],
        ids=[
            "no-assignment",
            "missing-equals",
            "unknown-name",
            "assigned-twice",
            "free-already-assigned",
            "too-few-points",
            "nothing-left-free",
        ],
    )
    def test_bad_assignments_are_usage_errors(self, tmp_path, extra):
        cfg = write_config(tmp_path, RunConfig())
        untruncated_diagonal_model().save(tmp_path / "model.json")
        argv = ["condition", "--config", str(cfg), "--out", str(tmp_path)] + extra
        assert main(argv) == EXIT_USAGE

    def test_assignment_beyond_model_dimension_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RunConfig())
        GaussianMixture(
            np.array([1.0]), np.array([[0.1, 5.0]]), np.eye(2)[None]
        ).save(tmp_path / "model.json")
        argv = [
            "condition", "--config", str(cfg), "--out", str(tmp_path),
            "--given", "v_p=1.0", "--free", "v",
        ]
        assert main(argv) == EXIT_USAGE
        assert "model has dimension 2" in capsys.readouterr().err

    def test_missing_model_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RunConfig())
        argv = ["condition", "--config", str(cfg), "--out", str(tmp_path), "--given", "v=5.0"]
        assert main(argv) == EXIT_USAGE
        assert "model file not found" in capsys.readouterr().err

    def test_corrupt_model_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RunConfig())
        (tmp_path / "model.json").write_text("{}")
        argv = ["condition", "--config", str(cfg), "--out", str(tmp_path), "--given", "v=5.0"]
        assert main(argv) == EXIT_USAGE
        assert "bad model file" in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(document=malformed_model_documents())
    def test_malformed_model_documents_are_usage_errors(self, tmp_path_factory, document):
        with pytest.raises(ValueError):
            GaussianMixture.from_text(document)
        out = tmp_path_factory.mktemp("malformed")
        (out / "model.json").write_text(document)
        argv = ["condition", "--out", str(out), "--given", "v=5.0"]
        assert main(argv) == EXIT_USAGE


class TestSimulate:
    def test_trajectory_parses_and_repeats_exactly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RunConfig())
        dumps = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            reference_generator().save(out / "model.json")
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            assert "trajectory written to" in capsys.readouterr().out
            dumps.append((out / "trajectory.csv").read_bytes())
        assert dumps[0] == dumps[1]

        # vehicle-only rows carry no lateral range, so the reader keeps
        # just the walker's event
        logs = read_trajectories(tmp_path / "a" / "trajectory.csv")
        assert [log.event_id for log in logs] == ["ped0"]
        assert len(logs[0]) > 2
        assert np.all(np.diff(logs[0].R) <= 0.0)

    def test_needs_a_four_dimensional_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RunConfig())
        GaussianMixture(
            np.array([1.0]), np.array([[0.1, 5.0]]), np.eye(2)[None]
        ).save(tmp_path / "model.json")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "needs a 4-D model" in capsys.readouterr().err


class TestEvaluate:
    @staticmethod
    def _config(**eval_kwargs):
        return RunConfig(
            agents=AgentsConfig(av_strategy="human"),
            eval=EvalConfig(n_experiments=6, **eval_kwargs),
        )

    def test_self_comparison_is_exactly_neutral(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self._config())
        reference_generator().save(tmp_path / "model.json")
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mu=1.000000" in out
        assert "cv=0.000000" in out

        report = EvaluationReport.load(tmp_path / "report.json")
        assert report.mu == 1.0
        assert report.cv == 0.0
        assert all(value == 1.0 for value in report.tau)
        assert all(value == 1.0 for value in report.running_mean)

        series_lines = (tmp_path / "series.csv").read_text().splitlines()
        assert series_lines[0] == "n,running_mean,tau"
        assert len(series_lines) == 1 + len(report.tau)

    def test_gates_fail_a_neutral_candidate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self._config(mu_0=0.9, kappa_0=0.1))
        reference_generator().save(tmp_path / "model.json")
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_GATE
        assert "gates mu_0=0.9 kappa_0=0.1: fail" in capsys.readouterr().out

    def test_parallel_partitioning_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, RunConfig(eval=EvalConfig(n_experiments=4)))
        artifacts = []
        for name, workers in (("serial", "1"), ("pool", "2")):
            out = tmp_path / name
            out.mkdir()
            reference_generator().save(out / "model.json")
            argv = [
                "evaluate", "--config", str(cfg), "--out", str(out),
                "--parallel", workers,
            ]
            assert main(argv) == EXIT_OK
            artifacts.append(
                ((out / "report.json").read_bytes(), (out / "series.csv").read_bytes())
            )
        assert artifacts[0] == artifacts[1]

    def test_seed_override_changes_outcomes(self, tmp_path):
        cfg = write_config(tmp_path, RunConfig(eval=EvalConfig(n_experiments=4)))
        reports = []
        for seed in ("3", "4"):
            out = tmp_path / seed
            out.mkdir()
            reference_generator().save(out / "model.json")
            argv = ["evaluate", "--config", str(cfg), "--out", str(out), "--seed", seed]
            assert main(argv) in (EXIT_OK, EXIT_GATE)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] != reports[1]

    def test_missing_model_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, self._config())
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE


class TestArgumentHandling:
    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage: crossingsim" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_output_directory(self, tmp_path, capsys):
        argv = ["gen-data", "--out", str(tmp_path / "missing")]
        assert main(argv) == EXIT_USAGE
        assert "output directory does not exist" in capsys.readouterr().err

    def test_config_file_not_found(self, tmp_path):
        argv = ["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mixtur": {"k_min": 1}}')
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_USAGE

    def test_nonpositive_parallel_is_usage_error(self, tmp_path):
        argv = ["gen-data", "--out", str(tmp_path), "--parallel", "0"]
        assert main(argv) == EXIT_USAGE
