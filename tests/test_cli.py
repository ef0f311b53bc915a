"""Exit codes, artifacts, and determinism of the command-line driver.

Everything runs in process through ``main`` so the tests can inspect
emitted files and captured output without spawning interpreters.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from crossingsim.agents import HumanDriver
from crossingsim.cli import EXIT_GATE, EXIT_OK, EXIT_USAGE, main
from crossingsim.config import (
    AgentsConfig,
    EvalConfig,
    IngestConfig,
    MixtureConfig,
    RunConfig,
)
from crossingsim.ingest import read_observations, reference_generator
from crossingsim.metrics import EvaluationReport
from crossingsim.mixture import GaussianMixture
from crossingsim.scenario import OBS_COLUMNS
from crossingsim.seeds import derive_seed
from crossingsim.sim import experiment_schedule, run_episode

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
        st.sampled_from(
            ["drop", "count", "array", "entry", "shape", "ragged", "box", "bound", "seed"]
        )
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
    elif fault == "shape":
        # The right count of numbers in the wrong shape: a weight too many
        # or too few, the 3 x 4 means as 12, 12 x 1, 2 x 6 or 6 x 2, or one
        # covariance as 4 rows of 4 where the format has a flat list.
        key = draw(st.sampled_from(["weights", "means", "covariances"]))
        if key == "weights":
            doc[key] = doc[key] + [0.0] if draw(st.booleans()) else doc[key][:-1]
        elif key == "means":
            flat = [x for row in doc[key] for x in row]
            width = draw(st.sampled_from([0, 1, 6, 2]))
            doc[key] = flat if width == 0 else [flat[i:i + width] for i in range(0, 12, width)]
        else:
            k = draw(st.integers(0, 2))
            doc[key][k] = [doc[key][k][i:i + 4] for i in range(0, 16, 4)]
    elif fault == "ragged":
        # One means row a number short or long, or one entry of a means row,
        # a covariance or a box bound nested a level too deep.
        key, k = draw(st.sampled_from(["means", "covariances", "bound"])), draw(st.integers(0, 2))
        if key == "means" and draw(st.booleans()):
            doc[key][k] = doc[key][k][:3] if draw(st.booleans()) else doc[key][k] + [1.0]
        elif key == "bound":
            bounds = doc["truncation"][draw(st.sampled_from(["lower", "upper"]))]
            bounds[k] = [bounds[k]]
        else:
            doc[key][k][draw(st.integers(0, 3))] = [doc[key][k][0]]
    elif fault == "box":
        doc["truncation"] = draw(NOT_LISTS.filter(lambda v: v is not None))
    elif fault == "bound":
        side = draw(st.sampled_from(["lower", "upper"]))
        doc["truncation"][side][draw(st.integers(0, 3))] = draw(NOT_NUMBERS)
    else:
        doc["fit_seed"] = draw(st.one_of(NOT_NUMBERS, st.floats()))
    return json.dumps(doc)


VALID_CONFIG = RunConfig().to_document()


def config_leaves(doc, path=()):
    """(key path, value) of every field of a config document."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from config_leaves(value, path + (key,))
        else:
            yield path + (key,), value


CONFIG_FIELDS = list(config_leaves(VALID_CONFIG))
NOT_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400])


@st.composite
def malformed_config_documents(draw):
    """A valid config document with one field of the wrong type, as JSON text."""
    doc = json.loads(json.dumps(VALID_CONFIG))
    path, default = draw(st.sampled_from(CONFIG_FIELDS))
    if isinstance(default, str):
        bad = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.lists(st.text()))
    elif isinstance(default, int):  # integer fields take no float, bool or null
        bad = st.one_of(st.floats(), NOT_NUMBERS, st.none())
    else:  # a float, or an optional float whose default is null
        bad = st.one_of(NOT_NUMBERS, NOT_FINITE)
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = draw(bad)
    return json.dumps(doc)


VALID_OBSERVATION_ROWS = [
    [repr(float(x)) for x in row] for row in reference_generator().sample(4, seed=8)
]
def _parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


NOT_FLOATS = st.text(
    alphabet=st.characters(blacklist_characters=',"\r\n'), max_size=6
).filter(lambda text: not _parses_as_float(text))


@st.composite
def malformed_observation_files(draw):
    """A valid observations.csv with exactly one thing broken, as bytes."""
    header = list(OBS_COLUMNS)
    rows = [list(row) for row in VALID_OBSERVATION_ROWS]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    col = draw(st.integers(0, len(OBS_COLUMNS) - 1))
    fault = draw(st.sampled_from(["header", "field", "ragged", "nonpositive", "encoding"]))
    if fault == "header":
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
    elif fault == "nonpositive":
        row[col] = draw(
            st.sampled_from(["0", "-0.0", "-1.5", "nan", "inf", "-inf", "1e400"])
        )
    lines = [",".join(header)] + [",".join(r) for r in rows]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if fault == "encoding":
        data = data.replace(row[col].encode(), b"\xff" + row[col].encode(), 1)
    return data


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
        written = (tmp_path / "generator.json").read_bytes()
        assert written == reference_generator().to_text().encode()

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

    def test_same_config_twice_is_byte_identical(self, tmp_path):
        # Two truncated 4-D fits in one process.  On exponential rows the
        # components have box masses near 0.2, so at 2000 accepted draws
        # they sample past their first blocks of 8192 draws, and both runs
        # use continuation rows.
        cfg = write_config(
            tmp_path,
            RunConfig(
                mixture=MixtureConfig(
                    k_min=1, k_max=2, restarts=2, max_iterations=5, mc_moment_draws=2000
                ),
            ),
        )
        rows = np.random.Generator(np.random.PCG64(5)).exponential(1.0, (300, 4)) + 1e-3
        text = OBS_HEADER + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            (out / "observations.csv").write_text(text)
            assert main(["fit", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for artifact in ("model.json", "bic_curve.csv"):
            assert (tmp_path / "a" / artifact).read_bytes() == (
                tmp_path / "b" / artifact
            ).read_bytes()

    def test_missing_observations_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_fit_config())
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "observation file not found" in capsys.readouterr().err

    def test_unparseable_observations_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_fit_config())
        (tmp_path / "observations.csv").write_text(OBS_HEADER + "\nfoo,1,2,3\n")
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "bad observation file" in capsys.readouterr().err

    @pytest.mark.parametrize("n_rows", [0, 1, 14])
    def test_too_few_rows_is_usage_error(self, tmp_path, capsys, n_rows):
        # K=1 in 4-D has 4 means and 10 covariance entries: 14 parameters.
        cfg = write_config(tmp_path, small_fit_config())
        rows = [",".join(r) for r in (VALID_OBSERVATION_ROWS * 4)[:n_rows]]
        (tmp_path / "observations.csv").write_text("\n".join([OBS_HEADER] + rows) + "\n")
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"has {n_rows} observation rows" in err
        assert "needs at least 15" in err
        assert not (tmp_path / "model.json").exists()

    def test_minimum_row_count_reaches_the_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_fit_config())
        rows = reference_generator().sample(15, seed=8)
        lines = [OBS_HEADER] + [",".join(repr(float(x)) for x in row) for row in rows]
        (tmp_path / "observations.csv").write_text("\n".join(lines) + "\n")
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert "selected K=1" in capsys.readouterr().out

    def test_minimum_grows_with_k_min(self, tmp_path, capsys):
        # K=2 in 4-D: 1 weight, 8 means, 20 covariance entries.
        cfg = write_config(
            tmp_path,
            RunConfig(mixture=MixtureConfig(k_min=2, k_max=2, truncation_mode="none")),
        )
        rows = reference_generator().sample(29, seed=8)
        lines = [OBS_HEADER] + [",".join(repr(float(x)) for x in row) for row in rows]
        (tmp_path / "observations.csv").write_text("\n".join(lines) + "\n")
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "has 29 observation rows; fitting K=2 needs at least 30" in capsys.readouterr().err

    @settings(max_examples=150)
    @given(text=malformed_observation_files())
    def test_malformed_observation_files_are_usage_errors(self, tmp_path_factory, text):
        out = tmp_path_factory.mktemp("observations")
        (out / "observations.csv").write_bytes(text)
        with pytest.raises(ValueError):
            read_observations(out / "observations.csv")
        assert main(["fit", "--out", str(out)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "key, value",
        [
            ("restarts", 0),
            ("max_iterations", 0),
            ("loglik_tolerance", 0.0),
            ("loglik_tolerance", -1e-3),
            ("covariance_floor", -1e-6),
            ("mc_moment_draws", 99),
        ],
    )
    def test_bad_em_settings_are_usage_errors(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"mixture": {key: value}}))
        assert main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert key in capsys.readouterr().err


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
            ["--given", "inv_R=nan"],
            ["--given", "inv_R=inf"],
            ["--given", "v=1e400"],
        ],
        ids=[
            "no-assignment",
            "missing-equals",
            "unknown-name",
            "assigned-twice",
            "free-already-assigned",
            "too-few-points",
            "nothing-left-free",
            "not-a-number",
            "infinite",
            "overflows-to-infinity",
        ],
    )
    def test_bad_assignments_are_usage_errors(self, tmp_path, extra):
        cfg = write_config(tmp_path, RunConfig())
        untruncated_diagonal_model().save(tmp_path / "model.json")
        argv = ["condition", "--config", str(cfg), "--out", str(tmp_path)] + extra
        assert main(argv) == EXIT_USAGE

    def test_assignment_outside_the_box_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RunConfig())
        reference_generator().save(tmp_path / "model.json")
        argv = [
            "condition", "--config", str(cfg), "--out", str(tmp_path),
            "--given", "inv_R=-0.5", "--given", "v=5.0",
        ]
        assert main(argv) == EXIT_USAGE
        assert "inv_R=-0.5 lies outside" in capsys.readouterr().err

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

    def test_free_beyond_model_dimension_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RunConfig())
        reference_generator().marginalize([0, 1]).save(tmp_path / "model.json")
        argv = [
            "condition", "--config", str(cfg), "--out", str(tmp_path),
            "--given", "inv_R=0.1", "--free", "inv_T_adv",
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

    @pytest.mark.parametrize(
        "path,value,name",
        [
            (("means", 1), [1.0, 2.0, 3.0], "'means'[1]"),
            (("means", 1, 2), [2.0], "'means'[1][2]"),
            (("covariances", 1), [1.0, [2.0]], "'covariances'[1]"),
            (("covariances", 0, 5), [0.0], "'covariances'[0][5]"),
            (("truncation", "lower", 1), [0.0], "'lower'[1]"),
            (("truncation", "upper", 3), [], "'upper'[3]"),
        ],
    )
    def test_ragged_model_names_the_key(self, path, value, name):
        doc = json.loads(json.dumps(VALID_MODEL))
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        with pytest.raises(ValueError) as info:
            GaussianMixture.from_text(json.dumps(doc))
        assert str(info.value).startswith(f"{name} must be ")

    @pytest.mark.parametrize(
        "old,new,name",
        [
            ('"weights": [\n    0.45', '"weights": [\n    NaN', "'weights'[0]"),
            ('"fit_seed": null', '"fit_seed": 1e400', "'fit_seed'"),
            ("null", "Infinity", "'upper'[0]"),
        ],
    )
    def test_literal_non_finite_numbers_name_the_key(self, old, new, name):
        text = reference_generator().to_text()
        assert old in text
        with pytest.raises(ValueError) as info:
            GaussianMixture.from_text(text.replace(old, new, 1))
        assert str(info.value).startswith(f"{name} must be ")

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

        with open(tmp_path / "a" / "trajectory.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert list(rows[0]) == ["event_id", "t", "R", "L", "v"]
        # vehicle-only rows carry no lateral range; the one walker's rows do
        vehicle_only = [row for row in rows if row["event_id"] == "none"]
        walker = [row for row in rows if row["event_id"] != "none"]
        assert vehicle_only and all(row["L"] == "" for row in vehicle_only)
        assert {row["event_id"] for row in walker} == {"ped0"}
        assert len(walker) > 2
        assert all(row["L"] != "" for row in walker)
        assert np.all(np.diff([float(row["R"]) for row in walker]) <= 0.0)

    def test_human_candidate_matches_a_lone_episode(self, tmp_path):
        config = RunConfig(agents=AgentsConfig(av_strategy="human"))
        cfg = write_config(tmp_path, config)
        model = reference_generator()
        model.save(tmp_path / "model.json")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "trajectory.csv", newline="", encoding="utf-8") as f:
            rows = [
                tuple(None if cell in ("", "none") else cell for cell in row)
                for row in list(csv.reader(f))[1:]
            ]

        schedule = experiment_schedule(config.sim, config.master_seed, 0)
        result = run_episode(
            config.sim,
            HumanDriver(model, config.agents.human, config.sim.free_flow_speed),
            schedule,
            model=model,
            walk_speed_seeds=[
                derive_seed(config.master_seed, "walk-0", j) for j in range(len(schedule))
            ],
            record_trajectory=True,
        )
        # repr round-trips a float exactly, so equal strings mean equal bits.
        expected = [
            (
                None if p.pedestrian_id is None else f"ped{p.pedestrian_id}",
                repr(p.t),
                repr(p.longitudinal_gap),
                None if p.lateral_gap is None else repr(p.lateral_gap),
                repr(p.vehicle_speed),
            )
            for p in result.trajectory
        ]
        assert rows == expected
        assert any(row[0] == "ped0" for row in rows)

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

    def test_human_free_flow_speed_is_an_unknown_key(self, tmp_path, capsys):
        # The baseline recovers to sim.free_flow_speed; it has no speed of its own.
        reference_generator().save(tmp_path / "model.json")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"agents": {"human": {"free_flow_speed": 3.0}}}))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "free_flow_speed" in capsys.readouterr().err


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

    @settings(max_examples=150)
    @given(document=malformed_config_documents())
    def test_mistyped_config_values_are_usage_errors(self, tmp_path_factory, document):
        with pytest.raises(ValueError):
            RunConfig.from_document(json.loads(document))
        out = tmp_path_factory.mktemp("mistyped")
        (out / "config.json").write_text(document)
        argv = ["gen-data", "--config", str(out / "config.json"), "--out", str(out)]
        assert main(argv) == EXIT_USAGE

    def test_step_too_coarse_for_the_human_driver_is_usage_error(self, tmp_path, capsys):
        reference_generator().save(tmp_path / "model.json")
        cfg = tmp_path / "config.json"
        cfg.write_text('{"sim": {"dt": 0.5}, "eval": {"n_experiments": 2}}')
        argv = ["evaluate", "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "sim.dt=0.5 too coarse" in capsys.readouterr().err
        cfg.write_text('{"sim": {"dt": 0.5}, "agents": {"human": {"update_interval": 5.0}}}')
        assert RunConfig.load(cfg).sim.dt == 0.5

    def test_fixed_arrivals_without_a_rate_are_usage_error(self, tmp_path, capsys):
        reference_generator().save(tmp_path / "model.json")
        cfg = tmp_path / "config.json"
        cfg.write_text(
            '{"sim": {"fixed_count": 3, "arrival_rate": 0.0}, "eval": {"n_experiments": 2}}'
        )
        argv = ["evaluate", "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        assert "arrival_rate must be positive" in capsys.readouterr().err
        cfg.write_text('{"sim": {"fixed_count": 1, "arrival_rate": 0.0}}')
        assert RunConfig.load(cfg).sim.fixed_count == 1

    def test_nonpositive_parallel_is_usage_error(self, tmp_path, capsys):
        reference_generator().save(tmp_path / "model.json")
        argv = ["evaluate", "--out", str(tmp_path), "--parallel", "0"]
        assert main(argv) == EXIT_USAGE
        assert "--parallel must be >= 1" in capsys.readouterr().err

    def test_parallel_is_an_evaluate_option_only(self, tmp_path, capsys):
        argv = ["fit", "--out", str(tmp_path), "--parallel", "2"]
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err
