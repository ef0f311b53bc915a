"""One rule for what a number is, in every parameter class and count argument."""

import argparse
import dataclasses
import math
import typing
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from crossingsim import checks
from crossingsim.agents import (
    HumanDriver,
    HumanDriverParams,
    SoftYieldParams,
    SoftYieldStrategy,
    fixed_count_arrivals,
    sample_arrivals,
)
from crossingsim.cli import cmd_simulate
from crossingsim.config import EvalConfig, IngestConfig, MixtureConfig, RunConfig
from crossingsim.ingest import reference_generator
from crossingsim.mixture import FitConfig
from crossingsim.sim import SimConfig, run_paired_experiments

NOT_NUMBERS = [True, False, "1", None, math.nan, math.inf, -math.inf, 10**400]


class TestInteger:
    # A Fraction is a real, never an integer, even at a whole value.
    @pytest.mark.parametrize(
        "value", NOT_NUMBERS + [2.5, 3.0, np.float32(3.0), np.float64(3.0), Fraction(3, 1)]
    )
    def test_rejects(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            checks.integer("n", value)

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_accepts_any_integral_as_int(self, value):
        number = checks.integer("n", value)
        assert number == 3 and type(number) is int

    def test_lower_bound_is_inclusive(self):
        assert checks.integer("n", 1, low=1) == 1
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got 0$"):
            checks.integer("n", 0, low=1)


class TestReal:
    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_rejects(self, value):
        with pytest.raises(ValueError, match=r"^x must be a finite number, got "):
            checks.real("x", value)

    @pytest.mark.parametrize(
        "value", [2.5, np.float32(2.5), np.float64(2.5), Fraction(5, 2)]
    )
    def test_accepts_any_real_as_float(self, value):
        number = checks.real("x", value)
        assert number == 2.5 and type(number) is float

    @pytest.mark.parametrize("value", [5, np.int64(5)])
    def test_integers_are_reals(self, value):
        number = checks.real("x", value)
        assert number == 5.0 and type(number) is float

    def test_lower_bounds(self):
        assert checks.real("x", 0.0, low=0) == 0.0
        with pytest.raises(ValueError, match=r"^x must be a finite number > 0, got 0\.0$"):
            checks.real("x", 0.0, low=0, strict=True)
        with pytest.raises(ValueError, match=r"^x must be a finite number >= 0, got -1$"):
            checks.real("x", -1, low=0)


class TestReals:
    # Every fault is named by its path, from the name down to the entry.
    @pytest.mark.parametrize(
        "value,message",
        [
            (True, "x must be a list of 2 entries, got True"),
            (10**400, "x must be a list of 2 entries, got 1"),
            ([[1.0, 2.0], [3.0]], "x[1] must be a list of 2 entries, got [3.0]"),
            ([[1.0, 2.0]], "x must be a list of 2 entries, got [[1.0, 2.0]]"),
            ([[1.0, [2.0]], [3.0, 4.0]], "x[0][1] must be a finite number, got [2.0]"),
            ([[1.0, 2.0], [3.0, True]], "x[1][1] must be a finite number, got True"),
            ([[1.0, 2.0], [10**400, 4.0]], "x[1][0] must be a finite number, got 1"),
            ([[1.0, math.nan], [3.0, 4.0]], "x[0][1] must be a finite number, got nan"),
            ([[1.0, 2.0], ["3", 4.0]], "x[1][0] must be a finite number, got '3'"),
            ([[1.0, 2.0], [None, 4.0]], "x[1][0] must be a finite number, got None"),
            ((1.0, 2.0), "x must be a list of 2 entries, got (1.0, 2.0)"),
        ],
    )
    def test_rejects(self, value, message):
        with pytest.raises(ValueError) as info:
            checks.reals("x", value, (2, 2))
        assert str(info.value).startswith(message)

    def test_accepts_nested_reals_as_floats(self):
        values = checks.reals("x", [[1, 2.5], [Fraction(1, 2), -4]], (2, 2))
        assert values == [[1.0, 2.5], [0.5, -4.0]]
        assert all(type(v) is float for row in values for v in row)
        assert checks.reals("x", [], (0,)) == []


class TestPresent:
    def test_missing_key(self):
        with pytest.raises(ValueError, match=r"^x is missing$"):
            checks.present("x", {"y": 1}, "x")

    def test_returns_the_value_as_stored(self):
        doc = {"x": None, "y": [1, "a"]}
        assert checks.present("x", doc, "x") is None
        assert checks.present("'y'", doc, "y") is doc["y"]


PARAMETER_CLASSES = [
    SimConfig,
    HumanDriverParams,
    SoftYieldParams,
    FitConfig,
    MixtureConfig,
    EvalConfig,
    IngestConfig,
    RunConfig,
]
REQUIRED = {FitConfig: {"n_components": 1}}


def number_fields():
    for cls in PARAMETER_CLASSES:
        for name, kind in typing.get_type_hints(cls).items():
            if kind is int:
                yield cls, name, [True, "1", 10**400, 2.5]
            elif kind in (float, typing.Optional[float]):
                yield cls, name, [True, "1", 10**400]


@pytest.mark.parametrize(
    "cls,name,values",
    [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}") for case in number_fields()],
)
def test_every_number_field_keeps_the_rule(cls, name, values):
    for value in values:
        fields = {**REQUIRED.get(cls, {}), name: value}
        if name in ("mu_0", "kappa_0"):
            fields = {"mu_0": 1.0, "kappa_0": 0.1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be "):
            cls(**fields)


class TestCountArguments:
    def model(self):
        return reference_generator()

    def test_arrival_arguments(self):
        with pytest.raises(ValueError, match="^rate must be "):
            sample_arrivals(True, 10.0, 1)
        with pytest.raises(ValueError, match="^horizon must be "):
            sample_arrivals(0.1, "10", 1)
        with pytest.raises(ValueError, match="^count must be an integer"):
            fixed_count_arrivals(1.0, 2.5, 1)

    def test_free_flow_speed(self):
        with pytest.raises(ValueError, match="^free_flow_speed must be "):
            HumanDriver(self.model(), HumanDriverParams(), math.inf)

    @pytest.mark.parametrize(
        "name,n_experiments,parallel",
        [("n_experiments", True, 1), ("n_experiments", 2.5, 1), ("parallel", 1, 2.5)],
    )
    def test_paired_experiments(self, name, n_experiments, parallel):
        model = self.model()
        candidate = partial(SoftYieldStrategy, SoftYieldParams(), 9.0)
        baseline = partial(HumanDriver, model, HumanDriverParams(), 5.0)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            run_paired_experiments(
                SimConfig(), model, candidate, baseline, n_experiments, 1, parallel
            )

    def test_master_seed(self):
        model = self.model()
        candidate = partial(SoftYieldStrategy, SoftYieldParams(), 9.0)
        baseline = partial(HumanDriver, model, HumanDriverParams(), 5.0)
        run = partial(run_paired_experiments, SimConfig(), model, candidate, baseline, 1)
        with pytest.raises(ValueError, match="^master_seed must be an integer"):
            run(True)
        assert run(np.int64(1)) == run(1)

    def test_sample_count(self):
        with pytest.raises(ValueError, match="^count must be an integer"):
            self.model().sample(10**400, seed=0)


class TestFloatStorage:
    def test_constructor_stores_floats(self):
        speed = SimConfig(free_flow_speed=5).free_flow_speed
        assert speed == 5.0 and type(speed) is float

    def test_loader_equals_constructor(self):
        as_int = RunConfig.from_document({"sim": {"free_flow_speed": 5}})
        as_float = RunConfig.from_document({"sim": {"free_flow_speed": 5.0}})
        assert as_int == as_float
        assert type(as_int.sim.free_flow_speed) is float

    def test_simulate_writes_the_same_trajectory(self, tmp_path):
        written = []
        for speed in (5, 5.0):
            out = tmp_path / repr(speed)
            out.mkdir()
            reference_generator().save(out / "model.json")
            config = dataclasses.replace(RunConfig(), sim=SimConfig(free_flow_speed=speed))
            assert cmd_simulate(config, argparse.Namespace(out=out)) == 0
            written.append((out / "trajectory.csv").read_bytes())
        assert written[0] == written[1]
        assert b",5.0\n" in written[0]


class TestLoaderMessages:
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"sim": {"dt": True}}, "sim.dt must be a finite number > 0, got True"),
            ({"mixture": {"k_max": "3"}}, "mixture.k_max must be an integer >= 1, got '3'"),
            (
                {"agents": {"soft_yield": {"accel_intercept": "1"}}},
                "agents.soft_yield.accel_intercept must be a finite number, got '1'",
            ),
            ({"eval": {"mu_0": 1.0}}, "eval.mu_0 and kappa_0 must be set together"),
            ({"paths": {"model": 5}}, "paths.model must be a string, got 5"),
            ({"master_seed": 2.5}, "master_seed must be an integer, got 2.5"),
        ],
    )
    def test_messages_name_the_section_key(self, doc, message):
        with pytest.raises(ValueError) as info:
            RunConfig.from_document(doc)
        assert str(info.value) == message
