"""Run configuration: defaults, round trips, and fail-loud key checking."""

import json

import pytest

from crossingsim.config import (
    AgentsConfig,
    EvalConfig,
    IngestConfig,
    MixtureConfig,
    RunConfig,
)


class TestDefaults:
    def test_every_field_has_a_value(self):
        cfg = RunConfig()
        assert cfg.master_seed == 0
        assert cfg.sim.trigger_range == 30.0
        assert cfg.mixture.k_min == 1 and cfg.mixture.k_max == 15
        assert cfg.agents.av_strategy == "soft-yield"
        assert cfg.eval.n_experiments == 50
        assert cfg.eval.mu_0 is None and cfg.eval.kappa_0 is None
        assert cfg.paths.model == "model.json"

    def test_empty_document_is_all_defaults(self):
        assert RunConfig.from_document({}) == RunConfig()


class TestSectionValidation:
    def test_mixture_k_range(self):
        with pytest.raises(ValueError):
            MixtureConfig(k_min=3, k_max=2)
        with pytest.raises(ValueError):
            MixtureConfig(k_min=0)

    def test_mixture_em_settings_checked_as_fit_settings(self):
        cfg = MixtureConfig(k_min=2, k_max=4, restarts=3)
        fit = cfg.fit_config(seed=11)
        assert (fit.n_components, fit.restarts, fit.seed) == (2, 3, 11)
        assert fit.truncation_mode == cfg.truncation_mode
        for bad in ({"restarts": 0}, {"truncation_mode": "censored"}):
            with pytest.raises(ValueError):
                MixtureConfig(**bad)

    def test_agents_strategy_name(self):
        with pytest.raises(ValueError):
            AgentsConfig(av_strategy="always-brake")

    def test_eval_gates_come_in_pairs(self):
        with pytest.raises(ValueError):
            EvalConfig(mu_0=1.0)
        with pytest.raises(ValueError):
            EvalConfig(kappa_0=0.1)
        cfg = EvalConfig(mu_0=1.0, kappa_0=0.1)
        assert cfg.mu_0 == 1.0

    def test_eval_gates_must_be_positive(self):
        with pytest.raises(ValueError):
            EvalConfig(mu_0=-1.0, kappa_0=0.1)

    def test_ingest_bounds(self):
        with pytest.raises(ValueError):
            IngestConfig(n_synthetic=-1)


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        cfg = RunConfig.from_document(
            {
                "master_seed": 17,
                "sim": {"dt": 0.02, "fixed_count": 2},
                "mixture": {"k_max": 6, "restarts": 3},
                "agents": {"av_strategy": "human"},
                "eval": {"n_experiments": 10, "mu_0": 1.2, "kappa_0": 0.1},
            }
        )
        doc = cfg.to_document()
        again = RunConfig.from_document(doc)
        assert again == cfg
        assert again.to_document() == doc

    def test_save_load(self, tmp_path):
        cfg = RunConfig(master_seed=99)
        path = tmp_path / "config.json"
        cfg.save(path)
        assert RunConfig.load(path) == cfg
        # The saved file is plain JSON with the documented sections.
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "master_seed", "sim", "mixture", "agents", "eval", "ingest", "paths",
        }

    def test_save_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        RunConfig().save(a)
        RunConfig().save(b)
        assert a.read_bytes() == b.read_bytes()


class TestFailLoud:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown top-level"):
            RunConfig.from_document({"mixtur": {}})

    def test_unknown_section_key_names_the_section(self):
        with pytest.raises(ValueError, match="'sim'"):
            RunConfig.from_document({"sim": {"trigger_rang": 30.0}})

    def test_unknown_nested_agents_key(self):
        with pytest.raises(ValueError, match="agents.soft_yield"):
            RunConfig.from_document({"agents": {"soft_yield": {"acel": 0.1}}})
        with pytest.raises(ValueError, match="'agents'"):
            RunConfig.from_document({"agents": {"strategy": "human"}})

    def test_master_seed_must_be_an_integer(self):
        with pytest.raises(ValueError):
            RunConfig.from_document({"master_seed": "7"})
        with pytest.raises(ValueError):
            RunConfig.from_document({"master_seed": True})

    def test_section_must_be_an_object(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            RunConfig.from_document({"sim": [1, 2]})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            RunConfig.load(path)

    def test_section_values_still_validated(self):
        with pytest.raises(ValueError):
            RunConfig.from_document({"sim": {"dt": -0.1}})
