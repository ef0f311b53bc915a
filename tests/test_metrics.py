"""Report aggregation: tau, running mean, cv, kappa, gates, serialization."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from crossingsim.metrics import EvaluationReport, GateDecision, compute_report, write_series
from crossingsim.sim import EpisodeResult, PairResult


def episode(passing_time=None, crashed=False, timed_out=False):
    return EpisodeResult(
        passing_time=passing_time,
        crashed=crashed,
        crash_time=None,
        timed_out=timed_out,
        arrival_times=(),
        sides=(),
        walk_speeds=(),
        walk_speed_fallbacks=(),
        strategy_fallbacks=0,
    )


def pairs_from_tau(taus, baseline_time=10.0):
    return [
        PairResult(i, episode(t * baseline_time), episode(baseline_time))
        for i, t in enumerate(taus)
    ]


class TestStatistics:
    def test_hand_example(self):
        # tau = (0.5, 1.5): mean 1, population sd 0.5, cv 50 percent.
        report = compute_report(pairs_from_tau([0.5, 1.5]))
        assert report.mu == pytest.approx(1.0, abs=1e-15)
        assert report.sigma == pytest.approx(0.5, abs=1e-15)
        assert report.cv == pytest.approx(0.5, abs=1e-15)
        assert report.kappa == 0.0
        assert report.n_excluded == 0

    def test_matches_closed_forms_on_random_lists(self):
        rng = np.random.Generator(np.random.PCG64(20))
        for trial in range(20):
            taus = rng.uniform(0.4, 2.5, size=int(rng.integers(1, 40)))
            report = compute_report(pairs_from_tau(taus))
            assert report.mu == pytest.approx(float(np.mean(taus)), rel=1e-12)
            assert report.sigma == pytest.approx(float(np.std(taus)), rel=1e-12)
            assert report.cv == pytest.approx(
                float(np.std(taus) / np.mean(taus)), rel=1e-12
            )
            want_running = np.cumsum(taus) / np.arange(1, len(taus) + 1)
            np.testing.assert_allclose(report.running_mean, want_running, rtol=1e-12)

    def test_running_mean_ends_at_mu(self):
        report = compute_report(pairs_from_tau([0.9, 1.1, 1.3, 0.7]))
        assert report.running_mean[-1] == report.mu
        assert report.running_mean[0] == pytest.approx(0.9)

    def test_sigma_uses_population_normalization(self):
        taus = [1.0, 2.0, 3.0]
        report = compute_report(pairs_from_tau(taus))
        assert report.sigma == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)


class TestKappaAndExclusions:
    def test_candidate_failures_count(self):
        pairs = pairs_from_tau([1.0, 1.1])
        pairs.append(PairResult(2, episode(crashed=True), episode(9.0)))
        pairs.append(PairResult(3, episode(timed_out=True), episode(9.0)))
        report = compute_report(pairs)
        assert report.kappa == pytest.approx(2.0 / 4.0)
        assert report.candidate_crashes == 1
        assert report.candidate_timeouts == 1
        assert report.n_excluded == 2
        assert len(report.tau) == 2

    def test_baseline_failures_excluded_but_not_kappa(self):
        pairs = pairs_from_tau([1.0])
        pairs.append(PairResult(1, episode(8.0), episode(crashed=True)))
        report = compute_report(pairs)
        assert report.kappa == 0.0
        assert report.baseline_crashes == 1
        assert report.n_excluded == 1

    def test_all_failed_pairs_give_nan_stats(self):
        pairs = [PairResult(0, episode(crashed=True), episode(9.0))]
        report = compute_report(pairs)
        assert math.isnan(report.mu)
        assert math.isnan(report.sigma)
        assert math.isnan(report.cv)
        assert report.kappa == 1.0
        assert report.tau == ()
        assert report.running_mean == ()


class TestGates:
    def test_strict_inequalities(self):
        report = compute_report(pairs_from_tau([1.0, 1.0]), mu_0=1.0, kappa_0=0.5)
        assert not report.gate.passed  # mu == mu_0 must fail
        report = compute_report(pairs_from_tau([0.9, 0.9]), mu_0=1.0, kappa_0=0.5)
        assert report.gate.passed

    def test_kappa_gate(self):
        pairs = pairs_from_tau([0.8])
        pairs.append(PairResult(1, episode(crashed=True), episode(9.0)))
        report = compute_report(pairs, mu_0=1.0, kappa_0=0.5)
        assert report.gate == GateDecision(mu_0=1.0, kappa_0=0.5, passed=False)

    def test_half_set_gates_rejected(self):
        with pytest.raises(ValueError):
            compute_report(pairs_from_tau([1.0]), mu_0=1.0)
        with pytest.raises(ValueError):
            compute_report(pairs_from_tau([1.0]), kappa_0=0.5)

    def test_no_gates_no_decision(self):
        assert compute_report(pairs_from_tau([1.0])).gate is None


class TestMalformedInput:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            compute_report([])

    def test_nonpositive_passing_time_rejected(self):
        pair = PairResult(0, episode(0.0), episode(9.0))
        with pytest.raises(ValueError):
            compute_report([pair])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        report = compute_report(pairs_from_tau([0.8, 1.2, 1.0]), mu_0=1.5, kappa_0=0.2)
        path = tmp_path / "report.json"
        report.save(path)
        assert EvaluationReport.load(path) == report

    def test_nan_survives_the_trip(self, tmp_path):
        report = compute_report([PairResult(0, episode(crashed=True), episode(9.0))])
        path = tmp_path / "report.json"
        report.save(path)
        back = EvaluationReport.load(path)
        assert math.isnan(back.mu) and math.isnan(back.cv)
        assert back.kappa == 1.0

    def test_truncated_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "report.json"
        compute_report(pairs_from_tau([1.0])).save(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ValueError, match="^report document is not valid JSON: "):
            EvaluationReport.load(path)

    def test_document_shape(self):
        doc = compute_report(pairs_from_tau([1.0])).to_document()
        assert doc["format"] == "crossingsim-report"
        assert doc["gate"] is None
        assert doc["n_pairs"] == 1

    def test_foreign_document_rejected(self):
        with pytest.raises(ValueError):
            EvaluationReport.from_document({"format": "other", "version": 1})

    def test_save_is_byte_stable(self, tmp_path):
        report = compute_report(pairs_from_tau([0.8, 1.2]))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        report.save(a)
        report.save(b)
        assert a.read_bytes() == b.read_bytes()


VALID_REPORT = compute_report(
    pairs_from_tau([0.8, 1.2, 1.0]), mu_0=1.5, kappa_0=0.2
).to_document()
INTEGER_KEYS = [
    "n_pairs", "n_excluded", "candidate_crashes", "candidate_timeouts",
    "baseline_crashes", "baseline_timeouts",
]
NUMBER_KEYS = ["mu", "sigma", "cv", "kappa", "gate.mu_0", "gate.kappa_0"]
LIST_KEYS = ["tau", "running_mean"]
REPORT_KEYS = INTEGER_KEYS + NUMBER_KEYS + LIST_KEYS + ["gate", "gate.passed"]
NOT_NUMBERS = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def malformed_report_documents(draw):
    """A valid report document with one key dropped or of the wrong type.

    Returns the document and the dotted name of the broken key.
    """
    doc = json.loads(json.dumps(VALID_REPORT))
    name = draw(st.sampled_from(REPORT_KEYS))
    *parents, key = name.split(".")
    section = doc
    for parent in parents:
        section = section[parent]
    if draw(st.booleans()):
        del section[key]
    elif name in INTEGER_KEYS:
        section[key] = draw(st.one_of(NOT_NUMBERS, st.floats(), st.integers(max_value=-1)))
    elif name in NUMBER_KEYS:
        section[key] = draw(st.one_of(NOT_NUMBERS, st.just(10**400)))
    elif name in LIST_KEYS:
        section[key] = draw(
            st.one_of(
                st.floats(),
                st.text(max_size=4),
                st.none(),
                st.lists(NOT_NUMBERS, min_size=1, max_size=2),
                # numbers, but not one per entry of the other list
                st.lists(st.floats(0.5, 2.0), max_size=5).filter(lambda v: len(v) != 3),
            )
        )
    elif name == "gate":
        section[key] = draw(st.one_of(st.floats(), st.text(max_size=4), st.lists(st.floats())))
    else:  # gate.passed takes a boolean only
        section[key] = draw(st.one_of(st.integers(), st.floats(), st.text(max_size=4), st.none()))
    return doc, name


class TestMalformedDocuments:
    def test_bare_header_names_the_first_missing_key(self):
        with pytest.raises(ValueError, match="'gate'"):
            EvaluationReport.from_document({"format": "crossingsim-report", "version": 1})

    def test_wrong_typed_tau(self):
        doc = dict(VALID_REPORT, tau=5)
        with pytest.raises(ValueError, match="'tau'"):
            EvaluationReport.from_document(doc)

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            EvaluationReport.from_document([VALID_REPORT])

    def test_valid_document_loads(self):
        assert EvaluationReport.from_document(VALID_REPORT).to_document() == VALID_REPORT

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_pairs", -3),
            ("n_excluded", -1),
            ("candidate_crashes", -1),
            ("candidate_timeouts", -2),
            ("baseline_crashes", -1),
            ("baseline_timeouts", -1),
            ("running_mean", VALID_REPORT["running_mean"][:2]),
            ("tau", VALID_REPORT["tau"] + [1.0]),
        ],
    )
    def test_impossible_report_is_a_value_error_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=repr(key)):
            EvaluationReport.from_document(dict(VALID_REPORT, **{key: value}))

    def test_zero_counts_load(self):
        doc = dict(VALID_REPORT, n_excluded=0, candidate_crashes=0, baseline_timeouts=0)
        assert EvaluationReport.from_document(doc).to_document() == doc

    @settings(max_examples=200)
    @given(case=malformed_report_documents())
    def test_every_fault_is_a_value_error_naming_the_key(self, case):
        doc, name = case
        with pytest.raises(ValueError, match=repr(name)):
            EvaluationReport.from_document(doc)

    # Each value below is well typed, but contradicts what the primary
    # values (n_pairs, tau, the four counts, the gate thresholds) give,
    # or, for tau, gives a sigma out of float range or holds a ratio <= 0.
    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_excluded", 7),
            ("candidate_crashes", 9),
            ("kappa", 0.9),
            ("n_pairs", 1),
            ("n_pairs", 0),
            ("mu", 1.0000000000000002),
            ("sigma", 0.0),
            ("cv", math.nan),
            ("running_mean", [0.8, 1.0, 1.1]),
            ("baseline_timeouts", 1),
            ("n_excluded", 0.0),
            ("tau", [1.0, 1e300, 1.0]),
            ("tau", [1.0, -1.0]),
            ("tau", [0.8, 0.0, 1.0]),
        ],
    )
    def test_contradiction_is_a_value_error_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match="^" + re.escape(repr(key))):
            EvaluationReport.from_document(dict(VALID_REPORT, **{key: value}))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_pairs", 1, "'n_pairs' is 1, fewer than the 3 entries of 'tau'"),
            ("n_excluded", 7, "'n_excluded' is 7, but recomputed it is 0"),
            ("kappa", 0.9, "'kappa' is 0.9, but recomputed it is 0.0"),
            ("tau", [1.0, 1.0], "'running_mean' has 3 entries, but 'tau' has 2"),
        ],
    )
    def test_contradiction_message(self, key, value, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            EvaluationReport.from_document(dict(VALID_REPORT, **{key: value}))

    def test_contradicting_gate_verdict(self):
        doc = dict(VALID_REPORT, gate=dict(VALID_REPORT["gate"], passed=False))
        with pytest.raises(ValueError, match="'gate.passed'"):
            EvaluationReport.from_document(doc)

    @pytest.mark.parametrize(
        "key, message",
        [
            ("candidate_crashes", "'candidate_crashes' is 3, more than the 2 pairs left"),
            ("candidate_timeouts", "'candidate_timeouts' is 1, more than the 0 pairs left"),
            ("baseline_crashes", "'baseline_timeouts' is 2, more than the 1 pairs left"),
            ("baseline_timeouts", "'baseline_timeouts' is 3, more than the 2 pairs left"),
        ],
    )
    def test_failures_fit_in_the_excluded_pairs(self, key, message):
        # 2 of 4 pairs excluded: 2 failures on a side load, 3 do not.  A
        # side's crashes take the excluded pairs first, so one crash too
        # many is reported against the time-outs it leaves no room for.
        pairs = pairs_from_tau([0.9, 1.1])
        pairs += [PairResult(i, episode(crashed=True), episode(timed_out=True)) for i in (2, 3)]
        doc = json.loads(json.dumps(compute_report(pairs).to_document()))
        side = key.split("_")[0]
        assert doc[f"{side}_crashes"] + doc[f"{side}_timeouts"] == doc["n_excluded"] == 2
        EvaluationReport.from_document(doc)
        doc[key] += 1
        with pytest.raises(ValueError, match=f"^{message}$"):
            EvaluationReport.from_document(doc)

    def test_nan_matches_nan_only_when_tau_is_empty(self):
        pairs = [PairResult(0, episode(crashed=True), episode(9.0))]
        doc = json.loads(json.dumps(compute_report(pairs).to_document()))
        assert EvaluationReport.from_document(doc).to_document()["tau"] == []
        with pytest.raises(ValueError, match="'mu'"):
            EvaluationReport.from_document(dict(doc, mu=1.0))
        with pytest.raises(ValueError, match="'mu' must be a finite number, got nan"):
            EvaluationReport.from_document(dict(VALID_REPORT, mu=math.nan))

    def test_derived_reals_may_be_integers(self):
        doc = compute_report(pairs_from_tau([1.0, 1.0])).to_document()
        assert (doc["mu"], doc["sigma"], doc["kappa"]) == (1.0, 0.0, 0.0)
        back = EvaluationReport.from_document(dict(doc, mu=1, sigma=0, kappa=0))
        assert back.to_document() == doc


OUTCOMES = st.one_of(
    st.floats(min_value=5e-324, max_value=1e308).map(episode),
    st.floats(0.5, 60.0).map(episode),
    st.builds(episode, crashed=st.just(True)),
    st.builds(episode, timed_out=st.just(True)),
)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(st.tuples(OUTCOMES, OUTCOMES), min_size=1, max_size=12),
        gate=st.none() | st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 1.0)),
    )
    @example(pairs=[(episode(crashed=True), episode(9.0))], gate=None)
    @example(pairs=[(episode(timed_out=True), episode(crashed=True))], gate=(1.0, 0.5))
    @example(pairs=[(episode(4.5), episode(9.0))], gate=(1.0, 0.5))
    @example(pairs=[(episode(1e308), episode(1.0))] * 2, gate=(1.0, 0.5))  # mu inf, cv NaN
    def test_every_accepted_batch_survives(self, pairs, gate):
        batch = [PairResult(i, cand, base) for i, (cand, base) in enumerate(pairs)]
        try:
            report = compute_report(batch, *(gate or (None, None)))
        except ValueError:
            reject()  # a time ratio that is not finite and positive, or sigma overflows
        text = json.dumps(report.to_document())
        back = EvaluationReport.from_document(json.loads(text))
        assert json.dumps(back.to_document()) == text


class TestSeries:
    def test_columns_and_rows(self, tmp_path):
        report = compute_report(pairs_from_tau([0.5, 1.5]))
        path = tmp_path / "series.csv"
        write_series(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,running_mean,tau"
        assert len(lines) == 3
        n, running, tau = lines[1].split(",")
        assert (int(n), float(running), float(tau)) == (1, 0.5, 0.5)
        n, running, tau = lines[2].split(",")
        assert (int(n), float(running), float(tau)) == (2, 1.0, 1.5)
