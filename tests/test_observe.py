import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sarbias import (Infection, ParameterError, ScenarioConfig, SourceKind,
                     SymptomModelParams, TestingPolicy, UnitConfig,
                     apply_policy, run_cohort, sampling_fraction, simulate_unit)
from sarbias.harness import spawn_rng
from sarbias.observe import (SCHEDULED_KINDS, SYMPTOM_KINDS, ObservedUnit,
                             PolicyKind)
from sarbias.simcore import UnitTruth


def make_unit(infections, n_persons=4):
    return UnitTruth(vaccinated=(False,) * n_persons, infections=infections)


def primary_infection(duration=14.0, symptomatic=True, onset=6.0):
    return Infection(person_id=0, acquisition_time=0.0,
                     source_kind=SourceKind.PRIMARY, source_id=None,
                     symptomatic=symptomatic,
                     symptom_onset_time=onset if symptomatic else None,
                     duration_days=duration)


def secondary_infection(person_id, acquisition, duration=14.0,
                        symptomatic=True, onset=None):
    return Infection(person_id=person_id, acquisition_time=acquisition,
                     source_kind=SourceKind.CONTACT, source_id=0,
                     symptomatic=symptomatic, symptom_onset_time=onset,
                     duration_days=duration)


class TestPolicyValidation:
    def test_scheduled_requires_interval(self):
        with pytest.raises(ValueError):
            TestingPolicy(kind=PolicyKind.SCHEDULED)
        with pytest.raises(ValueError):
            TestingPolicy.scheduled(0.0)

    def test_bad_fields(self):
        with pytest.raises(ValueError):
            TestingPolicy.symptom_prompted(delay_days=-1.0)
        with pytest.raises(ValueError):
            TestingPolicy(kind=PolicyKind.SYMPTOM_PROMPTED, participation=1.5)
        with pytest.raises(ValueError):
            TestingPolicy.scheduled(7.0, fixed_phase=7.0)

    @pytest.mark.parametrize("field_name", ["interval_days", "horizon_days"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_schedule_spans_must_be_finite(self, field_name, value):
        kwargs = {"interval_days": 7.0, field_name: value}
        with pytest.raises(ParameterError,
                           match=f"{field_name} must be finite and > 0"):
            TestingPolicy(kind=PolicyKind.SCHEDULED, **kwargs)

    def test_slot_count_must_fit_a_double(self):
        # A slot search steps j by 1, which stops moving phase + j * k once
        # the slot numbers pass 2^53.
        with pytest.raises(ParameterError, match="interval_days must be at "
                           "least horizon_days / 2\\^53 = 6.66134e-15, got 1e-30"):
            TestingPolicy.scheduled(1e-30)
        TestingPolicy.scheduled(60.0 / 2.0 ** 53)

    @pytest.mark.parametrize("kind", [PolicyKind.NO_TESTING,
                                      PolicyKind.SYMPTOM_PROMPTED])
    @pytest.mark.parametrize("field_name, value", [
        ("interval_days", 7.0), ("fixed_phase", 0.0), ("shared_phase", True)])
    def test_schedule_fields_need_scheduled_tests(self, kind, field_name, value):
        with pytest.raises(ParameterError, match=f"{field_name} = {value}"):
            TestingPolicy(kind=kind, **{field_name: value})

    @pytest.mark.parametrize("kind", [PolicyKind.NO_TESTING,
                                      PolicyKind.SCHEDULED])
    def test_delay_needs_symptom_tests(self, kind):
        interval = 7.0 if kind is PolicyKind.SCHEDULED else None
        with pytest.raises(ParameterError, match="delay_days = 3"):
            TestingPolicy(kind=kind, interval_days=interval, delay_days=3.0)


def _unread(unit):
    raise AssertionError("ObservedUnit.tests read")


class TestSmallestInterval:
    """Both paths on households of four tested at the smallest interval a
    policy accepts, horizon / 2^53 days: a unit's summary costs what it
    costs at any interval, while its record listing, one record per slot,
    would never finish, so neither path may read ``ObservedUnit.tests``."""

    INTERVAL = 60.0 / 2.0 ** 53

    def test_simulate(self, tmp_path):
        # In a child process, so a hang fails the test by its timeout.
        config, out = tmp_path / "scenario.cfg", tmp_path / "rows.csv"
        config.write_text("scenario.seed = 1\nscenario.units_per_arm = 200\n"
                          "unit.size = 4\npolicy.kind = scheduled\n"
                          f"policy.interval_days = {self.INTERVAL!r}\n")
        script = ("import sys\nfrom sarbias import cli, observe\n"
                  "def unread(unit):\n"
                  "    raise AssertionError('ObservedUnit.tests read')\n"
                  "observe.ObservedUnit.tests = property(unread)\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--config", str(config),
             "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        with out.open(newline="") as f:
            (row,) = csv.DictReader(f)
        assert math.isfinite(float(row["actual_ve_mc"]))

    def test_run_cohort(self, monkeypatch):
        monkeypatch.setattr(ObservedUnit, "tests", property(_unread))
        cfg = ScenarioConfig(unit=UnitConfig(unit_size=4),
                             policy=TestingPolicy.scheduled(self.INTERVAL))
        counts = run_cohort(cfg, 20_000, spawn_rng(1))
        assert math.isfinite(counts.observed_ratio().ve)


class TestNoAndSymptomTesting:
    def test_no_testing_no_records(self):
        unit = make_unit([primary_infection()])
        obs = apply_policy(unit, TestingPolicy.none(), np.random.default_rng(0))
        assert obs.tests == []

    def test_all_asymptomatic_yields_no_records(self):
        unit = make_unit([primary_infection(symptomatic=False),
                          secondary_infection(1, 2.0, symptomatic=False)])
        obs = apply_policy(unit, TestingPolicy.symptom_prompted(),
                           np.random.default_rng(0))
        assert obs.tests == []

    def test_symptomatic_tested_at_onset_plus_delay(self):
        unit = make_unit([primary_infection(onset=6.0)])
        obs = apply_policy(unit, TestingPolicy.symptom_prompted(delay_days=2.0),
                           np.random.default_rng(0))
        assert len(obs.tests) == 1
        assert obs.tests[0].test_time == 8.0
        assert obs.tests[0].positive
        assert obs.reported_onsets == {0: 6.0}

    def test_positive_iff_inside_positivity_window(self):
        # Onset after the positivity window ends: tested but negative.
        late = make_unit([primary_infection(duration=4.0, onset=6.0)])
        obs = apply_policy(late, TestingPolicy.symptom_prompted(),
                           np.random.default_rng(0))
        assert len(obs.tests) == 1
        assert not obs.tests[0].positive
        assert obs.first_positive[0] is None

    def test_participation_zero_suppresses_everything(self):
        unit = make_unit([primary_infection()])
        policy = TestingPolicy(kind=PolicyKind.SYMPTOM_PROMPTED, participation=0.0)
        obs = apply_policy(unit, policy, np.random.default_rng(0))
        assert obs.tests == []

    def test_onset_beyond_horizon_not_tested(self):
        unit = make_unit([primary_infection(onset=80.0, duration=90.0)])
        obs = apply_policy(unit, TestingPolicy.symptom_prompted(horizon_days=60.0),
                           np.random.default_rng(0))
        assert obs.tests == []


class TestScheduledTesting:
    def test_fixed_phase_grid(self):
        unit = make_unit([primary_infection(duration=10.0)], n_persons=2)
        policy = TestingPolicy.scheduled(7.0, fixed_phase=1.5, horizon_days=30.0)
        obs = apply_policy(unit, policy, np.random.default_rng(0))
        times = sorted({t.test_time for t in obs.tests})
        assert times == [1.5, 8.5, 15.5, 22.5, 29.5]
        # Person 0 sheds on [0, 10): positives at 1.5 and 8.5 only.
        positives = [t.test_time for t in obs.tests if t.person_id == 0 and t.positive]
        assert positives == [1.5, 8.5]
        # Person 1 is never infected: records exist, all negative.
        assert all(not t.positive for t in obs.tests if t.person_id == 1)

    def test_uninfected_persons_have_records_not_positives(self):
        unit = make_unit([primary_infection()])
        policy = TestingPolicy.scheduled(10.0)
        obs = apply_policy(unit, policy, np.random.default_rng(1))
        assert obs.tested == [True] * 4
        assert all(t.person_id == 0 for t in obs.tests if t.positive)

    def test_shared_phase_synchronizes_unit(self):
        unit = make_unit([primary_infection()])
        policy = TestingPolicy.scheduled(7.0, shared_phase=True)
        obs = apply_policy(unit, policy, np.random.default_rng(2))
        first_times = {min(t.test_time for t in obs.tests if t.person_id == pid)
                       for pid in range(4) if obs.tested[pid]}
        assert len(first_times) == 1

    def test_detection_probability_of_fixed_duration(self):
        # Duration 5, interval 10: detected with probability 1/2.
        n, hits = 20_000, 0
        rng = np.random.default_rng(3)
        unit = make_unit([primary_infection(duration=5.0)], n_persons=2)
        policy = TestingPolicy.scheduled(10.0)
        for _ in range(n):
            obs = apply_policy(unit, policy, rng)
            hits += obs.first_positive[0] is not None
        se = math.sqrt(0.5 * 0.5 / n)
        assert abs(hits / n - 0.5) <= 3 * se

    def test_detection_fraction_matches_sampling_fraction(self):
        # Random durations from the unvaccinated arm, interval 10 days.
        cfg = UnitConfig(unit_size=2, symptom=SymptomModelParams(nu=0.0))
        rng = np.random.default_rng(4)
        policy = TestingPolicy.scheduled(10.0)
        n, hits = 20_000, 0
        for _ in range(n):
            truth = simulate_unit(cfg, False, rng)
            obs = apply_policy(truth, policy, rng)
            hits += obs.first_positive[0] is not None
        expect = sampling_fraction(10.0, 14.0, 7.0)
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(hits / n - expect) <= 3 * se

    def test_full_participation_short_interval_detects_everything(self):
        cfg = UnitConfig(symptom=SymptomModelParams(tau=0.6))
        rng = np.random.default_rng(5)
        policy = TestingPolicy.scheduled(1.0)  # at or below minimum duration
        for i in range(200):
            truth = simulate_unit(cfg, i % 2 == 0, rng)
            obs = apply_policy(truth, policy, rng)
            for inf in truth.infections:
                assert obs.first_positive[inf.person_id] is not None

    def test_monotone_information_under_coupled_phases(self):
        # Interval divisors with phase coupled as phase mod k' can only add
        # detections, never remove them.
        cfg = UnitConfig(symptom=SymptomModelParams(tau=0.6))
        rng = np.random.default_rng(6)
        truths = [simulate_unit(cfg, i % 2 == 0, rng) for i in range(150)]
        k, phase = 12.0, 4.7
        for k_prime in (1.0, 2.0, 3.0, 4.0, 6.0, 12.0):
            coarse = TestingPolicy.scheduled(k, fixed_phase=phase, horizon_days=80.0)
            fine = TestingPolicy.scheduled(k_prime, fixed_phase=phase % k_prime,
                                           horizon_days=80.0)
            for truth in truths:
                det_coarse = {t.person_id
                              for t in apply_policy(truth, coarse, rng).tests
                              if t.positive}
                det_fine = {t.person_id
                            for t in apply_policy(truth, fine, rng).tests
                            if t.positive}
                assert det_coarse <= det_fine

    def test_no_tests_beyond_horizon(self):
        unit = make_unit([primary_infection()])
        policy = TestingPolicy.scheduled(7.0, horizon_days=20.0)
        obs = apply_policy(unit, policy, np.random.default_rng(7))
        assert all(t.test_time <= 20.0 for t in obs.tests)

    def test_acquisition_after_last_slot_is_undetected(self):
        # (acquisition - phase) / k is far above 2^53 here, where a slot
        # search stepping j by 1 can stall: no slot can detect it anyway.
        unit = make_unit([primary_infection(), secondary_infection(1, 1e20)])
        obs = apply_policy(unit, TestingPolicy.scheduled(7.0),
                           np.random.default_rng(7))
        assert obs.first_positive[1] is None
        assert obs.tested[1]
        assert_summary_matches_records(obs)

    def test_symptom_plus_scheduled_includes_both(self):
        unit = make_unit([primary_infection(onset=6.0)], n_persons=2)
        policy = TestingPolicy.symptom_plus_scheduled(interval_days=15.0)
        obs = apply_policy(unit, policy, np.random.default_rng(8))
        assert 0 in obs.reported_onsets
        assert any(t.test_time == 6.0 for t in obs.tests if t.person_id == 0)
        # The scheduled grid for the contact.
        assert sum(t.person_id == 1 for t in obs.tests) >= 4


def assert_summary_matches_records(obs):
    """The summary equals the one a hand-built unit derives from records."""
    rebuilt = ObservedUnit.from_records(obs.vaccinated, obs.tests,
                                        obs.reported_onsets)
    assert obs.first_positive == rebuilt.first_positive
    assert obs.tested == rebuilt.tested


@st.composite
def unit_truths(draw, acquisition=st.floats(0.0, 40.0)):
    n_persons = draw(st.integers(2, 6))
    infections = []
    for pid in range(n_persons):
        if pid > 0 and not draw(st.booleans()):
            continue
        acq = 0.0 if pid == 0 else draw(acquisition)
        symptomatic = draw(st.booleans())
        onset = acq + draw(st.floats(0.0, 15.0)) if symptomatic else None
        infections.append(Infection(
            person_id=pid, acquisition_time=acq,
            source_kind=SourceKind.PRIMARY if pid == 0 else SourceKind.CONTACT,
            source_id=None if pid == 0 else 0, symptomatic=symptomatic,
            symptom_onset_time=onset,
            duration_days=draw(st.floats(0.5, 25.0))))
    return make_unit(infections, n_persons=n_persons)


@st.composite
def policies(draw):
    kind = draw(st.sampled_from(list(PolicyKind)))
    schedule = {}
    if kind in SCHEDULED_KINDS:
        interval = draw(st.floats(0.5, 15.0))
        fixed = draw(st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)))
        schedule = dict(interval_days=interval, shared_phase=draw(st.booleans()),
                        fixed_phase=None if fixed is None else fixed * interval)
    delay = (draw(st.sampled_from([0.0, 1.0, 2.5])) if kind in SYMPTOM_KINDS
             else 0.0)
    return TestingPolicy(
        kind=kind, delay_days=delay,
        participation=draw(st.sampled_from([1.0, 0.6, 0.0])),
        horizon_days=draw(st.sampled_from([60.0, 20.0, 4.0, 0.25])), **schedule)


class TestSummaryMatchesRecords:
    """The per-person summary equals the one derived from the records."""

    @given(truth=unit_truths(), policy=policies(), seed=st.integers(0, 2**32))
    def test_random_units_and_policies(self, truth, policy, seed):
        obs = apply_policy(truth, policy, np.random.default_rng(seed))
        assert_summary_matches_records(obs)

    @given(truth=unit_truths(acquisition=st.integers(0, 40)),
           phase=st.sampled_from([0.0, 0.1, 0.2]),
           interval=st.sampled_from([0.3, 0.7, 1.1, 7.0]),
           nudge=st.sampled_from([-1, 0, 1]))
    def test_acquisitions_on_slot_edges(self, truth, phase, interval, nudge):
        # Move every contact acquisition onto a slot time, or one float ulp
        # either side of it, where rounding decides the first slot.
        def on_edge(inf):
            if inf.person_id == 0:
                return inf
            t = phase + int(inf.acquisition_time) * interval
            for _ in range(abs(nudge)):
                t = math.nextafter(t, math.inf if nudge > 0 else -math.inf)
            return inf._replace(acquisition_time=t)
        truth = UnitTruth(vaccinated=truth.vaccinated,
                          infections=[on_edge(inf) for inf in truth.infections])
        policy = TestingPolicy.scheduled(interval, fixed_phase=phase)
        obs = apply_policy(truth, policy, np.random.default_rng(0))
        assert_summary_matches_records(obs)

    # In the next two cases ceil((acquisition - phase) / k) rounds to the
    # neighbouring slot; the first positive must still be the first slot
    # at or after acquisition.
    def test_acquisition_exactly_on_slot(self):
        slot = 15 * 0.7
        unit = make_unit([primary_infection(),
                          secondary_infection(1, slot, duration=0.5)])
        policy = TestingPolicy.scheduled(0.7, fixed_phase=0.0)
        obs = apply_policy(unit, policy, np.random.default_rng(0))
        assert obs.first_positive[1] == slot
        assert_summary_matches_records(obs)

    def test_acquisition_one_ulp_above_slot(self):
        acq = math.nextafter(5 * 1.1, math.inf)
        unit = make_unit([primary_infection(),
                          secondary_infection(1, acq, duration=5.0)])
        policy = TestingPolicy.scheduled(1.1, fixed_phase=0.0)
        obs = apply_policy(unit, policy, np.random.default_rng(0))
        assert obs.first_positive[1] == 6 * 1.1
        assert_summary_matches_records(obs)

    def test_slot_at_end_of_positivity_window_is_negative(self):
        unit = make_unit([primary_infection(),
                          secondary_infection(1, 1.0, duration=6.0)])
        policy = TestingPolicy.scheduled(7.0, fixed_phase=0.0)
        obs = apply_policy(unit, policy, np.random.default_rng(0))
        assert obs.first_positive[1] is None
        assert obs.tested[1]
        assert_summary_matches_records(obs)

    def test_phase_beyond_horizon_is_untested(self):
        unit = make_unit([primary_infection()])
        policy = TestingPolicy.scheduled(7.0, fixed_phase=5.0, horizon_days=3.0)
        obs = apply_policy(unit, policy, np.random.default_rng(0))
        assert obs.tested == [False] * 4
        assert obs.first_positive == [None] * 4
        assert obs.tests == []

    def test_symptom_test_before_first_positive_slot(self):
        unit = make_unit([primary_infection(duration=14.0, onset=2.0)],
                         n_persons=2)
        policy = TestingPolicy(kind=PolicyKind.SYMPTOM_PLUS_SCHEDULED,
                               interval_days=7.0, delay_days=1.0,
                               fixed_phase=6.0)
        obs = apply_policy(unit, policy, np.random.default_rng(0))
        assert obs.first_positive == [3.0, None]
        assert obs.tested == [True, True]
        assert obs.reported_onsets == {0: 2.0}
        assert_summary_matches_records(obs)
