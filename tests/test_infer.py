import numpy as np
import pytest
from hypothesis import given, strategies as st

from sarbias import (EstimationError, Infection, SourceKind,
                     StudyDesignFilter, SymptomModelParams, TestRecord,
                     TestingPolicy, UnitAnalysis, UnitConfig, WindowAnchor,
                     analyze_unit, apply_policy, estimate_ve_sar,
                     identify_index, simulate_unit, true_ve_sar)
from sarbias.infer import ArmCounts, ve_from_arms
from sarbias.observe import ObservedUnit
from sarbias.simcore import UnitTruth


def observed(tests, n_persons=4, vaccinated=None, onsets=None):
    vaccinated = tuple(vaccinated or [False] * n_persons)
    return ObservedUnit.from_records(vaccinated, list(tests), onsets)


def pos(person_id, t):
    return TestRecord(person_id=person_id, test_time=t, positive=True)


def neg(person_id, t):
    return TestRecord(person_id=person_id, test_time=t, positive=False)


def analysis(index_vaccinated, at_risk, attributed):
    return UnitAnalysis(index_id=0, index_vaccinated=index_vaccinated,
                        n_at_risk_contacts=at_risk,
                        n_attributed_transmissions=attributed, excluded=False)


class TestIdentifyIndex:
    def test_no_positives(self):
        assert identify_index(observed([neg(0, 3.0)])) is None

    def test_single_positive(self):
        assert identify_index(observed([pos(2, 5.0)])) == 2

    def test_earliest_wins(self):
        assert identify_index(observed([pos(1, 7.0), pos(3, 4.0)])) == 3

    def test_tie_broken_by_lowest_id(self):
        assert identify_index(observed([pos(2, 4.0), pos(1, 4.0)])) == 1

    def test_first_positive_per_person(self):
        obs = observed([neg(1, 1.0), pos(1, 9.0), pos(0, 8.0)])
        assert identify_index(obs) == 0


class TestMisclassifiedIndex:
    """A secondary case with a shorter incubation is detected first."""

    @staticmethod
    def build_truth():
        primary = Infection(person_id=0, acquisition_time=0.0,
                            source_kind=SourceKind.PRIMARY, source_id=None,
                            symptomatic=True, symptom_onset_time=6.0,
                            duration_days=14.0)
        secondary = Infection(person_id=1, acquisition_time=2.0,
                              source_kind=SourceKind.CONTACT, source_id=0,
                              symptomatic=True, symptom_onset_time=5.0,
                              duration_days=14.0)
        return UnitTruth(vaccinated=(False,) * 4,
                         infections=[primary, secondary])

    def test_index_is_not_primary(self):
        truth = self.build_truth()
        obs = apply_policy(truth, TestingPolicy.symptom_prompted(),
                           np.random.default_rng(0))
        assert identify_index(obs) == 1  # not the primary, person 0

    def test_transmission_undercounted(self):
        truth = self.build_truth()
        obs = apply_policy(truth, TestingPolicy.symptom_prompted(),
                           np.random.default_rng(0))
        result = analyze_unit(obs, StudyDesignFilter.harris())
        # One true transmission; the primary's positive lands 1 day after
        # the misidentified index, below the window's lower edge.
        assert truth.primary_sourced_transmissions() == 1
        assert result.n_attributed_transmissions == 0


class TestAnalyzeUnit:
    def test_out_of_window_positive_not_attributed(self):
        obs = observed([pos(0, 0.0), pos(1, 20.0)])
        result = analyze_unit(obs, StudyDesignFilter(attribution_window=(2, 14)))
        assert result.n_attributed_transmissions == 0
        assert result.n_at_risk_contacts == 3

    def test_in_window_positive_attributed(self):
        obs = observed([pos(0, 0.0), pos(1, 10.0)])
        result = analyze_unit(obs, StudyDesignFilter(attribution_window=(2, 14)))
        assert result.n_attributed_transmissions == 1

    def test_no_index_excluded(self):
        result = analyze_unit(observed([neg(0, 1.0)]), StudyDesignFilter.maximal())
        assert result.excluded and result.exclusion_reason == "no_index"

    def test_same_day_coprimary_excluded_by_lyngse(self):
        obs = observed([pos(0, 3.2), pos(1, 3.9)])
        result = analyze_unit(obs, StudyDesignFilter.lyngse())
        assert result.excluded and result.exclusion_reason == "coprimary"

    def test_two_day_coprimary_excluded_by_harris(self):
        obs = observed([pos(0, 3.0), pos(1, 5.0)])
        assert analyze_unit(obs, StudyDesignFilter.harris()).excluded

    def test_coprimary_not_triggered_when_spread_out(self):
        obs = observed([pos(0, 3.0), pos(1, 9.0)])
        assert not analyze_unit(obs, StudyDesignFilter.lyngse()).excluded
        assert not analyze_unit(obs, StudyDesignFilter.harris()).excluded

    def test_registry_counts_untested_as_negative(self):
        obs = observed([pos(0, 0.0), pos(1, 5.0)])  # persons 2, 3 untested
        design = StudyDesignFilter(attribution_window=(1, 14),
                                   require_contact_tested=False)
        result = analyze_unit(obs, design)
        assert result.n_at_risk_contacts == 3
        assert result.n_attributed_transmissions == 1

    def test_tracing_drops_untested_contacts(self):
        obs = observed([pos(0, 0.0), pos(1, 5.0), neg(2, 4.0)])
        design = StudyDesignFilter(attribution_window=(1, 14),
                                   require_contact_tested=True)
        result = analyze_unit(obs, design)
        assert result.n_at_risk_contacts == 2

    def test_same_day_event_excluded_by_positive_window_lo(self):
        # Tracing-style presets have lo = 1: a same-day positive is not an
        # attributable transmission event.
        obs = observed([pos(0, 3.0), pos(1, 3.4)])
        for design in (StudyDesignFilter.eyre(), StudyDesignFilter.gier()):
            result = analyze_unit(obs, design)
            assert not result.excluded
            assert result.n_attributed_transmissions == 0

    def test_onset_anchor_uses_reported_onsets(self):
        obs = observed([pos(0, 6.0), pos(1, 8.0)],
                       onsets={0: 6.0, 1: 19.0})
        design_test = StudyDesignFilter(attribution_window=(1, 12),
                                        anchor=WindowAnchor.TEST_TIME)
        design_onset = StudyDesignFilter(attribution_window=(1, 12),
                                         anchor=WindowAnchor.ONSET_TIME)
        assert analyze_unit(obs, design_test).n_attributed_transmissions == 1
        assert analyze_unit(obs, design_onset).n_attributed_transmissions == 0

    def test_onset_anchor_ignores_onset_of_negative_contact(self):
        # The contact reported symptoms on day 20 but tested negative then.
        obs = observed([pos(0, 2.0), neg(1, 20.0)], n_persons=2,
                       onsets={1: 20.0})
        design = StudyDesignFilter(attribution_window=(1, 20),
                                   anchor=WindowAnchor.ONSET_TIME)
        result = analyze_unit(obs, design)
        assert result.n_at_risk_contacts == 1
        assert result.n_attributed_transmissions == 0

    def test_index_override_requires_positive(self):
        obs = observed([pos(1, 4.0)])
        anchored = analyze_unit(obs, StudyDesignFilter.maximal(), index_id=0)
        assert anchored.excluded and anchored.exclusion_reason == "no_index"
        kept = analyze_unit(obs, StudyDesignFilter.maximal(), index_id=1)
        assert not kept.excluded and kept.index_id == 1

    def test_attribution_monotone_in_window_width(self):
        rng = np.random.default_rng(1)
        cfg = UnitConfig(symptom=SymptomModelParams(tau=0.5),
                         community_daily_hazard=0.02)
        policy = TestingPolicy.symptom_prompted()
        for i in range(150):
            obs = apply_policy(simulate_unit(cfg, i % 2 == 0, rng), policy, rng)
            previous = -1
            for width in (2.0, 6.0, 14.0, 30.0, 60.0):
                design = StudyDesignFilter(attribution_window=(-width, width))
                result = analyze_unit(obs, design)
                count = result.n_attributed_transmissions
                if result.excluded:
                    count = 0
                assert count >= previous
                previous = count

    def test_attributed_never_exceeds_at_risk(self):
        rng = np.random.default_rng(2)
        cfg = UnitConfig(symptom=SymptomModelParams(tau=0.7),
                         contact_to_contact=True, community_daily_hazard=0.03)
        policy = TestingPolicy.symptom_plus_scheduled(interval_days=7.0)
        for i in range(150):
            obs = apply_policy(simulate_unit(cfg, i % 2 == 0, rng), policy, rng)
            for design in (StudyDesignFilter.maximal(), StudyDesignFilter.harris(),
                           StudyDesignFilter.eyre()):
                result = analyze_unit(obs, design)
                assert (result.n_attributed_transmissions
                        <= result.n_at_risk_contacts)


class TestPresets:
    def test_windows(self):
        assert StudyDesignFilter.harris().attribution_window == (2.0, 14.0)
        assert StudyDesignFilter.eyre().attribution_window == (1.0, 10.0)
        assert StudyDesignFilter.gier().attribution_window == (1.0, 14.0)
        assert StudyDesignFilter.lyngse().attribution_window == (1.0, 7.0)

    def test_coprimary_rules(self):
        assert StudyDesignFilter.harris().coprimary_exclusion_days == 2.0
        assert StudyDesignFilter.lyngse().coprimary_exclusion_days == 0.0
        assert StudyDesignFilter.eyre().coprimary_exclusion_days is None

    def test_denominator_styles(self):
        assert not StudyDesignFilter.harris().require_contact_tested
        assert StudyDesignFilter.eyre().require_contact_tested
        assert StudyDesignFilter.gier().require_contact_tested

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            StudyDesignFilter(attribution_window=(5.0, 2.0))


class TestEstimateVeSar:
    def test_pooled_arithmetic(self):
        analyses = ([analysis(True, 10, 1)] * 3 + [analysis(True, 10, 2)]
                    + [analysis(False, 10, 3)] * 4)
        est = estimate_ve_sar(analyses)
        assert est.sar_v == pytest.approx(5 / 40)
        assert est.sar_u == pytest.approx(12 / 40)
        assert est.ve == pytest.approx(1 - (5 / 40) / (12 / 40))
        assert est.se > 0

    def test_half_sar_gives_half_ve(self):
        analyses = [analysis(True, 20, 3), analysis(False, 20, 6)]
        est = estimate_ve_sar(analyses)
        assert est.ve == pytest.approx(0.5)

    def test_equal_arms_zero_ve(self):
        analyses = [analysis(True, 10, 3), analysis(False, 10, 3)]
        assert estimate_ve_sar(analyses).ve == pytest.approx(0.0)

    def test_undefined_when_unvaccinated_sar_zero(self):
        analyses = [analysis(True, 10, 1), analysis(False, 10, 0)]
        with pytest.raises(EstimationError, match="undefined VE"):
            estimate_ve_sar(analyses)

    def test_insufficient_data_when_arm_empty(self):
        with pytest.raises(EstimationError, match="insufficient data"):
            estimate_ve_sar([analysis(False, 10, 2)])

    def test_analysis_is_an_immutable_value(self):
        a, b = analysis(True, 10, 1), analysis(True, 10, 1)
        with pytest.raises(AttributeError):
            a.n_attributed_transmissions = 2
        assert a == b and hash(a) == hash(b)
        assert a.exclusion_reason is None

    def test_excluded_units_counted_not_pooled(self):
        analyses = [analysis(True, 10, 1), analysis(False, 10, 2),
                    UnitAnalysis(index_id=None, index_vaccinated=None,
                                 n_at_risk_contacts=0,
                                 n_attributed_transmissions=0, excluded=True,
                                 exclusion_reason="coprimary")]
        est = estimate_ve_sar(analyses)
        assert (est.sar_v, est.sar_u) == (1 / 10, 2 / 10)


def truth(vaccinated, at_risk, attributed):
    """A fully observed unit whose primary infected ``attributed`` of its
    ``at_risk`` contacts."""
    infections = [Infection(person_id=0, acquisition_time=0.0,
                            source_kind=SourceKind.PRIMARY, source_id=None,
                            symptomatic=True, symptom_onset_time=5.0,
                            duration_days=10.0)]
    infections += [Infection(person_id=i, acquisition_time=float(i),
                             source_kind=SourceKind.CONTACT, source_id=0,
                             symptomatic=False, symptom_onset_time=None,
                             duration_days=10.0)
                   for i in range(1, attributed + 1)]
    return UnitTruth(vaccinated=(vaccinated,) + (False,) * at_risk,
                     infections=infections)


UNIT_COUNTS = st.lists(
    st.tuples(st.booleans(), st.integers(1, 7)).flatmap(
        lambda vm: st.tuples(st.just(vm[0]), st.just(vm[1]),
                             st.integers(0, vm[1]))),
    max_size=30)


class TestOneEstimator:
    """The observed analysis, the oracles and the truth layer share one
    estimator, so the same per-unit counts give the same answer."""

    @given(UNIT_COUNTS)
    def test_same_counts_same_estimate(self, units):
        def arm(vaccinated):
            rows = [(m, a) for v, m, a in units if v is vaccinated]
            return ArmCounts.from_units([a for _, a in rows],
                                        [m for m, _ in rows])

        def outcome(run):
            try:
                return run()
            except EstimationError as exc:
                return str(exc)

        observed = outcome(lambda: estimate_ve_sar(
            [analysis(v, m, a) for v, m, a in units]))
        oracle = outcome(lambda: ve_from_arms(arm(True), arm(False)))
        truth_ve = outcome(lambda: true_ve_sar(
            [truth(v, m, a) for v, m, a in units]))
        if isinstance(observed, str):
            assert oracle == truth_ve == observed
            return
        assert oracle.ve == truth_ve.ve == observed.ve
        assert oracle.se == observed.se
        # One result type: the whole VeRatios agree, arm SARs included.
        assert oracle == truth_ve == observed

        # The exact integer variance equals the cluster-robust sum.
        arm_v, arm_u = arm(True), arm(False)
        var = {}
        for vaccinated, counts in ((True, arm_v), (False, arm_u)):
            var[vaccinated] = sum(
                (a - counts.sar * m) ** 2
                for v, m, a in units if v is vaccinated) / counts.at_risk ** 2
        assert observed.se == pytest.approx(
            np.sqrt(var[True] / arm_u.sar ** 2
                    + arm_v.sar ** 2 * var[False] / arm_u.sar ** 4),
            rel=1e-9, abs=1e-15)


class TestCommunityContamination:
    def test_planted_out_of_window_community_positive_excluded(self):
        # Community infection surfaces 20 days after the index: every
        # preset window ends at or before day 14, so it never counts.
        obs = observed([pos(0, 1.0), pos(2, 21.0)])
        for preset in (StudyDesignFilter.harris, StudyDesignFilter.eyre,
                       StudyDesignFilter.gier, StudyDesignFilter.lyngse):
            result = analyze_unit(obs, preset())
            assert not result.excluded
            assert result.n_attributed_transmissions == 0

    def test_community_acquisition_inflates_both_sars(self):
        policy = TestingPolicy.symptom_prompted()
        design = StudyDesignFilter(attribution_window=(0.0, 60.0))

        def run(hazard, seed):
            rng = np.random.default_rng(seed)
            out = []
            cfg = UnitConfig(community_daily_hazard=hazard)
            for arm in (True, False):
                for _ in range(4000):
                    obs = apply_policy(simulate_unit(cfg, arm, rng), policy, rng)
                    out.append(analyze_unit(obs, design,
                                            index_id=0))
            return estimate_ve_sar(out)

        clean = run(0.0, 4)
        contaminated = run(0.01, 4)
        assert contaminated.sar_v > clean.sar_v
        assert contaminated.sar_u > clean.sar_u
