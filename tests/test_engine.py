"""The cohort engine against the object pipeline, unit by unit, and the
invariants both must keep over random configs."""

from dataclasses import replace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from sarbias import (DurationModelParams, PolicyKind, ScenarioConfig,
                     StudyDesignFilter, SymptomModelParams, TestingPolicy,
                     TransmissionMode, UnitConfig, WindowAnchor, analyze_unit,
                     apply_policy, simulate_unit)
from sarbias.infer import ArmCounts
from sarbias.mc import (CohortTruth, _count, analyze_cohort, observe_cohort,
                        simulate_cohort)
from sarbias.observe import SCHEDULED_KINDS, SYMPTOM_KINDS
WINDOWS = [(-60.0, 60.0), (0.0, 60.0), (1.0, 7.0), (2.0, 14.0), (0.0, 4.0)]


@st.composite
def scenario_configs(draw, rng_free=False):
    """Random configs over every field. ``rng_free`` configs make
    ``apply_policy`` draw nothing: full participation, fixed phases."""
    unit = UnitConfig(
        unit_size=draw(st.integers(2, 5)),
        transmission_mode=draw(st.sampled_from(list(TransmissionMode))),
        contacts_vaccinated=draw(st.booleans()),
        community_daily_hazard=draw(st.sampled_from([0.0, 0.02])),
        contact_to_contact=draw(st.booleans()),
        symptom=SymptomModelParams(tau=0.6),
        duration=DurationModelParams(tau0=0.04))
    kind = draw(st.sampled_from(list(PolicyKind)))
    k = draw(st.sampled_from([1.0, 2.0, 3.5, 7.0]))
    scheduled = kind in SCHEDULED_KINDS
    fixed_phase = None
    if scheduled and (rng_free or draw(st.booleans())):
        fixed_phase = draw(st.sampled_from([0.0, 0.5 * k, draw(
            st.floats(0.0, k, exclude_max=True))]))
    policy = TestingPolicy(
        kind=kind, interval_days=k if scheduled else None,
        delay_days=(draw(st.sampled_from([0.0, 1.5])) if kind in SYMPTOM_KINDS
                    else 0.0),
        participation=1.0 if rng_free else draw(st.sampled_from([1.0, 0.7])),
        shared_phase=scheduled and draw(st.booleans()), fixed_phase=fixed_phase,
        horizon_days=draw(st.sampled_from([60.0, 20.0, 7.5])))
    design = StudyDesignFilter(
        attribution_window=draw(st.sampled_from(WINDOWS)),
        coprimary_exclusion_days=draw(st.sampled_from([None, 0.0, 2.0])),
        require_contact_tested=draw(st.booleans()),
        anchor=draw(st.sampled_from(list(WindowAnchor))))
    return ScenarioConfig(unit=unit, policy=policy, design=design,
                          index_rule=draw(st.sampled_from(
                              ["earliest_positive", "true_primary"])))


def cohort_truth(truths):
    """Person-major arrays of units simulated by the object pipeline."""
    size, n = len(truths[0].persons), len(truths)
    acquisition = np.full((size, n), np.inf)
    duration = np.ones((size, n))
    onset = np.full((size, n), np.inf)
    for u, truth in enumerate(truths):
        for inf in truth.infections:
            acquisition[inf.person_id, u] = inf.acquisition_time
            duration[inf.person_id, u] = inf.duration_days
            if inf.symptomatic:
                onset[inf.person_id, u] = inf.symptom_onset_time
    vaccinated = np.array([p.vaccinated for p in truths[0].persons])
    return CohortTruth(vaccinated=vaccinated, acquisition=acquisition,
                       duration=duration, onset=onset,
                       primary_sourced=np.zeros((size - 1, n), dtype=bool))


def engine_records(analysis, first_positive):
    """(attributed, at-risk, exclusion reason, index, index positive) per
    unit; the index is None without one."""
    n = first_positive.shape[1]
    index = np.broadcast_to(analysis.index, (n,))
    reasons = np.where(analysis.no_index, "no_index",
                       np.where(analysis.coprimary, "coprimary", ""))
    return [(int(analysis.attributed[u]), int(analysis.at_risk[u]),
             reasons[u] or None,
             None if analysis.no_index[u] else int(index[u]),
             bool(np.isfinite(first_positive[index[u], u])))
            for u in range(n)]


def pipeline_record(analysis, obs):
    index_positive = (analysis.index_id is not None
                      and obs.first_positive[analysis.index_id] is not None)
    return (analysis.n_attributed_transmissions, analysis.n_at_risk_contacts,
            analysis.exclusion_reason, analysis.index_id, index_positive)


def check_invariants(records):
    for attributed, at_risk, reason, _, index_positive in records:
        assert 0 <= attributed <= at_risk
        if reason is None:
            assert index_positive
    n_no_index = sum(r[2] == "no_index" for r in records)
    n_coprimary = sum(r[2] == "coprimary" for r in records)
    n_analysed = sum(r[2] is None for r in records)
    assert n_no_index + n_coprimary + n_analysed == len(records)


def run_pipeline(cfg, vaccinated, n, rng):
    """Units through simulate_unit, apply_policy and analyze_unit, as
    run_scenario runs them; returns the truths and per-unit records."""
    unit_cfg = replace(cfg.unit, p_primary_vaccinated=float(vaccinated))
    truths, records = [], []
    for _ in range(n):
        truth = simulate_unit(unit_cfg, rng)
        obs = apply_policy(truth, cfg.policy, rng)
        override = truth.primary_id if cfg.index_rule == "true_primary" else None
        truths.append(truth)
        records.append(pipeline_record(
            analyze_unit(obs, cfg.design, index_id=override), obs))
    return truths, records


class TestUnitByUnit:
    @given(cfg=scenario_configs(rng_free=True), vaccinated=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_engine_matches_pipeline_per_unit(self, cfg, vaccinated, seed):
        truths, expected = run_pipeline(cfg, vaccinated, 25,
                                        np.random.default_rng(seed))
        truth = cohort_truth(truths)
        # Observe with every optional output kept, to compare them too.
        full = StudyDesignFilter(require_contact_tested=True,
                                 anchor=WindowAnchor.ONSET_TIME)
        obs = observe_cohort(truth, cfg.policy, full, np.random.default_rng(0))
        for u, unit in enumerate(truths):
            ref = apply_policy(unit, cfg.policy, np.random.default_rng(0))
            assert [t if t is not None else np.inf
                    for t in ref.first_positive] == obs.first_positive[:, u].tolist()
            assert ref.tested == obs.tested[:, u].tolist()
            if obs.reported_onset is not None:
                onsets = [ref.reported_onsets.get(pid, np.inf)
                          for pid in range(len(unit.persons))]
                assert onsets == obs.reported_onset[:, u].tolist()
        analysis = analyze_cohort(obs, cfg.design, cfg.index_rule)
        assert engine_records(analysis, obs.first_positive) == expected


class TestInvariants:
    @given(cfg=scenario_configs(), vaccinated=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_pipeline(self, cfg, vaccinated, seed):
        _, records = run_pipeline(cfg, vaccinated, 20,
                                  np.random.default_rng(seed))
        check_invariants(records)

    @given(cfg=scenario_configs(), vaccinated=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_engine(self, cfg, vaccinated, seed):
        rng = np.random.default_rng(seed)
        truth = simulate_cohort(cfg.unit, vaccinated, 200, rng,
                                cfg.policy.kind in SYMPTOM_KINDS)
        obs = observe_cohort(truth, cfg.policy, cfg.design, rng)
        analysis = analyze_cohort(obs, cfg.design, cfg.index_rule)
        records = engine_records(analysis, obs.first_positive)
        check_invariants(records)
        assert not (truth.primary_sourced
                    & ~np.isfinite(truth.acquisition[1:])).any()
        # The pooled counts agree with the per-unit records.
        counts = _count(truth, analysis, vaccinated)
        for reason in ("no_index", "coprimary"):
            assert counts.excluded[(reason, vaccinated)] == sum(
                r[2] == reason for r in records)
        assert sum(arm.n_units for arm in counts.observed.values()) == sum(
            r[2] is None and r[1] > 0 for r in records)
        assert counts.truth[vaccinated].n_units == 200


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40),
       st.integers(0, 40))
def test_chunked_counts_pool_exactly(units, split):
    """Counts summed over chunks equal the counts of all units at once."""
    a = [min(x, m) for x, m in units]
    m = [m for _, m in units]
    whole = ArmCounts.from_units(a, m)
    assert (ArmCounts.from_units(a[:split], m[:split])
            + ArmCounts.from_units(a[split:], m[split:])) == whole


@given(st.lists(st.integers(0, 6), max_size=40), st.integers(0, 6))
def test_shared_at_risk_counts_as_per_unit(attributed, m):
    """A scalar at-risk count gives the counts of that count repeated."""
    a = [min(x, m) for x in attributed]
    assert ArmCounts.from_units(a, m) == ArmCounts.from_units(a, [m] * len(a))

