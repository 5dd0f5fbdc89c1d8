"""The cohort engine against the object pipeline, unit by unit, and the
invariants both must keep over random configs."""

import hashlib
import tracemalloc
from dataclasses import astuple, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sarbias import (DurationModelParams, PolicyKind, ScenarioConfig,
                     StudyDesignFilter, SymptomModelParams, TestingPolicy,
                     TransmissionMode, UnitConfig, WindowAnchor, analyze_unit,
                     apply_policy, mc, run_cohort, simulate_unit)
from sarbias.harness import (_assign, run_scenario, scheduled_reference,
                             spawn_rng,
                             symptom_reference)
from sarbias.infer import ArmCounts
from sarbias.mc import (COHORT_PERSONS, CohortTruth, _count, _Scratch,
                        analyze_cohort, observe_cohort, simulate_cohort)
from sarbias.observe import SCHEDULED_KINDS, SYMPTOM_KINDS
WINDOWS = [(-60.0, 60.0), (0.0, 60.0), (1.0, 7.0), (2.0, 14.0), (0.0, 4.0)]
INDEX_RULES = ["earliest_positive", "true_primary"]


@st.composite
def study_designs(draw):
    return StudyDesignFilter(
        attribution_window=draw(st.sampled_from(WINDOWS)),
        coprimary_exclusion_days=draw(st.sampled_from([None, 0.0, 2.0])),
        require_contact_tested=draw(st.booleans()),
        anchor=draw(st.sampled_from(list(WindowAnchor))))


@st.composite
def scenario_configs(draw, rng_free=False):
    """Random configs over every field. ``rng_free`` configs make no
    outcome depend on a draw: participation 1 or 0, fixed phases."""
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
        participation=draw(st.sampled_from([1.0, 0.0] if rng_free else [1.0, 0.7])),
        shared_phase=scheduled and draw(st.booleans()), fixed_phase=fixed_phase,
        horizon_days=draw(st.sampled_from([60.0, 20.0, 7.5])))
    return ScenarioConfig(unit=unit, policy=policy, design=draw(study_designs()),
                          index_rule=draw(st.sampled_from(INDEX_RULES)))


class _PoisonedScratch(_Scratch):
    """Scratch whose every temp comes filled with poison: NaN for floats,
    True for bools, the largest value for integers. As all temps of a dtype
    share memory, a step that reads a temp after the next temp of its dtype
    was taken, or before it writes it, reads poison."""

    def temp(self, shape, dtype=np.float64):
        array = super().temp(shape, dtype)
        kind = array.dtype.kind
        array.fill(np.nan if kind == "f" else True if kind == "b"
                   else np.iinfo(array.dtype).max)
        return array


def cohort_truth(truths):
    """Person-major arrays of units simulated by the object pipeline."""
    size, n = len(truths[0].vaccinated), len(truths)
    acquisition = np.full((size, n), np.inf)
    duration = np.ones((size, n))
    onset = np.full((size, n), np.inf)
    for u, truth in enumerate(truths):
        for inf in truth.infections:
            acquisition[inf.person_id, u] = inf.acquisition_time
            duration[inf.person_id, u] = inf.duration_days
            if inf.symptomatic:
                onset[inf.person_id, u] = inf.symptom_onset_time
    vaccinated = np.array(truths[0].vaccinated)
    return CohortTruth(vaccinated=vaccinated, acquisition=acquisition,
                       positive_until=acquisition + duration, onset=onset,
                       primary_sourced=np.zeros((size - 1, n), dtype=bool))


def engine_records(analysis, first_positive):
    """(attributed, at-risk, exclusion reason, index, index positive) per
    unit; the index is None without one."""
    n = first_positive.shape[1]
    index = np.broadcast_to(analysis.index, (n,))
    at_risk = np.broadcast_to(analysis.at_risk, (n,)) * analysis.analysed
    reasons = np.where(analysis.no_index, "no_index",
                       np.where(analysis.coprimary, "coprimary", ""))
    return [(int(analysis.attributed[u]), int(at_risk[u]),
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
    index_id = 0 if cfg.index_rule == "true_primary" else None
    truths, records = [], []
    for _ in range(n):
        truth = simulate_unit(cfg.unit, vaccinated, rng)
        obs = apply_policy(truth, cfg.policy, rng)
        truths.append(truth)
        records.append(pipeline_record(
            analyze_unit(obs, cfg.design, index_id=index_id), obs))
    return truths, records


class TestUnitByUnit:
    @given(cfg=scenario_configs(rng_free=True), vaccinated=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_engine_matches_pipeline_per_unit(self, cfg, vaccinated, seed):
        truths, expected = run_pipeline(cfg, vaccinated, 25,
                                        np.random.default_rng(seed))
        truth = cohort_truth(truths)
        scratch = _PoisonedScratch()
        obs = observe_cohort(truth, cfg.policy, np.random.default_rng(0),
                             scratch)
        assert (obs.reported_onset is not None) == (
            cfg.policy.kind in SYMPTOM_KINDS)
        for u, unit in enumerate(truths):
            ref = apply_policy(unit, cfg.policy, np.random.default_rng(0))
            assert [t if t is not None else np.inf
                    for t in ref.first_positive] == obs.first_positive[:, u].tolist()
            assert ref.tested == obs.tested[:, u].tolist()
            if obs.reported_onset is not None:
                onsets = [ref.reported_onsets.get(pid, np.inf)
                          for pid in range(len(unit.vaccinated))]
                assert onsets == obs.reported_onset[:, u].tolist()
            else:
                assert ref.reported_onsets == {}
        analysis = analyze_cohort(obs, cfg.design, cfg.index_rule, scratch)
        assert engine_records(analysis, obs.first_positive) == expected


# A base config on which each config field below is live: symptom tests
# report onsets and scheduled tests from random phases find the rest, some
# persons never test, community arrivals reach past a shorter follow-up,
# and the window is narrow enough that its anchor moves what it holds.
LIVE_BASE = ScenarioConfig(
    unit=UnitConfig(community_daily_hazard=0.02),
    policy=TestingPolicy.symptom_plus_scheduled(7.0, participation=0.7),
    design=StudyDesignFilter(attribution_window=(0.0, 14.0)))
# The daily hazard is read only by the hazard modes.
HAZARD_BASE = _assign(LIVE_BASE, {"unit.transmission_mode":
                                  TransmissionMode.PER_DAY_HAZARD})
# (config field path, base config, a value that moves the outcome)
PERTURBATIONS = [
    ("index_rule", LIVE_BASE, "true_primary"),
    ("unit.unit_size", LIVE_BASE, 3),
    ("unit.contacts_vaccinated", LIVE_BASE, True),
    ("unit.symptom.lambda_symptom", LIVE_BASE, 1.0),
    ("unit.symptom.delta", LIVE_BASE, 1.0),
    ("unit.symptom.nu", LIVE_BASE, 1.0),
    ("unit.symptom.rho_symptom", LIVE_BASE, 0.8),
    ("unit.symptom.tau", LIVE_BASE, 0.6),
    ("unit.duration.rho0", LIVE_BASE, 10.0),
    ("unit.duration.rho1", LIVE_BASE, 12.0),
    ("unit.duration.c", LIVE_BASE, 4.0),
    ("unit.duration.nu_daily", HAZARD_BASE, 0.2),
    ("unit.duration.tau0", HAZARD_BASE, 0.03),
    ("unit.incubation_mean_days", LIVE_BASE, 3.0),
    ("unit.incubation_log_sd", LIVE_BASE, 1.0),
    ("unit.community_daily_hazard", LIVE_BASE, 0.05),
    ("unit.contact_to_contact", LIVE_BASE, True),
    ("unit.transmission_mode", LIVE_BASE, TransmissionMode.PER_DAY_HAZARD),
    ("unit.followup_days", LIVE_BASE, 10.0),
    ("policy.kind", LIVE_BASE, PolicyKind.SCHEDULED),
    ("policy.delay_days", LIVE_BASE, 2.0),
    ("policy.interval_days", LIVE_BASE, 3.0),
    ("policy.participation", LIVE_BASE, 1.0),
    ("policy.shared_phase", LIVE_BASE, True),
    ("policy.fixed_phase", LIVE_BASE, 0.0),
    ("policy.horizon_days", LIVE_BASE, 20.0),
    ("design.attribution_window", LIVE_BASE, (2.0, 10.0)),
    ("design.coprimary_exclusion_days", LIVE_BASE, 1.0),
    ("design.require_contact_tested", LIVE_BASE, True),
    ("design.anchor", LIVE_BASE, WindowAnchor.ONSET_TIME),
]
# Fields that replicate a run rather than configure its model: run_cohort
# takes them as its arguments, units per arm and a stream for the seed.
REPLICATION = {"scenario_id", "units_per_arm", "seed"}
REFUSED = {"sweep_axis", "sweep_grid"}  # run_cohort answers for the base
FIELD_UNITS, FIELD_SEED = 400, 5


def _config_paths(obj, prefix=""):
    """Dotted path of every field of ``obj``, nested bundles by field."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _config_paths(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def _both_paths(cfg):
    """run_cohort's counts and the Monte Carlo columns of run_scenario's
    row, at one small unit count and seed."""
    counts = run_cohort(cfg, FIELD_UNITS, spawn_rng(FIELD_SEED))
    row, = run_scenario(replace(cfg, units_per_arm=FIELD_UNITS,
                                seed=FIELD_SEED))
    return counts, repr((row.actual_ve_mc, row.mc_se, row.n_excluded_no_index,
                         row.n_excluded_coprimary))


class TestNoFieldIgnored:
    """No path silently ignores a config field: each field moves both
    paths' outcomes where it is live, replicates a run, or is refused."""

    def test_every_field_classified(self):
        perturbed = [path for path, _, _ in PERTURBATIONS]
        assert len(set(perturbed)) == len(perturbed)
        classified = set(perturbed) | REPLICATION | REFUSED
        assert len(classified) == len(perturbed) + len(REPLICATION | REFUSED)
        assert set(_config_paths(ScenarioConfig())) == classified

    @pytest.mark.parametrize("path, base, value", PERTURBATIONS,
                             ids=[path for path, _, _ in PERTURBATIONS])
    def test_field_moves_both_paths(self, path, base, value):
        counts, row = _both_paths(base)
        changed_counts, changed_row = _both_paths(_assign(base, {path: value}))
        assert changed_counts != counts
        assert changed_row != row

    def test_replication_fields_are_arguments(self):
        cfg = replace(LIVE_BASE, scenario_id="other", units_per_arm=7, seed=9)
        assert (run_cohort(cfg, FIELD_UNITS, spawn_rng(FIELD_SEED))
                == run_cohort(LIVE_BASE, FIELD_UNITS, spawn_rng(FIELD_SEED)))

    def test_sweep_refused(self):
        cfg = replace(LIVE_BASE, sweep_axis="symptom.nu", sweep_grid=(0.5,))
        with pytest.raises(ValueError, match="sweep_axis"):
            run_cohort(cfg, FIELD_UNITS, spawn_rng(FIELD_SEED))


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
        # Two chunks of one scratch, as run_cohort runs them: the second
        # writes over the first's arrays, in a smaller shape.
        scratch = _PoisonedScratch()
        for n in (200, 137):
            truth = simulate_cohort(cfg.unit, vaccinated, n, rng,
                                    cfg.policy.kind in SYMPTOM_KINDS, scratch)
            obs = observe_cohort(truth, cfg.policy, rng, scratch)
            analysis = analyze_cohort(obs, cfg.design, cfg.index_rule, scratch)
            records = engine_records(analysis, obs.first_positive)
            check_invariants(records)
            assert not (truth.primary_sourced
                        & ~np.isfinite(truth.acquisition[1:])).any()
            # The pooled counts agree with the per-unit records.
            counts = _count(truth, analysis, scratch)
            for reason in ("no_index", "coprimary"):
                assert counts.excluded[(reason, vaccinated)] == sum(
                    r[2] == reason for r in records)
            for arm in (True, False):  # by the index's vaccination status
                mine = [r for r in records
                        if r[2] is None and truth.vaccinated[r[3]] == arm]
                assert counts.observed[arm] == ArmCounts.from_units(
                    [r[0] for r in mine], [r[1] for r in mine])
            assert counts.truth[vaccinated].at_risk == n * (
                cfg.unit.unit_size - 1)


def _observed_chunk(cfg, vaccinated, seed, scratch):
    """One chunk of 150 units simulated and observed from ``seed``."""
    rng = np.random.default_rng(seed)
    truth = simulate_cohort(cfg.unit, vaccinated, 150, rng,
                            cfg.policy.kind in SYMPTOM_KINDS, scratch)
    return truth, observe_cohort(truth, cfg.policy, rng, scratch)


def _copy(obs):
    return [None if a is None else a.copy()
            for a in (obs.first_positive, obs.tested, obs.reported_onset)]


class TestOneObservation:
    """The observation depends on the policy alone: one observed chunk
    analysed under two designs gives each design's counts of a chunk
    drawn for it alone, and the analyses leave the observation as drawn."""

    @given(cfg=scenario_configs(), other=study_designs(),
           other_rule=st.sampled_from(INDEX_RULES), vaccinated=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_every_design_reads_one_observation(self, cfg, other, other_rule,
                                                vaccinated, seed):
        scratch = _Scratch()
        truth, obs = _observed_chunk(cfg, vaccinated, seed, scratch)
        drawn = _copy(obs)
        analyses = [(cfg.design, cfg.index_rule), (other, other_rule)]
        # Each analysis is counted before the next: they share scratch roles.
        shared = [_count(truth, analyze_cohort(obs, design, rule, scratch),
                         scratch) for design, rule in analyses]
        for (design, rule), counts in zip(analyses, shared):
            alone = _Scratch()
            truth_alone, obs_alone = _observed_chunk(cfg, vaccinated, seed, alone)
            assert counts == _count(
                truth_alone, analyze_cohort(obs_alone, design, rule, alone), alone)
        for before, after in zip(drawn, _copy(obs)):
            assert (before is None) == (after is None)
            if before is not None:
                assert before.tobytes() == after.tobytes()


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


def _pinned_configs():
    """The engine's reference configs, both benchmark pipeline designs, and
    one config for each optional path of the engine, by name, in the order
    of their stream keys."""
    d = DurationModelParams()
    hazard = TransmissionMode.PER_DAY_HAZARD
    houses_of_4 = UnitConfig(unit_size=4, transmission_mode=hazard)
    every_7 = TestingPolicy.scheduled(7.0)
    return {
        "symptom_reference": symptom_reference(SymptomModelParams()),
        "scheduled_reference": scheduled_reference(d, 7.0),
        "fully_observed": ScenarioConfig(  # validate's fully observed cohort
            unit=UnitConfig(duration=d, transmission_mode=hazard),
            policy=TestingPolicy.scheduled(1.0, shared_phase=True),
            design=StudyDesignFilter(attribution_window=(0.0, 60.0))),
        "harris_every_7": ScenarioConfig(unit=houses_of_4, policy=every_7,
                                         design=StudyDesignFilter.harris()),
        "lyngse_households_of_8": ScenarioConfig(
            unit=UnitConfig(unit_size=8),
            policy=TestingPolicy.symptom_prompted(),
            design=StudyDesignFilter.lyngse()),
        "participation": ScenarioConfig(
            unit=houses_of_4,
            policy=TestingPolicy.scheduled(7.0, participation=0.7)),
        "shared_phase": ScenarioConfig(
            unit=houses_of_4,
            policy=TestingPolicy.scheduled(3.5, shared_phase=True),
            design=StudyDesignFilter.harris()),
        "fixed_phase": ScenarioConfig(
            unit=houses_of_4,
            policy=TestingPolicy.scheduled(7.0, fixed_phase=2.5),
            design=StudyDesignFilter.lyngse()),
        "symptom_plus_scheduled": ScenarioConfig(
            policy=TestingPolicy.symptom_plus_scheduled(10.0, delay_days=1.5),
            design=StudyDesignFilter.harris()),
        "onset_anchor": ScenarioConfig(design=StudyDesignFilter(
            attribution_window=(1.0, 10.0), require_contact_tested=True,
            anchor=WindowAnchor.ONSET_TIME)),
        "community_contact_to_contact": ScenarioConfig(
            unit=replace(houses_of_4, community_daily_hazard=0.01,
                         contact_to_contact=True),
            policy=every_7, design=StudyDesignFilter.gier()),
        "exact_hazard": ScenarioConfig(unit=replace(
            houses_of_4, transmission_mode=TransmissionMode.PER_DAY_HAZARD_EXACT),
            policy=every_7),
    }


def _chunk_units(cfg):
    """Units per engine chunk: the person budget over the unit size."""
    return max(1, COHORT_PERSONS // cfg.unit.unit_size)


class TestCohortStreamPinned:
    """Every count of ``run_cohort`` over three chunks per arm, the last
    partial, pinned by one digest per config: an engine edit that changes
    a draw, its order or any tally changes the digest of each config it
    reaches."""

    DIGESTS = {
        "symptom_reference": "7f39de69e0f0f9859300859abac24586e0e355c7bf9df66072f0fd5d3ff18012",
        "scheduled_reference": "960c32859e95625068da3cba36fa95ac737dc9a0380d261ee6a316600c875089",
        "fully_observed": "d21d8a2510658c93c037463e694986a614f7ed77050112c24984d85b60ec20bd",
        "harris_every_7": "566f35bc080507353ae5ed8ff8a7f7a3316b9e6b37fe45de8e16fcb240642acc",
        "lyngse_households_of_8": "86152ca70af3e7dd9740c86dcb529eba50c0ec8c808f596ce401b42b644c6c86",
        "participation": "20c7dc8116a657a1816f62defa677cc0e6f3f75364f7e0b8b114cb7c2fc827ac",
        "shared_phase": "439ed386b6f90590b6e4ac491323b07eb82331c08237d9301e9ceeeafc526140",
        "fixed_phase": "4519ddcba5f161f06b9a4a840902ab72689d00a5bcb5ff3dc9f284337d17d9b6",
        "symptom_plus_scheduled": "bc981c60fa5c765bc9fa87749688466c289b0b07a4f42a4b2ae7cda293bbdb5f",
        "onset_anchor": "bf448234bb495507447e9c1cce1cf87f8577e989f165328c932b28c8a1bc48fc",
        "community_contact_to_contact": "d02967f90cc2cff543a7d16013ea4c06c16a21c07c36a0c5c3dd8ade8bf7ff9e",
        "exact_hazard": "0a810731f2439748dce1b5c4f35448e3f3a3c005e5ea7f2d1575a2e18d5d67ec",
    }

    @pytest.mark.parametrize("name", DIGESTS)
    def test_digest(self, name):
        assert _stream_digest(name) == self.DIGESTS[name]

    @pytest.mark.parametrize("name", DIGESTS)
    def test_digest_with_poisoned_temps(self, name, monkeypatch):
        """Each temp is dead before the next of its dtype is taken."""
        monkeypatch.setattr(mc, "_Scratch", _PoisonedScratch)
        assert _stream_digest(name) == self.DIGESTS[name]


def _stream_digest(name):
    """Digest of the counts of a pinned config's run over three chunks per
    arm, from the config's own stream."""
    configs = _pinned_configs()
    cfg, key = configs[name], list(configs).index(name)
    counts = run_cohort(cfg, 2 * _chunk_units(cfg) + 123, spawn_rng(2024, key))
    digest = hashlib.sha256()
    for arm in (True, False):
        record = (astuple(counts.observed[arm]), astuple(counts.truth[arm]),
                  [counts.excluded[(reason, arm)]
                   for reason in ("no_index", "coprimary")])
        digest.update(repr((arm, record)).encode())
    return digest.hexdigest()


class TestChunkFootprint:
    """Bytes a run's scratch holds per chunk person, at most: each array
    that dies inside its step is a temp, so the scratch holds a name only
    for what outlives a step."""

    BYTES_PER_PERSON = {
        "symptom_reference": 62,
        "scheduled_reference": 54,
        "fully_observed": 46,
        "harris_every_7": 54,
        "lyngse_households_of_8": 61,
        "participation": 53,
        "shared_phase": 48,
        "fixed_phase": 46,
        "symptom_plus_scheduled": 83,
        "onset_anchor": 68,
        "community_contact_to_contact": 90,
        "exact_hazard": 52,
        "no_testing": 46,
    }

    @pytest.mark.parametrize("name", BYTES_PER_PERSON)
    def test_scratch_bytes_per_person(self, name, monkeypatch):
        configs = _pinned_configs()
        configs["no_testing"] = ScenarioConfig(policy=TestingPolicy.none())
        made = []

        class Recorded(_Scratch):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(mc, "_Scratch", Recorded)
        cfg = configs[name]
        run_cohort(cfg, 2 * _chunk_units(cfg) + 123, spawn_rng(7))
        (scratch,) = made  # one per call
        held = sum(memory.nbytes for memory in scratch._memory.values())
        assert held <= self.BYTES_PER_PERSON[name] * COHORT_PERSONS


class TestChunkAllocation:
    """After a call's first chunk, every engine step writes into the
    arrays of its scratch: a second chunk allocates less, at its peak, than
    one float64 array over the chunk's persons (``COHORT_PERSONS``)."""

    @pytest.mark.parametrize("cfg", [
        pytest.param(cfg, marks=pytest.mark.xfail(
            strict=True, reason="the onset anchor's events come from "
            "np.where: its allocation-free selects measured slower"))
        if cfg.design.anchor is WindowAnchor.ONSET_TIME
        and cfg.policy.kind in SYMPTOM_KINDS else cfg
        for cfg in list(_pinned_configs().values()) + [
            ScenarioConfig(policy=TestingPolicy.none())]])
    def test_second_chunk_allocates_no_chunk_array(self, cfg):
        scratch, rng = _Scratch(), spawn_rng(7)
        _count(*_analysed_chunk(cfg, rng, scratch), scratch)
        peak = _peak_bytes(
            lambda: _count(*_analysed_chunk(cfg, rng, scratch), scratch))
        assert peak < COHORT_PERSONS * 8

    @pytest.mark.parametrize("cfg", list(_pinned_configs().values()))
    def test_count_allocates_under_16_kib(self, cfg):
        # Counting reads the chunk's per-unit arrays and casts none through
        # numpy's 64 KiB ufunc buffer: one int64 copy of such an array (8
        # bytes per unit, 64 KiB at units of eight) would cross the bound.
        scratch, rng = _Scratch(), spawn_rng(7)
        _count(*_analysed_chunk(cfg, rng, scratch), scratch)
        truth, analysis = _analysed_chunk(cfg, rng, scratch)
        assert _peak_bytes(lambda: _count(truth, analysis, scratch)) < 16 * 1024


def _analysed_chunk(cfg, rng, scratch):
    """The truth and analysis of one full vaccinated-arm chunk, in
    ``scratch``."""
    truth = simulate_cohort(cfg.unit, True, _chunk_units(cfg), rng,
                            cfg.policy.kind in SYMPTOM_KINDS, scratch)
    obs = observe_cohort(truth, cfg.policy, rng, scratch)
    return truth, analyze_cohort(obs, cfg.design, cfg.index_rule, scratch)


def _peak_bytes(call):
    """Peak bytes that tracemalloc sees allocated during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
