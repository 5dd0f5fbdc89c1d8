import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from sarbias import (DurationModelParams, EstimationError, SourceKind,
                     SymptomModelParams, TransmissionMode, UnitConfig,
                     simulate_unit, true_ve_sar)
from sarbias.estimands import invert_target_to_nu, symptom_prompted_target_mu
from sarbias.harness import spawn_rng
from sarbias.simcore import Infection


def rng_for(seed):
    return np.random.default_rng(seed)


def coin_statuses(rng):
    """Primary statuses, one per ``next``, each a fair coin on ``rng``'s
    next double, read from a copy of its bit generator's state without
    advancing it. ``simulate_unit`` draws that double and leaves it unused,
    so a stream yields both arms in equal shares, and its units stay those
    of a stream that drew the status itself."""
    copy = np.random.Generator(type(rng.bit_generator)())
    while True:
        copy.bit_generator.state = rng.bit_generator.state
        yield copy.random() < 0.5


def simulate_many(cfg, n, seed, vaccinated=None):
    """``n`` units on one stream; the primary's status is ``vaccinated``
    or, by default, a fair coin from :func:`coin_statuses`."""
    rng = rng_for(seed)
    statuses = (itertools.repeat(vaccinated) if vaccinated is not None
                else coin_statuses(rng))
    return [simulate_unit(cfg, next(statuses), rng) for _ in range(n)]


DURATIONS = [DurationModelParams(),
             DurationModelParams(rho0=10.0, rho1=10.0, c=3.0, tau0=0.05),
             DurationModelParams(rho0=20.5, rho1=6.25, c=2.5, nu_daily=0.3,
                                 tau0=0.02)]


@st.composite
def unit_configs(draw):
    return UnitConfig(
        unit_size=draw(st.integers(2, 6)),
        contacts_vaccinated=draw(st.booleans()),
        symptom=SymptomModelParams(
            lambda_symptom=draw(st.sampled_from([0.0, 0.2, 1.0])),
            rho_symptom=draw(st.sampled_from([0.0, 0.5, 1.0])),
            tau=draw(st.sampled_from([0.3, 0.9]))),
        duration=draw(st.sampled_from(DURATIONS)),
        community_daily_hazard=draw(st.sampled_from([0.0, 0.02])),
        contact_to_contact=draw(st.booleans()),
        transmission_mode=draw(st.sampled_from(list(TransmissionMode))))


class TestPrimary:
    @given(cfg=unit_configs(), vaccinated=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_primary_is_person_0_of_the_arm(self, cfg, vaccinated, seed):
        truth = simulate_unit(cfg, vaccinated, rng_for(seed))
        primary = truth.infections[0]
        assert primary[:4] == (0, 0.0, SourceKind.PRIMARY, None)
        assert truth.vaccinated[0] == vaccinated
        rho, c = cfg.duration.mean_duration(vaccinated), cfg.duration.c
        assert rho - c <= primary.duration_days <= rho + c
        assert (primary.symptom_onset_time is not None) == primary.symptomatic

    @pytest.mark.parametrize("vaccinated, lambda_symptom, expect, seed", [
        (True, 0.2, 0.1, 2), (False, 0.2, 0.5, 3), (True, 1.0, 0.5, 4)])
    def test_symptomatic_fraction(self, vaccinated, lambda_symptom, expect,
                                  seed):
        # lambda * rho among vaccinated primaries, rho = 0.5 among the
        # unvaccinated: lambda = 1 equalizes the arms.
        cfg = UnitConfig(unit_size=2, symptom=SymptomModelParams(
            lambda_symptom=lambda_symptom))
        n = 30_000
        sympt = sum(unit.infections[0].symptomatic
                    for unit in simulate_many(cfg, n, seed, vaccinated))
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(sympt / n - expect) <= 3 * se


class TestSimulateUnit:
    def test_no_transmission_leaves_only_primary(self):
        # nu = 0 with a vaccinated primary shuts transmission off entirely.
        cfg = UnitConfig(symptom=SymptomModelParams(nu=0.0))
        for unit in simulate_many(cfg, 300, 6, vaccinated=True):
            assert len(unit.infections) == 1
            assert unit.infections[0].source_kind is SourceKind.PRIMARY

    def test_bernoulli_mean_infected_contacts(self):
        # delta = nu = lambda = 1, tau = 0.3, 3 contacts: Binomial(3, 0.3).
        cfg = UnitConfig(symptom=SymptomModelParams(lambda_symptom=1.0,
                                                    delta=1.0, nu=1.0, tau=0.3))
        units = simulate_many(cfg, 20_000, 7)
        mean = np.mean([u.primary_sourced_transmissions() for u in units])
        se = math.sqrt(3 * 0.3 * 0.7 / len(units))
        assert abs(mean - 0.9) <= 3 * se

    @pytest.mark.parametrize("vaccinated", [False, True])
    def test_per_day_hazard_marginal(self, vaccinated):
        # P(T per contact) = tau_v * rho_v under the linear hazard model.
        cfg = UnitConfig(unit_size=2,
                         transmission_mode=TransmissionMode.PER_DAY_HAZARD)
        units = simulate_many(cfg, 40_000, 8 + int(vaccinated), vaccinated)
        d = cfg.duration
        expect = d.daily_hazard(vaccinated) * d.mean_duration(vaccinated)
        p_hat = np.mean([u.primary_sourced_transmissions() for u in units])
        se = math.sqrt(expect * (1 - expect) / len(units))
        assert abs(p_hat - expect) <= 3 * se

    def test_acquisition_inside_source_window(self):
        cfg = UnitConfig(symptom=SymptomModelParams(tau=0.9, delta=1.0, nu=1.0),
                         contact_to_contact=True, community_daily_hazard=0.01)
        for unit in simulate_many(cfg, 400, 9):
            by_person = {inf.person_id: inf for inf in unit.infections}
            for inf in unit.infections:
                if inf.source_kind is SourceKind.CONTACT:
                    src = by_person[inf.source_id]
                    assert src.acquisition_time <= inf.acquisition_time
                    assert inf.acquisition_time < (src.acquisition_time
                                                   + src.duration_days)

    def test_no_person_infected_twice_and_conservation(self):
        cfg = UnitConfig(symptom=SymptomModelParams(tau=0.8),
                         contact_to_contact=True, community_daily_hazard=0.05)
        for unit in simulate_many(cfg, 400, 10):
            ids = [inf.person_id for inf in unit.infections]
            assert len(ids) == len(set(ids))
            assert len(unit.infections) <= len(unit.vaccinated)

    def test_sources_form_forest_rooted_at_primary_or_community(self):
        cfg = UnitConfig(symptom=SymptomModelParams(tau=0.8),
                         contact_to_contact=True, community_daily_hazard=0.05)
        for unit in simulate_many(cfg, 300, 11):
            # Person 0 is the primary, infected first, at time 0.
            primary = unit.infections[0]
            assert (primary.person_id, primary.source_kind,
                    primary.acquisition_time) == (0, SourceKind.PRIMARY, 0.0)
            by_person = {inf.person_id: inf for inf in unit.infections}
            for inf in unit.infections:
                hops = 0
                node = inf
                while node.source_kind is SourceKind.CONTACT:
                    node = by_person[node.source_id]
                    hops += 1
                    assert hops <= len(unit.vaccinated)
                assert node.source_kind in (SourceKind.PRIMARY, SourceKind.COMMUNITY)
            assert sum(1 for i in unit.infections
                       if i.source_kind is SourceKind.PRIMARY) == 1

    def test_all_sources_primary_without_chains_or_community(self):
        cfg = UnitConfig(symptom=SymptomModelParams(tau=0.9))
        for unit in simulate_many(cfg, 300, 12):
            for inf in unit.infections:
                if inf.source_kind is not SourceKind.PRIMARY:
                    assert inf.source_kind is SourceKind.CONTACT
                    assert inf.source_id == 0

    def test_contact_chains_reach_second_generation(self):
        cfg = UnitConfig(unit_size=6, contact_to_contact=True,
                         symptom=SymptomModelParams(tau=0.9, delta=1.0, nu=1.0))
        units = simulate_many(cfg, 300, 13)
        second_gen = any(
            inf.source_kind is SourceKind.CONTACT and inf.source_id != 0
            for u in units for inf in u.infections)
        assert second_gen

    def test_community_infections_within_followup(self):
        cfg = UnitConfig(community_daily_hazard=0.03, followup_days=30.0,
                         symptom=SymptomModelParams(nu=0.0))
        units = simulate_many(cfg, 600, 14, vaccinated=True)
        community = [inf for u in units for inf in u.infections
                     if inf.source_kind is SourceKind.COMMUNITY]
        assert community
        assert all(0.0 < inf.acquisition_time < 30.0 for inf in community)

    def test_contact_slots_exchangeable(self):
        cfg = UnitConfig(symptom=SymptomModelParams(tau=0.4))
        units = simulate_many(cfg, 20_000, 15)
        counts = np.zeros(3)
        for unit in units:
            for inf in unit.infections:
                if inf.person_id > 0:
                    counts[inf.person_id - 1] += 1
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.001

    def test_same_seed_reproduces_unit(self):
        cfg = UnitConfig(contact_to_contact=True, community_daily_hazard=0.02)
        a = simulate_unit(cfg, True, rng_for(99))
        b = simulate_unit(cfg, True, rng_for(99))
        assert a == b

    def test_infection_is_an_immutable_value(self):
        cfg = UnitConfig(contact_to_contact=True, community_daily_hazard=0.02)
        a = simulate_unit(cfg, True, rng_for(99)).infections
        b = simulate_unit(cfg, True, rng_for(99)).infections
        with pytest.raises(AttributeError):
            a[0].duration_days = 1.0
        assert [hash(inf) for inf in a] == [hash(inf) for inf in b]
        assert a[0]._replace(duration_days=1.0).duration_days == 1.0
        assert a[0] == b[0]


class TestTruthStreamPinned:
    """Pinned truth of simulate_unit in every transmission mode, with chains
    and community off and on, at sizes 4 and 8: every infection's fields
    (floats exact, through ``float.hex``) and the stream position after the
    last unit. Any change to the draws or their order changes the digest,
    so such a change must update it on purpose."""

    def test_digest(self):
        h = hashlib.sha256()
        cases = itertools.product(TransmissionMode, (False, True), (4, 8))
        for i, (mode, chains, size) in enumerate(cases):
            cfg = UnitConfig(unit_size=size, transmission_mode=mode,
                             contact_to_contact=chains,
                             community_daily_hazard=0.004 if chains else 0.0)
            rng = spawn_rng(2024, i)
            statuses = coin_statuses(rng)
            for _ in range(300):
                for inf in simulate_unit(cfg, next(statuses), rng).infections:
                    values = [getattr(inf, name) for name in Infection._fields]
                    h.update(repr([v.hex() if isinstance(v, float)
                                   else getattr(v, "value", v)
                                   for v in values]).encode())
                h.update(b";")
            h.update(rng.random().hex().encode())
        assert h.hexdigest() == (
            "b5c410dedb18a133013f78221a34461424d8e0f355f539a6559539d835c5a99e")


class TestTrueVeSar:
    def test_inert_vaccine_ve_near_zero(self):
        cfg = UnitConfig(symptom=SymptomModelParams(lambda_symptom=1.0,
                                                    delta=1.0, nu=1.0, tau=0.3))
        ve = true_ve_sar(simulate_many(cfg, 20_000, 16)).ve
        assert abs(ve) < 0.04

    def test_nu_zero_gives_ve_one(self):
        cfg = UnitConfig(symptom=SymptomModelParams(lambda_symptom=1.0, nu=0.0))
        ve = true_ve_sar(simulate_many(cfg, 3_000, 17)).ve
        assert ve == 1.0

    def test_closes_loop_with_inverted_target(self):
        nu = invert_target_to_nu(0.5, 0.2, 0.5, 0.5)
        s = SymptomModelParams(nu=nu)
        assert 1.0 - symptom_prompted_target_mu(s) == pytest.approx(0.5, abs=1e-12)
        cfg = UnitConfig(symptom=s)
        ve = true_ve_sar(simulate_many(cfg, 40_000, 18)).ve
        assert abs(ve - 0.5) < 0.03

    def test_errors(self):
        units = simulate_many(UnitConfig(), 50, 19, vaccinated=True)
        with pytest.raises(EstimationError, match="insufficient data"):
            true_ve_sar(units)
        quiet = UnitConfig(symptom=SymptomModelParams(nu=1.0, tau=0.01,
                                                      delta=0.0, rho_symptom=0.0))
        # rho=0 and delta=0: nobody transmits, so the unvaccinated SAR is 0.
        units = simulate_many(quiet, 200, 20)
        with pytest.raises(EstimationError, match="undefined VE"):
            true_ve_sar(units)


class TestTransmissionModes:
    def test_exact_mode_probability_below_linear(self):
        # 1 - exp(-x) < x: the exact mode must infect slightly less often.
        base = dict(unit_size=2,
                    duration=DurationModelParams(tau0=0.04, rho0=14.0,
                                                 rho1=8.0, c=7.0))
        linear = UnitConfig(transmission_mode=TransmissionMode.PER_DAY_HAZARD, **base)
        exact = UnitConfig(transmission_mode=TransmissionMode.PER_DAY_HAZARD_EXACT,
                           **base)
        p_lin = np.mean([u.primary_sourced_transmissions()
                         for u in simulate_many(linear, 30_000, 21, False)])
        p_exa = np.mean([u.primary_sourced_transmissions()
                         for u in simulate_many(exact, 30_000, 22, False)])
        assert p_lin == pytest.approx(0.04 * 14.0, abs=0.01)
        assert p_exa < p_lin

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            UnitConfig(unit_size=1)
        with pytest.raises(ValueError):
            UnitConfig(community_daily_hazard=-0.1)
