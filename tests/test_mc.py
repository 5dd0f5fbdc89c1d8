"""Cohort-engine checks on the validation suite's reference cohorts,
including cross-validation against the object-level pipeline on identical
scenario semantics."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sarbias import (DurationModelParams, ScenarioConfig, StudyDesignFilter,
                     SymptomModelParams, TestingPolicy, TransmissionMode,
                     UnitConfig, analyze_unit, apply_policy, estimate_ve_sar,
                     infrequent_observed_mu, infrequent_target_mu,
                     sampling_fraction, simulate_unit,
                     symptom_prompted_target_mu)
from sarbias.harness import scheduled_reference, symptom_reference
from sarbias.mc import COHORT_CHUNK, run_cohort
from sarbias.validation import (mc_detection_fraction, mc_fully_observed_naive,
                                mc_infrequent_observed, mc_symptom_prompted_ve)

D = DurationModelParams()
S = SymptomModelParams()


def traced_peak(fn):
    """``fn()``'s result and the peak bytes it held at once, as
    tracemalloc counts numpy's buffers."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def object_pipeline_reference(unit_cfg, policy, design, n_per_arm, seed):
    """Run the object pipeline with the prospective (true-primary) anchor."""
    rng = np.random.default_rng(seed)
    analyses = []
    for arm in (1.0, 0.0):
        cfg = replace(unit_cfg, p_primary_vaccinated=arm)
        for _ in range(n_per_arm):
            truth = simulate_unit(cfg, rng)
            obs = apply_policy(truth, policy, rng)
            analyses.append(analyze_unit(obs, design, index_id=truth.primary_id))
    return estimate_ve_sar(analyses)


class TestCrossValidation:
    def test_scheduled_oracle_matches_object_pipeline(self):
        k = 7.0
        unit_cfg = UnitConfig(unit_size=2,
                              transmission_mode=TransmissionMode.PER_DAY_HAZARD,
                              duration=D)
        est_obj = object_pipeline_reference(
            unit_cfg, TestingPolicy.scheduled(k), StudyDesignFilter.maximal(),
            n_per_arm=15_000, seed=11)
        mc = mc_infrequent_observed(D, k, 400_000,
                                    np.random.default_rng(12)).observed_ratio()
        se = math.hypot(est_obj.se, mc.se)
        assert abs((1.0 - est_obj.ve) - mc.mu_ratio) <= 3 * se

    def test_symptom_oracle_matches_object_pipeline(self):
        unit_cfg = UnitConfig(
            transmission_mode=TransmissionMode.PER_UNIT_BERNOULLI, symptom=S,
            duration=D)
        est_obj = object_pipeline_reference(
            unit_cfg, TestingPolicy.symptom_prompted(),
            StudyDesignFilter.maximal(), n_per_arm=15_000, seed=13)
        mc = mc_symptom_prompted_ve(S, D, 400_000,
                                    np.random.default_rng(14)).observed_ratio()
        se = math.hypot(est_obj.se, mc.se)
        assert abs(est_obj.ve - mc.ve) <= 3 * se


class TestDetectionBridge:
    @pytest.mark.parametrize("k,rho", [(10.0, 8.0), (10.0, 14.0), (15.0, 8.0),
                                       (3.0, 14.0), (25.0, 14.0)])
    def test_matches_sampling_fraction(self, k, rho):
        frac, se = mc_detection_fraction(rho, 7.0, k, 1_000_000,
                                         np.random.default_rng(int(k * 10 + rho)))
        expect = sampling_fraction(k, rho, 7.0)
        if expect in (0.0, 1.0):
            assert frac == expect
        else:
            assert abs(frac - expect) <= 3 * se


    def test_streams_in_chunks(self):
        # Two arrays of a million doubles held 16 MB; a chunk of each, 0.5 MB.
        _, peak = traced_peak(lambda: mc_detection_fraction(
            8.0, 7.0, 10.0, 1_000_000, np.random.default_rng(1)))
        assert peak < 4 * COHORT_CHUNK * 8

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
        np.random.SFC64, np.random.MT19937])
    def test_chunked_in_order_draws_on_every_bit_generator(self, bit_generator):
        # n not a multiple of the chunk: each chunk draws its durations,
        # then its offsets, from the one stream.
        n = 3 * COHORT_CHUNK + 12_345
        reference = np.random.Generator(bit_generator(5))
        detected = 0
        for start in range(0, n, COHORT_CHUNK):
            m = min(COHORT_CHUNK, n - start)
            durations = reference.uniform(8.0 - 7.0, 8.0 + 7.0, m)
            detected += int(np.sum(reference.uniform(0.0, 10.0, m) < durations))
        f = detected / n
        rng = np.random.Generator(bit_generator(5))
        assert mc_detection_fraction(8.0, 7.0, 10.0, n, rng) == (
            f, math.sqrt(f * (1.0 - f) / n))


@pytest.mark.parametrize("oracle", [
    lambda n, rng: mc_infrequent_observed(D, 10.0, n, rng),
    lambda n, rng: mc_symptom_prompted_ve(S, D, n, rng),
    lambda n, rng: mc_fully_observed_naive(D, 1.0, n, rng)],
    ids=["scheduled", "symptom", "fully-observed"])
def test_run_cohort_peak_does_not_grow_with_units(oracle):
    # A chunk's arrays are freed as the next chunk's replace them, so one
    # chunk per arm and 32 per arm hold the same bytes at once, up to a few
    # Python objects (well under half a row of a chunk, 128 KiB).
    _, one = traced_peak(lambda: oracle(COHORT_CHUNK, np.random.default_rng(3)))
    _, many = traced_peak(lambda: oracle(32 * COHORT_CHUNK,
                                         np.random.default_rng(3)))
    assert many < one + COHORT_CHUNK * 8 / 2


class TestInfrequentOracle:
    def test_transmission_bridge_tau_rho(self):
        mc = mc_infrequent_observed(D, 10.0, 1_000_000, np.random.default_rng(20))
        for arm, rho, tau in ((True, D.rho1, D.tau1), (False, D.rho0, D.tau0)):
            p = mc.truth[arm].sar
            se = math.sqrt(mc.truth[arm].sar_variance)
            assert abs(p - tau * rho) <= 3 * se

    def test_ratio_matches_closed_form_interior(self):
        mc = mc_infrequent_observed(D, 10.0, 600_000,
                                    np.random.default_rng(21)).observed_ratio()
        assert abs(mc.mu_ratio - infrequent_observed_mu(10.0, D)) <= 3 * mc.se

    def test_daily_testing_recovers_target(self):
        mc = mc_infrequent_observed(D, 1.0, 600_000,
                                    np.random.default_rng(22)).observed_ratio()
        assert abs(mc.mu_ratio - infrequent_target_mu(D)) <= 3 * mc.se

    def test_exact_transmission_mode_departs_from_linear_form(self):
        # The closed forms linearize 1 - exp(-n tau); with tau0 = 0.01 the
        # exact model sits several standard errors away on the plateau.
        cfg = scheduled_reference(D, 25.0)
        cfg = replace(cfg, unit=replace(
            cfg.unit, transmission_mode=TransmissionMode.PER_DAY_HAZARD_EXACT))
        mc = run_cohort(cfg, 1_000_000,
                        np.random.default_rng(23)).observed_ratio()
        assert abs(mc.mu_ratio - infrequent_observed_mu(25.0, D)) > 3 * mc.se

    def test_degenerate_arm_raises(self):
        tiny = DurationModelParams(tau0=1e-9)
        with pytest.raises(ValueError, match="undefined VE"):
            mc_infrequent_observed(tiny, 10.0, 20_000,
                                   np.random.default_rng(24)).observed_ratio()


class TestSymptomOracle:
    def test_recovers_actual_not_target(self):
        mc = mc_symptom_prompted_ve(S, D, 400_000,
                                    np.random.default_rng(30)).observed_ratio()
        assert abs(mc.ve - (1.0 - S.nu)) <= 3 * mc.se
        target_ve = 1.0 - symptom_prompted_target_mu(S)
        assert abs(mc.ve - target_ve) > 3 * mc.se

    def test_true_ve_matches_target(self):
        truth = mc_symptom_prompted_ve(S, D, 400_000,
                                       np.random.default_rng(31)).true_ratio()
        target_ve = 1.0 - symptom_prompted_target_mu(S)
        assert abs(truth.ve - target_ve) <= 3 * truth.se

    def test_window_filter_reduces_attribution(self):
        wide = mc_symptom_prompted_ve(S, D, 100_000, np.random.default_rng(32))
        narrow = run_cohort(
            replace(symptom_reference(S, D),
                    design=StudyDesignFilter(attribution_window=(0.0, 4.0))),
            100_000, np.random.default_rng(32))
        assert narrow.observed[False].attributed < wide.observed[False].attributed


class TestFullyObservedNaive:
    def test_shared_phase_is_exact(self):
        fo = mc_fully_observed_naive(D, 1.0, 200_000, np.random.default_rng(40))
        assert sum(fo.excluded.values()) == 0
        difference = fo.observed_ratio().ve - fo.true_ratio().ve
        assert difference == pytest.approx(0.0, abs=1e-15)

    def test_independent_phases_bias_upward(self):
        # Contacts occasionally test positive before their primary, moving
        # transmission units out of the vaccinated arm; the naive VE then
        # overshoots the truth.
        cfg = ScenarioConfig(
            unit=UnitConfig(duration=D,
                            transmission_mode=TransmissionMode.PER_DAY_HAZARD),
            policy=TestingPolicy.scheduled(1.0),
            design=StudyDesignFilter(attribution_window=(0.0, 60.0)))
        fo = run_cohort(cfg, 400_000, np.random.default_rng(41))
        assert fo.observed_ratio().ve - fo.true_ratio().ve > 0
