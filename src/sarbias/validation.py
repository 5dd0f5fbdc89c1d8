"""Oracle-versus-analytic validation suite.

Every closed form in :mod:`sarbias.estimands` is checked against the
seeded cohort engine of :mod:`sarbias.mc` on a config that realizes the
closed form's sampling process. A check passes when the simulated value
sits within three Monte Carlo standard errors of the analytic value; the
swapped-branch negative control passes when the oracle *rejects* it at
three standard errors for at least one interior testing interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimands
from .harness import (ScenarioConfig, _parallel_map, scheduled_reference,
                      spawn_rng, symptom_reference)
from .infer import StudyDesignFilter
from .mc import CohortCounts, mc_detection_fraction, run_cohort
from .observe import TestingPolicy
from .params import DurationModelParams, SymptomModelParams
from .simcore import TransmissionMode, UnitConfig

PIECEWISE_K_GRID = (1.0, 3.0, 7.0, 10.0, 14.0, 21.0, 25.0)


# The checks' three reference cohorts, each the cohort engine on a config.

def mc_infrequent_observed(d: DurationModelParams, interval_k: float,
                           units_per_arm: int, rng: np.random.Generator,
                           transmission: TransmissionMode = (
                               TransmissionMode.PER_DAY_HAZARD)) -> CohortCounts:
    return run_cohort(scheduled_reference(d, interval_k, transmission),
                      units_per_arm, rng)


def mc_symptom_prompted_ve(s: SymptomModelParams, d: DurationModelParams,
                           units_per_arm: int,
                           rng: np.random.Generator) -> CohortCounts:
    return run_cohort(symptom_reference(s, d), units_per_arm, rng)


def mc_fully_observed_naive(d: DurationModelParams, interval_k: float,
                            units_per_arm: int, rng: np.random.Generator,
                            shared_phase: bool = True) -> CohortCounts:
    """Units of four tested every ``interval_k`` days (one phase per unit
    when shared), analysed from the earliest positive over the window
    (0, 60); under daily synchronized testing this analysis is the truth."""
    cfg = ScenarioConfig(
        unit=UnitConfig(duration=d,
                        transmission_mode=TransmissionMode.PER_DAY_HAZARD),
        policy=TestingPolicy.scheduled(interval_k, shared_phase=shared_phase),
        design=StudyDesignFilter(attribution_window=(0.0, 60.0)))
    return run_cohort(cfg, units_per_arm, rng)


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: float
    observed: float
    se: float
    z: float
    passed: bool
    note: str = ""

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: analytic={self.expected:.6f} "
                f"mc={self.observed:.6f} se={self.se:.2e} z={self.z:+.2f}"
                + (f" ({self.note})" if self.note else ""))


def _zcheck(name: str, expected: float, observed: float, se: float,
            note: str = "", z_limit: float = 3.0) -> CheckResult:
    z = (observed - expected) / se if se > 0 else math.inf
    return CheckResult(name=name, expected=expected, observed=observed,
                       se=se, z=z, passed=abs(z) <= z_limit, note=note)


def check_piecewise_interval(d: DurationModelParams, k: float,
                             cohort: CohortCounts) -> list[CheckResult]:
    """Observed-ratio oracle vs the piecewise closed form at one interval,
    plus the swapped-branch negative control at the same interval, from the
    cohort of :func:`mc_infrequent_observed` at that interval.

    The control fails only if the oracle sides with the swapped assignment
    against the primary one; merely lacking the replication to reject the
    control at this interval is reported, not failed. The suite separately
    requires an outright rejection at one interior interval or more.
    """
    mc = cohort.observed_ratio()
    analytic = estimands.infrequent_observed_mu(k, d)
    swapped = (estimands.infrequent_observed_component_swapped(k, d.rho1, d.c, d.tau1)
               / estimands.infrequent_observed_component_swapped(k, d.rho0, d.c, d.tau0))
    primary = _zcheck(f"observed ratio, k={k:g}", analytic, mc.mu_ratio, mc.se)
    z_alt = (mc.mu_ratio - swapped) / mc.se if mc.se > 0 else math.inf
    agree = math.isclose(analytic, swapped, rel_tol=1e-12)
    rejected = abs(z_alt) > 3.0 and not agree
    prefers_swapped = abs(primary.z) > 3.0 and abs(z_alt) <= 3.0
    if agree:
        note = "branches coincide here"
    elif rejected:
        note = "rejected"
    elif prefers_swapped:
        note = "oracle prefers the swapped assignment"
    else:
        note = "underpowered at this replication"
    return [primary, CheckResult(
        name=f"swapped-branch control, k={k:g}",
        expected=swapped, observed=mc.mu_ratio, se=mc.se, z=z_alt,
        passed=not prefers_swapped, note=note)]


def _tail_pair(d: DurationModelParams, units_per_arm: int,
               rng: np.random.Generator) -> tuple[CohortCounts, CohortCounts]:
    """The scheduled cohorts at k = 25 and then k = 30, on one stream."""
    return (mc_infrequent_observed(d, 25.0, units_per_arm, rng),
            mc_infrequent_observed(d, 30.0, units_per_arm, rng))


def run_validation_suite(units_per_arm: int = 1_000_000,
                         seed: int = 1) -> list[CheckResult]:
    """All oracle-vs-analytic bridge checks at the given replication size,
    at the package's default parameters.

    The oracle calls run as tasks on the worker pool of
    :func:`harness._parallel_map`, each on its own stream; the checks are
    then built in suite order, so the results, and the first error raised,
    do not depend on the worker count."""
    s, d = SymptomModelParams(), DurationModelParams()
    detection_cases = ((10.0, d.rho1), (10.0, d.rho0), (15.0, d.rho1))
    # (oracle, its arguments before the units, its stream key), in suite
    # order; the oracles are looked up here, when the suite runs.
    tasks = [(mc_infrequent_observed, (d, k), (10, i))
             for i, k in enumerate(PIECEWISE_K_GRID)]
    tasks += [(_tail_pair, (d,), (20,)),
              (mc_infrequent_observed, (d, 1.0), (21,)),
              (mc_infrequent_observed, (d, 10.0), (22,))]
    tasks += [(mc_detection_fraction, (rho, d.c, k), (23, i))
              for i, (k, rho) in enumerate(detection_cases)]
    tasks += [(mc_symptom_prompted_ve, (s, d), (24,)),
              (mc_fully_observed_naive, (d, 1.0), (25,))]

    def run(task):
        oracle, args, key = task
        return oracle(*args, units_per_arm, spawn_rng(seed, *key))

    outcomes = iter(_parallel_map(run, tasks))
    results: list[CheckResult] = []

    # Piecewise observed ratio across the testing-interval grid, with the
    # swapped-branch negative control alongside.
    for k in PIECEWISE_K_GRID:
        results.extend(check_piecewise_interval(d, k, next(outcomes)))

    # The negative control must be rejected somewhere strictly between the
    # branch points of at least one arm, where assignment is what differs.
    def interior(k: float) -> bool:
        return any(rho - d.c < k < rho + d.c for rho in (d.rho0, d.rho1))

    interior_ks = [k for k in PIECEWISE_K_GRID if interior(k)]
    rejected_at = [k for k in interior_ks
                   if any(r.name == f"swapped-branch control, k={k:g}"
                          and r.note == "rejected" for r in results)]
    results.append(CheckResult(
        name="swapped-branch control rejected at >=1 interior interval",
        expected=math.nan, observed=float(len(rejected_at)), se=math.nan,
        z=math.nan, passed=len(rejected_at) >= 1,
        note=f"rejected at interior k in {rejected_at or 'none'} "
             f"of {interior_ks}"))

    # Tail independence: the observed ratio stops moving once the interval
    # exceeds the longest duration.
    mc25, mc30 = (cohort.observed_ratio() for cohort in next(outcomes))
    se_diff = math.hypot(mc25.se, mc30.se)
    results.append(_zcheck("tail independence, k=25 vs k=30",
                           mc25.mu_ratio, mc30.mu_ratio, se_diff,
                           note="two oracle runs compared to each other"))

    # Daily testing anchor: at k = 1 the observed ratio is the target.
    mc1 = next(outcomes).observed_ratio()
    results.append(_zcheck("daily-testing anchor, k=1",
                           estimands.infrequent_target_mu(d), mc1.mu_ratio,
                           mc1.se))

    # Duration-model bridge: unconditional per-contact transmission equals
    # hazard times mean duration, per arm.
    bridge = next(outcomes)
    for label, arm, rho, tau in (("v", True, d.rho1, d.tau1),
                                 ("u", False, d.rho0, d.tau0)):
        truth = bridge.truth[arm]  # one contact per unit: binomial SE
        results.append(_zcheck(
            f"per-contact transmission, arm {label}", tau * rho,
            truth.sar, math.sqrt(truth.sar_variance)))

    # Detection bridge: realized schedule detection equals the sampling
    # fraction, per arm and interval.
    for k, rho in detection_cases:
        frac, se = next(outcomes)
        results.append(_zcheck(
            f"detection fraction, k={k:g}, rho={rho:g}",
            estimands.sampling_fraction(k, rho, d.c), frac, se))

    # Symptom-prompted pipeline: the naive estimate converges to 1 - nu
    # while the same cohort's true VE matches the target estimand.
    cohort = next(outcomes)
    sp, truth = cohort.observed_ratio(), cohort.true_ratio()
    results.append(_zcheck("symptom-prompted pipeline VE", 1.0 - s.nu,
                           sp.ve, sp.se))
    results.append(_zcheck(
        "true VE equals target estimand",
        1.0 - estimands.symptom_prompted_target_mu(s), truth.ve, truth.se))

    # Fully observed regime: synchronized daily testing, naive analysis
    # matches the same cohort's truth.
    cohort = next(outcomes)
    naive, truth = cohort.observed_ratio(), cohort.true_ratio()
    results.append(_zcheck("fully observed naive vs truth",
                           truth.ve, naive.ve, max(naive.se, 1e-12),
                           note="synchronized daily testing"))
    return results


def main_validation(units_per_arm: int, seed: int) -> bool:
    """Run the suite, print one line per check, return overall pass."""
    results = run_validation_suite(units_per_arm=units_per_arm, seed=seed)
    for r in results:
        print(r.format_line())
    n_failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_failed}/{len(results)} checks passed")
    return n_failed == 0
