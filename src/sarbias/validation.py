"""Oracle-versus-analytic validation suite.

Every closed form in :mod:`sarbias.estimands` is checked against a seeded
oracle of its sampling process: the cohort engine of :mod:`sarbias.mc` on a
config, or the testing schedule alone. A check passes when the simulated value
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
from .mc import COHORT_CHUNK, CohortCounts, run_cohort
from .observe import TestingPolicy
from .params import DurationModelParams, SymptomModelParams
from .simcore import TransmissionMode, UnitConfig

PIECEWISE_K_GRID = (1.0, 3.0, 7.0, 10.0, 14.0, 21.0, 25.0)


# The checks' four oracles: three cohort-engine configs and the schedule.

def mc_infrequent_observed(d: DurationModelParams, interval_k: float,
                           units_per_arm: int,
                           rng: np.random.Generator) -> CohortCounts:
    return run_cohort(scheduled_reference(d, interval_k), units_per_arm, rng)


def mc_symptom_prompted_ve(s: SymptomModelParams, d: DurationModelParams,
                           units_per_arm: int,
                           rng: np.random.Generator) -> CohortCounts:
    return run_cohort(symptom_reference(s, d), units_per_arm, rng)


def mc_fully_observed_naive(d: DurationModelParams, interval_k: float,
                            units_per_arm: int,
                            rng: np.random.Generator) -> CohortCounts:
    """Units of four tested every ``interval_k`` days from one phase per
    unit, analysed from the earliest positive over the window (0, 60);
    under daily synchronized testing this analysis is the truth."""
    cfg = ScenarioConfig(
        unit=UnitConfig(duration=d,
                        transmission_mode=TransmissionMode.PER_DAY_HAZARD),
        policy=TestingPolicy.scheduled(interval_k, shared_phase=True),
        design=StudyDesignFilter(attribution_window=(0.0, 60.0)))
    return run_cohort(cfg, units_per_arm, rng)


def mc_detection_fraction(rho_v: float, c: float, interval_k: float,
                          n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Empirical probability that scheduled testing detects an infection.

    Realizes the schedule: with a uniform phase, the first test after
    acquisition falls a Uniform(0, k) offset later, and the infection is
    detected when that offset lands inside the duration. Returns
    (fraction, standard error).

    Draws :data:`COHORT_CHUNK` durations and then as many
    offsets at a time, in order from ``rng``, so it holds one chunk of each
    at once and streams from any numpy bit generator.
    """
    detected = 0
    for start in range(0, n, COHORT_CHUNK):
        m = min(COHORT_CHUNK, n - start)
        durations = rng.uniform(rho_v - c, rho_v + c, m)
        detected += int(np.count_nonzero(rng.uniform(0.0, interval_k, m)
                                         < durations))
    f = detected / n
    return f, math.sqrt(f * (1.0 - f) / n)


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
            note: str = "") -> CheckResult:
    z = (observed - expected) / se if se > 0 else math.inf
    return CheckResult(name=name, expected=expected, observed=observed,
                       se=se, z=z, passed=abs(z) <= 3.0, note=note)


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


def run_validation_suite(units_per_arm: int = 1_000_000,
                         seed: int = 1) -> list[CheckResult]:
    """All oracle-vs-analytic bridge checks at the given replication size,
    at the package's default parameters.

    Each task is one named oracle call drawing in order from its own
    stream, run on the worker pool of :func:`harness._parallel_map`; each
    check reads its cohort by name, so the results, and the first error
    raised, do not depend on the worker count."""
    s, d = SymptomModelParams(), DurationModelParams()
    detection_cases = ((10.0, d.rho1), (10.0, d.rho0), (15.0, d.rho1))
    # name: (oracle, its arguments before the units, its stream key), in
    # submission order; the oracles are looked up here, when the suite runs.
    tasks = {("piecewise", k): (mc_infrequent_observed, (d, k), (10, i))
             for i, k in enumerate(PIECEWISE_K_GRID)}
    tasks |= {("tail", 25.0): (mc_infrequent_observed, (d, 25.0), (20,)),
              ("tail", 30.0): (mc_infrequent_observed, (d, 30.0), (26,)),
              "anchor": (mc_infrequent_observed, (d, 1.0), (21,)),
              "bridge": (mc_infrequent_observed, (d, 10.0), (22,))}
    tasks |= {("detection", k, rho): (mc_detection_fraction, (rho, d.c, k),
                                      (23, i))
              for i, (k, rho) in enumerate(detection_cases)}
    tasks |= {"symptom": (mc_symptom_prompted_ve, (s, d), (24,)),
              "fully observed": (mc_fully_observed_naive, (d, 1.0), (25,))}

    def run(task):
        oracle, args, key = task
        return oracle(*args, units_per_arm, spawn_rng(seed, *key))

    cohorts = dict(zip(tasks, _parallel_map(run, list(tasks.values()))))

    # Piecewise observed ratio across the testing-interval grid, each with
    # the swapped-branch negative control alongside: k -> (primary, control).
    piecewise = {k: check_piecewise_interval(d, k, cohorts["piecewise", k])
                 for k in PIECEWISE_K_GRID}
    results = [check for pair in piecewise.values() for check in pair]

    # The negative control must be rejected somewhere strictly between the
    # branch points of at least one arm, where assignment is what differs.
    interior_ks = [k for k in PIECEWISE_K_GRID
                   if any(rho - d.c < k < rho + d.c for rho in (d.rho0, d.rho1))]
    rejected_at = [k for k in interior_ks if piecewise[k][1].note == "rejected"]
    results.append(CheckResult(
        name="swapped-branch control rejected at >=1 interior interval",
        expected=math.nan, observed=float(len(rejected_at)), se=math.nan,
        z=math.nan, passed=len(rejected_at) >= 1,
        note=f"rejected at interior k in {rejected_at or 'none'} "
             f"of {interior_ks}"))

    # Tail independence: the observed ratio stops moving once the interval
    # exceeds the longest duration.
    mc25, mc30 = (cohorts["tail", k].observed_ratio() for k in (25.0, 30.0))
    results.append(_zcheck("tail independence, k=30 minus k=25", 0.0,
                           mc30.mu_ratio - mc25.mu_ratio,
                           math.hypot(mc25.se, mc30.se),
                           note="two oracle runs compared to each other"))

    # Daily testing anchor: at k = 1 the observed ratio is the target.
    mc1 = cohorts["anchor"].observed_ratio()
    results.append(_zcheck("daily-testing anchor, k=1",
                           estimands.infrequent_target_mu(d), mc1.mu_ratio,
                           mc1.se))

    # Duration-model bridge: unconditional per-contact transmission equals
    # hazard times mean duration, per arm.
    bridge = cohorts["bridge"]
    for label, arm, rho, tau in (("v", True, d.rho1, d.tau1),
                                 ("u", False, d.rho0, d.tau0)):
        truth = bridge.truth[arm]  # one contact per unit: binomial SE
        results.append(_zcheck(
            f"per-contact transmission, arm {label}", tau * rho,
            truth.sar, math.sqrt(truth.sar_variance)))

    # Detection bridge: realized schedule detection equals the sampling
    # fraction, per arm and interval.
    for k, rho in detection_cases:
        frac, se = cohorts["detection", k, rho]
        results.append(_zcheck(
            f"detection fraction, k={k:g}, rho={rho:g}",
            estimands.sampling_fraction(k, rho, d.c), frac, se))

    # Symptom-prompted pipeline: the naive estimate converges to 1 - nu
    # while the same cohort's true VE matches the target estimand.
    cohort = cohorts["symptom"]
    sp, truth = cohort.observed_ratio(), cohort.true_ratio()
    results.append(_zcheck("symptom-prompted pipeline VE", 1.0 - s.nu,
                           sp.ve, sp.se))
    results.append(_zcheck(
        "true VE equals target estimand",
        1.0 - estimands.symptom_prompted_target_mu(s), truth.ve, truth.se))

    # Fully observed regime: synchronized daily testing, naive analysis
    # matches the same cohort's truth.
    cohort = cohorts["fully observed"]
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
