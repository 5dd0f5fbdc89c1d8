"""Vectorized Monte Carlo oracles for the closed-form estimands.

These cohort simulators re-create the pipeline semantics of
``simulate -> observe -> infer`` with struct-of-arrays numpy code so that
million-unit validation runs finish in seconds. They are deliberately
independent of the closed forms in :mod:`sarbias.estimands`: detection is
realized by drawing actual test phases, transmission by Bernoulli draws,
and the estimand by pooling attack rates, never by evaluating the
piecewise algebra being checked.

Two analysis anchors exist:

* reference (prospective) anchor: the unit enters the analysis when the
  true primary case is detected, arms are the primary's vaccination
  status, and contacts are ascertained through the same testing process.
  This is the sampling model the closed-form observed estimands describe.
* naive anchor: the index is the earliest positive test, as a
  retrospective database analysis would have it.

The object pipeline covers the general case (community acquisition,
contact chains, arbitrary filters); these fast paths cover the regimes the
validation suite needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .infer import ArmCounts, ve_from_arms
from .params import DurationModelParams, SymptomModelParams
from .simcore import TransmissionMode

ORACLE_HORIZON_DAYS = 60.0  # the follow-up every oracle sampler assumes


@dataclass(frozen=True)
class McRatio:
    """Monte Carlo estimate of an observed transmission ratio."""

    mu_ratio: float
    ve: float
    se: float
    arm_v: ArmCounts
    arm_u: ArmCounts
    extras: dict

    @classmethod
    def from_arms(cls, arm_v: ArmCounts, arm_u: ArmCounts,
                  extras: dict | None = None) -> "McRatio":
        """Raises :class:`~sarbias.infer.EstimationError` as
        :func:`~sarbias.infer.ve_from_arms` does."""
        ratio, ve, se = ve_from_arms(arm_v, arm_u)
        return cls(mu_ratio=ratio, ve=ve, se=se,
                   arm_v=arm_v, arm_u=arm_u, extras=extras or {})


def _transmission_probability(duration: np.ndarray, hazard: float,
                              transmission: TransmissionMode) -> np.ndarray:
    if transmission is TransmissionMode.PER_DAY_HAZARD:
        return np.minimum(duration * hazard, 1.0)
    if transmission is TransmissionMode.PER_DAY_HAZARD_EXACT:
        return 1.0 - np.exp(-duration * hazard)
    raise ValueError("duration oracles need a per-day-hazard transmission "
                     f"mode, got {transmission}")


def mc_detection_fraction(rho_v: float, c: float, interval_k: float,
                          n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Empirical probability that scheduled testing detects an infection.

    Realizes the schedule: with a uniform phase, the first test after
    acquisition falls a Uniform(0, k) offset later, and the infection is
    detected when that offset lands inside the duration. Returns
    (fraction, standard error).
    """
    durations = rng.uniform(rho_v - c, rho_v + c, n)
    offsets = rng.uniform(0.0, interval_k, n)
    f = float(np.mean(offsets < durations))
    return f, math.sqrt(f * (1.0 - f) / n)


def mc_infrequent_observed(d: DurationModelParams, interval_k: float,
                           units_per_arm: int, rng: np.random.Generator,
                           contacts_per_unit: int = 1,
                           transmission: TransmissionMode = (
                               TransmissionMode.PER_DAY_HAZARD)) -> McRatio:
    """Cohort oracle for the observed ratio under testing every ``k`` days.

    Reference anchor: a unit is sampled when its primary case is detected
    by the realized schedule; contacts count as attributed when truly
    infected and themselves detected (an arm-symmetric thinning). Extras
    carry the per-arm detection fractions and unconditional per-contact
    transmission fractions with their standard errors, for the
    detection-fraction and duration-model bridges.
    """
    arms = {}
    extras: dict = {}
    m = contacts_per_unit
    for vaccinated, label in ((True, "v"), (False, "u")):
        rho = d.mean_duration(vaccinated)
        hazard = d.daily_hazard(vaccinated)
        dur_p = rng.uniform(rho - d.c, rho + d.c, units_per_arm)
        offset_p = rng.uniform(0.0, interval_k, units_per_arm)
        sampled = offset_p < dur_p

        p_t = _transmission_probability(dur_p, hazard, transmission)
        transmitted = rng.random((units_per_arm, m)) < p_t[:, None]
        # Contacts are unvaccinated and observed via the same schedule.
        dur_c = rng.uniform(d.rho0 - d.c, d.rho0 + d.c, (units_per_arm, m))
        offset_c = rng.uniform(0.0, interval_k, (units_per_arm, m))
        detected_c = offset_c < dur_c

        attributed = (transmitted & detected_c)[sampled].sum(axis=1)
        arms[vaccinated] = ArmCounts.from_units(attributed, m)

        f = float(sampled.mean())
        extras[f"detection_fraction_{label}"] = f
        extras[f"detection_fraction_se_{label}"] = math.sqrt(
            max(f * (1.0 - f), 1e-300) / units_per_arm)
        pt_hat = float(transmitted.mean())
        extras[f"p_transmit_{label}"] = pt_hat
        extras[f"p_transmit_se_{label}"] = math.sqrt(
            max(pt_hat * (1.0 - pt_hat), 1e-300) / (units_per_arm * m))

    return McRatio.from_arms(arms[True], arms[False], extras)


def mc_symptom_prompted_ve(s: SymptomModelParams, d: DurationModelParams,
                           units_per_arm: int, rng: np.random.Generator,
                           contacts_per_unit: int = 3,
                           incubation_mean_days: float = 6.0,
                           incubation_log_sd: float = 0.5,
                           window: tuple[float, float] | None = None) -> McRatio:
    """Cohort oracle for the symptom-prompted testing pipeline.

    Reference anchor: a unit is sampled when the primary is symptomatic
    and its onset test comes back positive (onset inside the positivity
    window). Contacts are attributed when truly infected, symptomatic,
    positive at their own onset test, and (when ``window`` is given)
    inside the attribution window relative to the primary's test. Extras
    carry the true VE on the same cohort for the target-estimand bridge.
    """
    mu_log = math.log(incubation_mean_days) - 0.5 * incubation_log_sd ** 2
    m = contacts_per_unit
    arms = {}
    true_arms = {}
    for vaccinated in (True, False):
        rho_dur = d.mean_duration(vaccinated)
        symptomatic_p = rng.random(units_per_arm) < s.symptomatic_probability(vaccinated)
        dur_p = rng.uniform(rho_dur - d.c, rho_dur + d.c, units_per_arm)
        inc_p = rng.lognormal(mu_log, incubation_log_sd, units_per_arm)
        sampled = symptomatic_p & (inc_p < dur_p)

        p_t = s.tau * np.where(symptomatic_p, 1.0, s.delta)
        if vaccinated:
            p_t = p_t * s.nu
        transmitted = rng.random((units_per_arm, m)) < p_t[:, None]

        # Contact ascertainment: unvaccinated contacts, symptom-prompted.
        symptomatic_c = rng.random((units_per_arm, m)) < s.rho_symptom
        dur_c = rng.uniform(d.rho0 - d.c, d.rho0 + d.c, (units_per_arm, m))
        inc_c = rng.lognormal(mu_log, incubation_log_sd, (units_per_arm, m))
        positive_c = transmitted & symptomatic_c & (inc_c < dur_c)

        if window is not None:
            acq_c = rng.uniform(0.0, 1.0, (units_per_arm, m)) * dur_p[:, None]
            lag = acq_c + inc_c - inc_p[:, None]
            lo, hi = window
            positive_c = positive_c & (lag >= lo) & (lag <= hi)

        attributed = positive_c[sampled].sum(axis=1)
        arms[vaccinated] = ArmCounts.from_units(attributed, m)
        true_arms[vaccinated] = ArmCounts.from_units(transmitted.sum(axis=1), m)

    true_ratio = McRatio.from_arms(true_arms[True], true_arms[False])
    extras = {"true_ve": true_ratio.ve, "true_ve_se": true_ratio.se}
    return McRatio.from_arms(arms[True], arms[False], extras)


@dataclass(frozen=True)
class NaiveVsTrue:
    """Naive estimator and same-cohort truth for the fully observed regime."""

    ve_naive: float
    se_naive: float
    ve_true: float
    se_true: float
    n_units_no_positive: int

    @property
    def difference(self) -> float:
        return self.ve_naive - self.ve_true


def mc_fully_observed_naive(d: DurationModelParams, interval_k: float,
                            units_per_arm: int, rng: np.random.Generator,
                            contacts_per_unit: int = 3,
                            shared_phase: bool = True,
                            window: tuple[float, float] = (
                                0.0, ORACLE_HORIZON_DAYS),
                            transmission: TransmissionMode = (
                                TransmissionMode.PER_DAY_HAZARD)) -> NaiveVsTrue:
    """Naive earliest-positive analysis of a scheduled-testing cohort.

    The index is the member with the earliest first positive test over an
    ``ORACLE_HORIZON_DAYS`` horizon, ties resolved in favor of the primary
    (exact slot ties arise only under a shared phase). Arms follow the
    index's vaccination status, so a contact detected before the primary
    migrates the unit to the unvaccinated arm, exactly as in a registry
    analysis. With ``shared_phase`` the whole unit tests on the same
    schedule and first-positive order matches acquisition order, which
    makes the naive analysis coincide with the truth when every infection
    is detected.
    """
    m = contacts_per_unit
    k = interval_k
    lo, hi = window
    pooled: dict[bool, list[np.ndarray]] = {True: [], False: []}
    true_arms = {}
    n_no_positive = 0
    for vaccinated in (True, False):
        rho = d.mean_duration(vaccinated)
        hazard = d.daily_hazard(vaccinated)
        n = units_per_arm
        dur = np.empty((n, m + 1))
        acq = np.zeros((n, m + 1))
        dur[:, 0] = rng.uniform(rho - d.c, rho + d.c, n)
        p_t = _transmission_probability(dur[:, 0], hazard, transmission)
        transmitted = rng.random((n, m)) < p_t[:, None]
        acq[:, 1:] = rng.uniform(0.0, 1.0, (n, m)) * dur[:, 0][:, None]
        dur[:, 1:] = rng.uniform(d.rho0 - d.c, d.rho0 + d.c, (n, m))
        infected = np.concatenate(
            [np.ones((n, 1), dtype=bool), transmitted], axis=1)

        if shared_phase:
            phase = np.repeat(rng.uniform(0.0, k, n)[:, None], m + 1, axis=1)
        else:
            phase = rng.uniform(0.0, k, (n, m + 1))
        # First test slot at or after acquisition; identical slots give
        # bit-identical times, so argmin ties resolve to the primary.
        slot = np.ceil((acq - phase) / k)
        first_test = phase + slot * k
        detected = (infected & (first_test - acq < dur)
                    & (first_test <= ORACLE_HORIZON_DAYS))
        times = np.where(detected, first_test, np.inf)

        idx = np.argmin(times, axis=1)
        rows = np.arange(n)
        t_index = times[rows, idx]
        analyzed = np.isfinite(t_index)
        n_no_positive += int(n - analyzed.sum())

        # Zero anchor for unanalyzed rows avoids inf - inf; those rows are
        # masked out of the pooled counts below.
        anchor = np.where(analyzed, t_index, 0.0)
        lag = times - anchor[:, None]
        in_window = np.isfinite(times) & (lag >= lo) & (lag <= hi)
        in_window[rows, idx] = False
        attributed = in_window.sum(axis=1)

        # Contacts are unvaccinated, so a contact-indexed unit lands in
        # the unvaccinated arm regardless of its primary's arm.
        index_is_primary = idx == 0
        arm_of_unit = np.where(index_is_primary, vaccinated, False)
        for arm in (True, False):
            mask = analyzed & (arm_of_unit == arm)
            pooled[arm].append(attributed[mask])

        true_arms[vaccinated] = ArmCounts.from_units(transmitted.sum(axis=1), m)

    arm_counts = {arm: ArmCounts.from_units(np.concatenate(parts), m)
                  for arm, parts in pooled.items()}
    naive = McRatio.from_arms(arm_counts[True], arm_counts[False])
    truth = McRatio.from_arms(true_arms[True], true_arms[False])
    return NaiveVsTrue(ve_naive=naive.ve, se_naive=naive.se,
                       ve_true=truth.ve, se_true=truth.se,
                       n_units_no_positive=n_no_positive)
