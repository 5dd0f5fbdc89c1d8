"""Closed-form target and observed estimands for VE against the SAR.

Vaccine efficacy against the secondary attack rate (VE-SAR) is ``1 - mu``
where ``mu`` is the ratio of per-contact transmission probabilities,
vaccinated over unvaccinated primary cases. Every function here evaluates
one of two kinds of quantity:

* the *target* ratio ``mu``: what a study with complete ascertainment of
  primary cases and transmission events would estimate, and
* an *observed* ratio ``mu_tilde``: the large-sample limit of the naive
  estimator when primary cases enter the study only through an imperfect
  testing process (symptom-triggered tests, or tests every ``k`` days).

All functions are elementary closed forms over validated scalar inputs,
evaluated in double precision. They are pure and safe to call from any
thread.
"""

from __future__ import annotations

import math
from typing import Optional

from .params import DurationModelParams, SymptomModelParams


class InfeasibleTargetError(ValueError):
    """A requested target VE is not reachable for the given parameters."""


class DegenerateModelError(ValueError):
    """The parameter combination admits no transmission at all."""


def symptom_prompted_target_mu(p: SymptomModelParams) -> float:
    """Target transmission ratio under the symptom-mixture model.

    Marginalizing per-contact transmission over symptom status gives

        mu = nu * {lam*rho + delta*(1 - lam*rho)} / {rho + delta*(1 - rho)}

    with ``lam = lambda_symptom`` and ``rho = rho_symptom``. The target
    VE-SAR is ``1 - mu``.

    Raises:
        DegenerateModelError: if ``rho = 0`` and ``delta = 0``, in which
            case unvaccinated infections can never transmit.
    """
    lam, delta, rho = p.lambda_symptom, p.delta, p.rho_symptom
    denom = rho + delta * (1.0 - rho)
    if denom == 0.0:
        raise DegenerateModelError("degenerate: no transmission possible "
                                   "(rho_symptom = 0 and delta = 0)")
    return p.nu * (lam * rho + delta * (1.0 - lam * rho)) / denom


def symptom_prompted_actual_mu(p: SymptomModelParams) -> float:
    """Observed transmission ratio when only symptomatic cases are sampled.

    Conditioning the primary case on being symptomatic removes the symptom
    mixture entirely, leaving exactly ``nu``: the reduction in transmission
    given vaccination at fixed symptom status. The naive estimator under
    symptom-triggered testing therefore converges to ``1 - nu`` rather than
    the target ``1 - mu``.
    """
    return p.nu


def invert_target_to_nu(target_ve: float, lambda_symptom: float,
                        delta: float, rho_symptom: float) -> float:
    """Solve the target-ratio expression for ``nu`` at a given target VE.

    Used to sweep scenarios indexed by target VE: returns the ``nu`` that
    makes ``1 - symptom_prompted_target_mu(...)`` equal ``target_ve``.
    Round-trips through :func:`symptom_prompted_target_mu` to 1e-12.

    Raises:
        InfeasibleTargetError: if the required ``nu`` exceeds 1, i.e. the
            requested target VE is too low to be produced by any valid
            ``nu`` for these parameters.
        DegenerateModelError: as in :func:`symptom_prompted_target_mu`.
    """
    if not 0.0 <= target_ve <= 1.0:
        raise ValueError(f"target_ve must be in [0, 1], got {target_ve}")
    lam, rho = lambda_symptom, rho_symptom
    denom = lam * rho + delta * (1.0 - lam * rho)
    if rho + delta * (1.0 - rho) == 0.0:
        raise DegenerateModelError("degenerate: no transmission possible "
                                   "(rho_symptom = 0 and delta = 0)")
    if denom == 0.0:
        # Vaccinated infections never transmit for any nu (all symptoms
        # suppressed and asymptomatic transmission zero), so the target VE
        # is 1 regardless of nu and the inversion is ill-posed.
        raise DegenerateModelError("nu is not identifiable: vaccinated "
                                   "transmission is zero for every nu")
    nu = (1.0 - target_ve) * (rho + delta * (1.0 - rho)) / denom
    if nu > 1.0:
        raise InfeasibleTargetError(
            f"infeasible target VE for these parameters: requires nu={nu:.6g} > 1")
    return nu


def infrequent_target_mu(d: DurationModelParams) -> float:
    """Target transmission ratio under the duration-hazard model.

    With transmission probability proportional to duration, the
    unconditional per-contact transmission probability is
    ``tau_v * rho_v``, so the ratio is the product of the duration ratio
    and the daily hazard ratio: ``mu = (rho1 / rho0) * nu_daily``.
    """
    return d.duration_ratio * d.nu_daily


def _duration_range(k: float, rho_v: float, c: float,
                    tau_v: Optional[float] = None) -> tuple[float, float]:
    """An arm's duration range ``(rho_v - c, rho_v + c)``, once the inputs
    are checked: each finite, ``k > 0``, ``rho_v - c > 0`` and, given a
    daily hazard ``tau_v``, ``0 <= tau_v`` and ``tau_v * (rho_v + c) <= 1``,
    as the duration bundle requires of ``tau0``."""
    rates = {} if tau_v is None else {"tau_v": tau_v}
    for name, value in dict(k=k, rho_v=rho_v, c=c, **rates).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if k <= 0.0:
        raise ValueError(f"testing interval k must be > 0, got {k}")
    if rho_v - c <= 0.0:
        raise ValueError(f"rho_v - c must be > 0, got {rho_v - c}")
    if tau_v is not None and not (0.0 <= tau_v and tau_v * (rho_v + c) <= 1.0):
        raise ValueError(f"tau_v must be in [0, 1 / (rho_v + c)], got {tau_v}")
    return rho_v - c, rho_v + c


def sampling_fraction(k: float, rho_v: float, c: float) -> float:
    """Probability that an infection is detected by testing every ``k`` days.

    A test schedule with uniform random phase detects an infection of
    duration ``n`` with probability ``min(n / k, 1)``. Averaging over
    durations uniform on ``[rho_v - c, rho_v + c]`` gives a piecewise form:

    * ``k <= rho_v - c``: every infection outlasts the test interval, so
      the fraction is 1.
    * ``rho_v - c < k < rho_v + c``: a mixture of certain and proportional
      detection,
      ``S_k = {2k(rho_v + c) - (rho_v - c)^2 - k^2} / (4ck)``.
    * ``k >= rho_v + c``: every duration is below ``k``, so the fraction
      is the mean duration over the interval, ``rho_v / k``.

    The three pieces agree at the branch points, and the function is
    non-increasing in ``k``.
    """
    lo, hi = _duration_range(k, rho_v, c)
    if k <= lo:
        return 1.0
    if k >= hi:
        return rho_v / k
    return (2.0 * k * hi - lo * lo - k * k) / (4.0 * c * k)


def infrequent_observed_component(k: float, rho_v: float, c: float,
                                  tau_v: float) -> float:
    """Per-arm transmission probability among detected primary cases.

    Detection every ``k`` days samples primary cases with probability
    proportional to ``min(n / k, 1)``, which tilts the duration
    distribution toward long infections, which in turn transmit more.
    This returns ``tau_v * E[N | sampled]`` where the expectation is under
    the length-biased duration distribution:

    * ``k <= rho_v - c``: sampling is uniform, value ``tau_v * rho_v``.
    * ``rho_v - c < k < rho_v + c``: interior case, value
      ``tau_v * {3k(rho_v + c)^2 - k^3 - 2(rho_v - c)^3} / (12ck * S_k)``
      with ``S_k`` the interior sampling fraction.
    * ``k >= rho_v + c``: sampling weight is proportional to ``n`` for
      every duration, value ``tau_v * {rho_v + c^2 / (3 rho_v)}``,
      independent of ``k``.

    Branch assignment follows the case analysis of the underlying
    integrals; the value is continuous in ``k`` at both branch points.
    """
    lo, hi = _duration_range(k, rho_v, c, tau_v=tau_v)
    if k <= lo:
        return tau_v * rho_v
    if k >= hi:
        return tau_v * (rho_v + c * c / (3.0 * rho_v))
    s_k = sampling_fraction(k, rho_v, c)
    num = 3.0 * k * hi * hi - k ** 3 - 2.0 * lo ** 3
    return tau_v * num / (12.0 * c * k * s_k)


def infrequent_observed_component_swapped(k: float, rho_v: float, c: float,
                                          tau_v: float) -> float:
    """Negative control: interior and long-interval branches swapped.

    Identical branch expressions to :func:`infrequent_observed_component`
    but with the interior assignment exchanged for the long-interval one.
    Printed piecewise displays of this quantity exist in both arrangements;
    the Monte Carlo validation suite demonstrates that this variant
    disagrees with simulation at interior testing intervals, while the
    primary function agrees. Kept only so the validation suite can reject
    it explicitly. Not part of the supported API.
    """
    lo, hi = _duration_range(k, rho_v, c, tau_v=tau_v)
    if k < lo:
        return tau_v * rho_v
    if lo <= k <= hi:
        return tau_v * (rho_v + c * c / (3.0 * rho_v))
    # Literal swapped tail: the interior expression, including its
    # interior-form normalizer, applied beyond the upper branch point.
    s_k = (2.0 * k * hi - lo * lo - k * k) / (4.0 * c * k)
    num = 3.0 * k * hi * hi - k ** 3 - 2.0 * lo ** 3
    return tau_v * num / (12.0 * c * k * s_k)


def infrequent_observed_mu(k: float, d: DurationModelParams) -> float:
    """Observed transmission ratio under testing every ``k`` days.

    Ratio of the per-arm components. The daily hazards cancel to
    ``nu_daily`` but are carried explicitly because the two arms can sit
    in different branches of the piecewise component whenever
    ``rho1 != rho0``. For ``k`` at or below the minimum duration in both
    arms the ratio equals the target ``mu``; for ``k`` at or above the
    maximum duration in both arms it is constant in ``k`` but larger than
    the target, so the observed VE understates the target VE.
    """
    num = infrequent_observed_component(k, d.rho1, d.c, d.tau1)
    den = infrequent_observed_component(k, d.rho0, d.c, d.tau0)
    return num / den
