"""Generative model for fully observed transmission units.

A transmission unit is one primary case plus a fixed number of initially
susceptible close contacts. :func:`simulate_unit` produces a
:class:`UnitTruth` holding everything a perfect observer would know: who
was infected, when, by whom, symptom status and onset, and the duration of
test positivity. Degradation into realistic test records happens in
:mod:`sarbias.observe`; nothing in the truth layer is discretized.

Within-unit transmission supports three modes:

* ``PER_UNIT_BERNOULLI``: one coin per (infector, contact) pair with
  probability ``tau * delta^(1 - symptomatic) * nu^(vaccinated)`` from the
  symptom model. Duration plays no role in transmission.
* ``PER_DAY_HAZARD``: one coin per pair with probability
  ``min(duration * tau_v, 1)``, the constant-daily-hazard model with the
  small-hazard linearization that the closed-form estimands use.
* ``PER_DAY_HAZARD_EXACT``: the exact first-event version,
  ``1 - exp(-duration * tau_v)``, with the transmission time drawn from
  the truncated exponential. Sensitivity variant; the closed forms are
  linearizations, so this mode drifts from them as ``tau0`` grows.

Community acquisition and contact-to-contact chains are optional hazards
that retrospective study designs must try to exclude; both default off.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from .params import DurationModelParams, ParameterError, SymptomModelParams


class SourceKind(Enum):
    PRIMARY = "primary"        # the unit's seeded first infection
    CONTACT = "contact"        # infected by the unit member named in source_id
    COMMUNITY = "community"    # acquired outside the unit


class TransmissionMode(Enum):
    PER_UNIT_BERNOULLI = "per_unit_bernoulli"
    PER_DAY_HAZARD = "per_day_hazard"
    PER_DAY_HAZARD_EXACT = "per_day_hazard_exact"


class Infection(NamedTuple):
    """One realized infection with full truth-level detail. An immutable
    named tuple: it unpacks, indexes, compares and orders as the plain tuple
    of its fields; ``_replace`` gives a changed copy."""

    person_id: int
    acquisition_time: float
    source_kind: SourceKind
    source_id: Optional[int]
    symptomatic: bool
    symptom_onset_time: Optional[float]
    duration_days: float


@dataclass(frozen=True)
class UnitConfig:
    """Configuration for one transmission unit draw.

    The primary's vaccination status is not part of it: it is the arm,
    an argument of :func:`simulate_unit` and of the cohort engine.

    ``community_daily_hazard`` should stay small relative to the
    within-unit per-contact probabilities in realistic scenarios (community
    incidence over a study window is far below household attack rates);
    this is documented rather than enforced.
    """

    unit_size: int = 4
    contacts_vaccinated: bool = False
    symptom: SymptomModelParams = field(default_factory=SymptomModelParams)
    duration: DurationModelParams = field(default_factory=DurationModelParams)
    incubation_mean_days: float = 6.0
    incubation_log_sd: float = 0.5
    community_daily_hazard: float = 0.0
    contact_to_contact: bool = False
    transmission_mode: TransmissionMode = TransmissionMode.PER_UNIT_BERNOULLI
    followup_days: float = 60.0

    def __post_init__(self) -> None:
        if self.unit_size < 2:
            raise ParameterError(f"unit_size must be >= 2, got {self.unit_size}")
        if not 0.0 < self.incubation_mean_days < math.inf:
            raise ParameterError("incubation_mean_days must be finite and > 0, "
                                 f"got {self.incubation_mean_days}")
        if not 0.0 < self.incubation_log_sd < math.inf:
            raise ParameterError("incubation_log_sd must be finite and > 0, "
                                 f"got {self.incubation_log_sd}")
        if not 0.0 <= self.community_daily_hazard < math.inf:
            raise ParameterError("community_daily_hazard must be finite and >= 0, "
                                 f"got {self.community_daily_hazard}")
        if not 0.0 < self.followup_days < math.inf:
            raise ParameterError("followup_days must be finite and > 0, "
                                 f"got {self.followup_days}")

    @cached_property
    def _infection_constants(self) -> tuple[tuple[float, float, float], ...]:
        """Per vaccination status (index 0 unvaccinated, 1 vaccinated): the
        symptomatic probability, the shortest positivity duration, and the
        duration range as numpy's ``uniform`` computes it from the two ends.
        Both this module and the cohort engine read them from here."""
        s, d = self.symptom, self.duration
        constants = []
        for vaccinated in (False, True):
            rho_v = d.mean_duration(vaccinated)
            low, high = rho_v - d.c, rho_v + d.c
            constants.append((s.symptomatic_probability(vaccinated), low,
                              high - low))
        return tuple(constants)

    @cached_property
    def _incubation_log_mean(self) -> float:
        # Log-normal parameterized so the arithmetic mean is incubation_mean_days.
        sd = self.incubation_log_sd
        return math.log(self.incubation_mean_days) - 0.5 * sd * sd


@dataclass
class UnitTruth:
    """Fully observed outcome of one transmission unit.

    ``vaccinated`` holds each person's status, indexed by person id.
    Person 0 is the primary: ``infections`` lists the :class:`Infection`
    records in acquisition order, so its first is person 0's ``PRIMARY``
    infection at time 0.
    """

    vaccinated: tuple[bool, ...]
    infections: list[Infection]

    @property
    def primary_vaccinated(self) -> bool:
        return self.vaccinated[0]

    def n_contacts(self) -> int:
        return len(self.vaccinated) - 1

    def primary_sourced_transmissions(self) -> int:
        return sum(1 for inf in self.infections
                   if inf.source_kind is SourceKind.CONTACT and inf.source_id == 0)


def _make_infection(cfg: UnitConfig, rng: np.random.Generator, person_id: int,
                    vaccinated: bool, acquisition_time: float,
                    source_kind: SourceKind, source_id: Optional[int],
                    coin: float, u: float) -> Infection:
    # ``coin`` and ``u`` are the caller's symptom coin and duration uniform;
    # the duration and incubation are the doubles numpy's scalar
    # ``uniform(low, high)`` and ``lognormal(mu, sd)`` return.
    p_symptomatic, low, span = cfg._infection_constants[vaccinated]
    symptomatic = coin < p_symptomatic
    duration = low + span * u
    onset = None
    if symptomatic:
        incubation = math.exp(cfg._incubation_log_mean
                              + cfg.incubation_log_sd * rng.standard_normal())
        onset = acquisition_time + incubation
    return Infection(person_id, acquisition_time, source_kind, source_id,
                     symptomatic, onset, duration)


def simulate_unit(cfg: UnitConfig, primary_vaccinated: bool,
                  rng: np.random.Generator) -> UnitTruth:
    """Simulate one transmission unit, whose primary case (person 0) has
    the given vaccination status, to a full :class:`UnitTruth`.

    The primary acquires infection at time 0, which anchors the unit's
    clock. Candidate infection events are resolved in time order; a person
    is infected at most once, by whichever candidate arrives first.
    Infected contacts transmit onward only when ``contact_to_contact`` is
    set. Community acquisitions arrive per contact at the configured daily
    hazard within ``followup_days``.
    """
    vaccinated = ((primary_vaccinated,)
                  + (cfg.contacts_vaccinated,) * (cfg.unit_size - 1))
    # Three doubles: an unused one, then the symptom coin and the duration
    # uniform. The unused double holds every later draw of a seed in place,
    # and with it every pinned digest and CSV byte.
    _, coin, u = rng.random(3).tolist()
    primary_infection = _make_infection(cfg, rng, 0, primary_vaccinated, 0.0,
                                        SourceKind.PRIMARY, None, coin, u)

    infections: dict[int, Infection] = {0: primary_infection}
    # Heap entries: (time, sequence, target_id, source_kind, source_id).
    counter = 0
    heap: list[tuple[float, int, int, SourceKind, Optional[int]]] = []
    mode = cfg.transmission_mode
    exact = mode is TransmissionMode.PER_DAY_HAZARD_EXACT

    def push_transmissions(source: Infection) -> None:
        nonlocal counter
        src_vax = vaccinated[source.person_id]
        duration = source.duration_days
        if mode is TransmissionMode.PER_UNIT_BERNOULLI:
            p = cfg.symptom.per_contact_transmission(src_vax, source.symptomatic)
        else:
            hazard = cfg.duration.daily_hazard(src_vax)
            p = (min(duration * hazard, 1.0)
                 if mode is TransmissionMode.PER_DAY_HAZARD
                 else 1.0 - math.exp(-duration * hazard))
        targets = [i for i in range(cfg.unit_size) if i not in infections]
        # Coins and transmission times are all plain doubles, and every
        # target takes at least its coin: draw that many in one call, the
        # times beyond them one at a time.
        draws = chain(rng.random(len(targets)).tolist(), iter(rng.random, None))
        for target_id in targets:
            if next(draws) < p:
                u = next(draws)
                # Uniform over the window (numpy's uniform(0, duration)), or,
                # in the exact mode (never Bernoulli, so ``hazard`` is set),
                # the hazard's first event given that it falls in the window,
                # which it does with probability p.
                offset = -math.log(1.0 - u * p) / hazard if exact else duration * u
                heapq.heappush(heap, (source.acquisition_time + offset, counter,
                                      target_id, SourceKind.CONTACT,
                                      source.person_id))
                counter += 1

    if cfg.community_daily_hazard > 0.0:
        for target_id in range(1, cfg.unit_size):
            t = float(rng.exponential(1.0 / cfg.community_daily_hazard))
            if t < cfg.followup_days:
                heapq.heappush(heap, (t, counter, target_id,
                                      SourceKind.COMMUNITY, None))
                counter += 1

    push_transmissions(primary_infection)

    while heap:
        t, _, target_id, kind, source_id = heapq.heappop(heap)
        if target_id in infections:
            continue
        coin, u = rng.random(2).tolist()
        infection = _make_infection(cfg, rng, target_id,
                                    vaccinated[target_id], t, kind,
                                    source_id, coin, u)
        infections[target_id] = infection
        if cfg.contact_to_contact:
            push_transmissions(infection)

    # Pops come in time order, so insertion order is acquisition order.
    return UnitTruth(vaccinated, list(infections.values()))
