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
from functools import cache, cached_property
from itertools import chain
from typing import Optional

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


@dataclass(frozen=True, slots=True)
class Person:
    id: int
    vaccinated: bool


@dataclass(frozen=True, slots=True)
class Infection:
    """One realized infection with full truth-level detail."""

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

    ``community_daily_hazard`` should stay small relative to the
    within-unit per-contact probabilities in realistic scenarios (community
    incidence over a study window is far below household attack rates);
    this is documented rather than enforced.
    """

    unit_size: int = 4
    p_primary_vaccinated: float = 0.5
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
        if not 0.0 <= self.p_primary_vaccinated <= 1.0:
            raise ParameterError("p_primary_vaccinated must be in [0, 1], "
                                 f"got {self.p_primary_vaccinated}")
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
        duration range as numpy's ``uniform`` computes it from the two ends."""
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

    ``persons`` is indexed by person id. :func:`simulate_unit` shares one
    tuple between every unit of the same shape, so it must not be mutated.
    """

    persons: tuple[Person, ...]
    infections: list[Infection]

    @property
    def primary_id(self) -> int:
        for inf in self.infections:
            if inf.source_kind is SourceKind.PRIMARY:
                return inf.person_id
        raise ValueError("unit has no primary infection")

    @property
    def primary_vaccinated(self) -> bool:
        pid = self.primary_id
        return self.persons[pid].vaccinated

    def n_contacts(self) -> int:
        return len(self.persons) - 1

    def primary_sourced_transmissions(self) -> int:
        pid = self.primary_id
        return sum(1 for inf in self.infections
                   if inf.source_kind is SourceKind.CONTACT and inf.source_id == pid)


def _make_infection(cfg: UnitConfig, rng: np.random.Generator, person_id: int,
                    vaccinated: bool, acquisition_time: float,
                    source_kind: SourceKind, source_id: Optional[int]) -> Infection:
    # The draws are the doubles numpy's scalar ``uniform(low, high)`` and
    # ``lognormal(mu, sd)`` return, without their per-call overhead.
    p_symptomatic, low, span = cfg._infection_constants[vaccinated]
    symptomatic = rng.random() < p_symptomatic
    duration = low + span * rng.random()
    onset = None
    if symptomatic:
        incubation = math.exp(cfg._incubation_log_mean
                              + cfg.incubation_log_sd * rng.standard_normal())
        onset = acquisition_time + incubation
    return Infection(person_id, acquisition_time, source_kind, source_id,
                     symptomatic, onset, duration)


def sample_primary(cfg: UnitConfig, rng: np.random.Generator) -> tuple[Person, Infection]:
    """Draw the unit's primary case: vaccination, symptoms, duration, onset.

    The primary acquires infection at time 0, which anchors the unit's
    clock. Symptom probability is ``rho_symptom`` for unvaccinated and
    ``lambda_symptom * rho_symptom`` for vaccinated primaries.
    """
    vaccinated = rng.random() < cfg.p_primary_vaccinated
    infection = _make_infection(cfg, rng, 0, vaccinated, 0.0,
                                SourceKind.PRIMARY, None)
    persons = _persons(cfg.unit_size, cfg.contacts_vaccinated, vaccinated)
    return persons[0], infection


@cache
def _persons(unit_size: int, contacts_vaccinated: bool,
             primary_vaccinated: bool) -> tuple[Person, ...]:
    """The members of a unit, person 0 the primary. One immutable tuple per
    unit shape, shared by every unit of that shape."""
    return (Person(id=0, vaccinated=primary_vaccinated),) + tuple(
        Person(id=i, vaccinated=contacts_vaccinated)
        for i in range(1, unit_size))


def _pair_transmission_probability(cfg: UnitConfig, source: Infection,
                                   source_vaccinated: bool) -> float:
    mode = cfg.transmission_mode
    if mode is TransmissionMode.PER_UNIT_BERNOULLI:
        return cfg.symptom.per_contact_transmission(source_vaccinated,
                                                    source.symptomatic)
    hazard = cfg.duration.daily_hazard(source_vaccinated)
    if mode is TransmissionMode.PER_DAY_HAZARD:
        return min(source.duration_days * hazard, 1.0)
    return 1.0 - math.exp(-source.duration_days * hazard)


def _draw_transmission_time(cfg: UnitConfig, source: Infection,
                            source_vaccinated: bool, u: float) -> float:
    """Acquisition time within the source's infectious window, from one
    uniform double ``u``."""
    if cfg.transmission_mode is TransmissionMode.PER_DAY_HAZARD_EXACT:
        # First-event time of the constant hazard, conditioned on the event
        # falling inside the window.
        hazard = cfg.duration.daily_hazard(source_vaccinated)
        cap = 1.0 - math.exp(-hazard * source.duration_days)
        offset = -math.log(1.0 - u * cap) / hazard
    else:
        offset = source.duration_days * u  # numpy's uniform(0, duration)
    return source.acquisition_time + offset


def simulate_unit(cfg: UnitConfig, rng: np.random.Generator) -> UnitTruth:
    """Simulate one transmission unit to a full :class:`UnitTruth`.

    Candidate infection events are resolved in time order; a person is
    infected at most once, by whichever candidate arrives first. Infected
    contacts transmit onward only when ``contact_to_contact`` is set.
    Community acquisitions arrive per contact at the configured daily
    hazard within ``followup_days``.
    """
    primary_person, primary_infection = sample_primary(cfg, rng)
    persons = _persons(cfg.unit_size, cfg.contacts_vaccinated,
                       primary_person.vaccinated)

    infections: dict[int, Infection] = {0: primary_infection}
    # Heap entries: (time, sequence, target_id, source_kind, source_id).
    counter = 0
    heap: list[tuple[float, int, int, SourceKind, Optional[int]]] = []

    def push_transmissions(source: Infection) -> None:
        nonlocal counter
        src_vax = persons[source.person_id].vaccinated
        p = _pair_transmission_probability(cfg, source, src_vax)
        targets = [i for i in range(cfg.unit_size) if i not in infections]
        # Coins and transmission times are all plain doubles, and every
        # target takes at least its coin: draw that many in one call, the
        # times beyond them one at a time.
        draws = chain(rng.random(len(targets)).tolist(), iter(rng.random, None))
        for target_id in targets:
            if next(draws) < p:
                t = _draw_transmission_time(cfg, source, src_vax, next(draws))
                heapq.heappush(heap, (t, counter, target_id,
                                      SourceKind.CONTACT, source.person_id))
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
        infection = _make_infection(cfg, rng, target_id,
                                    persons[target_id].vaccinated, t, kind,
                                    source_id)
        infections[target_id] = infection
        if cfg.contact_to_contact:
            push_transmissions(infection)

    # Pops come in time order, so insertion order is acquisition order.
    return UnitTruth(persons=persons, infections=list(infections.values()))
