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
        if self.incubation_mean_days <= 0.0:
            raise ParameterError("incubation_mean_days must be > 0, "
                                 f"got {self.incubation_mean_days}")
        if self.incubation_log_sd <= 0.0:
            raise ParameterError("incubation_log_sd must be > 0, "
                                 f"got {self.incubation_log_sd}")
        if self.community_daily_hazard < 0.0:
            raise ParameterError("community_daily_hazard must be >= 0, "
                                 f"got {self.community_daily_hazard}")
        if self.followup_days <= 0.0:
            raise ParameterError(f"followup_days must be > 0, got {self.followup_days}")


@dataclass
class UnitTruth:
    """Fully observed outcome of one transmission unit."""

    persons: list[Person]
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


def _draw_incubation(cfg: UnitConfig, rng: np.random.Generator) -> float:
    # Log-normal parameterized so the arithmetic mean is incubation_mean_days.
    sd = cfg.incubation_log_sd
    mu = math.log(cfg.incubation_mean_days) - 0.5 * sd * sd
    return float(rng.lognormal(mean=mu, sigma=sd))


def _make_infection(cfg: UnitConfig, rng: np.random.Generator, person_id: int,
                    vaccinated: bool, acquisition_time: float,
                    source_kind: SourceKind, source_id: Optional[int]) -> Infection:
    s, d = cfg.symptom, cfg.duration
    symptomatic = bool(rng.random() < s.symptomatic_probability(vaccinated))
    rho_v = d.mean_duration(vaccinated)
    duration = float(rng.uniform(rho_v - d.c, rho_v + d.c))
    onset = acquisition_time + _draw_incubation(cfg, rng) if symptomatic else None
    return Infection(person_id=person_id, acquisition_time=acquisition_time,
                     source_kind=source_kind, source_id=source_id,
                     symptomatic=symptomatic, symptom_onset_time=onset,
                     duration_days=duration)


def sample_primary(cfg: UnitConfig, rng: np.random.Generator) -> tuple[Person, Infection]:
    """Draw the unit's primary case: vaccination, symptoms, duration, onset.

    The primary acquires infection at time 0, which anchors the unit's
    clock. Symptom probability is ``rho_symptom`` for unvaccinated and
    ``lambda_symptom * rho_symptom`` for vaccinated primaries.
    """
    vaccinated = bool(rng.random() < cfg.p_primary_vaccinated)
    person = Person(id=0, vaccinated=vaccinated)
    infection = _make_infection(cfg, rng, person_id=0, vaccinated=vaccinated,
                                acquisition_time=0.0,
                                source_kind=SourceKind.PRIMARY, source_id=None)
    return person, infection


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
                            source_vaccinated: bool,
                            rng: np.random.Generator) -> float:
    """Acquisition time within the source's infectious window."""
    if cfg.transmission_mode is TransmissionMode.PER_DAY_HAZARD_EXACT:
        # First-event time of the constant hazard, conditioned on the event
        # falling inside the window.
        hazard = cfg.duration.daily_hazard(source_vaccinated)
        cap = 1.0 - math.exp(-hazard * source.duration_days)
        offset = -math.log(1.0 - rng.random() * cap) / hazard
    else:
        offset = rng.uniform(0.0, source.duration_days)
    return source.acquisition_time + float(offset)


def simulate_unit(cfg: UnitConfig, rng: np.random.Generator) -> UnitTruth:
    """Simulate one transmission unit to a full :class:`UnitTruth`.

    Candidate infection events are resolved in time order; a person is
    infected at most once, by whichever candidate arrives first. Infected
    contacts transmit onward only when ``contact_to_contact`` is set.
    Community acquisitions arrive per contact at the configured daily
    hazard within ``followup_days``.
    """
    primary_person, primary_infection = sample_primary(cfg, rng)
    persons = [primary_person] + [
        Person(id=i, vaccinated=cfg.contacts_vaccinated)
        for i in range(1, cfg.unit_size)
    ]

    infections: dict[int, Infection] = {0: primary_infection}
    # Heap entries: (time, sequence, target_id, source_kind, source_id).
    counter = 0
    heap: list[tuple[float, int, int, SourceKind, Optional[int]]] = []

    def push_transmissions(source: Infection) -> None:
        nonlocal counter
        src_vax = persons[source.person_id].vaccinated
        p = _pair_transmission_probability(cfg, source, src_vax)
        for target in persons:
            if target.id in infections:
                continue
            if rng.random() < p:
                t = _draw_transmission_time(cfg, source, src_vax, rng)
                heapq.heappush(heap, (t, counter, target.id,
                                      SourceKind.CONTACT, source.person_id))
                counter += 1

    if cfg.community_daily_hazard > 0.0:
        for target in persons[1:]:
            t = float(rng.exponential(1.0 / cfg.community_daily_hazard))
            if t < cfg.followup_days:
                heapq.heappush(heap, (t, counter, target.id,
                                      SourceKind.COMMUNITY, None))
                counter += 1

    push_transmissions(primary_infection)

    while heap:
        t, _, target_id, kind, source_id = heapq.heappop(heap)
        if target_id in infections:
            continue
        infection = _make_infection(cfg, rng, person_id=target_id,
                                    vaccinated=persons[target_id].vaccinated,
                                    acquisition_time=t, source_kind=kind,
                                    source_id=source_id)
        infections[target_id] = infection
        if cfg.contact_to_contact:
            push_transmissions(infection)

    ordered = sorted(infections.values(), key=lambda inf: inf.acquisition_time)
    return UnitTruth(persons=persons, infections=ordered)
