"""One vectorized cohort engine for the whole pipeline semantics.

:func:`run_cohort` runs the model of ``simulate_unit``, ``apply_policy``
and ``analyze_unit`` over person-major ``(unit_size, n)`` arrays (row 0 is
the primary), a fixed-size chunk of units at a time, in three steps:
:func:`simulate_cohort`, :func:`observe_cohort` and :func:`analyze_cohort`.
It implements every scenario field and reproduces the object pipeline in
law, not draw for draw: it draws every person's infection attributes and
every pair's transmission coin up front, which has the same law because no
coin depends on the order in which infections arrive. It is independent of
the closed forms in :mod:`sarbias.estimands`, which are checked against it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .infer import (ArmCounts, StudyDesignFilter, VeRatio, WindowAnchor,
                    ve_from_arms)
from .observe import SCHEDULED_KINDS, SYMPTOM_KINDS, PolicyKind, TestingPolicy
from .simcore import TransmissionMode, UnitConfig

if TYPE_CHECKING:
    from .harness import ScenarioConfig

# Each arm draws its chunks in order from one stream, so this chunk size is
# part of what fixes the output bits for a seed.
COHORT_CHUNK = 1 << 15


@dataclass(frozen=True)
class CohortCounts:
    """Counts of one engine run per arm (``True`` = vaccinated): observed
    by the index case's status, truth (primary-sourced transmissions over
    all contacts) by the primary's, and exclusions by (reason, primary's)."""

    observed: dict[bool, ArmCounts]
    truth: dict[bool, ArmCounts]
    excluded: Counter

    def __add__(self, other: "CohortCounts") -> "CohortCounts":
        return CohortCounts(
            {arm: self.observed[arm] + other.observed[arm] for arm in (True, False)},
            {arm: self.truth[arm] + other.truth[arm] for arm in (True, False)},
            self.excluded + other.excluded)

    def observed_ratio(self) -> VeRatio:
        return ve_from_arms(self.observed[True], self.observed[False])

    def true_ratio(self) -> VeRatio:
        return ve_from_arms(self.truth[True], self.truth[False])


@dataclass
class CohortTruth:
    """Truth of ``n`` units, ``(unit_size, n)`` arrays unless noted."""

    vaccinated: np.ndarray           # (unit_size,)
    acquisition: np.ndarray          # inf where never infected
    duration: np.ndarray             # test-positivity days, drawn for all
    onset: Optional[np.ndarray]      # inf where asymptomatic; None: not drawn
    primary_sourced: np.ndarray      # (unit_size - 1, n), the contacts


@dataclass
class CohortObserved:
    """What the database sees of each person; None where nothing reads it."""

    first_positive: np.ndarray       # inf where never positive
    tested: Optional[np.ndarray]
    reported_onset: Optional[np.ndarray]  # inf where none reported


@dataclass
class CohortAnalysis:
    """Per-unit outcome; the counts are 0 for excluded units."""

    attributed: np.ndarray
    at_risk: np.ndarray
    index: Union[np.ndarray, int]    # row of the index, 0 for the true primary
    no_index: np.ndarray
    coprimary: np.ndarray


def _rows(values) -> np.ndarray:
    """Per-person values as a column that broadcasts over units."""
    return np.array(values, dtype=float)[:, None]


def _inf_unless(mask: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``t``, set in place to inf where ``mask`` is False."""
    np.putmask(t, ~mask, np.inf)
    return t


def simulate_cohort(unit: UnitConfig, vaccinated: bool, n: int,
                    rng: np.random.Generator, onsets: bool) -> CohortTruth:
    """Draw the truth of ``n`` units whose primary has the given status.

    Draws, in order and only what the config reads: symptom coins
    (Bernoulli transmission or ``onsets``), durations, one uniform per
    (source, contact) pair giving both its coin and its delay (sources: the
    primary, or everyone with contact-to-contact spread), community arrival
    times (hazard above 0), and incubation periods of the infected
    symptomatic (``onsets``). Infection times are first-passage times: the
    primary's and the community's arrivals, relaxed over contact pairs
    ``unit_size - 2`` more times.
    """
    size, mode = unit.unit_size, unit.transmission_mode
    s, d = unit.symptom, unit.duration
    vax = np.full(size, unit.contacts_vaccinated)
    vax[0] = vaccinated
    symptomatic = None
    if mode is TransmissionMode.PER_UNIT_BERNOULLI or onsets:
        symptomatic = rng.random((size, n)) < _rows(
            [s.symptomatic_probability(v) for v in vax])
    duration = rng.random((size, n))
    duration *= 2.0 * d.c
    duration += _rows([d.mean_duration(v) - d.c for v in vax])

    # delay[i, j - 1]: from source i's infection to contact j's; inf where
    # the pair does not transmit.
    n_sources = size if unit.contact_to_contact else 1
    delay = rng.random((n_sources, size - 1, n))
    source_duration = duration[:n_sources, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # zero p or hazard
        if mode is TransmissionMode.PER_UNIT_BERNOULLI:
            p = s.tau * np.where(symptomatic[:n_sources], 1.0, s.delta)
            p = (p * _rows([s.nu if v else 1.0 for v in vax[:n_sources]]))[:, None]
            transmits = delay < p
            delay *= source_duration / p  # U(0, duration) given transmission
        else:
            # The pair's clock rings at u / hazard (linear form: inside the
            # duration with probability duration * hazard, which the
            # duration model keeps <= 1, then uniform over it) or at the
            # hazard's first event (exact form).
            if mode is TransmissionMode.PER_DAY_HAZARD_EXACT:
                delay = -np.log1p(-delay)
            delay /= _rows([d.daily_hazard(v) for v in vax[:n_sources]])[:, :, None]
            transmits = delay < source_duration
    delay = _inf_unless(transmits, delay)

    acquisition = np.empty((size, n))
    acquisition[0] = 0.0
    acquisition[1:] = delay[0]
    primary_sourced = transmits[0]
    if unit.community_daily_hazard > 0.0 or unit.contact_to_contact:
        if unit.community_daily_hazard > 0.0:
            community = rng.exponential(1.0 / unit.community_daily_hazard,
                                        (size - 1, n))
            community[community >= unit.followup_days] = np.inf
            np.minimum(acquisition[1:], community, out=acquisition[1:])
        if unit.contact_to_contact:
            for i in range(1, size):
                delay[i, i - 1] = np.inf  # no self-infection
            for _ in range(size - 2):
                for i in range(1, size):
                    np.minimum(acquisition[1:], acquisition[i] + delay[i],
                               out=acquisition[1:])
        primary_sourced = primary_sourced & (acquisition[1:] == delay[0])

    onset = None
    if onsets:
        sick = symptomatic & (acquisition < np.inf)
        sd = unit.incubation_log_sd
        mu = math.log(unit.incubation_mean_days) - 0.5 * sd * sd
        onset = np.full((size, n), np.inf)
        np.place(onset, sick, rng.lognormal(mu, sd, int(np.count_nonzero(sick))))
        onset += acquisition  # inf stays inf where no onset was placed
    return CohortTruth(vax, acquisition, duration, onset, primary_sourced)


def observe_cohort(truth: CohortTruth, policy: TestingPolicy,
                   design: StudyDesignFilter,
                   rng: np.random.Generator) -> CohortObserved:
    """Apply the testing policy, as ``apply_policy`` does. Draws
    participation (below 1 only), then random schedule phases (one per
    unit when shared, else one per person); keeps tested flags and
    reported onsets only where ``design`` reads them."""
    acquisition = truth.acquisition
    shape = acquisition.shape
    tested = np.zeros(shape, dtype=bool) if design.require_contact_tested else None
    reported_onset = None
    if policy.kind is PolicyKind.NO_TESTING:
        return CohortObserved(np.full(shape, np.inf), tested, reported_onset)
    participates = None  # everyone
    if policy.participation < 1.0:
        participates = rng.random(shape) < policy.participation
    positive_until = acquisition + truth.duration

    if policy.kind in SYMPTOM_KINDS:
        t = truth.onset + policy.delay_days
        symptom_test = t <= policy.horizon_days
        if participates is not None:
            symptom_test &= participates
        first_positive = _inf_unless(symptom_test & (t < positive_until), t)
        if tested is not None:
            tested |= symptom_test
        if design.anchor is WindowAnchor.ONSET_TIME:
            reported_onset = np.where(symptom_test, truth.onset, np.inf)

    if policy.kind in SCHEDULED_KINDS:
        k = policy.interval_days
        phase = policy.fixed_phase
        if phase is None:
            phase = rng.random(shape[1] if policy.shared_phase else shape)
            phase *= k
        # First slot phase + j * k at or after acquisition (j >= 0, as the
        # phase lies in [0, k)); slot j exists while j <= (horizon - phase) / k.
        slot = acquisition - phase
        slot /= k
        np.ceil(slot, out=slot)
        last_slot = policy.horizon_days - phase
        last_slot /= k
        positive = slot <= last_slot
        slot *= k
        slot += phase
        positive &= slot < positive_until
        if participates is not None:
            positive &= participates
        scheduled = _inf_unless(positive, slot)
        first_positive = (scheduled if policy.kind is PolicyKind.SCHEDULED
                          else np.minimum(first_positive, scheduled))
        if tested is not None:
            has_slots = last_slot >= 0.0
            tested |= has_slots if participates is None else has_slots & participates
    return CohortObserved(first_positive, tested, reported_onset)


def analyze_cohort(obs: CohortObserved, design: StudyDesignFilter,
                   index_rule: str) -> CohortAnalysis:
    """Index, exclusions and per-unit counts, as ``analyze_unit`` does
    (``true_primary`` anchors on row 0, as its ``index_id`` override)."""
    first_positive = obs.first_positive
    size, n = first_positive.shape
    if index_rule == "true_primary":
        index, first = 0, first_positive[0]
    else:
        first = first_positive.min(axis=0)
        index = np.zeros(n, dtype=np.intp)
        for i in range(size - 1, -1, -1):  # ties go to the lowest id
            index[first_positive[i] == first] = i
    no_index = first == np.inf

    coprimary = np.zeros(n, dtype=bool)
    if design.coprimary_exclusion_days is not None:
        # Two positive dates within the limit, as sorted dates' gaps show.
        dates = np.floor(first_positive)
        with np.errstate(invalid="ignore"):  # inf - inf between two misses
            for i in range(1, size):
                gaps = np.abs(dates[:i] - dates[i])
                coprimary |= (gaps <= design.coprimary_exclusion_days).any(axis=0)
        coprimary &= ~no_index

    events, anchor = first_positive, first
    if design.anchor is WindowAnchor.ONSET_TIME and obs.reported_onset is not None:
        events = np.where((obs.reported_onset < np.inf) & (first_positive < np.inf),
                          obs.reported_onset, first_positive)
        anchor = np.take_along_axis(events, np.broadcast_to(index, (1, n)), 0)[0]
    # Everyone but the index is a contact; the index's own lag is 0.
    lo, hi = design.attribution_window
    own = int(lo <= 0.0 <= hi)
    if index_rule == "true_primary":
        events, own = events[1:], 0
    with np.errstate(invalid="ignore"):  # inf - inf in units without index
        lag = events - anchor
    in_window = ((lag >= lo) & (lag <= hi)).sum(axis=0) - own
    at_risk = (obs.tested.sum(axis=0) - 1  # the index has a positive test
               if design.require_contact_tested else size - 1)
    analysed = ~(no_index | coprimary)
    return CohortAnalysis(in_window * analysed, at_risk * analysed,
                          index, no_index, coprimary)


def _count(truth: CohortTruth, analysis: CohortAnalysis,
           vaccinated: bool) -> CohortCounts:
    attributed, at_risk = analysis.attributed, analysis.at_risk
    index_vaccinated = truth.vaccinated[analysis.index]  # per unit, or one
    observed = {}
    for arm in (True, False):
        mine = index_vaccinated == arm
        if np.ndim(mine):
            attributed_arm, at_risk_arm = attributed[mine], at_risk[mine]
        else:
            attributed_arm, at_risk_arm = (attributed, at_risk) if mine else ([], 0)
        observed[arm] = ArmCounts.from_units(attributed_arm, at_risk_arm)
    truth_arms = {not vaccinated: ArmCounts.from_units([], 0),
                  vaccinated: ArmCounts.from_units(
                      truth.primary_sourced.sum(axis=0), len(truth.vaccinated) - 1)}
    excluded = Counter(
        {("no_index", vaccinated): int(np.count_nonzero(analysis.no_index)),
         ("coprimary", vaccinated): int(np.count_nonzero(analysis.coprimary))})
    return CohortCounts(observed, truth_arms, excluded)


def run_cohort(cfg: "ScenarioConfig", units_per_arm: int,
               rng: np.random.Generator) -> CohortCounts:
    """``units_per_arm`` units per arm of the scenario's base config, the
    vaccinated arm first, each in chunks of :data:`COHORT_CHUNK` units
    drawn in order from ``rng``. Raises ``ValueError`` for no units or a
    set sweep axis."""
    if units_per_arm < 1:
        raise ValueError(f"units_per_arm must be >= 1, got {units_per_arm}")
    if cfg.sweep_axis is not None:
        raise ValueError(f"the oracle does not model sweep_axis = "
                         f"{cfg.sweep_axis!r}: it answers for the base config")
    onsets = cfg.policy.kind in SYMPTOM_KINDS
    total = None
    for vaccinated in (True, False):
        for start in range(0, units_per_arm, COHORT_CHUNK):
            n = min(COHORT_CHUNK, units_per_arm - start)
            truth = simulate_cohort(cfg.unit, vaccinated, n, rng, onsets)
            obs = observe_cohort(truth, cfg.policy, cfg.design, rng)
            counts = _count(truth, analyze_cohort(obs, cfg.design, cfg.index_rule),
                            vaccinated)
            total = counts if total is None else total + counts
            # The chunk's truth goes now; its observed arrays, the last it
            # made, stay until the next chunk's replace them. Were every
            # array of a chunk freed at once, malloc would hand the heap top
            # back to the OS and the next chunk would fault its pages in
            # again (one-worker `validate`: 5x the page faults, 1.4x the time).
            del truth
    return total


def mc_detection_fraction(rho_v: float, c: float, interval_k: float,
                          n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Empirical probability that scheduled testing detects an infection.

    Realizes the schedule: with a uniform phase, the first test after
    acquisition falls a Uniform(0, k) offset later, and the infection is
    detected when that offset lands inside the duration. Returns
    (fraction, standard error).

    Draws ``n`` durations, then ``n`` offsets, from the PCG64 stream
    ``rng`` and leaves it after them. The offsets are read from a copy of
    the stream advanced past the durations, so both are streamed
    :data:`COHORT_CHUNK` at a time.
    """
    ahead = type(rng.bit_generator)()
    ahead.state = rng.bit_generator.state
    ahead.advance(n)  # one draw per double
    offsets = np.random.Generator(ahead)
    detected = 0
    for start in range(0, n, COHORT_CHUNK):
        m = min(COHORT_CHUNK, n - start)
        durations = rng.uniform(rho_v - c, rho_v + c, m)
        detected += int(np.count_nonzero(offsets.uniform(0.0, interval_k, m)
                                         < durations))
    # Only the generator state moves on: advance() dropped the buffered
    # 32 bits that ``rng`` keeps.
    state = rng.bit_generator.state
    state["state"] = ahead.state["state"]
    rng.bit_generator.state = state
    f = detected / n
    return f, math.sqrt(f * (1.0 - f) / n)
