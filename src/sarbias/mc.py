"""One vectorized cohort engine for the whole pipeline semantics.

:func:`run_cohort` runs the model of ``simulate_unit``, ``apply_policy``
and ``analyze_unit`` over person-major ``(unit_size, n)`` arrays (row 0 is
the primary), a chunk of units at a time, in three steps:
:func:`simulate_cohort`, :func:`observe_cohort` and :func:`analyze_cohort`.
It implements every scenario field and reproduces the object pipeline in
law, not draw for draw: it draws every person's infection attributes and
every pair's transmission coin up front, which has the same law because no
coin depends on the order in which infections arrive. It observes by the
testing policy alone, whatever the design, and is independent of the
closed forms in :mod:`sarbias.estimands`, which are checked against it.

Every step writes into the arrays of one :class:`_Scratch` per call: a
name for each array that outlives its step, and for the rest the
``temp`` of its dtype, valid until the next ``temp`` of that dtype.
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

# Persons per chunk: a chunk holds COHORT_PERSONS // unit_size units (at
# least one), so its person-major arrays are the same size whatever the unit
# size. Each arm draws its chunks in order from one stream, so this budget
# is part of what fixes the output bits for a seed.
COHORT_PERSONS = 1 << 16


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
    positive_until: np.ndarray       # acquisition + test-positivity days,
                                     # which are drawn for all
    onset: Optional[np.ndarray]      # inf where asymptomatic; None: not drawn
    primary_sourced: np.ndarray      # (unit_size - 1, n), the contacts


@dataclass
class CohortObserved:
    """What the database holds of each person: fixed by the policy alone."""

    first_positive: np.ndarray       # inf where never positive
    tested: np.ndarray
    reported_onset: Optional[np.ndarray]  # inf where unreported; None: no symptom tests


@dataclass
class CohortAnalysis:
    """Per-unit outcome. ``attributed`` is 0 for excluded units, and so
    is an array ``at_risk``; a scalar ``at_risk`` holds only for the units
    marked in ``analysed``."""

    attributed: np.ndarray
    at_risk: Union[np.ndarray, int]  # or the count of every analysed unit
    index: Union[np.ndarray, int]    # row of the index, 0 for the true primary
    no_index: np.ndarray
    coprimary: np.ndarray
    analysed: np.ndarray             # neither without index nor co-primary


def _rows(values) -> np.ndarray:
    """Per-person values as a column that broadcasts over units."""
    return np.array(values, dtype=float)[:, None]


class _Scratch:
    """Arrays by name and dtype, of any shape: each name's memory is made
    on first use, grown when too small and handed out again on every later
    use. :func:`run_cohort` gives one to all of a run's chunks, so each
    chunk writes into the memory of the chunk before: with fresh arrays,
    malloc hands freed pages back to the OS and the next chunk faults them
    in again.

    An array that outlives the step that fills it has a name of its own:
    the truth, observation and analysis fields, and any array still live
    across an :func:`_inf_unless` call. Every other array is the
    :meth:`temp` of its dtype, valid until the next :meth:`temp` of that
    dtype is taken. A chunk's arrays are dead once it is counted."""

    def __init__(self) -> None:
        self._memory: dict = {}  # (name, dtype): flat array; name None: temp
        self._arrays: dict = {}  # (name, shape, dtype): a view of it

    def __call__(self, name: Optional[str], shape: tuple,
                 dtype=np.float64) -> np.ndarray:
        array = self._arrays.get((name, shape, dtype))
        if array is None:
            size = math.prod(shape)
            memory = self._memory.get((name, dtype))
            if memory is None or memory.size < size:
                memory = self._memory[name, dtype] = np.empty(size, dtype)
                self._arrays.clear()  # views of the memory replaced
            array = self._arrays[name, shape, dtype] = memory[:size].reshape(shape)
        return array

    def temp(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """The one temporary array of ``dtype``: the next ``temp`` of that
        dtype writes over it."""
        return self(None, shape, np.dtype(dtype))


def _inf_unless(mask: np.ndarray, t: np.ndarray, new: _Scratch) -> np.ndarray:
    """``t``, set in place to inf where ``mask`` (``t``'s shape) is False,
    with scratch from ``new``."""
    # inf * (not mask) is NaN where mask is True and inf elsewhere, and
    # fmax ignores a NaN: a select without the per-element branch of
    # putmask, which mispredicts on random masks.
    unless = np.logical_not(mask, out=new.temp(t.shape, bool))
    with np.errstate(invalid="ignore"):
        penalty = np.multiply(unless, np.inf, out=new.temp(t.shape))
    return np.fmax(t, penalty, out=t)


def _per_unit(mask: np.ndarray, out: np.ndarray, new: _Scratch) -> np.ndarray:
    """How many rows of a ``(rows, n)`` bool array are True, per unit, into
    the ``(n,)`` integer array ``out``, with scratch from ``new``."""
    # Summed as bytes in the narrowest type that holds the row count:
    # numpy's bool sum widens every element first, at several times the cost.
    narrow = np.min_scalar_type(len(mask))
    np.copyto(out, mask.view(np.uint8).sum(
        axis=0, dtype=narrow, out=new.temp(out.shape, narrow)))
    return out


def simulate_cohort(unit: UnitConfig, vaccinated: bool, n: int,
                    rng: np.random.Generator, onsets: bool,
                    new: _Scratch) -> CohortTruth:
    """Draw the truth of ``n`` units whose primary has the given status.

    Draws, in order and only what the config reads: symptom coins
    (Bernoulli transmission or ``onsets``), durations, one uniform per
    (source, contact) pair giving both its coin and its delay (sources: the
    primary, or everyone with contact-to-contact spread), community arrival
    times (hazard above 0), and incubation periods of the infected
    symptomatic (``onsets``). Infection times are first-passage times: the
    primary's and the community's arrivals, relaxed over contact pairs
    ``unit_size - 2`` more times. Arrays come from ``new``.
    """
    size, mode = unit.unit_size, unit.transmission_mode
    status = (vaccinated,) + (unit.contacts_vaccinated,) * (size - 1)
    p_symptomatic, low, span = zip(*(unit._infection_constants[v]
                                     for v in status))
    duration = new("duration", (size, n))  # first holds the symptom coins
    symptomatic = None
    if mode is TransmissionMode.PER_UNIT_BERNOULLI or onsets:
        symptomatic = np.less(rng.random(out=duration), _rows(p_symptomatic),
                              out=new("symptomatic", (size, n), bool))
    rng.random(out=duration)
    duration *= _rows(span)
    duration += _rows(low)

    # delay[i, j - 1]: from source i's infection to contact j's; inf where
    # the pair does not transmit. Infected by the primary alone, contacts
    # take the primary's delays as their infection times, in place.
    n_sources = size if unit.contact_to_contact else 1
    others = unit.community_daily_hazard > 0.0 or unit.contact_to_contact
    acquisition = new("acquisition", (size, n))
    delay = rng.random(out=new("delay", (n_sources, size - 1, n)) if others
                       else acquisition[None, 1:])
    source_duration = duration[:n_sources, None, :]
    transmits = new("transmits", delay.shape, bool)
    sources = status[:n_sources]
    with np.errstate(divide="ignore", invalid="ignore"):  # zero p or hazard
        if mode is TransmissionMode.PER_UNIT_BERNOULLI:
            # Each source's probability when symptomatic and when not, times
            # 0/1 masks and summed: a select by exact arithmetic, no branch.
            transmission = unit.symptom.per_contact_transmission
            sick = symptomatic[:n_sources]
            p = np.multiply(sick, _rows([transmission(v, True) for v in sources]),
                            out=new("p", sick.shape))
            healthy = np.logical_not(sick, out=new.temp(sick.shape, bool))
            p += np.multiply(healthy,
                             _rows([transmission(v, False) for v in sources]),
                             out=new.temp(sick.shape))
            p = p[:, None]
            np.less(delay, p, out=transmits)
            delay *= np.divide(source_duration, p, out=p)  # U(0, duration)
        else:
            # The pair's clock rings at u / hazard (linear form: inside the
            # duration with probability duration * hazard, which the
            # duration model keeps <= 1, then uniform over it) or at the
            # hazard's first event (exact form).
            if mode is TransmissionMode.PER_DAY_HAZARD_EXACT:
                np.negative(np.log1p(np.negative(delay, out=delay), out=delay),
                            out=delay)
            delay /= _rows([unit.duration.daily_hazard(v)
                            for v in sources])[:, :, None]
            np.less(delay, source_duration, out=transmits)
    for i in range(n_sources):
        _inf_unless(transmits[i], delay[i], new)
    acquisition[0] = 0.0
    primary_sourced = transmits[0]
    if others:
        acquisition[1:] = delay[0]
        if unit.community_daily_hazard > 0.0:
            # rng.exponential's draws, bit for bit: it scales the same ones.
            community = rng.standard_exponential(out=new("community", (size - 1, n)))
            community *= 1.0 / unit.community_daily_hazard
            arrives = np.less(community, unit.followup_days,
                              out=new("arrives", community.shape, bool))
            _inf_unless(arrives, community, new)
            np.minimum(acquisition[1:], community, out=acquisition[1:])
        if unit.contact_to_contact:
            for i in range(1, size):
                delay[i, i - 1] = np.inf  # no self-infection
            via = new.temp((size - 1, n))  # infected through person i
            for _ in range(size - 2):
                for i in range(1, size):
                    np.minimum(acquisition[1:],
                               np.add(delay[i], acquisition[i], out=via),
                               out=acquisition[1:])
        primary_sourced = np.equal(acquisition[1:], delay[0],
                                   out=new("sourced", delay[0].shape, bool))
        primary_sourced &= transmits[0]

    onset = None
    if onsets:
        sick = np.less(acquisition, np.inf, out=new.temp((size, n), bool))
        sick &= symptomatic
        onset = new("onset", (size, n))
        onset.fill(np.inf)
        # A mask assignment fills in C order: person by person, unit by unit.
        onset[sick] = rng.lognormal(unit._incubation_log_mean,
                                    unit.incubation_log_sd, np.count_nonzero(sick))
        onset += acquisition  # inf stays inf where no onset was placed
    positive_until = np.add(acquisition, duration, out=duration)
    return CohortTruth(np.array(status), acquisition, positive_until, onset,
                       primary_sourced)


def observe_cohort(truth: CohortTruth, policy: TestingPolicy,
                   rng: np.random.Generator, new: _Scratch) -> CohortObserved:
    """Apply the testing policy, as ``apply_policy`` does. Draws
    participation (below 1 only), then random schedule phases (one per
    unit when shared, else one per person). Arrays come from ``new``."""
    acquisition = truth.acquisition
    shape = acquisition.shape
    tested = new("tested", shape, bool)
    tested.fill(False)
    reported_onset = None
    if policy.kind is PolicyKind.NO_TESTING:
        first_positive = new("never_positive", shape)
        first_positive.fill(np.inf)
        return CohortObserved(first_positive, tested, reported_onset)
    participates = None  # everyone
    if policy.participation < 1.0:
        participates = np.less(rng.random(out=new.temp(shape)),
                               policy.participation,
                               out=new("participates", shape, bool))
    positive_until = truth.positive_until

    if policy.kind in SYMPTOM_KINDS:
        t = np.add(truth.onset, policy.delay_days, out=new("symptom_time", shape))
        symptom_test = np.less_equal(t, policy.horizon_days,
                                     out=new("symptom_test", shape, bool))
        if participates is not None:
            symptom_test &= participates
        hit = np.less(t, positive_until, out=new("hit", shape, bool))
        first_positive = _inf_unless(np.logical_and(symptom_test, hit, out=hit),
                                     t, new)
        tested |= symptom_test
        reported_onset = new("reported_onset", shape)
        np.copyto(reported_onset, truth.onset)
        _inf_unless(symptom_test, reported_onset, new)

    if policy.kind in SCHEDULED_KINDS:
        k = policy.interval_days
        phase = policy.fixed_phase
        if phase is None:
            phase = rng.random(out=new("phase", shape[1:] if policy.shared_phase
                                       else shape))
            phase *= k
            last_slot = np.subtract(policy.horizon_days, phase,
                                    out=new.temp(phase.shape))
        else:
            last_slot = policy.horizon_days - phase
        # First slot phase + j * k at or after acquisition (j >= 0, as the
        # phase lies in [0, k)); slot j exists while j <= (horizon - phase) / k.
        slot = np.subtract(acquisition, phase, out=new("slot", shape))
        slot /= k
        np.ceil(slot, out=slot)
        last_slot /= k
        positive = np.less_equal(slot, last_slot, out=new("positive", shape, bool))
        # A symptom test implies participation: mask the union at once.
        tested |= np.greater_equal(last_slot, 0.0, out=new.temp(shape, bool))
        if participates is not None:
            tested &= participates
        slot *= k
        slot += phase
        positive &= np.less(slot, positive_until, out=new.temp(shape, bool))
        if participates is not None:
            positive &= participates
        scheduled = _inf_unless(positive, slot, new)
        first_positive = (scheduled if policy.kind is PolicyKind.SCHEDULED
                          else np.minimum(first_positive, scheduled,
                                          out=first_positive))
    return CohortObserved(first_positive, tested, reported_onset)


def analyze_cohort(obs: CohortObserved, design: StudyDesignFilter,
                   index_rule: str, new: _Scratch) -> CohortAnalysis:
    """Index, exclusions and per-unit counts, as ``analyze_unit`` does
    (``true_primary`` anchors on row 0, as its ``index_id`` override).
    Arrays come from ``new``."""
    first_positive = obs.first_positive
    size, n = first_positive.shape
    if index_rule == "true_primary":
        index, first = 0, first_positive[0]
    else:
        first = first_positive.min(axis=0, out=new("first", (n,)))
        # Row numbers in the narrowest type: their arithmetic below wraps
        # around exactly, and the result is below the row count.
        rows = np.min_scalar_type(size)
        index = new("index", (n,), rows)
        index.fill(0)
        step, is_first = new.temp((n,), rows), new.temp((n,), bool)
        for i in range(size - 1, -1, -1):  # ties go to the lowest id
            # index = i where row i is first, as arithmetic: no branch.
            np.subtract(index, i, out=step)
            step *= np.equal(first_positive[i], first, out=is_first)
            index -= step
    no_index = np.equal(first, np.inf, out=new("no_index", (n,), bool))

    coprimary = new("coprimary", (n,), bool)
    coprimary.fill(False)
    analysed = np.logical_not(no_index, out=new("analysed", (n,), bool))
    if design.coprimary_exclusion_days is not None:
        # Two positive dates within the limit, compared pair by pair.
        dates = np.floor(first_positive, out=new.temp((size, n)))
        gap, near = new("gap", (n,)), new.temp((n,), bool)
        with np.errstate(invalid="ignore"):  # inf - inf between two misses
            for i in range(1, size):
                for j in range(i):
                    np.abs(np.subtract(dates[j], dates[i], out=gap), out=gap)
                    coprimary |= np.less_equal(
                        gap, design.coprimary_exclusion_days, out=near)
        coprimary &= analysed
        analysed &= np.logical_not(coprimary, out=new.temp((n,), bool))

    events, anchor = first_positive, first
    if design.anchor is WindowAnchor.ONSET_TIME and obs.reported_onset is not None:
        events = np.where((obs.reported_onset < np.inf) & (first_positive < np.inf),
                          obs.reported_onset, first_positive)
        anchor = np.take_along_axis(events, np.broadcast_to(index, (1, n)), 0)[0]
    # Everyone but the index is a contact; the index's own lag is 0.
    lo, hi = design.attribution_window
    own = lo <= 0.0 <= hi
    if index_rule == "true_primary":
        events, own = events[1:], False
    with np.errstate(invalid="ignore"):  # inf - inf in units without index
        lag = np.subtract(events, anchor, out=new.temp((len(events), n)))
    in_window = np.greater_equal(lag, lo, out=new("in_window", lag.shape, bool))
    in_window &= np.less_equal(lag, hi, out=new.temp(lag.shape, bool))
    attributed = _per_unit(in_window, new("attributed", (n,), np.int64), new)
    attributed *= analysed
    if own:
        attributed -= analysed
    at_risk = size - 1
    if design.require_contact_tested:
        at_risk = _per_unit(obs.tested, new("at_risk", (n,), np.int64), new)
        at_risk *= analysed
        at_risk -= analysed  # the index has a positive test
    return CohortAnalysis(attributed, at_risk, index, no_index, coprimary,
                          analysed)


def _count(truth: CohortTruth, analysis: CohortAnalysis,
           new: _Scratch) -> CohortCounts:
    attributed, at_risk, analysed = (analysis.attributed, analysis.at_risk,
                                     analysis.analysed)
    n = len(attributed)
    primary, contacts = (bool(v) for v in truth.vaccinated[:2])  # contacts: one status
    if np.ndim(analysis.index) == 0 or primary == contacts:  # one arm: the primary's
        observed = {primary: ArmCounts.from_units(
                        attributed, at_risk, int(np.count_nonzero(analysed))),
                    not primary: ArmCounts.ZERO}
    else:
        # Each arm masks out the other's units, whose at-risk contacts then
        # count 0: as the counts' contract says, they add nothing.
        units = np.equal(analysis.index, 0, out=new.temp((n,), bool))
        units &= analysed  # indexed by the primary, then by a contact
        observed = {}
        for arm in (primary, contacts):
            # The arm's mask as int64 0s and 1s: int64 times bool would cast
            # the mask through numpy's 64 KiB ufunc buffer.
            arm_attributed = new.temp((n,), np.int64)
            np.copyto(arm_attributed, units)
            arm_at_risk, arm_units = at_risk, None
            if np.ndim(at_risk) == 0:  # shared by the arm's units
                arm_units = int(np.count_nonzero(units))
            else:
                arm_at_risk = np.multiply(at_risk, arm_attributed,
                                          out=new("arm_at_risk", (n,), np.int64))
            arm_attributed *= attributed
            observed[arm] = ArmCounts.from_units(arm_attributed, arm_at_risk,
                                                 arm_units)
            np.logical_xor(units, analysed, out=units)
    primary_sourced = _per_unit(truth.primary_sourced,
                                new.temp((n,), np.int64), new)
    truth_arms = {not primary: ArmCounts.ZERO,
                  primary: ArmCounts.from_units(primary_sourced,
                                                len(truth.vaccinated) - 1)}
    excluded = Counter(
        {("no_index", primary): int(np.count_nonzero(analysis.no_index)),
         ("coprimary", primary): int(np.count_nonzero(analysis.coprimary))})
    return CohortCounts(observed, truth_arms, excluded)


def run_cohort(cfg: "ScenarioConfig", units_per_arm: int,
               rng: np.random.Generator) -> CohortCounts:
    """``units_per_arm`` units per arm of the scenario's base config, the
    vaccinated arm first, each in chunks drawn in order from ``rng``: a
    chunk holds ``COHORT_PERSONS // unit_size`` units (at least one), so
    units of two draw 2^15 at a time and units of eight 2^13. Raises
    ``ValueError`` for no units or a set sweep axis."""
    if units_per_arm < 1:
        raise ValueError(f"units_per_arm must be >= 1, got {units_per_arm}")
    if cfg.sweep_axis is not None:
        raise ValueError(f"the oracle does not model sweep_axis = "
                         f"{cfg.sweep_axis!r}: it answers for the base config")
    onsets = cfg.policy.kind in SYMPTOM_KINDS
    chunk = max(1, COHORT_PERSONS // cfg.unit.unit_size)
    scratch = _Scratch()
    total = None
    for vaccinated in (True, False):
        for start in range(0, units_per_arm, chunk):
            n = min(chunk, units_per_arm - start)
            truth = simulate_cohort(cfg.unit, vaccinated, n, rng, onsets, scratch)
            obs = observe_cohort(truth, cfg.policy, rng, scratch)
            analysis = analyze_cohort(obs, cfg.design, cfg.index_rule, scratch)
            counts = _count(truth, analysis, scratch)
            total = counts if total is None else total + counts
    return total
