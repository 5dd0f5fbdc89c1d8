"""Degrade unit truth into what a retrospective database holds.

The observed layer is deliberately poorer than the truth: a database row
is a person, a test time, and a positive/negative result. Who infected
whom, asymptomatic infections that never prompted a test, and infections
that fell between scheduled tests are all invisible. Untested persons
carry no records at all; downstream analyses choose whether absence means
"negative" (registry convention) or "unknown" (contact-tracing
convention).

Tests report the truth at the moment of testing: a test at time ``t`` is
positive exactly when ``t`` falls inside the person's test-positivity
window ``[acquisition, acquisition + duration)``. Assay error is out of
scope.

:class:`ObservedUnit` holds a per-person summary of those rows, which is
all inference reads: the first positive test time, whether the person was
tested at all, and the reported symptom onset. :func:`apply_policy`
computes the summary without generating rows; ``ObservedUnit.tests``
lists the rows themselves, built on first access, for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .params import ParameterError
from .simcore import Infection, UnitTruth


class PolicyKind(Enum):
    NO_TESTING = "no_testing"
    SYMPTOM_PROMPTED = "symptom_prompted"
    SCHEDULED = "scheduled"
    SYMPTOM_PLUS_SCHEDULED = "symptom_plus_scheduled"


SYMPTOM_KINDS = (PolicyKind.SYMPTOM_PROMPTED, PolicyKind.SYMPTOM_PLUS_SCHEDULED)
SCHEDULED_KINDS = (PolicyKind.SCHEDULED, PolicyKind.SYMPTOM_PLUS_SCHEDULED)


@dataclass(frozen=True)
class TestingPolicy:
    """How and when the members of a unit get tested.

    Attributes:
        kind: which trigger generates tests.
        delay_days: days between symptom onset and the symptom-prompted
            test; kinds without symptom tests keep it 0.
        interval_days: spacing of scheduled tests; required for scheduled
            kinds, and with ``shared_phase`` and ``fixed_phase`` left unset
            by the others.
        participation: per-person probability of ever testing. Opt-outs
            are drawn once per person and suppress all of that person's
            records.
        shared_phase: scheduled tests use one random phase for the whole
            unit (synchronized household testing) instead of independent
            per-person phases.
        fixed_phase: overrides the random phase with a constant, for
            deterministic schedules.
        horizon_days: tests are generated from the unit's time origin up
            to this horizon.
    """

    __test__ = False  # name starts with "Test"; keep pytest collection away

    kind: PolicyKind
    delay_days: float = 0.0
    interval_days: Optional[float] = None
    participation: float = 1.0
    shared_phase: bool = False
    fixed_phase: Optional[float] = None
    horizon_days: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delay_days < math.inf:
            raise ParameterError("delay_days must be finite and >= 0, "
                                 f"got {self.delay_days}")
        if not 0.0 <= self.participation <= 1.0:
            raise ParameterError(f"participation must be in [0, 1], "
                                 f"got {self.participation}")
        if not 0.0 < self.horizon_days < math.inf:
            raise ParameterError("horizon_days must be finite and > 0, "
                                 f"got {self.horizon_days}")
        if self.kind not in SYMPTOM_KINDS and self.delay_days > 0.0:
            raise ParameterError(f"{self.kind.value} testing has no symptom "
                                 f"tests to delay, got delay_days = {self.delay_days}")
        if self.kind not in SCHEDULED_KINDS:
            for name, unset in (("interval_days", None), ("fixed_phase", None),
                                ("shared_phase", False)):
                if getattr(self, name) != unset:
                    raise ParameterError(
                        f"{self.kind.value} testing has no scheduled tests, "
                        f"got {name} = {getattr(self, name)}")
            return
        if self.interval_days is None or not 0.0 < self.interval_days < math.inf:
            raise ParameterError("interval_days must be finite and > 0 for "
                                 f"scheduled testing, got {self.interval_days}")
        if self.fixed_phase is not None and not (
                0.0 <= self.fixed_phase < self.interval_days):
            raise ParameterError("fixed_phase must lie in [0, interval_days), "
                                 f"got {self.fixed_phase}")

    @classmethod
    def none(cls) -> "TestingPolicy":
        return cls(kind=PolicyKind.NO_TESTING)

    @classmethod
    def symptom_prompted(cls, delay_days: float = 0.0,
                         participation: float = 1.0,
                         horizon_days: float = 60.0) -> "TestingPolicy":
        return cls(kind=PolicyKind.SYMPTOM_PROMPTED, delay_days=delay_days,
                   participation=participation, horizon_days=horizon_days)

    @classmethod
    def scheduled(cls, interval_days: float, participation: float = 1.0,
                  shared_phase: bool = False, fixed_phase: Optional[float] = None,
                  horizon_days: float = 60.0) -> "TestingPolicy":
        return cls(kind=PolicyKind.SCHEDULED, interval_days=interval_days,
                   participation=participation, shared_phase=shared_phase,
                   fixed_phase=fixed_phase, horizon_days=horizon_days)

    @classmethod
    def symptom_plus_scheduled(cls, interval_days: float, delay_days: float = 0.0,
                               participation: float = 1.0,
                               shared_phase: bool = False,
                               horizon_days: float = 60.0) -> "TestingPolicy":
        return cls(kind=PolicyKind.SYMPTOM_PLUS_SCHEDULED, delay_days=delay_days,
                   interval_days=interval_days, participation=participation,
                   shared_phase=shared_phase, horizon_days=horizon_days)


@dataclass(frozen=True, slots=True)
class TestRecord:
    __test__ = False

    person_id: int
    test_time: float
    positive: bool


class ObservedUnit:
    """What the retrospective database sees of one unit, per person.

    Inference reads three facts per person, indexed by person id:
    ``first_positive`` (time of the first positive test, or ``None``),
    ``tested`` (whether the person has any test record), and
    ``reported_onsets``, which maps person id to the symptom-onset date
    reported with a symptom-prompted test (scheduled tests report no onset).

    ``tests`` lists the underlying records sorted by time, then person. It
    is a debug view: units from :func:`apply_policy` build it on first
    access only. A unit built by hand from records derives the summary
    from them.
    """

    __slots__ = ("persons", "first_positive", "tested", "reported_onsets",
                 "_tests", "_build_tests")

    def __init__(self, persons: Sequence, tests: list[TestRecord],
                 reported_onsets: Optional[dict[int, float]] = None) -> None:
        first_positive: list[Optional[float]] = [None] * len(persons)
        tested = [False] * len(persons)
        for record in tests:
            pid = record.person_id
            tested[pid] = True
            first = first_positive[pid]
            if record.positive and (first is None or record.test_time < first):
                first_positive[pid] = record.test_time
        self.persons = persons  # Person per id; the source truth's tuple
        self.first_positive = first_positive
        self.tested = tested
        self.reported_onsets = {} if reported_onsets is None else reported_onsets
        self._tests: Optional[list[TestRecord]] = tests
        self._build_tests: Optional[Callable[[], list[TestRecord]]] = None

    @classmethod
    def _from_summary(cls, persons: Sequence, first_positive: list[Optional[float]],
                      tested: list[bool], reported_onsets: dict[int, float],
                      build_tests: Callable[[], list[TestRecord]]) -> "ObservedUnit":
        obs = cls.__new__(cls)
        obs.persons = persons
        obs.first_positive = first_positive
        obs.tested = tested
        obs.reported_onsets = reported_onsets
        obs._tests = None
        obs._build_tests = build_tests
        return obs

    @property
    def tests(self) -> list[TestRecord]:
        if self._tests is None:
            self._tests = self._build_tests()
            self._build_tests = None
        return self._tests

    def tests_of(self, person_id: int) -> list[TestRecord]:
        return [t for t in self.tests if t.person_id == person_id]


def _positive_at(inf: Optional[Infection], t: float) -> bool:
    if inf is None:
        return False
    return inf.acquisition_time <= t < inf.acquisition_time + inf.duration_days


def _symptom_tests(truth: UnitTruth, policy: TestingPolicy,
                   participates: list[bool]) -> Iterator[tuple[Infection, float]]:
    """(infection, test time) of each symptom-prompted test."""
    if policy.kind not in SYMPTOM_KINDS:
        return
    for inf in truth.infections:
        if not inf.symptomatic or not participates[inf.person_id]:
            continue
        t = inf.symptom_onset_time + policy.delay_days
        if t <= policy.horizon_days:
            yield inf, t


def _slot_counts(policy: TestingPolicy,
                 phases: list[Optional[float]]) -> list[int]:
    """Per person, the number of slots ``phase + j * k`` up to the horizon
    (may be <= 0); 0 for non-participants."""
    horizon, k = policy.horizon_days, policy.interval_days
    return [0 if phase is None else math.floor((horizon - phase) / k) + 1
            for phase in phases]


def _first_slot_at_or_after(acquisition: float, phase: float, k: float) -> int:
    """Smallest ``j >= 0`` with ``acquisition <= phase + j * k``.

    The closed form can be off by one where rounding puts the acquisition
    on a slot edge; stepping until ``phase + (j - 1) * k < acquisition <=
    phase + j * k`` holds, with the slot times computed exactly as the
    record listing computes them, makes the answer agree with it.
    """
    j = max(0, math.ceil((acquisition - phase) / k))
    while j > 0 and phase + (j - 1) * k >= acquisition:
        j -= 1
    while phase + j * k < acquisition:
        j += 1
    return j


def _draw_phases(policy: TestingPolicy, participates: list[bool],
                 rng: np.random.Generator) -> list[Optional[float]]:
    """Schedule phase per person, ``None`` for non-participants."""
    if policy.fixed_phase is not None:
        return [policy.fixed_phase if p else None for p in participates]
    # ``k * u`` is the double numpy's ``uniform(0, k)`` returns.
    k = policy.interval_days
    if policy.shared_phase:
        shared = k * rng.random()
        return [shared if p else None for p in participates]
    # One draw per participant in person order; an array draw yields the
    # same values as that many scalar draws.
    drawn = iter(rng.random(sum(participates)).tolist())
    return [k * next(drawn) if p else None for p in participates]


def _records(truth: UnitTruth, policy: TestingPolicy, participates: list[bool],
             phases: Optional[list[Optional[float]]]) -> list[TestRecord]:
    """Every test record the policy produced, sorted by (time, person)."""
    tests = [TestRecord(person_id=inf.person_id, test_time=t,
                        positive=_positive_at(inf, t))
             for inf, t in _symptom_tests(truth, policy, participates)]
    if phases is not None:
        infections = {inf.person_id: inf for inf in truth.infections}
        k = policy.interval_days
        for pid, (phase, n_slots) in enumerate(zip(phases,
                                                   _slot_counts(policy, phases))):
            inf = infections.get(pid)
            for j in range(n_slots):
                t = phase + j * k
                tests.append(TestRecord(person_id=pid, test_time=t,
                                        positive=_positive_at(inf, t)))
    tests.sort(key=lambda r: (r.test_time, r.person_id))
    return tests


def apply_policy(truth: UnitTruth, policy: TestingPolicy,
                 rng: np.random.Generator) -> ObservedUnit:
    """What the policy lets the database see of one unit.

    Participation is drawn per person before any test is generated; a
    non-participant produces no records regardless of infection or
    symptoms. Symptom-prompted tests occur once per symptomatic infected
    person at onset plus delay. Scheduled tests occur at ``phase + j * k``
    for every participant, infected or not, up to the horizon, with the
    phase uniform on ``[0, k)``; the first positive one is the first slot
    at or after acquisition, when that slot falls inside the positivity
    window and the horizon.
    """
    persons = truth.persons
    n = len(persons)
    if policy.kind is PolicyKind.NO_TESTING:
        return ObservedUnit(persons=persons, tests=[])

    if policy.participation >= 1.0:
        participates = [True] * n
    else:
        participates = (rng.random(n) < policy.participation).tolist()

    first_positive: list[Optional[float]] = [None] * n
    tested = [False] * n
    onsets: dict[int, float] = {}
    for inf, t in _symptom_tests(truth, policy, participates):
        pid = inf.person_id
        tested[pid] = True
        onsets[pid] = inf.symptom_onset_time
        if _positive_at(inf, t):
            first_positive[pid] = t

    phases = None
    if policy.kind in SCHEDULED_KINDS:
        k = policy.interval_days
        phases = _draw_phases(policy, participates, rng)
        n_slots = _slot_counts(policy, phases)
        for pid, n_tests in enumerate(n_slots):
            if n_tests > 0:
                tested[pid] = True
        for inf in truth.infections:
            pid = inf.person_id
            if n_slots[pid] <= 0:
                continue
            phase = phases[pid]
            acquisition = inf.acquisition_time
            j = _first_slot_at_or_after(acquisition, phase, k)
            t = phase + j * k
            first = first_positive[pid]
            if (j < n_slots[pid] and t < acquisition + inf.duration_days
                    and (first is None or t < first)):
                first_positive[pid] = t

    return ObservedUnit._from_summary(
        persons, first_positive, tested, onsets,
        lambda: _records(truth, policy, participates, phases))
