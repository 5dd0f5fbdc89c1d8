"""Replay what a retrospective analysis would conclude from test records.

Given only :class:`~sarbias.observe.ObservedUnit` data, the naive analysis
(1) picks the index case as the first detected positive, (2) applies a
study-design filter that decides which contact positives count as
transmission events, and (3) pools secondary attack rates by the index
case's vaccination status. Each step can diverge from the truth: the index
may not be the true primary, in-window community infections inflate the
SAR, and out-of-window true transmissions are dropped.

Filters replicate the attribution-window and co-primary exclusion rules of
published household and contact-tracing studies; see the preset
constructors on :class:`StudyDesignFilter`.

The VE-SAR estimate and its standard error are computed in one place,
:func:`ve_from_arms` over two arms' :class:`ArmCounts`. The observed
analysis (:func:`estimate_ve_sar`), the truth layer (:func:`true_ve_sar`)
and the Monte Carlo oracles of :mod:`sarbias.mc` all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .observe import ObservedUnit
from .simcore import UnitTruth


class WindowAnchor(Enum):
    """What the attribution window is measured from.

    TEST_TIME anchors on first positive test dates for both index and
    contacts. ONSET_TIME anchors on reported symptom-onset dates where the
    database has them (symptom-prompted tests), falling back to test dates
    otherwise; an onset counts only for a person with a positive test, so
    a contact whose tests were all negative is never attributed. Published
    designs vary on this point, so both exist.
    """

    TEST_TIME = "test_time"
    ONSET_TIME = "onset_time"


@dataclass(frozen=True)
class StudyDesignFilter:
    """Attribution window plus exclusion rules of one study design.

    Attributes:
        attribution_window: ``(lo, hi)`` in days; a contact's positive
            counts as a transmission event when its anchor time falls
            between ``lo`` and ``hi`` days (inclusive) after the index
            anchor. ``lo`` may be negative for maximal windows.
        coprimary_exclusion_days: drop the whole unit when two or more
            persons have first-positive dates within this many days of
            each other (0 means same calendar day). ``None`` disables the
            rule. Dates are whole days (floor of the test time), matching
            how registries record them.
        require_contact_tested: contact-tracing style keeps only tested
            contacts in the denominator; registry style counts untested
            contacts as negative.
        anchor: see :class:`WindowAnchor`.
        note: human-readable description of the rule set.
    """

    attribution_window: tuple[float, float] = (-60.0, 60.0)
    coprimary_exclusion_days: Optional[float] = None
    require_contact_tested: bool = False
    anchor: WindowAnchor = WindowAnchor.TEST_TIME
    note: str = ""

    def __post_init__(self) -> None:
        lo, hi = self.attribution_window
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("attribution_window ends must be finite, "
                             f"got ({lo}, {hi})")
        if lo > hi:
            raise ValueError(f"attribution window lo must be <= hi, got ({lo}, {hi})")
        if (self.coprimary_exclusion_days is not None
                and not 0.0 <= self.coprimary_exclusion_days < math.inf):
            raise ValueError("coprimary_exclusion_days must be finite and >= 0 "
                             f"or None, got {self.coprimary_exclusion_days}")

    @classmethod
    def maximal(cls, horizon_days: float = 60.0) -> "StudyDesignFilter":
        """No exclusions; every contact positive counts regardless of lag."""
        return cls(attribution_window=(-horizon_days, horizon_days),
                   note="maximal window, no exclusions")

    @classmethod
    def harris(cls) -> "StudyDesignFilter":
        """Household registry design: window 2-14 days after the index,
        dropping units with two positives within two days of each other."""
        return cls(attribution_window=(2.0, 14.0), coprimary_exclusion_days=2.0,
                   require_contact_tested=False,
                   note="registry; contact positives 2-14 days after index; "
                        "drop units with >1 positive within 2 days")

    @classmethod
    def eyre(cls) -> "StudyDesignFilter":
        """Contact-tracing design: window 1-10 days, tested contacts only."""
        return cls(attribution_window=(1.0, 10.0), coprimary_exclusion_days=None,
                   require_contact_tested=True,
                   note="contact tracing; contact positives 1-10 days after "
                        "index; denominator restricted to tested contacts")

    @classmethod
    def gier(cls) -> "StudyDesignFilter":
        """Contact-tracing design: window 1-14 days, tested contacts only."""
        return cls(attribution_window=(1.0, 14.0), coprimary_exclusion_days=None,
                   require_contact_tested=True,
                   note="contact tracing; contact positives 1-14 days after "
                        "index; denominator restricted to tested contacts")

    @classmethod
    def lyngse(cls) -> "StudyDesignFilter":
        """Household registry design: window 1-7 days, dropping units with
        more than one person first testing positive on the same day."""
        return cls(attribution_window=(1.0, 7.0), coprimary_exclusion_days=0.0,
                   require_contact_tested=False,
                   note="registry; contact positives 1-7 days after index; "
                        "drop units with >1 positive on the same day")


PRESET_FILTERS = {
    "maximal": StudyDesignFilter.maximal,
    "harris": StudyDesignFilter.harris,
    "eyre": StudyDesignFilter.eyre,
    "gier": StudyDesignFilter.gier,
    "lyngse": StudyDesignFilter.lyngse,
}


@dataclass(frozen=True)
class UnitAnalysis:
    """Outcome of analyzing one observed unit under one design."""

    index_id: Optional[int]
    index_vaccinated: Optional[bool]
    n_at_risk_contacts: int
    n_attributed_transmissions: int
    excluded: bool
    exclusion_reason: Optional[str] = None


def identify_index(obs: ObservedUnit) -> Optional[int]:
    """The index case: earliest positive test, ties broken by lowest id.

    Returns ``None`` when the unit has no positive test at all.
    """
    index_id, index_time = None, None
    for pid, t in enumerate(obs.first_positive):
        if t is not None and (index_time is None or t < index_time):
            index_id, index_time = pid, t
    return index_id


def _coprimary_excluded(obs: ObservedUnit, within_days: float) -> bool:
    dates = sorted(math.floor(t) for t in obs.first_positive if t is not None)
    return any(b - a <= within_days for a, b in zip(dates, dates[1:]))


def _anchor_times(obs: ObservedUnit,
                  anchor: WindowAnchor) -> list[Optional[float]]:
    """Per-person anchor time, ``None`` where the person has none."""
    if anchor is WindowAnchor.ONSET_TIME and obs.reported_onsets:
        onsets = obs.reported_onsets
        return [None if t is None else onsets.get(pid, t)
                for pid, t in enumerate(obs.first_positive)]
    return obs.first_positive


def analyze_unit(obs: ObservedUnit, design: StudyDesignFilter,
                 index_id: Optional[int] = None) -> UnitAnalysis:
    """Classify one unit's transmission events under a study design.

    Co-primary exclusion is applied first. Then contacts (every person but
    the index) with a positive anchor time inside the attribution window
    are counted as attributed transmissions; the denominator is all
    contacts (registry) or tested contacts only (contact tracing).

    ``index_id`` overrides index identification, for prospective-style
    analyses that anchor on a known primary case; the unit is then treated
    as unsampled (excluded, reason ``"no_index"``) unless that person has
    a positive test.
    """
    if index_id is None:
        index_id = identify_index(obs)
    elif obs.first_positive[index_id] is None:
        index_id = None
    if index_id is None:
        return UnitAnalysis(index_id=None, index_vaccinated=None,
                            n_at_risk_contacts=0, n_attributed_transmissions=0,
                            excluded=True, exclusion_reason="no_index")

    if (design.coprimary_exclusion_days is not None
            and _coprimary_excluded(obs, design.coprimary_exclusion_days)):
        return UnitAnalysis(index_id=index_id, index_vaccinated=None,
                            n_at_risk_contacts=0, n_attributed_transmissions=0,
                            excluded=True, exclusion_reason="coprimary")

    events = _anchor_times(obs, design.anchor)
    anchor = events[index_id]
    lo, hi = design.attribution_window
    tested = obs.tested
    require_tested = design.require_contact_tested

    n_at_risk = 0
    n_attributed = 0
    for pid, event in enumerate(events):
        if pid == index_id or (require_tested and not tested[pid]):
            continue
        n_at_risk += 1
        if event is not None and lo <= event - anchor <= hi:
            n_attributed += 1

    return UnitAnalysis(index_id=index_id,
                        index_vaccinated=obs.persons[index_id].vaccinated,
                        n_at_risk_contacts=n_at_risk,
                        n_attributed_transmissions=n_attributed,
                        excluded=False)


class EstimationError(ValueError):
    """An estimand is undefined for the data at hand."""


@dataclass(frozen=True)
class ArmCounts:
    """Exact integer sums over the units of one arm.

    A unit with ``m`` at-risk contacts and ``a`` attributed transmissions
    adds to n, M = sum(m), A = sum(a), sum(a^2), sum(a*m) and sum(m^2):
    all the pooled SAR and its cluster-robust variance need.
    """

    n_units: int
    at_risk: int
    attributed: int
    attributed_sq: int
    attributed_at_risk: int
    at_risk_sq: int

    @classmethod
    def from_units(cls, attributed, at_risk) -> "ArmCounts":
        """Sums over units with ``attributed[i]`` of ``at_risk[i]`` contacts;
        a scalar ``at_risk`` is shared by every unit. A unit without at-risk
        contacts adds nothing, not even to ``n_units``."""
        a = np.asarray(attributed, dtype=np.int64)
        m = np.broadcast_to(np.asarray(at_risk, dtype=np.int64), a.shape)
        return cls(n_units=int(np.count_nonzero(m)), at_risk=int(m.sum()),
                   attributed=int(a.sum()), attributed_sq=int((a * a).sum()),
                   attributed_at_risk=int((a * m).sum()),
                   at_risk_sq=int((m * m).sum()))

    def __add__(self, other: "ArmCounts") -> "ArmCounts":
        """Counts of the two sets of units pooled."""
        return ArmCounts(*(getattr(self, f.name) + getattr(other, f.name)
                           for f in fields(self)))

    @property
    def sar(self) -> float:
        return self.attributed / self.at_risk

    @property
    def sar_variance(self) -> float:
        """Cluster-robust variance of the pooled SAR, sum((a - SAR*m)^2)/M^2,
        as one exact integer division; it is the binomial variance when
        every unit has one contact."""
        n_at_risk, n_attributed = self.at_risk, self.attributed
        return ((self.attributed_sq * n_at_risk ** 2
                 - 2 * n_attributed * self.attributed_at_risk * n_at_risk
                 + n_attributed ** 2 * self.at_risk_sq) / n_at_risk ** 4)


class VeRatio(NamedTuple):
    """The SAR ratio (vaccinated over unvaccinated arm), VE = 1 - ratio,
    and their delta-method standard error."""

    mu_ratio: float
    ve: float
    se: float


def ve_from_arms(arm_v: ArmCounts, arm_u: ArmCounts) -> VeRatio:
    """The :class:`VeRatio` of two arms.

    Raises:
        EstimationError: if an arm has no at-risk contact ("insufficient
            data") or the unvaccinated arm no transmission ("undefined VE").
    """
    for arm, label in ((arm_v, "vaccinated"), (arm_u, "unvaccinated")):
        if arm.at_risk == 0:
            raise EstimationError("insufficient data: no units with at-risk "
                                  f"contacts in the {label} arm")
    if arm_u.attributed == 0:
        raise EstimationError("undefined VE: no transmission in the "
                              "unvaccinated arm")
    sar_v, sar_u = arm_v.sar, arm_u.sar
    ratio = sar_v / sar_u
    se = math.sqrt(arm_v.sar_variance / sar_u ** 2
                   + sar_v ** 2 * arm_u.sar_variance / sar_u ** 4)
    return VeRatio(ratio, 1.0 - ratio, se)


@dataclass(frozen=True)
class VESarEstimate:
    """Pooled VE-SAR estimate with its delta-method standard error."""

    sar_v: float
    sar_u: float
    ve: float
    se: float


def _index_arm(analyses: list[UnitAnalysis], vaccinated: bool) -> ArmCounts:
    rows = [a for a in analyses if a.index_vaccinated is vaccinated]
    return ArmCounts.from_units([a.n_attributed_transmissions for a in rows],
                                [a.n_at_risk_contacts for a in rows])


def estimate_ve_sar(analyses: list[UnitAnalysis]) -> VESarEstimate:
    """Pooled naive VE-SAR from per-unit analyses.

    Arms are formed by the *index* case's vaccination status, which is all
    a retrospective analysis can see; units excluded or without at-risk
    contacts are left out.

    Raises:
        EstimationError: see :func:`ve_from_arms`.
    """
    arm_v, arm_u = (_index_arm(analyses, arm) for arm in (True, False))
    _, ve, se = ve_from_arms(arm_v, arm_u)
    return VESarEstimate(sar_v=arm_v.sar, sar_u=arm_u.sar, ve=ve, se=se)


def true_ve_sar(units: list[UnitTruth]) -> float:
    """VE against the SAR computed from fully observed units.

    Pools primary-sourced transmissions over all contacts, per primary
    vaccination arm: ``1 - SAR(vaccinated primaries) / SAR(unvaccinated
    primaries)``. Only infections whose direct source is the primary case
    count as transmissions; community and contact-to-contact infections do
    not.

    Raises:
        EstimationError: see :func:`ve_from_arms`.
    """
    arms: dict[bool, tuple[list[int], list[int]]] = {True: ([], []),
                                                      False: ([], [])}
    for unit in units:
        attributed, at_risk = arms[unit.primary_vaccinated]
        attributed.append(unit.primary_sourced_transmissions())
        at_risk.append(unit.n_contacts())
    _, ve, _ = ve_from_arms(ArmCounts.from_units(*arms[True]),
                            ArmCounts.from_units(*arms[False]))
    return ve
