"""Scenario configuration, seeded sweeps, and CSV emission.

A scenario bundles a unit configuration, a testing policy, a study-design
filter, and replication settings. Scenarios come from flat ``key = value``
text files with dotted section names, chosen over nested formats because
they diff cleanly and pin the seed explicitly (wall-clock seeding is
rejected so every output is reproducible byte for byte).

Replication is deterministic: every task (sweep row, or fixed-size chunk
of units) draws from its own RNG stream spawned from ``(seed, task key)``,
so a config and seed fix the output bytes. The oracle sweeps and the
validation suite fan their tasks out over a pool of one thread per core and
reduce them in task order, so their bytes do not depend on the worker count
either.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from . import estimands
from .infer import (PRESET_FILTERS, EstimationError, StudyDesignFilter,
                    UnitAnalysis, VeRatio, WindowAnchor, analyze_unit,
                    estimate_ve_sar)
from .mc import run_cohort
from .observe import PolicyKind, TestingPolicy, apply_policy
from .params import DurationModelParams, SymptomModelParams
from .simcore import TransmissionMode, UnitConfig, simulate_unit

# Each (row, arm, chunk) of a scenario draws from its own stream, so this
# chunk size is part of what fixes the output bytes for a seed.
CHUNK_UNITS = 5000


class ConfigError(ValueError):
    """A scenario config file failed validation."""


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-task stream: same (seed, key) -> same stream."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=tuple(key)))


def fmt12(x: float) -> str:
    """Fixed CSV float formatting: 12 significant digits, '.' separator."""
    return f"{float(x):.12g}"


def _workers() -> int:
    """Threads of the task pool: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _parallel_map(fn: Callable, args: list) -> list:
    """``[fn(a) for a in args]``, on a pool of :func:`_workers` threads.

    The results, and the first exception raised, are in the order of
    ``args``, so they do not depend on the worker count as long as each
    call draws from its own stream."""
    workers = min(_workers(), len(args))
    if workers <= 1:
        return [fn(a) for a in args]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args))


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: generative model, observation, analysis, replication."""

    scenario_id: str = "scenario"
    unit: UnitConfig = field(default_factory=UnitConfig)
    policy: TestingPolicy = field(default_factory=TestingPolicy.symptom_prompted)
    design: StudyDesignFilter = field(default_factory=StudyDesignFilter)
    units_per_arm: int = 10_000
    seed: int = 0
    index_rule: str = "earliest_positive"  # or "true_primary"
    sweep_axis: Optional[str] = None
    sweep_grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.units_per_arm < 0:
            raise ConfigError(f"units_per_arm must be >= 0, got {self.units_per_arm}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.index_rule not in ("earliest_positive", "true_primary"):
            raise ConfigError(f"unknown index_rule {self.index_rule!r}")
        if self.sweep_axis is not None and not self.sweep_grid:
            raise ConfigError("sweep.axis given but sweep.grid is empty")
        if self.sweep_axis is None and self.sweep_grid:
            raise ConfigError("sweep.grid given but sweep.axis is not set")


# --- config keys -------------------------------------------------------------

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_finite(v) for v in raw.split(",") if v.strip())


def _bool(raw: str) -> bool:
    return _BOOL[raw.lower()]


def _preset(raw: str) -> StudyDesignFilter:
    if raw not in PRESET_FILTERS:
        raise ConfigError(f"filter.preset: unknown preset {raw!r}; "
                          f"choose from {sorted(PRESET_FILTERS)}")
    return PRESET_FILTERS[raw]()


_READER_NAMES = {_finite: "a finite float", _floats: "finite floats",
                 int: "int", _bool: "bool"}

# Every config key: the dotted ScenarioConfig field path it sets (a trailing
# index sets one end of a tuple field) and the reader of its text value.
# Sweep axes are the keys read by _finite.
_KEYS = {
    "scenario.id": ("scenario_id", str),
    "scenario.seed": ("seed", int),
    "scenario.units_per_arm": ("units_per_arm", int),
    "scenario.index_rule": ("index_rule", str),
    "unit.size": ("unit.unit_size", int),
    "unit.contacts_vaccinated": ("unit.contacts_vaccinated", _bool),
    "unit.incubation_mean_days": ("unit.incubation_mean_days", _finite),
    "unit.incubation_log_sd": ("unit.incubation_log_sd", _finite),
    "unit.community_daily_hazard": ("unit.community_daily_hazard", _finite),
    "unit.contact_to_contact": ("unit.contact_to_contact", _bool),
    "unit.transmission_mode": ("unit.transmission_mode", TransmissionMode),
    "unit.followup_days": ("unit.followup_days", _finite),
    "symptom.lambda_symptom": ("unit.symptom.lambda_symptom", _finite),
    "symptom.delta": ("unit.symptom.delta", _finite),
    "symptom.nu": ("unit.symptom.nu", _finite),
    "symptom.rho_symptom": ("unit.symptom.rho_symptom", _finite),
    "symptom.tau": ("unit.symptom.tau", _finite),
    "duration.rho0": ("unit.duration.rho0", _finite),
    "duration.rho1": ("unit.duration.rho1", _finite),
    "duration.c": ("unit.duration.c", _finite),
    "duration.nu_daily": ("unit.duration.nu_daily", _finite),
    "duration.tau0": ("unit.duration.tau0", _finite),
    "policy.kind": ("policy.kind", PolicyKind),
    "policy.delay_days": ("policy.delay_days", _finite),
    "policy.interval_days": ("policy.interval_days", _finite),
    "policy.participation": ("policy.participation", _finite),
    "policy.shared_phase": ("policy.shared_phase", _bool),
    "policy.horizon_days": ("policy.horizon_days", _finite),
    "filter.preset": ("design", _preset),
    "filter.window_lo": ("design.attribution_window.0", _finite),
    "filter.window_hi": ("design.attribution_window.1", _finite),
    "filter.coprimary_days": ("design.coprimary_exclusion_days", _finite),
    "filter.require_contact_tested": ("design.require_contact_tested", _bool),
    "filter.anchor": ("design.anchor", WindowAnchor),
    "sweep.axis": ("sweep_axis", str),
    "sweep.grid": ("sweep_grid", _floats),
}

_SECTIONS = {UnitConfig: "unit: ", TestingPolicy: "policy: ",
             StudyDesignFilter: "filter: "}


def _read(key: str, raw: str):
    reader = _KEYS[key][1]
    try:
        return reader(raw)
    except ConfigError:
        raise
    except (ValueError, KeyError):
        name = _READER_NAMES.get(reader) or "one of " + ", ".join(
            member.value for member in reader)
        raise ConfigError(f"{key}: cannot parse {raw!r} as {name}") from None


def _assign(obj, changes: dict):
    """A copy of ``obj`` with each dotted field path of ``changes`` set.

    Each object on the paths is rebuilt with one ``replace`` of all its
    changed fields, so its checks see only the final values."""
    own, inner = {}, {}
    for path, value in changes.items():
        name, _, rest = path.partition(".")
        if rest:
            inner.setdefault(name, {})[rest] = value
        else:
            own[name] = value
    for name, sub in inner.items():
        own[name] = _assign(getattr(obj, name), sub)
    if isinstance(obj, tuple):
        return tuple(own.get(str(i), v) for i, v in enumerate(obj))
    try:
        return replace(obj, **own)
    except ValueError as exc:
        raise ConfigError(_SECTIONS.get(type(obj), "") + str(exc)) from None


def apply_axis(cfg: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """Return a copy of ``cfg`` with the float config key ``axis`` (such as
    ``symptom.delta`` or ``filter.window_lo``) set to ``value``."""
    path, reader = _KEYS.get(axis, (None, None))
    if reader is not _finite:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return _assign(cfg, {path: value})


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat ``key = value`` scenario file. ``scenario.seed`` is
    mandatory; every other key has a default. ``sweep.axis`` must name a
    float key that takes every ``sweep.grid`` value. Raises
    :class:`ConfigError` naming the offending key or line."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    vals = {key: _read(key, value) for key, value in raw.items()}

    if "scenario.seed" not in vals:
        raise ConfigError("scenario.seed is required (wall-clock seeding is "
                          "not supported)")
    if "filter.preset" in vals and sum(k.startswith("filter.") for k in vals) > 1:
        raise ConfigError("filter.preset cannot be combined with other "
                          "filter.* keys")
    axis = vals.get("sweep.axis")
    if axis is not None and _KEYS.get(axis, (None, None))[1] is not _finite:
        raise ConfigError(f"sweep.axis: {axis!r} is not a float key")
    cfg = _assign(ScenarioConfig(), {_KEYS[k][0]: v for k, v in vals.items()})
    for value in cfg.sweep_grid if axis else ():
        try:
            apply_axis(cfg, axis, value)
        except ValueError as exc:
            raise ConfigError(f"sweep.grid: {axis} = {value:g}: {exc}") from None
    return cfg


def load_config(path: str) -> ScenarioConfig:
    """Parse the scenario file at ``path``, skipping a leading byte-order
    mark. A file that cannot be read as UTF-8 text raises
    :class:`ConfigError` naming the path."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from None
    return parse_config(text)


# --- result rows and CSV ----------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    """One CSV record; the field order is the column order."""

    scenario_id: str
    sweep_param: str = ""
    sweep_value: float = math.nan
    interval_k: float = math.nan
    delta: float = math.nan
    one_minus_delta: float = math.nan
    target_ve: float = math.nan
    actual_ve_analytic: float = math.nan
    actual_ve_mc: float = math.nan
    mc_se: float = math.nan
    n_units: int = 0
    n_excluded_no_index: int = 0
    n_excluded_coprimary: int = 0
    feasible: int = 1


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def rows_to_csv(rows: list[ResultRow]) -> str:
    """CSV text under a header row, floats through :func:`fmt12`; only a
    field holding ``,`` or ``"`` is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([v if isinstance(v, (str, int)) else fmt12(v)
                      for v in astuple(r)] for r in rows)
    return buf.getvalue()


def write_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))


# --- object-pipeline scenario runner ----------------------------------------

def _analytic_columns(cfg: ScenarioConfig) -> tuple[float, float]:
    """(target VE, analytic observed VE) where the closed forms hold, NaN
    elsewhere. The target needs the unit to follow their generative model:
    the reference config's transmission mode, no community or
    contact-to-contact infection, and unvaccinated contacts. The observed VE
    also needs the row's index rule, policy and design to equal those of the
    reference config at the row's parameters, a window covering the
    reference's counting as maximal."""
    unit, policy, design = cfg.unit, cfg.policy, cfg.design
    s, d = unit.symptom, unit.duration
    if policy.kind is PolicyKind.SYMPTOM_PROMPTED:
        reference = symptom_reference(s, d)
    elif policy.kind is PolicyKind.SCHEDULED:
        reference = scheduled_reference(d, policy.interval_days)
    else:
        return math.nan, math.nan
    if (unit.transmission_mode is not reference.unit.transmission_mode
            or unit.community_daily_hazard > 0 or unit.contact_to_contact
            or unit.contacts_vaccinated):
        return math.nan, math.nan
    if policy.kind is PolicyKind.SYMPTOM_PROMPTED:
        target = 1.0 - estimands.symptom_prompted_target_mu(s)
        actual = 1.0 - estimands.symptom_prompted_actual_mu(s)
    else:
        target = 1.0 - estimands.infrequent_target_mu(d)
        actual = 1.0 - estimands.infrequent_observed_mu(policy.interval_days, d)
    lo, hi = design.attribution_window
    maximal = reference.design.attribution_window
    if lo <= maximal[0] and hi >= maximal[1]:
        design = replace(design, attribution_window=maximal)
    if (cfg.index_rule, policy, design) != (reference.index_rule,
                                            reference.policy, reference.design):
        actual = math.nan
    return target, actual


def _mc_columns(units_per_arm: int, estimate: Optional[VeRatio],
                excluded: Counter) -> dict:
    """A row's Monte Carlo columns: VE and SE (NaN without an estimate) and
    the units excluded by reason, both arms summed, from a tally keyed
    ``(reason, primary arm)`` as ``CohortCounts.excluded`` is."""
    ve, se = ((math.nan, math.nan) if estimate is None
              else (estimate.ve, estimate.se))
    by_reason = Counter()
    for (reason, _), n in excluded.items():
        by_reason[reason] += n
    return dict(actual_ve_mc=ve, mc_se=se, n_units=units_per_arm,
                n_excluded_no_index=by_reason["no_index"],
                n_excluded_coprimary=by_reason["coprimary"])


def _run_arm(cfg: ScenarioConfig, row_index: int,
             vaccinated: bool) -> list[UnitAnalysis]:
    """The analyses of one arm's units. Chunk ``j`` of :data:`CHUNK_UNITS`
    units draws from the stream of ``(seed, row, arm, j)``, where the
    vaccinated arm is 0 and the unvaccinated arm 1."""
    unit_cfg = replace(cfg.unit, p_primary_vaccinated=float(vaccinated))
    analyses = []
    for chunk, start in enumerate(range(0, cfg.units_per_arm, CHUNK_UNITS)):
        rng = spawn_rng(cfg.seed, row_index, 0 if vaccinated else 1, chunk)
        for _ in range(min(CHUNK_UNITS, cfg.units_per_arm - start)):
            truth = simulate_unit(unit_cfg, rng)
            obs = apply_policy(truth, cfg.policy, rng)
            override = truth.primary_id if cfg.index_rule == "true_primary" else None
            analyses.append(analyze_unit(obs, cfg.design, index_id=override))
    return analyses


def run_scenario(cfg: ScenarioConfig) -> list[ResultRow]:
    """Run one scenario (optionally swept) through the object pipeline.

    Deterministic in ``(config, seed)``: re-running writes byte-identical
    CSV. ``units_per_arm = 0`` produces no rows (header-only CSV). A row
    whose estimate is undefined gets NaN VE and SE.
    """
    if cfg.units_per_arm == 0:
        return []
    grid = list(cfg.sweep_grid) if cfg.sweep_axis else [None]
    rows: list[ResultRow] = []
    for row_index, value in enumerate(grid):
        cfg_i = cfg if value is None else apply_axis(cfg, cfg.sweep_axis, value)
        arms = {arm: _run_arm(cfg_i, row_index, arm) for arm in (True, False)}
        excluded = Counter((a.exclusion_reason, arm)
                           for arm, analyses in arms.items()
                           for a in analyses if a.excluded)
        try:
            estimate = estimate_ve_sar(arms[True] + arms[False])
        except EstimationError:
            estimate = None
        target, actual = _analytic_columns(cfg_i)
        rows.append(ResultRow(
            scenario_id=cfg.scenario_id,
            sweep_param=cfg.sweep_axis or "",
            sweep_value=math.nan if value is None else float(value),
            interval_k=(cfg_i.policy.interval_days
                        if cfg_i.policy.interval_days is not None else math.nan),
            delta=cfg_i.unit.symptom.delta,
            one_minus_delta=1.0 - cfg_i.unit.symptom.delta,
            target_ve=target, actual_ve_analytic=actual,
            **_mc_columns(cfg.units_per_arm, estimate, excluded)))
    return rows


# --- reference configs of the closed forms -----------------------------------

def scheduled_reference(d: DurationModelParams, interval_k: float) -> ScenarioConfig:
    """Units of two tested every ``interval_k`` days from per-person random
    phases, analysed from the true primary over a maximal window: the
    regime of the infrequent-testing closed forms."""
    return ScenarioConfig(
        unit=UnitConfig(unit_size=2, duration=d,
                        transmission_mode=TransmissionMode.PER_DAY_HAZARD),
        policy=TestingPolicy.scheduled(interval_k), index_rule="true_primary")


def symptom_reference(s: SymptomModelParams,
                      d: DurationModelParams | None = None) -> ScenarioConfig:
    """Units of four under symptom-prompted testing, analysed from the true
    primary over a maximal window: the regime of the symptom-prompted
    closed forms."""
    return ScenarioConfig(
        unit=UnitConfig(symptom=s, duration=d or DurationModelParams(),
                        transmission_mode=TransmissionMode.PER_UNIT_BERNOULLI),
        index_rule="true_primary")


# --- figure sweeps -----------------------------------------------------------

# One cell per row, in row order: (delta, target VE) for figure 1a and
# (target VE, interval k) for figures 1b and A1. Figure 1b keeps the
# intervals below rho1 + c = 15 days, where the interval still changes the
# observed estimand; A1 extends the axis to the plateau.
FIGURE_GRIDS = {
    "1a": tuple((delta, round(0.02 * i, 2))
                for delta in (0.0, 0.25, 0.5, 0.75, 1.0) for i in range(51)),
    "1b": tuple((target, float(k)) for target in (0.5, 0.6, 0.7, 0.8, 0.9)
                for k in range(1, 15)),
    "a1": tuple((target, float(k)) for target in (0.5, 0.6, 0.7, 0.8, 0.9)
                for k in range(1, 31)),
}


def _figure_cell(figure: str, cell: tuple[float, float]
                 ) -> tuple[Optional[ScenarioConfig], dict]:
    """The reference config of one figure cell, built from the package
    defaults, and the row's axis columns. The config is ``None`` where no
    ``nu`` in [0, 1] reaches the target VE."""
    if figure == "1a":
        delta, target = cell
        s = SymptomModelParams()
        columns = dict(sweep_param="target_ve", sweep_value=target,
                       delta=delta, one_minus_delta=1.0 - delta,
                       target_ve=target)
        try:
            nu = estimands.invert_target_to_nu(target, s.lambda_symptom,
                                               delta, s.rho_symptom)
        except estimands.InfeasibleTargetError:
            return None, columns
        return symptom_reference(replace(s, delta=delta, nu=nu)), columns
    target, k = cell
    d = DurationModelParams()
    d = replace(d, nu_daily=(1.0 - target) / d.duration_ratio)
    return scheduled_reference(d, k), dict(sweep_param="interval_k",
                                           sweep_value=k, interval_k=k,
                                           target_ve=target)


def sweep_figure(figure: str, units_per_arm: int = 0,
                 seed: int = 0) -> list[ResultRow]:
    """One row per cell of ``FIGURE_GRIDS[figure]``: target VE against the
    observed VE of the cell's reference config.

    Figure 1a solves ``nu`` from the target VE under symptom-prompted
    testing; cells needing ``nu > 1`` are emitted as ``feasible = 0`` rows,
    not dropped. Figures 1b and A1 solve the daily hazard ratio from the
    target VE under testing every ``k`` days. ``units_per_arm > 0`` adds
    the Monte Carlo columns from a cohort-engine run, row ``i`` drawing
    from the stream of ``(seed, i)`` on the worker pool of
    :func:`_parallel_map`, so the bytes do not depend on the worker count.
    A row whose estimate is undefined raises ``EstimationError``.
    """
    scenario_id = f"figure_{figure}"

    def run_row(args) -> ResultRow:
        row_index, cell = args
        cfg, columns = _figure_cell(figure, cell)
        if cfg is None:
            return ResultRow(scenario_id, feasible=0, **columns)
        actual = _analytic_columns(cfg)[1]
        if units_per_arm <= 0:
            return ResultRow(scenario_id, actual_ve_analytic=actual, **columns)
        counts = run_cohort(cfg, units_per_arm, spawn_rng(seed, row_index))
        return ResultRow(scenario_id, actual_ve_analytic=actual, **columns,
                         **_mc_columns(units_per_arm, counts.observed_ratio(),
                                       counts.excluded))

    return _parallel_map(run_row, list(enumerate(FIGURE_GRIDS[figure])))
