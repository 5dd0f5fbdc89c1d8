"""Scenario configuration, seeded sweeps, and CSV emission.

A scenario bundles a unit configuration, a testing policy, a study-design
filter, and replication settings. Scenarios come from flat ``key = value``
text files with dotted section names, chosen over nested formats because
they diff cleanly and pin the seed explicitly (wall-clock seeding is
rejected so every output is reproducible byte for byte).

Replication is deterministic: every task (sweep row, or fixed-size chunk
of units) draws from its own RNG stream spawned from ``(seed, task key)``,
so a config and seed fix the output bytes. The oracle sweeps fan their rows
out over an optional worker pool and reduce them in task order, so their
bytes do not depend on the worker count either.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from . import estimands
from .infer import (PRESET_FILTERS, EstimationError, StudyDesignFilter,
                    UnitAnalysis, WindowAnchor, analyze_unit, estimate_ve_sar)
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
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{float(x):.12g}"


def _parallel_map(fn: Callable, args: list, threads: int) -> list:
    if threads <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, a) for a in args]
        return [f.result() for f in futures]


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: generative model, observation, analysis, replication."""

    scenario_id: str = "scenario"
    unit: UnitConfig = field(default_factory=UnitConfig)
    policy: TestingPolicy = field(default_factory=TestingPolicy.symptom_prompted)
    design: StudyDesignFilter = field(default_factory=StudyDesignFilter.maximal)
    units_per_arm: int = 10_000
    seed: int = 0
    index_rule: str = "earliest_positive"  # or "true_primary"
    sweep_axis: Optional[str] = None
    sweep_grid: tuple[float, ...] = ()
    out_path: Optional[str] = None

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


def apply_axis(cfg: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """Return a copy of ``cfg`` with the dotted ``axis`` field replaced.

    ``symptom.*`` and ``duration.*`` are aliases into ``unit.symptom`` and
    ``unit.duration``.
    """
    path = axis.split(".")
    if path[0] in ("symptom", "duration"):
        path = ["unit"] + path
    obj_chain = [cfg]
    for name in path[:-1]:
        parent = obj_chain[-1]
        if not any(f.name == name for f in fields(parent)):
            raise ConfigError(f"unknown sweep axis {axis!r}")
        obj_chain.append(getattr(parent, name))
    leaf_parent = obj_chain[-1]
    leaf = path[-1]
    if not any(f.name == leaf for f in fields(leaf_parent)):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    updated = replace(leaf_parent, **{leaf: value})
    for name, parent in zip(reversed(path[:-1]), reversed(obj_chain[:-1])):
        updated = replace(parent, **{name: updated})
    return updated


# --- config file parsing ---------------------------------------------------

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


_KIND_NAMES = {"float": "a finite float", "floats": "finite floats"}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _cast(key: str, raw: str, kind: str):
    try:
        if kind == "float":
            return _finite(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            return _BOOL[raw.lower()]
        if kind == "floats":
            return tuple(_finite(v) for v in raw.split(",") if v.strip())
        return raw
    except (ValueError, KeyError):
        raise ConfigError(f"{key}: cannot parse {raw!r} as "
                          f"{_KIND_NAMES.get(kind, kind)}") from None


_KEY_KINDS = {
    "scenario.id": "str", "scenario.seed": "int",
    "scenario.units_per_arm": "int", "scenario.out": "str",
    "scenario.index_rule": "str",
    "unit.size": "int", "unit.contacts_vaccinated": "bool",
    "unit.incubation_mean_days": "float", "unit.incubation_log_sd": "float",
    "unit.community_daily_hazard": "float", "unit.contact_to_contact": "bool",
    "unit.transmission_mode": "str", "unit.followup_days": "float",
    "symptom.lambda_symptom": "float", "symptom.delta": "float",
    "symptom.nu": "float", "symptom.rho_symptom": "float", "symptom.tau": "float",
    "duration.rho0": "float", "duration.rho1": "float", "duration.c": "float",
    "duration.nu_daily": "float", "duration.tau0": "float",
    "policy.kind": "str", "policy.delay_days": "float",
    "policy.interval_days": "float", "policy.participation": "float",
    "policy.shared_phase": "bool", "policy.horizon_days": "float",
    "filter.preset": "str", "filter.window_lo": "float",
    "filter.window_hi": "float", "filter.coprimary_days": "float",
    "filter.require_contact_tested": "bool", "filter.anchor": "str",
    "sweep.axis": "str", "sweep.grid": "floats",
}


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

    unknown = sorted(set(raw) - set(_KEY_KINDS))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    vals = {k: _cast(k, v, _KEY_KINDS[k]) for k, v in raw.items()}

    if "scenario.seed" not in vals:
        raise ConfigError("scenario.seed is required (wall-clock seeding is "
                          "not supported)")

    def section(prefix: str) -> dict:
        return {k.split(".", 1)[1]: v for k, v in vals.items()
                if k.startswith(prefix + ".")}

    try:
        symptom = SymptomModelParams(**section("symptom"))
        duration = DurationModelParams(**section("duration"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    unit_kwargs = section("unit")
    if "size" in unit_kwargs:
        unit_kwargs["unit_size"] = unit_kwargs.pop("size")
    if "transmission_mode" in unit_kwargs:
        try:
            unit_kwargs["transmission_mode"] = TransmissionMode(
                unit_kwargs["transmission_mode"])
        except ValueError:
            raise ConfigError("unit.transmission_mode: unknown mode "
                              f"{unit_kwargs['transmission_mode']!r}") from None
    try:
        unit = UnitConfig(symptom=symptom, duration=duration, **unit_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"unit: {exc}") from None

    policy_kwargs = section("policy")
    kind_raw = policy_kwargs.pop("kind", "symptom_prompted")
    try:
        kind = PolicyKind(kind_raw)
    except ValueError:
        raise ConfigError(f"policy.kind: unknown kind {kind_raw!r}") from None
    try:
        policy = TestingPolicy(kind=kind, **policy_kwargs)
    except ValueError as exc:
        raise ConfigError(f"policy: {exc}") from None

    filter_kwargs = section("filter")
    preset = filter_kwargs.pop("preset", None)
    if preset is not None:
        if filter_kwargs:
            raise ConfigError("filter.preset cannot be combined with other "
                              "filter.* keys")
        if preset not in PRESET_FILTERS:
            raise ConfigError(f"filter.preset: unknown preset {preset!r}; "
                              f"choose from {sorted(PRESET_FILTERS)}")
        design = PRESET_FILTERS[preset]()
    else:
        lo = filter_kwargs.pop("window_lo", -60.0)
        hi = filter_kwargs.pop("window_hi", 60.0)
        anchor_raw = filter_kwargs.pop("anchor", "test_time")
        try:
            anchor = WindowAnchor(anchor_raw)
        except ValueError:
            raise ConfigError(f"filter.anchor: unknown anchor {anchor_raw!r}") from None
        coprimary = filter_kwargs.pop("coprimary_days", None)
        try:
            design = StudyDesignFilter(attribution_window=(lo, hi),
                                       coprimary_exclusion_days=coprimary,
                                       anchor=anchor, **filter_kwargs)
        except ValueError as exc:
            raise ConfigError(f"filter: {exc}") from None

    axis = vals.get("sweep.axis")
    if axis is not None and _KEY_KINDS.get(axis) != "float":
        raise ConfigError(f"sweep.axis: {axis!r} is not a float key")
    try:
        cfg = ScenarioConfig(
            scenario_id=vals.get("scenario.id", "scenario"),
            unit=unit, policy=policy, design=design,
            units_per_arm=vals.get("scenario.units_per_arm", 10_000),
            seed=vals["scenario.seed"],
            index_rule=vals.get("scenario.index_rule", "earliest_positive"),
            sweep_axis=vals.get("sweep.axis"),
            sweep_grid=vals.get("sweep.grid", ()),
            out_path=vals.get("scenario.out"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for value in cfg.sweep_grid if axis else ():
        try:
            apply_axis(cfg, axis, value)
        except ValueError as exc:
            raise ConfigError(f"sweep.grid: {axis} = {value:g}: {exc}") from None
    return cfg


def load_config(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


# --- result rows and CSV ----------------------------------------------------

CSV_COLUMNS = (
    "scenario_id", "sweep_param", "sweep_value", "interval_k", "delta",
    "one_minus_delta", "target_ve", "actual_ve_analytic", "actual_ve_mc",
    "mc_se", "n_units", "n_excluded_no_index", "n_excluded_coprimary",
    "feasible",
)


@dataclass(frozen=True)
class ResultRow:
    """One CSV record; column order is :data:`CSV_COLUMNS`."""

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

    def to_csv_fields(self) -> list[str]:
        out = []
        for name in CSV_COLUMNS:
            value = getattr(self, name)
            if isinstance(value, str):
                out.append(value)
            elif isinstance(value, int):
                out.append(str(value))
            else:
                out.append(fmt12(value))
        return out


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(r.to_csv_fields()) for r in rows)
    return "\n".join(lines) + "\n"


def write_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))


# --- object-pipeline scenario runner ----------------------------------------

def _analytic_columns(cfg: ScenarioConfig) -> tuple[float, float]:
    """(target VE, analytic observed VE) where the closed forms hold, NaN
    elsewhere.

    The target needs the closed forms' generative model: the transmission
    mode they assume for the policy kind, no community or contact-to-contact
    infection, and unvaccinated contacts. The observed VE also needs their
    analysis: the true primary as index over a maximal window, no co-primary
    rule, every contact in the denominator, the test-time anchor, testing
    without opt-outs over the 60-day horizon, and symptom tests without
    delay or schedules from per-person random phases.
    """
    unit, policy, design = cfg.unit, cfg.policy, cfg.design
    if policy.kind is PolicyKind.SYMPTOM_PROMPTED:
        mode = TransmissionMode.PER_UNIT_BERNOULLI
    elif policy.kind is PolicyKind.SCHEDULED:
        mode = TransmissionMode.PER_DAY_HAZARD
    else:
        return math.nan, math.nan
    if (unit.transmission_mode is not mode or unit.community_daily_hazard > 0
            or unit.contact_to_contact or unit.contacts_vaccinated):
        return math.nan, math.nan
    s, d = unit.symptom, unit.duration
    lo, hi = design.attribution_window
    reference = (cfg.index_rule == "true_primary" and lo <= -60.0 and hi >= 60.0
                 and design.coprimary_exclusion_days is None
                 and not design.require_contact_tested
                 and design.anchor is WindowAnchor.TEST_TIME
                 and policy.participation >= 1.0 and policy.horizon_days == 60.0)
    if mode is TransmissionMode.PER_UNIT_BERNOULLI:
        target = 1.0 - estimands.symptom_prompted_target_mu(s)
        actual = 1.0 - estimands.symptom_prompted_actual_mu(s)
        reference = reference and policy.delay_days == 0.0
    else:
        target = 1.0 - estimands.infrequent_target_mu(d)
        actual = 1.0 - estimands.infrequent_observed_mu(policy.interval_days, d)
        reference = (reference and not policy.shared_phase
                     and policy.fixed_phase is None)
    return target, actual if reference else math.nan


def _chunk_sizes(total: int) -> list[int]:
    return [min(CHUNK_UNITS, total - start)
            for start in range(0, total, CHUNK_UNITS)]


def _run_chunk(cfg: ScenarioConfig, arm_vaccinated: bool,
               rng: np.random.Generator, n: int) -> list[UnitAnalysis]:
    unit_cfg = replace(cfg.unit,
                       p_primary_vaccinated=1.0 if arm_vaccinated else 0.0)
    analyses = []
    for _ in range(n):
        truth = simulate_unit(unit_cfg, rng)
        obs = apply_policy(truth, cfg.policy, rng)
        override = truth.primary_id if cfg.index_rule == "true_primary" else None
        analyses.append(analyze_unit(obs, cfg.design, index_id=override))
    return analyses


def run_scenario(cfg: ScenarioConfig) -> list[ResultRow]:
    """Run one scenario (optionally swept) through the object pipeline.

    Deterministic in ``(config, seed)``: re-running writes byte-identical
    CSV. ``units_per_arm = 0`` produces no rows (header-only CSV).
    """
    if cfg.units_per_arm == 0:
        return []
    grid = list(cfg.sweep_grid) if cfg.sweep_axis else [None]
    rows: list[ResultRow] = []
    for row_index, value in enumerate(grid):
        cfg_i = cfg if value is None else apply_axis(cfg, cfg.sweep_axis, value)
        analyses: list[UnitAnalysis] = []
        for arm_index, arm in enumerate((True, False)):
            for chunk_index, n in enumerate(_chunk_sizes(cfg.units_per_arm)):
                rng = spawn_rng(cfg.seed, row_index, arm_index, chunk_index)
                analyses.extend(_run_chunk(cfg_i, arm, rng, n))
        excluded = {}
        for a in analyses:
            if a.excluded:
                excluded[a.exclusion_reason] = excluded.get(a.exclusion_reason, 0) + 1
        try:
            estimate = estimate_ve_sar(analyses)
            ve_mc, se = estimate.ve, estimate.se
        except EstimationError:
            ve_mc, se = math.nan, math.nan
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
            actual_ve_mc=ve_mc, mc_se=se,
            n_units=cfg.units_per_arm,
            n_excluded_no_index=excluded.get("no_index", 0),
            n_excluded_coprimary=excluded.get("coprimary", 0),
        ))
    return rows


# --- reference configs of the closed forms -----------------------------------

def scheduled_reference(d: DurationModelParams, interval_k: float,
                        transmission: TransmissionMode = (
                            TransmissionMode.PER_DAY_HAZARD)) -> ScenarioConfig:
    """Units of two tested every ``interval_k`` days from per-person random
    phases, analysed from the true primary over a maximal window: the
    regime of the infrequent-testing closed forms."""
    return ScenarioConfig(
        unit=UnitConfig(unit_size=2, duration=d, transmission_mode=transmission),
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


def sweep_figure(figure: str, units_per_arm: int = 0, seed: int = 0,
                 threads: int = 1) -> list[ResultRow]:
    """One row per cell of ``FIGURE_GRIDS[figure]``: target VE against the
    observed VE of the cell's reference config.

    Figure 1a solves ``nu`` from the target VE under symptom-prompted
    testing; cells needing ``nu > 1`` are emitted as ``feasible = 0`` rows,
    not dropped. Figures 1b and A1 solve the daily hazard ratio from the
    target VE under testing every ``k`` days. ``units_per_arm > 0`` adds
    Monte Carlo columns from the cohort engine, row ``i`` drawing from the
    stream of ``(seed, i)``, so the bytes do not depend on ``threads``.
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
        mc = run_cohort(cfg, units_per_arm,
                        spawn_rng(seed, row_index)).observed_ratio()
        return ResultRow(scenario_id, actual_ve_analytic=actual,
                         actual_ve_mc=mc.ve, mc_se=mc.se,
                         n_units=units_per_arm, **columns)

    return _parallel_map(run_row, list(enumerate(FIGURE_GRIDS[figure])),
                         threads)
