import inspect
import math
import os
from collections import Counter
import re
import threading
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from sarbias import (ScenarioConfig, harness, parse_config, run_cohort,
                     run_scenario, run_validation_suite, validation)
from sarbias.harness import (_KEYS, CSV_COLUMNS, ConfigError, _analytic_columns,
                             _finite, _parallel_map, _workers, apply_axis,
                             fmt12, load_config, rows_to_csv, spawn_rng,
                             sweep_figure, write_csv)
from sarbias.infer import StudyDesignFilter, WindowAnchor, analyze_unit
from sarbias.observe import PolicyKind, TestingPolicy
from sarbias.simcore import TransmissionMode, UnitConfig

GOOD_CONFIG = """
# symptom-prompted demonstration scenario
scenario.id = demo
scenario.seed = 42
scenario.units_per_arm = 500
scenario.index_rule = true_primary
unit.size = 4
unit.transmission_mode = per_unit_bernoulli
symptom.lambda_symptom = 0.2
symptom.delta = 0.5
symptom.nu = 0.6
symptom.rho_symptom = 0.5
policy.kind = symptom_prompted
filter.window_lo = -60
filter.window_hi = 60
"""


SCHEDULED_CONFIG = """
scenario.seed = 7
scenario.index_rule = true_primary
unit.size = 2
unit.transmission_mode = per_day_hazard
policy.kind = scheduled
policy.interval_days = 10
"""


class TestParseConfig:
    def test_happy_path(self):
        cfg = parse_config(GOOD_CONFIG)
        assert cfg.scenario_id == "demo"
        assert cfg.seed == 42
        assert cfg.unit.symptom.delta == 0.5
        assert cfg.policy.kind is PolicyKind.SYMPTOM_PROMPTED
        assert cfg.design.attribution_window == (-60.0, 60.0)
        assert cfg.index_rule == "true_primary"

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="scenario.seed is required"):
            parse_config("scenario.id = x")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'scenario.sed'"):
            parse_config("scenario.sed = 1")

    def test_threads_key_removed(self):
        # The object pipeline runs serially; a worker count is an error,
        # not a setting that is silently ignored.
        with pytest.raises(ConfigError, match="unknown key 'scenario.threads'"):
            parse_config("scenario.seed = 1\nscenario.threads = 2")

    def test_primary_vaccination_key_removed(self):
        # Each arm fixes the primary's vaccination, so a share would be
        # silently overwritten; setting it is an error.
        with pytest.raises(ConfigError,
                           match="unknown key 'unit.p_primary_vaccinated'"):
            parse_config("scenario.seed = 1\nunit.p_primary_vaccinated = 0.9")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="duration.rho0"):
            parse_config("scenario.seed = 1\nduration.rho0 = fourteen")

    def test_bad_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("scenario.seed = 1\nnot a key value line")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("scenario.seed = 1\nscenario.seed = 2")

    def test_bad_enum_values(self):
        with pytest.raises(ConfigError, match="policy.kind"):
            parse_config("scenario.seed = 1\npolicy.kind = oracular")
        with pytest.raises(ConfigError, match="transmission_mode"):
            parse_config("scenario.seed = 1\nunit.transmission_mode = magic")
        with pytest.raises(ConfigError, match="filter.anchor"):
            parse_config("scenario.seed = 1\nfilter.anchor = moon")

    def test_invalid_parameter_bundle_reported(self):
        with pytest.raises(ConfigError, match="rho1"):
            parse_config("scenario.seed = 1\nduration.rho1 = 40")

    def test_filter_preset(self):
        cfg = parse_config("scenario.seed = 1\nfilter.preset = harris")
        assert cfg.design.attribution_window == (2.0, 14.0)
        with pytest.raises(ConfigError, match="preset"):
            parse_config("scenario.seed = 1\nfilter.preset = harris\n"
                         "filter.window_lo = 0")
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("scenario.seed = 1\nfilter.preset = nonesuch")

    def test_maximal_preset_is_the_default_filter(self):
        assert StudyDesignFilter.maximal() == StudyDesignFilter()
        assert (parse_config("scenario.seed = 1\nfilter.preset = maximal")
                == parse_config("scenario.seed = 1"))

    def test_filter_anchor_and_coprimary(self):
        cfg = parse_config("scenario.seed = 1\nfilter.anchor = onset_time\n"
                           "filter.coprimary_days = 2")
        assert cfg.design.anchor is WindowAnchor.ONSET_TIME
        assert cfg.design.coprimary_exclusion_days == 2.0

    def test_sweep_grid(self):
        cfg = parse_config("scenario.seed = 1\nsweep.axis = symptom.delta\n"
                           "sweep.grid = 0.25, 0.5, 0.75")
        assert cfg.sweep_axis == "symptom.delta"
        assert cfg.sweep_grid == (0.25, 0.5, 0.75)

    def test_sweep_axis_without_grid(self):
        with pytest.raises(ConfigError, match="sweep.grid"):
            parse_config("scenario.seed = 1\nsweep.axis = symptom.delta")

    def test_sweep_grid_without_axis(self):
        with pytest.raises(ConfigError, match="sweep.axis is not set"):
            parse_config("scenario.seed = 1\nsweep.grid = 0.25, 0.5")

    @pytest.mark.parametrize("lines, match", [
        ("policy.interval_days = 7", "policy: .* interval_days = 7"),
        ("policy.kind = scheduled\npolicy.interval_days = 7\n"
         "policy.delay_days = 3", "policy: .* delay_days = 3"),
        ("sweep.axis = policy.interval_days\nsweep.grid = 3, 7",
         "sweep.grid: .* interval_days = 3"),
    ])
    def test_policy_fields_the_kind_does_not_read(self, lines, match):
        with pytest.raises(ConfigError, match=match):
            parse_config("scenario.seed = 1\n" + lines)

    def test_byte_order_mark_skipped(self, tmp_path):
        # Editors that save "UTF-8 with BOM" put U+FEFF before the first key.
        text = "scenario.seed = 42\nscenario.id = caf\u00e9\n"
        plain, marked, latin = (tmp_path / name for name in
                                ("plain.cfg", "marked.cfg", "latin1.cfg"))
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert load_config(str(marked)) == load_config(str(plain)) == (
            parse_config(text))
        latin.write_bytes(b"\xef\xbb\xbf" + text.encode("latin-1"))
        with pytest.raises(ConfigError, match="is not UTF-8 text"):
            load_config(str(latin))


class TestApplyAxis:
    def test_nested_paths(self):
        cfg = ScenarioConfig(seed=1)
        swept = apply_axis(cfg, "symptom.delta", 0.9)
        assert swept.unit.symptom.delta == 0.9
        assert cfg.unit.symptom.delta == 0.5  # original untouched
        swept = apply_axis(cfg, "duration.nu_daily", 0.3)
        assert swept.unit.duration.nu_daily == 0.3
        swept = apply_axis(cfg, "unit.community_daily_hazard", 0.02)
        assert swept.unit.community_daily_hazard == 0.02
        swept = apply_axis(replace(cfg, policy=cfg.policy), "policy.delay_days", 2.0)
        assert swept.policy.delay_days == 2.0

    def test_unknown_axis(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            apply_axis(ScenarioConfig(seed=1), "symptom.zeta", 0.5)
        # Axes are config keys, not field paths.
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            apply_axis(ScenarioConfig(seed=1), "unit.symptom.delta", 0.5)

    @pytest.mark.parametrize("axis, designs", [
        ("filter.window_lo", [StudyDesignFilter(attribution_window=(0.0, 60.0)),
                              StudyDesignFilter(attribution_window=(7.0, 60.0))]),
        ("filter.window_hi", [StudyDesignFilter(attribution_window=(-60.0, 0.0)),
                              StudyDesignFilter(attribution_window=(-60.0, 7.0))]),
        ("filter.coprimary_days", [StudyDesignFilter(coprimary_exclusion_days=0.0),
                                   StudyDesignFilter(coprimary_exclusion_days=7.0)]),
    ])
    def test_filter_keys_are_axes(self, axis, designs):
        cfg = parse_config("scenario.seed = 1\nscenario.units_per_arm = 200\n"
                           f"sweep.axis = {axis}\nsweep.grid = 0, 7\n")
        assert [apply_axis(cfg, axis, v).design for v in cfg.sweep_grid] == designs
        rows = run_scenario(cfg)
        assert [(r.sweep_param, r.sweep_value) for r in rows] == [
            (axis, 0.0), (axis, 7.0)]


FLOAT_KEYS = (
    "unit.incubation_mean_days", "unit.incubation_log_sd",
    "unit.community_daily_hazard", "unit.followup_days",
    "symptom.lambda_symptom", "symptom.delta", "symptom.nu",
    "symptom.rho_symptom", "symptom.tau", "duration.rho0", "duration.rho1",
    "duration.c", "duration.nu_daily", "duration.tau0", "policy.delay_days",
    "policy.interval_days", "policy.participation", "policy.horizon_days",
    "filter.window_lo", "filter.window_hi", "filter.coprimary_days",
)
BASES = ("scenario.seed = 1\n",
         "scenario.seed = 1\npolicy.kind = symptom_plus_scheduled\n"
         "policy.interval_days = 7\n")
FLOATS = st.one_of(st.floats(), st.floats(-1.0, 70.0),
                   st.integers(-1, 20).map(float),
                   st.sampled_from((math.nan, math.inf, -math.inf)))


class TestOneKeyPath:
    """Parsing and sweeping set a key's field through the same path."""

    def test_float_keys_are_the_sweep_axes(self):
        assert len(_KEYS) == 36
        assert tuple(k for k, (_, reader) in _KEYS.items()
                     if reader is _finite) == FLOAT_KEYS

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @given(base=st.sampled_from(BASES), value=FLOATS)
    def test_apply_axis_equals_parsed_key(self, key, base, value):
        assume(key not in base)
        try:
            swept = apply_axis(parse_config(base), key, value)
        except ConfigError:
            swept = None
        try:
            parsed = parse_config(base + f"{key} = {value!r}\n")
        except ConfigError:
            parsed = None
        assert swept == parsed

    @given(lines=st.lists(st.tuples(
        st.one_of(st.sampled_from(tuple(_KEYS)), st.text(max_size=12)),
        st.one_of(st.text(max_size=12), FLOATS.map(repr),
                  st.integers().map(str),
                  st.sampled_from(("true", "no", "harris", "scheduled",
                                   "onset_time", "per_day_hazard",
                                   "symptom.delta", "0.25, 0.5")))),
        max_size=8), seeded=st.booleans())
    def test_random_lines_parse_or_raise_config_error(self, lines, seeded):
        text = "\n".join(f"{key} = {value}" for key, value in lines)
        try:
            cfg = parse_config("scenario.seed = 1\n" * seeded + text)
        except ConfigError:
            return
        assert isinstance(cfg, ScenarioConfig)


def test_readme_lists_every_config_key():
    # The key table under "### Every key" in README.md, one row per key.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Every key\n", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert len(documented) == len(set(documented))
    assert set(documented) == set(_KEYS)


@pytest.mark.parametrize("build, field_name", [
    (lambda v: UnitConfig(incubation_mean_days=v), "incubation_mean_days"),
    (lambda v: UnitConfig(incubation_log_sd=v), "incubation_log_sd"),
    (lambda v: UnitConfig(community_daily_hazard=v), "community_daily_hazard"),
    (lambda v: UnitConfig(followup_days=v), "followup_days"),
    (lambda v: StudyDesignFilter(attribution_window=(v, 14.0)),
     "attribution_window"),
    (lambda v: StudyDesignFilter(attribution_window=(-60.0, v)),
     "attribution_window"),
    (lambda v: StudyDesignFilter(coprimary_exclusion_days=v),
     "coprimary_exclusion_days"),
    (lambda v: TestingPolicy.symptom_prompted(delay_days=v), "delay_days"),
], ids=["incubation-mean", "incubation-log-sd", "community", "followup",
        "window-lo", "window-hi", "coprimary", "delay"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_fields_rejected_in_code(build, field_name, value):
    with pytest.raises(ValueError, match=field_name):
        build(value)


class TestFormatting:
    def test_fmt12(self):
        assert fmt12(0.4634615384615385) == "0.463461538462"
        assert fmt12(1.0) == "1"
        assert fmt12(float("nan")) == "nan"
        assert fmt12(8 / 15) == "0.533333333333"

    def test_csv_layout(self):
        rows = sweep_figure("a1")[:3]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("scenario_id,sweep_param,sweep_value")
        assert len(lines) == 4
        assert text.endswith("\n")


class TestRunScenario:
    def test_zero_units_header_only(self, tmp_path):
        cfg = parse_config(GOOD_CONFIG)
        rows = run_scenario(replace(cfg, units_per_arm=0))
        assert rows == []
        out = tmp_path / "empty.csv"
        write_csv(rows, str(out))
        assert out.read_text().count("\n") == 1

    def test_deterministic(self):
        cfg = parse_config(GOOD_CONFIG)
        assert rows_to_csv(run_scenario(cfg)) == rows_to_csv(run_scenario(cfg))

    def test_analytic_columns_for_symptom_regime(self):
        cfg = parse_config(GOOD_CONFIG)
        (row,) = run_scenario(cfg)
        assert row.target_ve == pytest.approx(0.56, abs=1e-12)
        assert row.actual_ve_analytic == pytest.approx(0.4, abs=1e-12)
        assert not math.isnan(row.actual_ve_mc)

    def test_sweep_rows_follow_grid(self):
        cfg = parse_config(GOOD_CONFIG + "sweep.axis = symptom.delta\n"
                                         "sweep.grid = 0.5, 1.0\n")
        rows = run_scenario(replace(cfg, units_per_arm=200))
        assert [r.sweep_value for r in rows] == [0.5, 1.0]
        assert rows[1].target_ve == pytest.approx(1 - 0.6, abs=1e-12)

    @pytest.mark.parametrize("text", [
        # Harris: units of four tested every 7 days, some dropped as
        # co-primary, some without an index.
        "scenario.seed = 11\nscenario.units_per_arm = 600\nunit.size = 4\n"
        "unit.transmission_mode = per_day_hazard\npolicy.kind = scheduled\n"
        "policy.interval_days = 7\npolicy.participation = 0.8\n"
        "filter.preset = harris\n",
        GOOD_CONFIG + "filter.coprimary_days = 1\n"
        "sweep.axis = symptom.delta\nsweep.grid = 0.25, 1.0\n",
    ], ids=["harris", "two-row-sweep"])
    def test_exclusion_columns_tally_the_analyses(self, text, monkeypatch):
        analyses = []

        def recording(*args, **kwargs):
            analyses.append(analyze_unit(*args, **kwargs))
            return analyses[-1]

        monkeypatch.setattr(harness, "analyze_unit", recording)
        cfg = parse_config(text)
        rows = run_scenario(cfg)
        per_row = 2 * cfg.units_per_arm
        assert len(analyses) == per_row * len(rows)
        for i, row in enumerate(rows):
            tally = Counter(a.exclusion_reason
                            for a in analyses[i * per_row:(i + 1) * per_row]
                            if a.excluded)
            assert (row.n_excluded_no_index, row.n_excluded_coprimary) == (
                tally["no_index"], tally["coprimary"])
            assert tally["no_index"] > 0 and tally["coprimary"] > 0
            assert sum(tally.values()) < per_row

    def test_scheduled_regime_analytic_columns(self):
        text = ("scenario.seed = 7\nscenario.units_per_arm = 300\n"
                "scenario.index_rule = true_primary\n"
                "unit.size = 2\nunit.transmission_mode = per_day_hazard\n"
                "policy.kind = scheduled\npolicy.interval_days = 7\n")
        (row,) = run_scenario(parse_config(text))
        assert row.interval_k == 7.0
        assert row.target_ve == pytest.approx(0.6, abs=1e-12)


def _changing(section: str, changes: dict):
    """A perturbation setting ``changes`` on ``section`` of a scenario (the
    scenario itself when empty); ``fields`` names the paths it sets."""
    def change(c):
        if not section:
            return replace(c, **changes)
        return replace(c, **{section: replace(getattr(c, section), **changes)})
    change.fields = {f"{section}.{name}" if section else name for name in changes}
    return change


def _scenario(**changes):
    return _changing("", changes)


def _policy(**changes):
    return _changing("policy", changes)


def _design(**changes):
    return _changing("design", changes)


def _unit(**changes):
    return _changing("unit", changes)


REFERENCES = [parse_config(GOOD_CONFIG),
              parse_config(SCHEDULED_CONFIG.replace("= 10", "= 7"))]
GENERATIVE = [
    ("community", _unit(community_daily_hazard=0.02)),
    ("chains", _unit(contact_to_contact=True)),
    ("vaccinated-contacts", _unit(contacts_vaccinated=True)),
    ("exact-hazard", _unit(transmission_mode=TransmissionMode.PER_DAY_HAZARD_EXACT)),
]
ANALYSIS = [
    ("index-rule", _scenario(index_rule="earliest_positive")),
    ("window", _design(attribution_window=(-60.0, 14.0))),
    ("coprimary", _design(coprimary_exclusion_days=2.0)),
    ("tested-contacts", _design(require_contact_tested=True)),
    ("anchor", _design(anchor=WindowAnchor.ONSET_TIME)),
    ("participation", _policy(participation=0.9)),
    ("horizon", _policy(horizon_days=30.0)),
]
ANALYSIS_BY_KIND = {
    "symptom": [("delay", _policy(delay_days=1.0))],
    "scheduled": [("shared-phase", _policy(shared_phase=True)),
                  ("fixed-phase", _policy(fixed_phase=0.0))],
}
# Config fields that no perturbation above covers: those the closed forms
# read as the row's own parameters, and those they do not read.
ROW_PARAMETERS = {"unit.symptom", "unit.duration", "policy.kind",
                  "policy.interval_days"}
NOT_READ = {"scenario_id", "units_per_arm", "seed", "sweep_axis",
            "sweep_grid", "unit.unit_size", "unit.p_primary_vaccinated",
            "unit.incubation_mean_days", "unit.incubation_log_sd",
            "unit.followup_days"}


class TestAnalyticColumns:
    """The closed forms fill a row only where their model holds: the
    target needs their generative model, the observed VE their analysis
    too."""

    @pytest.mark.parametrize("cfg", REFERENCES, ids=["symptom", "scheduled"])
    def test_reference_configs_filled(self, cfg):
        target, actual = _analytic_columns(cfg)
        assert not math.isnan(target) and not math.isnan(actual)

    @pytest.mark.parametrize("change", [change for _, change in GENERATIVE],
                             ids=[name for name, _ in GENERATIVE])
    @pytest.mark.parametrize("cfg", REFERENCES, ids=["symptom", "scheduled"])
    def test_generative_fields_drop_both(self, cfg, change):
        assert all(math.isnan(v) for v in _analytic_columns(change(cfg)))

    @pytest.mark.parametrize("cfg, change", [
        pytest.param(cfg, change, id=f"{kind}-{name}")
        for kind, cfg in zip(ANALYSIS_BY_KIND, REFERENCES)
        for name, change in ANALYSIS + ANALYSIS_BY_KIND[kind]])
    def test_analysis_fields_drop_observed(self, cfg, change):
        target, actual = _analytic_columns(change(cfg))
        assert target == _analytic_columns(cfg)[0]
        assert math.isnan(actual)

    def test_every_config_field_classified(self):
        # A field added to a config must be perturbed above or listed as
        # a row parameter or as not read, so that it cannot leave the
        # analytic columns filled unnoticed.
        sections = {"unit": UnitConfig, "policy": TestingPolicy,
                    "design": StudyDesignFilter}
        paths = set()
        for f in fields(ScenarioConfig):
            section = sections.get(f.name)
            paths |= ({f"{f.name}.{g.name}" for g in fields(section)}
                      if section else {f.name})
        perturbed = set().union(*(
            change.fields for _, change in GENERATIVE + ANALYSIS
            + sum(ANALYSIS_BY_KIND.values(), [])))
        listed = ROW_PARAMETERS | NOT_READ
        assert not perturbed & listed
        assert paths - perturbed - listed == set()
        assert (perturbed | listed) - paths == set()


class TestRngStreamPinned:
    """Pinned CSV bytes of two small scenarios. Any change to how the
    pipeline consumes its random streams changes them, so such a change
    must update these bytes on purpose."""

    HEADER = ",".join(CSV_COLUMNS) + "\n"

    def test_scheduled_harris(self):
        text = ("scenario.id = scheduled_harris\nscenario.seed = 11\n"
                "scenario.units_per_arm = 500\nunit.size = 4\n"
                "unit.transmission_mode = per_day_hazard\n"
                "policy.kind = scheduled\npolicy.interval_days = 7\n"
                "policy.participation = 0.8\nfilter.preset = harris\n")
        assert rows_to_csv(run_scenario(parse_config(text))) == self.HEADER + (
            "scheduled_harris,,nan,7,0.5,0.5,0.6,nan,0.487202835865,"
            "0.0986533937599,500,216,29,1\n")

    def test_symptom_lyngse(self):
        text = ("scenario.id = symptom_lyngse\nscenario.seed = 12\n"
                "scenario.units_per_arm = 500\nunit.size = 8\n"
                "unit.transmission_mode = per_unit_bernoulli\n"
                "policy.kind = symptom_prompted\nfilter.preset = lyngse\n")
        assert rows_to_csv(run_scenario(parse_config(text))) == self.HEADER + (
            "symptom_lyngse,,nan,nan,0.5,0.5,0.56,nan,0.0312925170068,"
            "0.314401685123,500,511,9,1\n")

    def test_shared_phase_exact_hazard_sweep(self):
        # Shared schedule phase, symptom tests with a delay, opt-outs,
        # vaccinated contacts, exact-hazard transmission times, two rows.
        text = ("scenario.id = household_mixed\nscenario.seed = 13\n"
                "scenario.units_per_arm = 400\nunit.size = 5\n"
                "unit.contacts_vaccinated = true\n"
                "unit.transmission_mode = per_day_hazard_exact\n"
                "duration.tau0 = 0.03\n"
                "policy.kind = symptom_plus_scheduled\npolicy.interval_days = 5\n"
                "policy.delay_days = 1.5\npolicy.shared_phase = true\n"
                "policy.participation = 0.9\nfilter.preset = eyre\n"
                "sweep.axis = duration.nu_daily\nsweep.grid = 0.3, 0.6\n")
        assert rows_to_csv(run_scenario(parse_config(text))) == self.HEADER + (
            "household_mixed,duration.nu_daily,0.3,5,0.5,0.5,nan,nan,"
            "0.762304026088,0.0341488694906,400,61,0,1\n"
            "household_mixed,duration.nu_daily,0.6,5,0.5,0.5,nan,nan,"
            "0.509171708966,0.0484186250957,400,66,0,1\n")

    def test_chains_and_community(self):
        # Contact-to-contact pushes while the heap drains, and community
        # acquisitions drawn before the primary transmits.
        text = ("scenario.id = chains_community\nscenario.seed = 14\n"
                "scenario.units_per_arm = 400\nunit.size = 6\n"
                "unit.contact_to_contact = true\n"
                "unit.community_daily_hazard = 0.004\n"
                "unit.transmission_mode = per_unit_bernoulli\n"
                "policy.kind = symptom_prompted\npolicy.delay_days = 1\n"
                "filter.preset = harris\n")
        assert rows_to_csv(run_scenario(parse_config(text))) == self.HEADER + (
            "chains_community,,nan,nan,0.5,0.5,nan,nan,-0.148351648352,"
            "0.491089352197,400,236,132,1\n")


class TestMcOracle:
    def test_symptom_dispatch_matches_analytic(self):
        cfg = parse_config(GOOD_CONFIG)
        mc = run_cohort(cfg, 200_000, spawn_rng(5)).observed_ratio()
        assert abs(mc.ve - 0.4) <= 3 * mc.se

    def test_scheduled_dispatch(self):
        cfg = parse_config(SCHEDULED_CONFIG)
        mc = run_cohort(cfg, 200_000, spawn_rng(6)).observed_ratio()
        from sarbias import infrequent_observed_mu
        assert abs(mc.mu_ratio - infrequent_observed_mu(10.0, cfg.unit.duration)) \
            <= 3 * mc.se

    @pytest.mark.parametrize("field_name, change", [
        ("sweep_axis",
         lambda c: replace(c, sweep_axis="policy.interval_days",
                           sweep_grid=(3.0, 7.0))),
    ])
    def test_ignored_scheduled_fields_rejected(self, field_name, change):
        cfg = parse_config(SCHEDULED_CONFIG)
        run_cohort(cfg, 10_000, spawn_rng(1))  # the unchanged config is modelled
        with pytest.raises(ValueError, match=f"does not model {field_name} ="):
            run_cohort(change(cfg), 10_000, spawn_rng(1))


class TestFigureSweeps:
    def test_fig1a_delta_one_rows_agree_exactly(self):
        rows = [r for r in sweep_figure("1a") if r.delta == 1.0]
        assert rows
        for row in rows:
            assert row.feasible == 1
            assert abs(row.actual_ve_analytic - row.target_ve) <= 1e-12

    def test_fig1a_reference_row(self):
        (row,) = [r for r in sweep_figure("1a")
                  if r.delta == 0.5 and r.target_ve == 0.56]
        assert row.actual_ve_analytic == pytest.approx(0.40, abs=1e-12)
        assert row.one_minus_delta == 0.5

    def test_fig1a_infeasible_rows_flagged_not_dropped(self):
        rows = [r for r in sweep_figure("1a")
                if r.delta == 0.5 and r.target_ve in (0.0, 0.2, 0.9)]
        assert [r.feasible for r in rows] == [0, 0, 1]
        assert math.isnan(rows[0].actual_ve_analytic)

    def test_fig1b_restricted_to_short_intervals(self):
        rows = sweep_figure("1b")
        assert max(r.interval_k for r in rows) < 15.0
        assert all(r.scenario_id == "figure_1b" for r in rows)

    def test_fig1b_daily_testing_agrees_with_target(self):
        rows = [r for r in sweep_figure("a1")
                if r.interval_k == 1.0 and r.feasible]
        assert rows
        for row in rows:
            assert abs(row.actual_ve_analytic - row.target_ve) <= 1e-12

    def test_figa1_plateau_rows_identical(self):
        rows = [r for r in sweep_figure("a1")
                if r.target_ve == 0.6 and r.interval_k in (25.0, 30.0)]
        assert len(rows) == 2
        assert rows[0].actual_ve_analytic == rows[1].actual_ve_analytic

    def test_mc_columns_within_3se(self):
        rows = [r for r in sweep_figure("a1", units_per_arm=40_000, seed=9)
                if r.target_ve == 0.6 and r.interval_k in (7.0, 25.0)]
        assert len(rows) == 2
        for row in rows:
            assert row.mc_se > 0
            assert abs(row.actual_ve_mc - row.actual_ve_analytic) <= 3 * row.mc_se


class TestWorkerPool:
    def test_one_worker_per_core(self):
        assert _workers() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_results_and_first_error_in_task_order(self, workers, monkeypatch):
        monkeypatch.setattr(harness, "_workers", lambda: workers)
        assert _parallel_map(lambda x: x * x, list(range(20))) == [
            x * x for x in range(20)]
        # Task 1 fails only once task 3 has failed (when it runs at all).
        later_failed = threading.Event()

        def fail(i):
            if i == 3:
                later_failed.set()
                raise ValueError("task 3")
            if i == 1:
                later_failed.wait(timeout=1.0 if workers > 1 else 0.0)
                raise ValueError("task 1")
            return i

        with pytest.raises(ValueError, match="task 1"):
            _parallel_map(fail, list(range(6)))

    def test_validation_suite_same_at_any_worker_count(self, monkeypatch):
        results = []
        for workers in (1, 2, 8):
            monkeypatch.setattr(harness, "_workers", lambda: workers)
            results.append(run_validation_suite(units_per_arm=150_000))
        assert results[0] == results[1] == results[2]
        assert len(results[0]) == 25

    def test_no_generator_reaches_two_oracle_calls(self, monkeypatch):
        # Wrapped as the benchmark's tracer wraps them; the generators
        # themselves are kept, so a freed one's id cannot be reused.
        calls = Counter()
        generators = []

        def recording(name):
            oracle = getattr(validation, name)
            signature = inspect.signature(oracle)

            def call(*args, **kwargs):
                calls[name] += 1
                generators.append(
                    signature.bind(*args, **kwargs).arguments["rng"])
                return oracle(*args, **kwargs)
            return call

        for name in ("mc_infrequent_observed", "mc_symptom_prompted_ve",
                     "mc_fully_observed_naive", "mc_detection_fraction"):
            monkeypatch.setattr(validation, name, recording(name))
        run_validation_suite(units_per_arm=2_000)
        assert calls == {"mc_infrequent_observed": 11,
                         "mc_symptom_prompted_ve": 1,
                         "mc_fully_observed_naive": 1,
                         "mc_detection_fraction": 3}
        assert len({id(rng) for rng in generators}) == len(generators) == 16
