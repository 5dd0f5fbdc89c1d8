"""Differential test: the cohort engine against the object pipeline.

Each cell is one config, run through ``run_scenario`` and through the
cohort engine, ``run_cohort`` on the stream ``spawn_rng(oracle seed)``.
The two sample the same process independently, so their VE estimates must
agree within three combined standard errors. The first six cells anchor on
the true primary; the others cover every design and testing field, one or
more per cell. ``tests/test_calibration.py`` checks on four of these cells
that the standard errors themselves are calibrated.
"""

import math
from dataclasses import replace

import pytest

from sarbias import parse_config, run_cohort, run_scenario
from sarbias.harness import spawn_rng

ORACLE_UNITS = 200_000

BASE = """
scenario.units_per_arm = {units}
unit.size = 4
"""
TRUE_PRIMARY = "scenario.index_rule = true_primary\n"
SCHEDULED = "policy.kind = scheduled\nunit.transmission_mode = "
SYMPTOM = ("policy.kind = symptom_prompted\n"
           "unit.transmission_mode = per_unit_bernoulli\n")
HAZARD = SCHEDULED + "per_day_hazard\npolicy.interval_days = "


def fixed_phase_zero(cfg):
    return replace(cfg, policy=replace(cfg.policy, fixed_phase=0.0))


# (config lines, pipeline units per arm, pipeline seed, oracle seed, change
# not expressible as a config key); seeds fixed up front.
CELLS = [
    pytest.param(TRUE_PRIMARY + HAZARD + "3\n", 20_000, 101, 201, None,
                 id="scheduled-k3"),
    pytest.param(TRUE_PRIMARY + HAZARD + "7\n", 20_000, 102, 202, None,
                 id="scheduled-k7"),
    pytest.param(TRUE_PRIMARY + HAZARD + "14\n", 20_000, 103, 203, None,
                 id="scheduled-k14"),
    pytest.param(TRUE_PRIMARY + SCHEDULED + "per_day_hazard_exact\n"
                 "policy.interval_days = 3\n", 20_000, 104, 204, None,
                 id="scheduled-exact-k3"),
    pytest.param(TRUE_PRIMARY + SYMPTOM, 20_000, 105, 205, None,
                 id="symptom-maximal"),
    pytest.param(TRUE_PRIMARY + SYMPTOM
                 + "filter.window_lo = 1\nfilter.window_hi = 7\n",
                 20_000, 106, 206, None, id="symptom-window-1-7"),
    # The tested-contact denominator the oracle once ignored (z = -8.8).
    pytest.param(TRUE_PRIMARY + SYMPTOM + "filter.preset = eyre\n",
                 10_000, 5, 5, None, id="eyre-symptom"),
    pytest.param("policy.kind = symptom_plus_scheduled\n"
                 "policy.interval_days = 7\npolicy.delay_days = 2\n"
                 "unit.transmission_mode = per_unit_bernoulli\n"
                 "filter.preset = gier\n", 10_000, 107, 207, None,
                 id="gier-symptom-plus-scheduled-delay"),
    pytest.param(HAZARD + "7\npolicy.participation = 0.8\n"
                 "filter.preset = harris\n", 10_000, 108, 208, None,
                 id="harris-scheduled-participation"),
    pytest.param("policy.kind = symptom_prompted\n"
                 "unit.transmission_mode = per_day_hazard\n"
                 "unit.contacts_vaccinated = true\nfilter.preset = lyngse\n",
                 10_000, 120, 220, None,
                 id="lyngse-symptom-hazard-vaccinated-contacts"),
    pytest.param(SYMPTOM + "policy.delay_days = 2\n"
                 "unit.community_daily_hazard = 0.01\nfilter.window_lo = 1\n"
                 "filter.window_hi = 7\nfilter.anchor = onset_time\n",
                 10_000, 121, 221, None, id="onset-anchor-community"),
    pytest.param(HAZARD + "5\npolicy.shared_phase = true\n"
                 "policy.horizon_days = 15\n", 10_000, 122, 222, None,
                 id="shared-phase-horizon-15"),
    pytest.param(HAZARD + "2\nfilter.preset = harris\n", 10_000, 112, 212,
                 fixed_phase_zero, id="fixed-phase-0-harris"),
    pytest.param(SCHEDULED + "per_unit_bernoulli\npolicy.interval_days = 3\n"
                 "unit.contact_to_contact = true\n", 10_000, 115, 215, None,
                 id="chains-bernoulli"),
    pytest.param(SCHEDULED + "per_day_hazard_exact\npolicy.interval_days = 2\n"
                 "unit.contact_to_contact = true\n"
                 "unit.community_daily_hazard = 0.005\n", 10_000, 117, 217,
                 None, id="exact-chains-community"),
    pytest.param(HAZARD + "7\npolicy.participation = 0.7\n"
                 "filter.preset = eyre\n", 10_000, 118, 218, None,
                 id="eyre-scheduled-participation"),
]


@pytest.mark.parametrize("lines, units, pipeline_seed, oracle_seed, change",
                         CELLS)
def test_oracle_matches_pipeline(lines, units, pipeline_seed, oracle_seed,
                                 change):
    cfg = parse_config(BASE.format(units=units) + lines
                       + f"scenario.seed = {pipeline_seed}\n")
    if change is not None:
        cfg = change(cfg)
    (row,) = run_scenario(cfg)
    oracle = run_cohort(cfg, ORACLE_UNITS,
                        spawn_rng(oracle_seed)).observed_ratio()
    z = (row.actual_ve_mc - oracle.ve) / math.hypot(row.mc_se, oracle.se)
    assert abs(z) <= 3.0, (f"pipeline VE {row.actual_ve_mc:.4f} ± {row.mc_se:.4f}"
                           f" vs oracle {oracle.ve:.4f} ± {oracle.se:.4f}")
