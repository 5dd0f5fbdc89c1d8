"""Differential test: the vectorized oracle against the object pipeline.

Each cell is a config inside ``mc_oracle``'s contract (true-primary index,
units of four, no delay, full participation, test-time anchor). The object
pipeline and the oracle sample the same process independently, so their
VE estimates must agree within three combined standard errors.
"""

import math

import pytest

from sarbias import mc_oracle, parse_config, run_scenario

PIPELINE_UNITS = 20_000
ORACLE_UNITS = 200_000

BASE = """
scenario.index_rule = true_primary
scenario.units_per_arm = {units}
unit.size = 4
"""

SCHEDULED = "policy.kind = scheduled\nunit.transmission_mode = "
SYMPTOM = ("policy.kind = symptom_prompted\n"
           "unit.transmission_mode = per_unit_bernoulli\n")

# (config lines, pipeline seed, oracle seed); seeds fixed up front.
CELLS = [
    pytest.param(SCHEDULED + "per_day_hazard\npolicy.interval_days = 3\n",
                 101, 201, id="scheduled-k3"),
    pytest.param(SCHEDULED + "per_day_hazard\npolicy.interval_days = 7\n",
                 102, 202, id="scheduled-k7"),
    pytest.param(SCHEDULED + "per_day_hazard\npolicy.interval_days = 14\n",
                 103, 203, id="scheduled-k14"),
    pytest.param(SCHEDULED + "per_day_hazard_exact\npolicy.interval_days = 3\n",
                 104, 204, id="scheduled-exact-k3"),
    pytest.param(SYMPTOM, 105, 205, id="symptom-maximal"),
    pytest.param(SYMPTOM + "filter.window_lo = 1\nfilter.window_hi = 7\n",
                 106, 206, id="symptom-window-1-7"),
]


@pytest.mark.parametrize("lines, pipeline_seed, oracle_seed", CELLS)
def test_oracle_matches_pipeline(lines, pipeline_seed, oracle_seed):
    cfg = parse_config(BASE.format(units=PIPELINE_UNITS) + lines
                       + f"scenario.seed = {pipeline_seed}\n")
    (row,) = run_scenario(cfg)
    oracle = mc_oracle(cfg, ORACLE_UNITS, seed=oracle_seed)
    z = (row.actual_ve_mc - oracle.ve) / math.hypot(row.mc_se, oracle.se)
    assert abs(z) <= 3.0, (f"pipeline VE {row.actual_ve_mc:.4f} ± {row.mc_se:.4f}"
                           f" vs oracle {oracle.ve:.4f} ± {oracle.se:.4f}")
