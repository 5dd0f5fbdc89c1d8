"""Calibration of the delta-method standard error.

For four cells of the differential grid, the cohort engine runs the same
config on many independent streams. If the SE that ``ve_from_arms``
reports is right, the spread of the VE estimates across streams equals the
typical reported SE: their ratio is 1, with a sampling error of about 2.2 %
at 1000 streams. An SE that is too small by a fifth (ratio 1.25) fails.
"""

import numpy as np
import pytest

from sarbias import parse_config, run_cohort
from sarbias.harness import spawn_rng
from test_differential import BASE, CELLS

UNITS_PER_ARM = 2000
SEEDS = range(1000, 2000)  # fixed before the first run
CALIBRATED = (0.9, 1.1)
CELL_LINES = {cell.id: cell.values[0] for cell in CELLS}


@pytest.mark.parametrize("cell", ["scheduled-k7", "symptom-maximal",
                                  "eyre-symptom", "exact-chains-community"])
def test_se_matches_seed_to_seed_spread(cell):
    cfg = parse_config(BASE.format(units=UNITS_PER_ARM) + CELL_LINES[cell]
                       + "scenario.seed = 0\n")
    estimates = [run_cohort(cfg, UNITS_PER_ARM, spawn_rng(seed)).observed_ratio()
                 for seed in SEEDS]
    ratio = (np.std([e.ve for e in estimates], ddof=1)
             / np.mean([e.se for e in estimates]))
    lo, hi = CALIBRATED
    assert lo <= ratio <= hi, (f"SD(VE) / mean(SE) = {ratio:.3f} over "
                               f"{len(SEEDS)} seeds")
