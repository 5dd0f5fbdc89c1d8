#!/usr/bin/env python3
"""The regime where the naive estimator is exactly right, and how it breaks.

With synchronized daily testing, full participation, and no community or
contact-to-contact infections, first-positive order matches acquisition
order, the index is always the true primary, and the naive pooled-SAR
estimator reproduces the cohort's true VE exactly. Switching to
independent per-person test phases breaks the ordering: a contact
occasionally tests positive before its primary, the unit migrates to the
unvaccinated arm, and the naive VE drifts upward.
"""

from sarbias import parse_config, run_cohort
from sarbias.harness import spawn_rng

n = 400_000
# Units of four tested daily, analysed from the earliest positive test.
config = """
scenario.seed = 31
unit.transmission_mode = per_day_hazard
policy.kind = scheduled
policy.interval_days = 1
policy.shared_phase = {shared}
filter.window_lo = 0
filter.window_hi = 60
"""


def naive_and_truth(shared: bool):
    cohort = run_cohort(parse_config(config.format(shared=shared)), n,
                        spawn_rng(31))
    naive, truth = cohort.observed_ratio(), cohort.true_ratio()
    return naive, truth, naive.ve - truth.ve


naive, truth, difference = naive_and_truth(shared=True)
print("Synchronized household testing, every day:")
print(f"  naive VE {naive.ve:.6f} vs true VE {truth.ve:.6f} "
      f"(difference {difference:+.2e})")
print()

naive, truth, difference = naive_and_truth(shared=False)
print("Independent per-person test phases, every day:")
print(f"  naive VE {naive.ve:.6f} vs true VE {truth.ve:.6f} "
      f"(difference {difference:+.4f}, about "
      f"{difference / naive.se:.1f} standard errors)")
print()
print("Same data volume, same testing frequency: only the phase alignment")
print("changed, and the index-order swaps alone bias the estimate.")
