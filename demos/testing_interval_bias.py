#!/usr/bin/env python3
"""How infrequent scheduled testing distorts VE-against-SAR estimates.

Sparse testing samples infections with probability proportional to how
long they stay test-positive, so vaccinated infections (shorter durations)
are missed more often, and the detected ones are length-biased toward
transmitters. The observed VE falls below the target whenever the testing
interval exceeds the shortest duration, stops depending on the interval
once it exceeds the longest duration, and the dependence in between is not
monotone.
"""

from sarbias import (DurationModelParams, infrequent_observed_mu,
                     infrequent_target_mu, parse_config, run_cohort,
                     sampling_fraction)
from sarbias.harness import spawn_rng

d = DurationModelParams()  # durations U(7,21) / U(1,15), hazard ratio 0.7
target_ve = 1.0 - infrequent_target_mu(d)
print(f"Duration model: {d}")
print(f"Target VE: {target_ve:.3f}")
print()

print(f"  {'k':>4} {'detect unvax':>13} {'detect vax':>11} "
      f"{'observed VE':>12} {'bias':>8}")
for k in (1, 3, 5, 7, 10, 14, 17, 21, 25, 30):
    ve = 1.0 - infrequent_observed_mu(k, d)
    print(f"  {k:4d} {sampling_fraction(k, d.rho0, d.c):13.3f} "
          f"{sampling_fraction(k, d.rho1, d.c):11.3f} {ve:12.4f} "
          f"{ve - target_ve:+8.4f}")
print()
print("Note the plateau past k = 21 (the longest unvaccinated duration) and")
print("the non-monotone dip around k = 14.")
print()

# Units of two tested every 10 days, analysed from the true primary: the
# regime of the closed form.
k_check = 10.0
cfg = parse_config(f"""
scenario.seed = 7
scenario.index_rule = true_primary
unit.size = 2
unit.transmission_mode = per_day_hazard
policy.kind = scheduled
policy.interval_days = {k_check}
""")
mc = run_cohort(cfg, 300_000, spawn_rng(cfg.seed)).observed_ratio()
print(f"Simulation check at k = {k_check:g} (300k units per arm):")
print(f"  simulated observed VE: {mc.ve:.4f} (se {mc.se:.4f})")
print(f"  closed form          : {1.0 - infrequent_observed_mu(k_check, d):.4f}")
