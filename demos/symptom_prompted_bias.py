#!/usr/bin/env python3
"""How symptom-triggered testing distorts VE-against-SAR estimates.

Walks the closed forms first, then confirms them with a seeded simulation:
when only symptomatic primary cases enter the study, the naive estimator
converges to the transmission reduction *among symptomatic cases* (1 - nu)
instead of the full target estimand (1 - mu). The gap widens as
asymptomatic infections transmit less (smaller delta).
"""

from sarbias import (InfeasibleTargetError, SymptomModelParams,
                     invert_target_to_nu, parse_config, run_cohort,
                     symptom_prompted_actual_mu, symptom_prompted_target_mu)
from sarbias.harness import spawn_rng

params = SymptomModelParams()  # lambda=0.2, delta=0.5, nu=0.6, rho=0.5
target_ve = 1.0 - symptom_prompted_target_mu(params)
actual_ve = 1.0 - symptom_prompted_actual_mu(params)

print("Reference parameter set:", params)
print(f"  target VE (perfect ascertainment) : {target_ve:.3f}")
print(f"  actual VE (symptom-prompted)      : {actual_ve:.3f}")
print(f"  bias                              : {actual_ve - target_ve:+.3f}")
print()

print("The bias grows as asymptomatic transmission shrinks (fixed target 0.6):")
print(f"  {'delta':>6} {'nu needed':>10} {'actual VE':>10} {'bias':>8}")
for delta in (1.0, 0.75, 0.5, 0.25, 0.1):
    try:
        nu = invert_target_to_nu(0.6, params.lambda_symptom, delta,
                                 params.rho_symptom)
    except InfeasibleTargetError:
        # Suppressing symptoms alone already pushes the target VE above
        # 0.6 here; no residual per-contact effect can bring it back down.
        print(f"  {delta:6.2f} {'> 1':>10} {'infeasible':>10}")
        continue
    print(f"  {delta:6.2f} {nu:10.3f} {1 - nu:10.3f} {1 - nu - 0.6:+8.3f}")
print()

print("Simulation check (100k units per arm, symptom-prompted sampling):")
cfg = parse_config("""
scenario.seed = 2026
scenario.index_rule = true_primary
unit.transmission_mode = per_unit_bernoulli
policy.kind = symptom_prompted
""")
cohort = run_cohort(cfg, 100_000, spawn_rng(cfg.seed))
mc, truth = cohort.observed_ratio(), cohort.true_ratio()
print(f"  simulated naive VE  : {mc.ve:.4f} (se {mc.se:.4f})  -> 1 - nu = {actual_ve}")
print(f"  same-cohort true VE : {truth.ve:.4f} "
      f"(se {truth.se:.4f})  -> target = {target_ve}")
