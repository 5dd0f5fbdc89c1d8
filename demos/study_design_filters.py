#!/usr/bin/env python3
"""Attribution windows and co-primary rules from published designs.

Four preset filters replicate the transmission-event rules of real
household and contact-tracing analyses. This script applies each preset to
two hand-built problem units (a late community infection, and a same-day
co-primary pair) and then shows the community-contamination direction on
simulated data: in-window community acquisitions inflate both arms' SARs.
"""

import numpy as np
from dataclasses import replace

from sarbias import (StudyDesignFilter, TestRecord, TestingPolicy, UnitConfig,
                     analyze_unit, apply_policy, estimate_ve_sar, simulate_unit)
from sarbias.observe import ObservedUnit

presets = {name: ctor() for name, ctor in
           [("harris", StudyDesignFilter.harris),
            ("eyre", StudyDesignFilter.eyre),
            ("gier", StudyDesignFilter.gier),
            ("lyngse", StudyDesignFilter.lyngse)]}
for name, design in presets.items():
    print(f"{name:>7}: window {design.attribution_window}, "
          f"co-primary {design.coprimary_exclusion_days}, "
          f"{'tracing' if design.require_contact_tested else 'registry'} "
          "denominator")
print()

vaccinated = (False,) * 4
late_community = ObservedUnit.from_records(vaccinated, [
    TestRecord(0, 1.0, True), TestRecord(2, 21.0, True)])
same_day_pair = ObservedUnit.from_records(vaccinated, [
    TestRecord(0, 3.2, True), TestRecord(1, 3.8, True)])

print("Unit A: index positive day 1, another member positive day 21.")
print("Unit B: two members first positive on the same calendar day.")
for name, design in presets.items():
    a = analyze_unit(late_community, design)
    b = analyze_unit(same_day_pair, design)
    b_out = "unit excluded" if b.excluded else (
        f"{b.n_attributed_transmissions} attributed")
    print(f"  {name:>7}: unit A attributes {a.n_attributed_transmissions} "
          f"(day-21 positive outside window); unit B: {b_out}")
print()

print("Community contamination direction (window 0-60, no exclusions):")
policy = TestingPolicy.symptom_prompted()
design = StudyDesignFilter(attribution_window=(0.0, 60.0))
for hazard in (0.0, 0.005, 0.02):
    rng = np.random.default_rng(11)
    analyses = []
    cfg = UnitConfig(community_daily_hazard=hazard)
    for arm in (True, False):
        for _ in range(6000):
            truth = simulate_unit(cfg, arm, rng)
            obs = apply_policy(truth, policy, rng)
            analyses.append(analyze_unit(obs, design, index_id=0))
    est = estimate_ve_sar(analyses)
    print(f"  hazard {hazard:5.3f}: SAR_v {est.sar_v:.4f}  SAR_u {est.sar_u:.4f}"
          f"  VE {est.ve:.3f}")
print("Both SARs rise with community incidence; the VE moves toward zero.")
