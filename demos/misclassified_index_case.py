#!/usr/bin/env python3
"""Index case versus primary case: a worked misclassification.

The index case is the first *detected* infection; the primary case is the
first *actual* infection. Under symptom-prompted testing the two diverge
whenever a secondary case develops symptoms sooner. This script steps one
hand-built unit through the observation and analysis layers to show the
mechanism, then measures how often it happens under the default incubation
model.
"""

import numpy as np

from sarbias import (Infection, SourceKind, StudyDesignFilter,
                     SymptomModelParams, TestingPolicy, UnitConfig,
                     analyze_unit, apply_policy, identify_index, simulate_unit)
from sarbias.simcore import UnitTruth

# Person 0 is the primary, as in every simulated unit.
truth = UnitTruth(vaccinated=(False,) * 4, infections=[
    Infection(person_id=0, acquisition_time=0.0, source_kind=SourceKind.PRIMARY,
              source_id=None, symptomatic=True, symptom_onset_time=6.0,
              duration_days=14.0),
    Infection(person_id=1, acquisition_time=2.0, source_kind=SourceKind.CONTACT,
              source_id=0, symptomatic=True, symptom_onset_time=5.0,
              duration_days=14.0),
])

print("Truth: person 0 infected on day 0 (symptoms day 6) and infected")
print("person 1 on day 2 (symptoms day 5, a shorter incubation).")
print()

obs = apply_policy(truth, TestingPolicy.symptom_prompted(),
                   np.random.default_rng(0))
for t in obs.tests:
    print(f"  database row: person {t.person_id} tested day {t.test_time:g}, "
          f"{'positive' if t.positive else 'negative'}")
index = identify_index(obs)
print(f"Index case: person {index}; true primary: person 0")

result = analyze_unit(obs, StudyDesignFilter.harris())
print(f"Window 2-14 days after the index: attributed transmissions = "
      f"{result.n_attributed_transmissions} (truth: "
      f"{truth.primary_sourced_transmissions()})")
print("The real transmission is invisible: the primary tests positive only")
print("1 day after the misidentified index, below the window's lower edge.")
print()

rng = np.random.default_rng(1)
cfg = UnitConfig(symptom=SymptomModelParams(tau=0.5))
policy = TestingPolicy.symptom_prompted()
n, misclassified, detected = 20_000, 0, 0
for i in range(n):  # the two arms in turn
    unit = simulate_unit(cfg, i % 2 == 0, rng)
    index = identify_index(apply_policy(unit, policy, rng))
    if index is not None:
        detected += 1
        misclassified += index != 0
print(f"Under default incubation variability, {misclassified} of {detected} "
      f"detected units ({misclassified / detected:.1%}) name an index other "
      "than the true primary (asymptomatic primaries account for most of it).")
