"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances and replication sizes. Each test prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Monte Carlo criteria run at one million units per arm with pinned seeds;
"3 MC SE" always means three standard errors of the run being judged.
"""

import math
import time

import numpy as np
import pytest

from sarbias import (DurationModelParams, Infection, Person, SourceKind,
                     StudyDesignFilter, SymptomModelParams, TestRecord,
                     TestingPolicy, analyze_unit, apply_policy, identify_index,
                     infrequent_observed_mu, infrequent_target_mu,
                     invert_target_to_nu, symptom_prompted_target_mu)
from sarbias.estimands import infrequent_observed_component_swapped
from sarbias.harness import rows_to_csv, spawn_rng, sweep_figure
from sarbias.observe import ObservedUnit
from sarbias.simcore import UnitTruth
from sarbias.validation import (mc_fully_observed_naive, mc_infrequent_observed,
                                mc_symptom_prompted_ve)

SEED = 20260808
UNITS = 1_000_000
K_GRID = (1.0, 3.0, 7.0, 10.0, 14.0, 21.0, 25.0)
D = DurationModelParams()  # rho0=14, rho1=8, c=7, nu_daily=0.7, tau0=0.01
S = SymptomModelParams()   # lambda=0.2, delta=0.5, nu=0.6, rho=0.5, tau=0.3


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def piecewise_grid():
    """Shared million-unit oracle runs over the testing-interval grid."""
    start = time.monotonic()
    runs = {k: mc_infrequent_observed(D, k, UNITS,
                                      spawn_rng(SEED, 4, i)).observed_ratio()
            for i, k in enumerate(K_GRID)}
    return runs, time.monotonic() - start


def test_criterion_01_delta_one_agreement():
    worst = 0.0
    for target in np.linspace(0.0, 1.0, 50):
        nu = invert_target_to_nu(float(target), 0.2, 1.0, 0.5)
        actual_ve = 1.0 - nu
        worst = max(worst, abs(actual_ve - float(target)))
    report("1 (delta=1 agreement)", worst <= 1e-12,
           f"max |actual - target| = {worst:.2e} over 50-point grid")


def test_criterion_02_nu_zero_agreement():
    p = SymptomModelParams(nu=0.0)
    target_ve = 1.0 - symptom_prompted_target_mu(p)
    actual_ve = 1.0 - p.nu
    ok = target_ve == 1.0 and actual_ve == 1.0
    report("2 (nu=0 agreement)", ok,
           f"target VE = {target_ve}, actual VE = {actual_ve}, both exactly 1")


def test_criterion_03_direction_of_bias():
    grid = np.linspace(0.025, 0.975, 20)
    violations = 0
    for lam in grid:
        for delta in grid:
            for nu in grid:
                p = SymptomModelParams(lambda_symptom=float(lam),
                                       delta=float(delta), nu=float(nu),
                                       rho_symptom=0.5)
                if symptom_prompted_target_mu(p) > nu + 1e-15:
                    violations += 1
    # Infrequent testing with the interval at or beyond the longest
    # unvaccinated duration: observed ratio never below the target ratio.
    ratio_grid = np.linspace(0.525, 0.975, 20)  # duration ratio, > c/rho0
    nu_grid = np.linspace(0.025, 0.975, 20)
    for lam_dur in ratio_grid:
        for nu_daily in nu_grid:
            d = DurationModelParams(rho0=14.0, rho1=float(14.0 * lam_dur),
                                    c=7.0, nu_daily=float(nu_daily))
            for k in (d.rho0 + d.c, 30.0):
                if infrequent_observed_mu(k, d) < infrequent_target_mu(d) - 1e-12:
                    violations += 1
    report("3 (direction of bias)", violations == 0,
           f"{violations} violations over 20^3 symptom grid and 20^2 x 2 "
           "duration grid")


def test_criterion_04_piecewise_arbitration(piecewise_grid):
    runs, elapsed = piecewise_grid
    worst_z = 0.0
    for k, mc in runs.items():
        z = abs(mc.mu_ratio - infrequent_observed_mu(k, D)) / mc.se
        worst_z = max(worst_z, z)
    interior = [k for k in K_GRID
                if any(rho - D.c < k < rho + D.c for rho in (D.rho0, D.rho1))]
    rejected = []
    for k in interior:
        swapped = (infrequent_observed_component_swapped(k, D.rho1, D.c, D.tau1)
                   / infrequent_observed_component_swapped(k, D.rho0, D.c, D.tau0))
        if abs(runs[k].mu_ratio - swapped) / runs[k].se > 3.0:
            rejected.append(k)
    ok = worst_z <= 3.0 and len(rejected) >= 1 and elapsed < 300.0
    report("4 (piecewise arbitration)", ok,
           f"max |z| = {worst_z:.2f} over k in {K_GRID}; swapped assignment "
           f"rejected at interior k = {rejected}; grid ran in {elapsed:.1f}s")


def test_criterion_05_tail_independence():
    analytic_25 = infrequent_observed_mu(25.0, D)
    analytic_30 = infrequent_observed_mu(30.0, D)
    mc25 = mc_infrequent_observed(D, 25.0, UNITS,
                                  spawn_rng(SEED, 5, 0)).observed_ratio()
    mc30 = mc_infrequent_observed(D, 30.0, UNITS,
                                  spawn_rng(SEED, 5, 1)).observed_ratio()
    se = math.hypot(mc25.se, mc30.se)
    z = abs(mc25.mu_ratio - mc30.mu_ratio) / se
    ok = analytic_25 == analytic_30 and z <= 3.0
    report("5 (tail independence)", ok,
           f"analytic(25) == analytic(30) == {analytic_25:.12g}; "
           f"|mc25 - mc30| = {abs(mc25.mu_ratio - mc30.mu_ratio):.5f} "
           f"({z:.2f} SE)")


def test_criterion_06_daily_testing_anchor(piecewise_grid):
    runs, _ = piecewise_grid
    target = infrequent_target_mu(D)
    analytic = infrequent_observed_mu(1.0, D)
    mc = runs[1.0]
    z = abs(mc.mu_ratio - target) / mc.se
    # Algebraically identical; float evaluation may differ by an ulp.
    ok = abs(analytic - target) <= 1e-15 and z <= 3.0
    report("6 (daily-testing anchor)", ok,
           f"analytic observed ratio at k=1 equals target {target:.12g} "
           f"(diff {abs(analytic - target):.1e}); MC z = {z:.2f}")


def test_criterion_07_symptom_prompted_pipeline():
    mc = mc_symptom_prompted_ve(S, D, UNITS, spawn_rng(SEED, 7)).observed_ratio()
    actual_ve = 1.0 - S.nu                              # 0.40
    target_ve = 1.0 - symptom_prompted_target_mu(S)     # 0.56
    z_actual = abs(mc.ve - actual_ve) / mc.se
    z_target = abs(mc.ve - target_ve) / mc.se
    ok = z_actual <= 3.0 and z_target > 3.0
    report("7 (symptom-prompted pipeline)", ok,
           f"pipeline VE = {mc.ve:.4f}: {z_actual:.2f} SE from 1-nu "
           f"= {actual_ve}, {z_target:.1f} SE from target {target_ve:.2f}")


def test_criterion_08_misclassified_primary():
    # Deterministic construction: the secondary case has the shorter
    # incubation, so symptom-prompted testing detects it first.
    persons = [Person(id=i, vaccinated=False) for i in range(4)]
    truth = UnitTruth(persons=persons, infections=[
        Infection(person_id=0, acquisition_time=0.0,
                  source_kind=SourceKind.PRIMARY, source_id=None,
                  symptomatic=True, symptom_onset_time=6.0, duration_days=14.0),
        Infection(person_id=1, acquisition_time=2.0,
                  source_kind=SourceKind.CONTACT, source_id=0,
                  symptomatic=True, symptom_onset_time=5.0, duration_days=14.0),
    ])
    obs = apply_policy(truth, TestingPolicy.symptom_prompted(),
                       np.random.default_rng(0))
    index = identify_index(obs)
    result = analyze_unit(obs, StudyDesignFilter.harris())
    true_transmissions = truth.primary_sourced_transmissions()
    undercount = true_transmissions - result.n_attributed_transmissions
    ok = index != truth.primary_id and undercount >= 1
    report("8 (misclassified primary)", ok,
           f"index = person {index}, true primary = person "
           f"{truth.primary_id}; attributed {result.n_attributed_transmissions}"
           f" of {true_transmissions} true transmissions")


def test_criterion_09_filter_semantics():
    presets = {"harris": StudyDesignFilter.harris(),
               "eyre": StudyDesignFilter.eyre(),
               "gier": StudyDesignFilter.gier(),
               "lyngse": StudyDesignFilter.lyngse()}
    persons = [Person(id=i, vaccinated=False) for i in range(4)]

    # Planted community infection surfacing 20 days after the index.
    community = ObservedUnit(persons=persons, tests=[
        TestRecord(person_id=0, test_time=1.0, positive=True),
        TestRecord(person_id=2, test_time=21.0, positive=True)])
    community_ok = {name: analyze_unit(community, design)
                    for name, design in presets.items()}
    out_of_window_excluded = all(
        r.n_attributed_transmissions == 0 and not r.excluded
        for r in community_ok.values())

    # Planted same-day co-primary pair.
    coprimary = ObservedUnit(persons=persons, tests=[
        TestRecord(person_id=0, test_time=3.2, positive=True),
        TestRecord(person_id=1, test_time=3.8, positive=True)])
    coprimary_results = {name: analyze_unit(coprimary, design)
                         for name, design in presets.items()}
    unit_dropped = all(coprimary_results[n].excluded for n in ("harris", "lyngse"))
    event_dropped = all(not coprimary_results[n].excluded
                        and coprimary_results[n].n_attributed_transmissions == 0
                        for n in ("eyre", "gier"))
    ok = out_of_window_excluded and unit_dropped and event_dropped
    report("9 (filter semantics)", ok,
           "out-of-window community positive attributed nowhere; same-day "
           "pair drops the unit under harris/lyngse and the event under "
           "eyre/gier")


def test_criterion_10_fully_observed_equivalence():
    fo = mc_fully_observed_naive(D, 1.0, UNITS, spawn_rng(SEED, 10))
    naive, truth = fo.observed_ratio(), fo.true_ratio()
    difference = naive.ve - truth.ve
    z = abs(difference) / naive.se
    ok = z <= 3.0 and sum(fo.excluded.values()) == 0
    report("10 (fully observed equivalence)", ok,
           f"naive VE = {naive.ve:.6f}, true VE = {truth.ve:.6f}, "
           f"difference = {difference:.2e} ({z:.2f} SE), every unit "
           "detected")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    def sweep(workers):
        monkeypatch.setattr("sarbias.harness._workers", lambda: workers)
        return rows_to_csv(sweep_figure("1b", units_per_arm=50_000, seed=SEED))

    csv_a, csv_b, csv_c = sweep(1), sweep(1), sweep(8)
    path_a, path_c = tmp_path / "a.csv", tmp_path / "c.csv"
    path_a.write_text(csv_a, encoding="utf-8")
    path_c.write_text(csv_c, encoding="utf-8")
    ok = (csv_a == csv_b and path_a.read_bytes() == path_c.read_bytes())
    report("11 (determinism)", ok,
           f"repeated run and 1-vs-8-worker run byte-identical over "
           f"{csv_a.count(chr(10)) - 1} rows")
