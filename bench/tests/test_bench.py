"""Tests of the benchmark itself: its checks reject wrong outputs, its
tracer records what it claims, and its metric list matches BENCHMARK.json.

Run from the root of a checkout: ``python3 -m pytest bench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run
from tracing import PIPELINE_SPANS, Tracer

ROOT = run.ROOT


@pytest.fixture(scope="module")
def scheduled_rows(tmp_path_factory):
    """A real design row and reference twin from a small scheduled round,
    as parsed from the CSVs the CLI wrote."""
    workdir = tmp_path_factory.mktemp("round")
    spec = replace(run.PIPELINES["pipeline-scheduled"], units_per_arm=2000)
    rows = []

    def run_cli(argv):
        result = run.run_cli_inprocess(argv)
        out = Path(argv[argv.index("--out") + 1])
        rows.append(checks.parse_csv(out.read_text(encoding="utf-8"))[0])
        return result

    problems = []
    round_ = run.pipeline_round(spec, workdir, 7, run_cli, problems)
    assert problems == []
    assert (round_.attempted, round_.failed) == (2, 0)
    assert round_.units == 4 * 2000
    design, twin = rows
    return design, twin


def _scheduled_expected_ve():
    from sarbias import estimands
    from sarbias.params import DurationModelParams
    return 1.0 - estimands.infrequent_observed_mu(7.0, DurationModelParams())


def test_reference_row_passes_at_the_closed_form(scheduled_rows):
    _, twin = scheduled_rows
    assert checks.check_reference_row(twin, _scheduled_expected_ve()) == []


@pytest.mark.parametrize("sign", (1, -1))
def test_reference_row_shifted_by_ten_se_is_rejected(scheduled_rows, sign):
    _, twin = scheduled_rows
    shifted = dict(twin, actual_ve_mc=twin["actual_ve_mc"] + sign * 10 * twin["mc_se"])
    problems = checks.check_reference_row(shifted, _scheduled_expected_ve())
    assert len(problems) == 1 and "SE from the closed form" in problems[0]


def test_reference_row_without_se_is_rejected(scheduled_rows):
    _, twin = scheduled_rows
    assert checks.check_reference_row(dict(twin, mc_se=math.nan), 0.5)


def test_design_row_passes_against_its_twin(scheduled_rows):
    design, twin = scheduled_rows
    assert checks.check_design_row(design, twin) == []


@pytest.mark.parametrize("change, message", [
    (dict(n_excluded_coprimary=0.0), "no co-primary exclusions"),
    (dict(actual_ve_mc=math.nan), "not finite"),
    (dict(actual_ve_mc=1.5), "not finite and <= 1"),
    (dict(mc_se=0.0), "mc_se"),
    (dict(n_excluded_no_index=1e9), "for no index"),
    (dict(n_excluded_no_index=0.0, n_excluded_coprimary=4000.0), "excludes 4000"),
])
def test_design_row_faults_are_rejected(scheduled_rows, change, message):
    design, twin = scheduled_rows
    problems = checks.check_design_row(dict(design, **change), twin)
    assert any(message in p for p in problems), problems


def _validate_stdout(verdicts):
    lines = [f"[{v}] check {i}: analytic=0.5 mc=0.5 se=1e-03 z=+0.00"
             for i, v in enumerate(verdicts)]
    n_passed = verdicts.count("PASS")
    return "\n".join(lines + [f"{n_passed}/{len(verdicts)} checks passed"]) + "\n"


def test_validate_output_all_passed():
    assert checks.check_validate_output(_validate_stdout(["PASS"] * 25), 0, 25) == (0, [])


def test_validate_output_counts_a_failed_check():
    failed, problems = checks.check_validate_output(
        _validate_stdout(["PASS"] * 24 + ["FAIL"]), 1, 25)
    assert failed == 1 and problems[0].startswith("[FAIL]")


@pytest.mark.parametrize("stdout, rc", [
    (_validate_stdout(["PASS"] * 24), 0),           # a check went missing
    (_validate_stdout(["PASS"] * 25), 1),           # exit code disagrees
    (_validate_stdout(["PASS"] * 25)[:-20], 0),     # summary line cut
    ("", 0),
])
def test_malformed_validate_output_fails_every_check(stdout, rc):
    failed, problems = checks.check_validate_output(stdout, rc, 25)
    assert failed == 25 and problems


def test_tracer_records_nested_spans_and_restores_the_layers():
    from sarbias import harness
    originals = {attr: getattr(harness, attr) for _, attr, _, _ in PIPELINE_SPANS}
    tracer = Tracer()
    cfg = harness.ScenarioConfig(units_per_arm=300, seed=3)
    tracer.install(PIPELINE_SPANS)
    try:
        traced_rows = harness.run_scenario(cfg)
    finally:
        tracer.uninstall()
    assert {attr: getattr(harness, attr) for attr in originals} == originals
    assert harness.run_scenario(cfg) == traced_rows

    (scenario_span,) = [i for i, n in enumerate(tracer.names)
                        if n == "harness.run_scenario"]
    units = [i for i, n in enumerate(tracer.names) if n == "simcore.simulate_unit"]
    assert len(units) == 600
    assert all(tracer.parents[i] == scenario_span for i in units)
    assert tracer.total_count("observe.apply_policy") > 0
    assert 0 < tracer.total_count("infer.analyze_unit") <= 600
    (self_ns,) = tracer.self_times_ns("harness.run_scenario")
    (total_ns,) = tracer.durations_ns("harness.run_scenario")
    assert 0 <= self_ns < total_ns


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-validate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_probe_covers_the_import(tmp_path):
    spec = run.PIPELINES["pipeline-symptom"]
    design, _ = run.pipeline_configs(spec, tmp_path, 1)
    setup_s, import_s = run.setup_probe(design)
    assert 0 < import_s < setup_s < 60
