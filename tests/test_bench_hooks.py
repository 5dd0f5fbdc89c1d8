"""Every attribute the benchmark's tracer wraps exists in sarbias, and the
records it counts on carry what it reads.

``bench/tracing.py`` wraps layer functions by module and attribute name,
and counts work from the records they return; deleting or renaming one
breaks the traced benchmark run, so it fails here first.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

HOOKS = [span[:2] for span in tracing.PIPELINE_SPANS + tracing.ORACLE_SPANS]


@pytest.mark.parametrize("module, attribute", HOOKS,
                         ids=[".".join(hook) for hook in HOOKS])
def test_traced_attribute_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"sarbias.{module}"),
                            attribute))


def test_traced_suite_counts_every_unit():
    # The suite must call its oracles through the wrapped names when it
    # runs, from whichever pool thread, drawing the units per `validate`
    # that the benchmark's units/s assumes.
    from sarbias import validation
    tracer = tracing.Tracer()
    tracer.install(tracing.ORACLE_SPANS)
    try:
        results = validation.run_validation_suite(units_per_arm=20_000)
    finally:
        tracer.uninstall()
    assert len(results) == run.VALIDATE_CHECKS
    drawn = sum(tracer.total_count(span[2])
                for span in tracing.ORACLE_SPANS[1:])
    assert drawn == run.VALIDATE_UNITS_DRAWN // run.VALIDATE_UNITS * 20_000


def test_traced_pipeline_counts_the_records(tmp_path):
    # The benchmark's scheduled design row, at 300 units per arm: one span
    # per unit and layer, with work counts read off the returned records.
    from sarbias import harness
    design, _ = run.pipeline_configs(run.PIPELINES["pipeline-scheduled"],
                                     tmp_path, 1)
    cfg = replace(harness.load_config(str(design)), units_per_arm=300)
    tracer = tracing.Tracer()
    tracer.install(tracing.PIPELINE_SPANS)
    try:
        harness.run_scenario(cfg)
    finally:
        tracer.uninstall()
    units = 2 * cfg.units_per_arm
    for name in ("simcore.simulate_unit", "observe.apply_policy",
                 "infer.analyze_unit"):
        assert len(tracer.durations_ns(name)) == units
    for name in ("harness.run_scenario", "infer.estimate_ve_sar"):
        assert len(tracer.durations_ns(name)) == 1
    assert tracer.total_count("simcore.simulate_unit") >= units  # primaries
    assert tracer.total_count("observe.apply_policy") > 0
    assert tracer.total_count("infer.analyze_unit") <= units
