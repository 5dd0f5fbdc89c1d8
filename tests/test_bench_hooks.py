"""Every attribute the benchmark's tracer wraps exists in sarbias.

``bench/tracing.py`` wraps layer functions by module and attribute name;
deleting or renaming one breaks the traced benchmark run, so it fails here
first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


TRACING_MODULE = _tracing()
HOOKS = [span[:2] for span in
         TRACING_MODULE.PIPELINE_SPANS + TRACING_MODULE.ORACLE_SPANS]


@pytest.mark.parametrize("module, attribute", HOOKS,
                         ids=[".".join(hook) for hook in HOOKS])
def test_traced_attribute_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"sarbias.{module}"),
                            attribute))


def test_traced_suite_counts_every_unit():
    # The suite must call its oracles through the wrapped names when it
    # runs, from whichever pool thread: the traced `oracle-validate` run
    # checks 13 two-arm cohorts and 3 one-arm draws per `validate`.
    from sarbias import validation
    tracer = TRACING_MODULE.Tracer()
    tracer.install(TRACING_MODULE.ORACLE_SPANS)
    try:
        validation.run_validation_suite(units_per_arm=20_000)
    finally:
        tracer.uninstall()
    drawn = sum(tracer.total_count(span[2])
                for span in TRACING_MODULE.ORACLE_SPANS[1:])
    assert drawn == (13 * 2 + 3) * 20_000
