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


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [span[:2] for span in tracing.PIPELINE_SPANS + tracing.ORACLE_SPANS]


HOOKS = _hooks()


@pytest.mark.parametrize("module, attribute", HOOKS,
                         ids=[".".join(hook) for hook in HOOKS])
def test_traced_attribute_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"sarbias.{module}"),
                            attribute))
