"""The demos that print the record listing or build observed units by hand
run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["misclassified_index_case.py",
                                    "study_design_filters.py"])
def test_demo_exits_zero(script):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
