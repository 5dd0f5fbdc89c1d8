"""Every demo runs to completion and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", sorted(
    p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(script):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
