"""Output checks for the benchmark's workloads.

Each check returns a list of problems; an empty list means the output
passed. None of them compares against numbers recorded from an earlier
run: reference rows are held to a closed form at their own standard
error, design rows to invariants they share with their reference twin,
and ``validate`` to its own pass/fail verdicts.
"""

from __future__ import annotations

import csv
import io
import math
import re

REFERENCE_Z_LIMIT = 4.0


def parse_csv(text: str) -> list[dict]:
    """Rows of a ``sarbias simulate`` CSV, numeric columns as floats."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = dict(raw)
        for key, value in raw.items():
            if key not in ("scenario_id", "sweep_param"):
                row[key] = float(value)
        rows.append(row)
    return rows


def check_reference_row(row: dict, expected_ve: float) -> list[str]:
    """A reference-twin row must lie within ``REFERENCE_Z_LIMIT`` of its own
    standard errors of the closed-form VE."""
    ve, se = row["actual_ve_mc"], row["mc_se"]
    if not (math.isfinite(ve) and math.isfinite(se) and se > 0):
        return [f"reference VE {ve} with SE {se} is not a usable estimate"]
    z = (ve - expected_ve) / se
    if abs(z) > REFERENCE_Z_LIMIT:
        return [f"reference VE {ve:.6f} is {z:+.2f} SE from the closed form "
                f"{expected_ve:.6f} (limit {REFERENCE_Z_LIMIT:g})"]
    return []


def check_design_row(design: dict, twin: dict) -> list[str]:
    """Invariants of a design row against its twin of the same seed: both
    rows saw the same units and tests, and only the analysis differs."""
    problems = []
    units_simulated = 2 * design["n_units"]  # both arms
    if design["n_units"] != twin["n_units"]:
        problems.append(f"design row has {design['n_units']:g} units per arm, "
                        f"its twin {twin['n_units']:g}")
    if design["n_excluded_no_index"] > twin["n_excluded_no_index"]:
        problems.append(f"design excludes {design['n_excluded_no_index']:g} units "
                        f"for no index, more than its twin's "
                        f"{twin['n_excluded_no_index']:g}")
    excluded = design["n_excluded_no_index"] + design["n_excluded_coprimary"]
    if not excluded < units_simulated:
        problems.append(f"design excludes {excluded:g} of "
                        f"{units_simulated:g} units simulated")
    ve = design["actual_ve_mc"]
    if not (math.isfinite(ve) and ve <= 1.0):
        problems.append(f"design VE {ve} is not finite and <= 1")
    if not design["mc_se"] > 0:
        problems.append(f"design mc_se {design['mc_se']} is not > 0")
    if not design["n_excluded_coprimary"] > 0:
        problems.append("design has no co-primary exclusions")
    return problems


_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] ")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_validate_output(stdout: str, returncode: int,
                          expected_checks: int) -> tuple[int, list[str]]:
    """Returns (checks failed, problems) for one ``validate`` run.

    Each failed check is counted and listed. Output that cannot be read as
    ``expected_checks`` verdicts with a matching summary line and exit code
    counts as every check failed.
    """
    lines = stdout.splitlines()
    verdicts = [m.group(1) for m in map(_CHECK_LINE.match, lines) if m]
    n_failed = verdicts.count("FAIL")
    problems = [line for line in lines if line.startswith("[FAIL]")]
    summary = _SUMMARY.match(lines[-1]) if lines else None
    malformed = []
    if summary is None or (int(summary.group(1)), int(summary.group(2))) != (
            len(verdicts) - n_failed, len(verdicts)):
        malformed.append("validate summary line missing or inconsistent "
                         f"with {len(verdicts)} check lines")
    if len(verdicts) != expected_checks:
        malformed.append(f"validate ran {len(verdicts)} checks, "
                         f"expected {expected_checks}")
    if returncode != (1 if n_failed else 0):
        malformed.append(f"validate exited {returncode} with "
                         f"{n_failed} failed checks")
    if malformed:
        return expected_checks, problems + malformed
    return n_failed, problems
