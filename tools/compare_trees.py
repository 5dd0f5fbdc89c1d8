#!/usr/bin/env python3
"""Run the same sarbias commands on two source trees and compare outputs.

    python3 tools/compare_trees.py PARENT_ROOT CHANGE_ROOT

Each command runs once per tree, in a fresh interpreter with the tree's
``src`` on ``PYTHONPATH``, inside an empty working directory that holds
only the command's input files. Its output is its exit code, stdout,
stderr and every file it leaves in that directory. The commands are
``simulate`` on the design and twin configs of both pipeline benchmark
workloads at seeds 1-5, ``validate --units 1000000 --seed 1``, the three
figure sweeps without and with Monte Carlo columns, the seven ``analytic``
forms at their defaults, and every script under ``demos/``.

Prints one ``identical`` or ``different`` line per command, followed by a
unified diff of any difference, and exits 0 only when every output is
identical.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

TIMEOUT_S = 600

# The two pipeline workloads of bench/run.py, as its config files read:
# units per arm, the lines both rows share, and the design row's preset
# (tests/test_compare_trees.py checks them against bench/run.py).
PIPELINES = {
    "scheduled": (5000, "unit.size = 4\n"
                        "unit.transmission_mode = per_day_hazard\n"
                        "policy.kind = scheduled\n"
                        "policy.interval_days = 7\n", "harris"),
    "symptom": (10000, "unit.size = 8\n"
                       "unit.transmission_mode = per_unit_bernoulli\n"
                       "policy.kind = symptom_prompted\n", "lyngse"),
}
ANALYTIC_FORMS = ("symptom-target-mu", "symptom-actual-mu", "invert-nu",
                  "infrequent-target-mu", "sampling-fraction",
                  "infrequent-observed-component", "infrequent-observed-mu")


@dataclass(frozen=True)
class Command:
    """``python3 ARGV`` in a directory holding ``inputs``; ``{root}`` in an
    argument stands for the tree's root."""

    label: str
    argv: tuple[str, ...]
    inputs: dict[str, str] = field(default_factory=dict)


def _config(scenario_id: str, seed: int, units: int, setup: str,
            preset: str, index_rule: str) -> str:
    return (f"scenario.id = {scenario_id}\n"
            f"scenario.seed = {seed}\n"
            f"scenario.units_per_arm = {units}\n"
            f"scenario.index_rule = {index_rule}\n"
            f"{setup}"
            f"filter.preset = {preset}\n")


def default_commands() -> list[Command]:
    cli = ("-m", "sarbias.cli")
    commands = []
    for workload, (units, setup, preset) in PIPELINES.items():
        for seed in range(1, 6):
            for row, text in (
                    ("design", _config(preset, seed, units, setup, preset,
                                       "earliest_positive")),
                    ("twin", _config("reference", seed, units, setup,
                                     "maximal", "true_primary"))):
                commands.append(Command(
                    f"simulate {workload} {row} seed {seed}",
                    cli + ("simulate", "--config", "scenario.cfg",
                           "--out", "rows.csv"),
                    {"scenario.cfg": text}))
    commands.append(Command("validate --units 1000000 --seed 1",
                            cli + ("validate", "--units", "1000000",
                                   "--seed", "1")))
    for figure in ("1a", "1b", "a1"):
        for flags in (("--units", "0"), ("--units", "200000", "--seed", "7")):
            commands.append(Command(
                f"sweep --figure {figure} {' '.join(flags)}",
                cli + ("sweep", "--figure", figure, *flags,
                       "--out", "rows.csv")))
    commands += [Command(f"analytic --form {form}",
                         cli + ("analytic", "--form", form))
                 for form in ANALYTIC_FORMS]
    demos = sorted(p.name for p in
                   (Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    commands += [Command(f"demo {name}", (f"{{root}}/demos/{name}",))
                 for name in demos]
    return commands


def run(root: Path, command: Command) -> str:
    """The command's output on the tree at ``root``, as one text."""
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in command.inputs.items():
            Path(workdir, name).write_text(text, encoding="utf-8")
        argv = [arg.format(root=root) for arg in command.argv]
        proc = subprocess.run([sys.executable, *argv], cwd=workdir,
                              env={**os.environ, "PYTHONPATH": str(root / "src")},
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        parts = [f"exit {proc.returncode}\n", "--- stdout\n", proc.stdout,
                 "--- stderr\n", proc.stderr]
        for path in sorted(Path(workdir).iterdir()):
            if path.name not in command.inputs:
                parts += [f"--- file {path.name}\n",
                          path.read_text(encoding="utf-8")]
    return "".join(parts)


def compare(parent: Path, change: Path, commands: list[Command],
            out=None) -> bool:
    """Print one line per command (and the diff of a difference) to ``out``,
    stdout by default; True when every output is identical."""
    out = out or sys.stdout
    same = True
    with ThreadPoolExecutor(2) as pool:
        for command in commands:
            before, after = pool.map(lambda root: run(root, command),
                                     (parent, change))
            if before == after:
                print(f"identical  {command.label}", file=out)
                continue
            same = False
            print(f"different  {command.label}", file=out)
            for line in difflib.unified_diff(before.splitlines(),
                                             after.splitlines(), "parent",
                                             "change", lineterm=""):
                print(line, file=out)
    return same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    args = parser.parse_args(argv)
    ok = compare(args.parent.resolve(), args.change.resolve(),
                 default_commands())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
