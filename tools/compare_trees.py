#!/usr/bin/env python3
"""Run the same sarbias commands on two source trees and compare outputs.

    python3 tools/compare_trees.py PARENT_ROOT CHANGE_ROOT

Each command runs once per tree, in a fresh interpreter with the tree's
``src`` on ``PYTHONPATH``, inside an empty working directory that holds
only the command's input files. Its output is its exit code, stdout,
stderr and every file it leaves in that directory. The commands are
``simulate`` on the design and twin configs of both pipeline benchmark
workloads at seeds 1-5, as ``bench/run.py`` writes them, ``simulate`` at
seed 1 and 2000 units per arm on a unit of each transmission mode the
closed forms model (per-unit Bernoulli, per-day hazard) under each policy
kind, analysed from the true primary, ``validate
--units 1000000 --seed 1``, the three figure sweeps without and with Monte
Carlo columns, the seven ``analytic`` forms at their defaults, and every
script under ``demos/``.

Prints one ``identical`` or ``different`` line per command, followed by a
unified diff of any difference, then each tree's ``src/`` line count, and
exits 0 only when every output is identical.
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

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402  (bench/run.py: the benchmark's workloads)

TIMEOUT_S = 600
TRANSMISSION_MODES = ("per_unit_bernoulli", "per_day_hazard")
POLICY_KINDS = ("no_testing", "symptom_prompted", "scheduled",
                "symptom_plus_scheduled")
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


def default_commands() -> list[Command]:
    cli = ("-m", "sarbias.cli")
    simulate = cli + ("simulate", "--config", "scenario.cfg", "--out", "rows.csv")
    commands = []
    with tempfile.TemporaryDirectory() as workdir:
        for workload, spec in bench.PIPELINES.items():
            for seed in range(1, 6):
                configs = bench.pipeline_configs(spec, Path(workdir), seed)
                for row, path in zip(("design", "twin"), configs):
                    commands.append(Command(
                        f"simulate {workload.removeprefix('pipeline-')} {row} "
                        f"seed {seed}", simulate,
                        {"scenario.cfg": path.read_text(encoding="utf-8")}))
    for mode in TRANSMISSION_MODES:
        for kind in POLICY_KINDS:
            interval = "policy.interval_days = 7\n" if "scheduled" in kind else ""
            commands.append(Command(
                f"simulate {mode} {kind}", simulate,
                {"scenario.cfg": ("scenario.seed = 1\n"
                                  "scenario.units_per_arm = 2000\n"
                                  "scenario.index_rule = true_primary\n"
                                  f"unit.transmission_mode = {mode}\n"
                                  f"policy.kind = {kind}\n{interval}")}))
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
    demos = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
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


def src_lines(root: Path) -> int:
    """Lines of the Python files under the tree's ``src``, as ``wc -l``
    counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src").rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    ok = compare(parent, change, default_commands())
    for label, root in (("parent", parent), ("change", change)):
        print(f"src lines  {label} {src_lines(root)}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
