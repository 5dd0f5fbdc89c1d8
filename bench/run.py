#!/usr/bin/env python3
"""Benchmark of sarbias through its command line.

Run from the root of a checkout:

    python3 bench/run.py --workload pipeline-scheduled --seed 1 \\
        --seconds 40 --trace 0

Without ``--workload`` every workload runs in turn, one result line each.

Workloads (see README.md for why each exists and what its inputs are):

* ``pipeline-scheduled``: ``sarbias simulate`` on scheduled testing every
  7 days, households of 4, a Harris design row and its reference twin.
* ``pipeline-symptom``: ``sarbias simulate`` on symptom-prompted testing,
  households of 8, a Lyngse design row and its reference twin.
* ``oracle-validate``: ``sarbias validate --units 1000000``.

The benchmark repeats whole rounds of its workload for ``--seconds``
seconds, checks every output, and prints one JSON object as its last line
of standard output. With ``--trace 0`` every CLI call runs in its own
process, as a user runs it, and the object holds the end-to-end metrics.
With ``--trace 1`` the CLI runs inside this process with spans around the
public functions of each layer (see tracing.py), alternating with
untraced rounds to measure the tracing overhead, and the object holds the
per-layer metrics. The span list is written to ``bench/out/``.

``--seed`` makes the scenario seeds of every round; the same seed gives
the same inputs. Exits 2 without a result when the checkout has no
``src/sarbias``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
CLI_SHIM = BENCH_DIR / "sarbias_cli.py"

CLI_TIMEOUT_S = 150

# `validate` runs at a fixed seed, the CLI's default: its 25 checks hold at
# 3 standard errors each, so over many seeds a few runs fail by chance, and
# a failure count that moved with --seed would not compare between runs.
VALIDATE_UNITS = 1_000_000
VALIDATE_SEED = 1
VALIDATE_CHECKS = 25
# Units one `validate` run draws: 13 two-arm oracle calls and 3 one-arm
# calls (mc_detection_fraction). The traced run recounts them.
VALIDATE_UNITS_DRAWN = (13 * 2 + 3) * VALIDATE_UNITS


class BenchError(RuntimeError):
    """The benchmark could not run its workload."""


@dataclass(frozen=True)
class Pipeline:
    """A design row and its reference twin on one generative setup."""

    units_per_arm: int
    setup: str         # config lines shared by both rows
    design: str        # filter preset of the design row
    expected_ve: Callable  # closed-form VE of the twin, from its config


PIPELINES = {
    "pipeline-scheduled": Pipeline(
        units_per_arm=5000,
        setup=("unit.size = 4\n"
               "unit.transmission_mode = per_day_hazard\n"
               "policy.kind = scheduled\n"
               "policy.interval_days = 7\n"),
        design="harris",
        expected_ve=lambda cfg, estimands: 1.0 - estimands.infrequent_observed_mu(
            cfg.policy.interval_days, cfg.unit.duration)),
    "pipeline-symptom": Pipeline(
        units_per_arm=10000,
        setup=("unit.size = 8\n"
               "unit.transmission_mode = per_unit_bernoulli\n"
               "policy.kind = symptom_prompted\n"),
        design="lyngse",
        expected_ve=lambda cfg, estimands: 1.0 - cfg.unit.symptom.nu),
}
WORKLOADS = (*PIPELINES, "oracle-validate")


@dataclass
class CliRun:
    returncode: int
    stdout: str
    main_s: float
    maxrss_mb: float
    setup_s: float | None = None  # spawn to set-up done; None in-process


@dataclass
class Round:
    units: int
    wall_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    setup_s: list[float]  # one per CLI process of the round


# --- running the CLI -----------------------------------------------------------

def _shim(argv: list[str]) -> tuple[subprocess.CompletedProcess, dict]:
    """Runs the CLI shim; its report gains ``setup_s``, from the spawn to
    the end of the process's set-up, both read on the monotonic clock."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(CLI_SHIM), *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    reports = [line[len("BENCH "):] for line in proc.stderr.splitlines()
               if line.startswith("BENCH ")]
    if not reports:
        raise BenchError(f"sarbias {' '.join(argv)} exited {proc.returncode} "
                         f"without a timing report:\n{proc.stderr[-2000:]}")
    report = json.loads(reports[-1])
    report["setup_s"] = report["ready_mono"] - spawned
    return proc, report


def run_cli_subprocess(argv: list[str]) -> CliRun:
    """One CLI call in its own interpreter, as a user runs it."""
    proc, report = _shim(argv)
    return CliRun(proc.returncode, proc.stdout, report["main_s"],
                  report["maxrss_mb"], report["setup_s"])


def run_cli_inprocess(argv: list[str]) -> CliRun:
    """One CLI call inside this process, for the traced run."""
    from sarbias import cli
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    main_s = time.perf_counter() - start
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return CliRun(rc, buf.getvalue(), main_s, maxrss_mb)


def setup_probe(config: Path | None) -> tuple[float, float]:
    """(set-up time, import time) of a CLI process that only imports
    sarbias and parses the config."""
    _, report = _shim(["--setup-only"]
                      + (["--config", str(config)] if config else []))
    return report["setup_s"], report["import_s"]


# --- workload rounds -------------------------------------------------------------

def write_config(path: Path, scenario_id: str, seed: int, units: int,
                 setup: str, preset: str, index_rule: str) -> None:
    path.write_text(f"scenario.id = {scenario_id}\n"
                    f"scenario.seed = {seed}\n"
                    f"scenario.units_per_arm = {units}\n"
                    f"scenario.index_rule = {index_rule}\n"
                    f"{setup}"
                    f"filter.preset = {preset}\n", encoding="utf-8")


def pipeline_configs(spec: Pipeline, workdir: Path,
                     seed: int) -> tuple[Path, Path]:
    design = workdir / "design.cfg"
    twin = workdir / "twin.cfg"
    write_config(design, spec.design, seed, spec.units_per_arm, spec.setup,
                 spec.design, "earliest_positive")
    write_config(twin, "reference", seed, spec.units_per_arm, spec.setup,
                 "maximal", "true_primary")
    return design, twin


def _one_row(run: CliRun, out: Path) -> tuple[dict | None, list[str]]:
    if run.returncode != 0:
        return None, [f"simulate exited {run.returncode}"]
    rows = checks.parse_csv(out.read_text(encoding="utf-8"))
    out.unlink()
    if len(rows) != 1:
        return None, [f"expected 1 row in {out.name}, got {len(rows)}"]
    return rows[0], []


def pipeline_round(spec: Pipeline, workdir: Path, seed: int,
                   run_cli: Callable[[list[str]], CliRun],
                   problems: list[str]) -> Round:
    """Both rows of one seed, then their checks. An operation is one
    scenario run; it fails when its row's checks fail."""
    from sarbias import estimands, harness
    design_cfg, twin_cfg = pipeline_configs(spec, workdir, seed)
    runs, rows, row_problems = [], [], []
    check_s = 0.0
    for cfg in (design_cfg, twin_cfg):
        out = cfg.with_suffix(".csv")
        runs.append(run_cli(["simulate", "--config", str(cfg),
                             "--out", str(out)]))
        start = time.perf_counter()
        row, found = _one_row(runs[-1], out)
        check_s += time.perf_counter() - start
        rows.append(row)
        row_problems.append(found)

    start = time.perf_counter()
    design, twin = rows
    if twin is not None:
        expected = spec.expected_ve(harness.load_config(str(twin_cfg)),
                                    estimands)
        row_problems[1] += checks.check_reference_row(twin, expected)
    if design is not None:
        row_problems[0] += (checks.check_design_row(design, twin)
                            if twin is not None else ["no twin row to check against"])
    check_s += time.perf_counter() - start

    for label, found in zip(("design", "reference"), row_problems):
        problems.extend(f"seed {seed}, {label} row: {p}" for p in found)
    return Round(units=2 * 2 * spec.units_per_arm,  # two rows, two arms each
                 wall_s=sum(r.main_s for r in runs) + check_s,
                 peak_rss_mb=max(r.maxrss_mb for r in runs),
                 attempted=2, failed=sum(1 for found in row_problems if found),
                 setup_s=[r.setup_s for r in runs if r.setup_s is not None])


def validate_round(run_cli: Callable[[list[str]], CliRun],
                   problems: list[str]) -> Round:
    """One `validate` run; an operation is one of its checks."""
    run = run_cli(["validate", "--units", str(VALIDATE_UNITS),
                   "--seed", str(VALIDATE_SEED)])
    start = time.perf_counter()
    failed, found = checks.check_validate_output(run.stdout, run.returncode,
                                                 VALIDATE_CHECKS)
    check_s = time.perf_counter() - start
    problems.extend(found)
    return Round(units=VALIDATE_UNITS_DRAWN, wall_s=run.main_s + check_s,
                 peak_rss_mb=run.maxrss_mb, attempted=VALIDATE_CHECKS,
                 failed=failed,
                 setup_s=[run.setup_s] if run.setup_s is not None else [])


def round_maker(workload: str, seed: int, workdir: Path,
                run_cli: Callable[[list[str]], CliRun],
                problems: list[str]) -> Callable[[], Round]:
    """A function running the next round; pipeline rounds take their
    scenario seeds, in order, from ``seed``."""
    if workload == "oracle-validate":
        return lambda: validate_round(run_cli, problems)
    spec = PIPELINES[workload]
    seeds = random.Random(seed)
    return lambda: pipeline_round(spec, workdir, seeds.randrange(1, 2 ** 31),
                                  run_cli, problems)


def probe_config(workload: str, workdir: Path) -> Path | None:
    """The config a set-up probe parses: the design config, which each
    pipeline round rewrites with its own seed."""
    if workload == "oracle-validate":
        return None
    return pipeline_configs(PIPELINES[workload], workdir, 1)[0]


# --- metrics -------------------------------------------------------------------

END_TO_END_UNITS = {
    "units_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "simcore.simulate_unit_us": "us",
    "simcore.infections_per_unit": "count",
    "observe.apply_policy_us": "us",
    "observe.tests_per_unit": "count",
    "infer.analyze_unit_us": "us",
    "infer.estimate_ve_sar_ms": "ms",
    "infer.analyzed_per_simulated": "ratio",
    "infer.units_per_scenario_run": "count",
    "harness.self_s": "s",
    "cli.import_s": "s",
    "mc.infrequent_observed_units_per_s": "1/s",
    "mc.symptom_prompted_units_per_s": "1/s",
    "mc.fully_observed_naive_units_per_s": "1/s",
    "mc.detection_fraction_units_per_s": "1/s",
    "mc.units_per_validate": "count",
    "mc.array_mb_per_call": "MB-computed",
    "validation.self_s": "s",
    "trace.overhead_pct": "%",
}
ORACLES = ("infrequent_observed", "symptom_prompted", "fully_observed_naive",
           "detection_fraction")


def repeat_for(seconds: float, step: Callable[[], None],
               min_steps: int = 1) -> None:
    """Calls ``step`` at least ``min_steps`` times, then again while one
    more step of the median length so far still ends within ``seconds``
    of the start, so that a run lasts about ``seconds`` however long its
    rounds are."""
    start = time.perf_counter()
    lengths: list[float] = []
    while (len(lengths) < min_steps or time.perf_counter() - start
           + statistics.median(lengths) <= seconds):
        step_start = time.perf_counter()
        step()
        lengths.append(time.perf_counter() - step_start)


def measure(workload: str, seed: int, seconds: float, workdir: Path,
            problems: list[str]) -> tuple[list[Round], dict]:
    """End-to-end run: every CLI call in its own process. Each process,
    and one set-up probe after every round, gives a ``setup_s`` sample."""
    next_round = round_maker(workload, seed, workdir, run_cli_subprocess,
                             problems)
    config = probe_config(workload, workdir)
    setup_probe(config)  # the first import in a checkout compiles bytecode
    rounds, setups = [], []

    def step() -> None:
        rounds.append(next_round())
        setups.extend(rounds[-1].setup_s)
        setups.append(setup_probe(config)[0])

    repeat_for(seconds, step)
    metrics = {
        "units_per_s": statistics.median(r.units / r.wall_s for r in rounds),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
    }
    return rounds, metrics


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def pipeline_layer_metrics(tr) -> dict:
    n_units = len(tr.durations_ns("simcore.simulate_unit"))

    def per_unit(name: str) -> float:
        return tr.total_count(name) / n_units

    return {
        "simcore.simulate_unit_us": _mean(tr.durations_ns("simcore.simulate_unit")) / 1e3,
        "simcore.infections_per_unit": per_unit("simcore.simulate_unit"),
        "observe.apply_policy_us": _mean(tr.durations_ns("observe.apply_policy")) / 1e3,
        "observe.tests_per_unit": per_unit("observe.apply_policy"),
        "infer.analyze_unit_us": _mean(tr.durations_ns("infer.analyze_unit")) / 1e3,
        "infer.estimate_ve_sar_ms": _mean(tr.durations_ns("infer.estimate_ve_sar")) / 1e6,
        "infer.analyzed_per_simulated": per_unit("infer.analyze_unit"),
        "infer.units_per_scenario_run": n_units / len(
            tr.durations_ns("harness.run_scenario")),
        "harness.self_s": _mean(tr.self_times_ns("harness.run_scenario")) / 1e9,
    }


def oracle_layer_metrics(tr, problems: list[str]) -> dict:
    metrics = {}
    drawn = 0
    for oracle in ORACLES:
        name = f"mc.{oracle}"
        units = tr.total_count(name)
        drawn += units
        metrics[f"{name}_units_per_s"] = units / (sum(tr.durations_ns(name)) / 1e9)
    n_suites = len(tr.durations_ns("validation.run_validation_suite"))
    metrics["mc.units_per_validate"] = drawn / n_suites
    if drawn != n_suites * VALIDATE_UNITS_DRAWN:
        problems.append(f"validate drew {drawn / n_suites:g} units per run; "
                        f"units_per_s assumes {VALIDATE_UNITS_DRAWN}")
    metrics["validation.self_s"] = _mean(
        tr.self_times_ns("validation.run_validation_suite")) / 1e9
    metrics["mc.array_mb_per_call"] = oracle_array_mb()
    return metrics


def oracle_array_mb() -> float:
    """Largest tracemalloc peak of one oracle call in one `validate` run:
    the bytes of the arrays an oracle holds at once, counted from numpy's
    allocations rather than sampled from the resident set."""
    from sarbias import validation
    from tracing import ORACLE_SPANS
    peaks = []

    def measured(fn):
        def call(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return call

    saved = {attr: getattr(validation, attr) for _, attr, _, _ in ORACLE_SPANS[1:]}
    tracemalloc.start()
    try:
        for attr, fn in saved.items():
            setattr(validation, attr, measured(fn))
        validation.run_validation_suite(units_per_arm=VALIDATE_UNITS,
                                        seed=VALIDATE_SEED)
    finally:
        tracemalloc.stop()
        for attr, fn in saved.items():
            setattr(validation, attr, fn)
    return max(peaks) / 2 ** 20


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path,
                   problems: list[str]) -> tuple[list[Round], dict]:
    """Traced run: the CLI inside this process, traced and untraced rounds
    alternating."""
    from tracing import ORACLE_SPANS, PIPELINE_SPANS, Tracer
    import sarbias.cli  # noqa: F401  (import once, outside the rounds)
    oracle = workload == "oracle-validate"
    tracer = Tracer()
    next_round = round_maker(workload, seed, workdir, run_cli_inprocess,
                             problems)
    traced, untraced = [], []

    def step() -> None:
        if len(traced) <= len(untraced):
            tracer.install(ORACLE_SPANS if oracle else PIPELINE_SPANS)
            try:
                traced.append(next_round())
            finally:
                tracer.uninstall()
        else:
            untraced.append(next_round())

    repeat_for(seconds, step, min_steps=2)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_csv(str(OUT_DIR / f"trace-{workload}.csv.gz"))

    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if oracle:
        metrics.update(oracle_layer_metrics(tracer, problems))
    else:
        metrics.update(pipeline_layer_metrics(tracer))
    config = probe_config(workload, workdir)
    metrics["cli.import_s"] = statistics.median(
        setup_probe(config)[1] for _ in range(5))
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced) - 1.0)
    return traced + untraced, metrics


# --- entry point -----------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One run of one workload, as the result object to print."""
    problems: list[str] = []
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = measure_traced if trace else measure
        rounds, metrics = run(workload, seed, seconds, workdir, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all",
                        help="one workload, or all of them in turn with one "
                             "result line each, led by a \"workload\" key")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sarbias" / "cli.py").is_file():
        print(f"error: no sarbias sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            result = {"workload": workload, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
