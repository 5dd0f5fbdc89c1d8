"""Command-line interface.

Subcommands:
  analytic   evaluate one closed form from flags
  simulate   run one scenario config through the object pipeline, write CSV
  sweep      reproduce a figure sweep (1a, 1b, a1) over reference configs
             built from the package defaults, write CSV
  validate   run the oracle-vs-analytic suite; exit nonzero on failure
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from . import estimands, harness, validation
from .params import DurationModelParams, SymptomModelParams


def _observed_component(a, s, d) -> float:
    """The component at ``--tau-v``, a daily hazard that, as the duration
    bundle's ``tau0``, must keep ``tau_v * (rho_v + c)`` in [0, 1]."""
    value = estimands.infrequent_observed_component(a.k, a.rho_v, d.c, a.tau_v)
    if not 0.0 <= a.tau_v * (a.rho_v + d.c) <= 1.0:
        raise ValueError(f"tau_v must be in [0, 1 / (rho_v + c)], got {a.tau_v}")
    return value


# Each closed form of `analytic`, from the flags and the parameter bundles
# built from them.
_FORMS = {
    "symptom-target-mu": lambda a, s, d: estimands.symptom_prompted_target_mu(s),
    "symptom-actual-mu": lambda a, s, d: estimands.symptom_prompted_actual_mu(s),
    "invert-nu": lambda a, s, d: estimands.invert_target_to_nu(
        a.target_ve, s.lambda_symptom, s.delta, s.rho_symptom),
    "infrequent-target-mu": lambda a, s, d: estimands.infrequent_target_mu(d),
    "sampling-fraction": lambda a, s, d: estimands.sampling_fraction(
        a.k, a.rho_v, d.c),
    "infrequent-observed-component": _observed_component,
    "infrequent-observed-mu":
        lambda a, s, d: estimands.infrequent_observed_mu(a.k, d),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarbias",
        description="Quantify testing-strategy bias in VE-vs-SAR estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", help="evaluate a closed form")
    p_an.add_argument("--form", choices=tuple(_FORMS), required=True)
    for f in fields(SymptomModelParams) + fields(DurationModelParams):
        p_an.add_argument("--" + f.name.replace("_", "-"), type=float,
                          default=f.default)
    p_an.add_argument("--target-ve", type=float, default=0.5)
    p_an.add_argument("--k", type=float, default=7.0)
    p_an.add_argument("--rho-v", type=float, default=8.0)
    p_an.add_argument("--tau-v", type=float, default=0.01)

    p_sim = sub.add_parser("simulate", help="run one scenario to CSV")
    p_sim.add_argument("--config", metavar="PATH", help="scenario config file")
    p_sim.add_argument("--out", metavar="PATH", help="output CSV path")
    p_sim.add_argument("--seed", type=int, help="override the RNG seed")
    p_sim.add_argument("--units", type=int, dest="units_per_arm",
                       help="override units per arm")

    p_sweep = sub.add_parser("sweep", help="reproduce a figure sweep to CSV")
    p_sweep.add_argument("--figure", choices=tuple(harness.FIGURE_GRIDS),
                         required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--units", type=int, default=0,
                         help="units per arm for the Monte Carlo columns")
    p_sweep.add_argument("--out", metavar="PATH", required=True)

    p_val = sub.add_parser("validate", help="oracle-vs-analytic suite")
    p_val.add_argument("--units", type=int, default=1_000_000)
    p_val.add_argument("--seed", type=int, default=1)
    return parser


def _run_analytic(args: argparse.Namespace) -> int:
    s, d = (cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
            for cls in (SymptomModelParams, DurationModelParams))
    print(harness.fmt12(_FORMS[args.form](args, s, d)))
    return 0


def _check_out(path: str) -> None:
    """Refuse an empty output path, one in a missing directory, or one
    naming a directory, before any work. The write reports whatever else
    goes wrong."""
    if not path:
        raise ValueError("--out must name a file, got ''")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"cannot write {path}: No such file or directory")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: Is a directory")


def _write(rows: list[harness.ResultRow], path: str) -> int:
    try:
        harness.write_csv(rows, path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _check_min(flag: str, value: int | None, low: int = 0) -> None:
    """Refuse a flag below its least value; an unset flag passes."""
    if value is not None and value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _run_simulate(args: argparse.Namespace) -> int:
    if not (args.config and args.out):
        raise ValueError("simulate requires --config PATH and --out PATH")
    _check_min("--seed", args.seed)
    _check_min("--units", args.units_per_arm)
    _check_out(args.out)
    overrides = {name: getattr(args, name) for name in ("seed", "units_per_arm")
                 if getattr(args, name) is not None}
    cfg = replace(harness.load_config(args.config), **overrides)
    return _write(harness.run_scenario(cfg), args.out)


def _run_sweep(args: argparse.Namespace) -> int:
    _check_min("--seed", args.seed)
    _check_min("--units", args.units)
    _check_out(args.out)
    return _write(harness.sweep_figure(args.figure, units_per_arm=args.units,
                                       seed=args.seed), args.out)


def _run_validate(args: argparse.Namespace) -> int:
    _check_min("--seed", args.seed)
    _check_min("--units", args.units, 1)
    ok = validation.main_validation(units_per_arm=args.units, seed=args.seed)
    return 0 if ok else 1


_COMMANDS = {"analytic": _run_analytic, "simulate": _run_simulate,
             "sweep": _run_sweep, "validate": _run_validate}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except ValueError as exc:  # bad flags, unwritable paths, empty oracle arms
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
