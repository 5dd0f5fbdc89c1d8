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


# The flags of `analytic` and their defaults: the parameter bundles'
# fields, then the bare arguments of the closed forms.
_FLAGS = ({f.name: f.default
           for f in fields(SymptomModelParams) + fields(DurationModelParams)}
          | {"target_ve": 0.5, "k": 7.0, "rho_v": 8.0, "tau_v": 0.01})
_DURATION = tuple(f.name for f in fields(DurationModelParams))


def _bundle(cls, a):
    """The parameter bundle ``cls`` from the flags, which it checks."""
    return cls(**{f.name: getattr(a, f.name) for f in fields(cls)})


# Each closed form of `analytic`: the flags it reads, and its value from
# the flags. A form reads the symptom fields its closed form uses (the
# bundle checks each field alone), but all of the duration bundle, whose
# checks tie its fields together.
_FORMS = {
    "symptom-target-mu": (
        ("lambda_symptom", "delta", "nu", "rho_symptom"),
        lambda a: estimands.symptom_prompted_target_mu(
            _bundle(SymptomModelParams, a))),
    "symptom-actual-mu": (
        ("nu",), lambda a: estimands.symptom_prompted_actual_mu(
            _bundle(SymptomModelParams, a))),
    "invert-nu": (
        ("target_ve", "lambda_symptom", "delta", "rho_symptom"),
        lambda a: estimands.invert_target_to_nu(
            a.target_ve, (s := _bundle(SymptomModelParams, a)).lambda_symptom,
            s.delta, s.rho_symptom)),
    "infrequent-target-mu": (
        _DURATION, lambda a: estimands.infrequent_target_mu(
            _bundle(DurationModelParams, a))),
    "sampling-fraction": (
        ("k", "rho_v", "c"),
        lambda a: estimands.sampling_fraction(a.k, a.rho_v, a.c)),
    "infrequent-observed-component": (
        ("k", "rho_v", "c", "tau_v"),
        lambda a: estimands.infrequent_observed_component(
            a.k, a.rho_v, a.c, a.tau_v)),
    "infrequent-observed-mu": (
        ("k",) + _DURATION, lambda a: estimands.infrequent_observed_mu(
            a.k, _bundle(DurationModelParams, a))),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarbias",
        description="Quantify testing-strategy bias in VE-vs-SAR estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", help="evaluate a closed form")
    p_an.add_argument("--form", choices=tuple(_FORMS), required=True)
    for name in _FLAGS:  # absent unless given: see _run_analytic
        p_an.add_argument(_flag(name), type=float, default=argparse.SUPPRESS)

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
    """Refuse a flag the form does not read; default the others."""
    reads, form = _FORMS[args.form]
    given = {name: value for name, value in vars(args).items() if name in _FLAGS}
    unread = [_flag(name) for name in _FLAGS if name in given and name not in reads]
    if unread:
        raise ValueError(f"--form {args.form} does not read {', '.join(unread)}")
    print(harness.fmt12(form(argparse.Namespace(**(_FLAGS | given)))))
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
