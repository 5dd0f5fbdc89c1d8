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
import sys
from dataclasses import fields, replace

from . import estimands, harness, validation
from .params import DurationModelParams, SymptomModelParams

_FORMS = ("symptom-target-mu", "symptom-actual-mu", "invert-nu",
          "infrequent-target-mu", "sampling-fraction",
          "infrequent-observed-component", "infrequent-observed-mu")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarbias",
        description="Quantify testing-strategy bias in VE-vs-SAR estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", help="evaluate a closed form")
    p_an.add_argument("--form", choices=_FORMS, required=True)
    for f in fields(SymptomModelParams) + fields(DurationModelParams):
        p_an.add_argument("--" + f.name.replace("_", "-"), type=float,
                          default=f.default)
    p_an.add_argument("--target-ve", type=float, default=0.5)
    p_an.add_argument("--k", type=float, default=7.0)
    p_an.add_argument("--rho-v", type=float, default=8.0)
    p_an.add_argument("--tau-v", type=float, default=0.01)

    p_sim = sub.add_parser("simulate", help="run one scenario to CSV")
    p_sim.add_argument("--config", metavar="PATH", help="scenario config file")
    p_sim.add_argument("--seed", type=int, help="override the RNG seed")
    p_sim.add_argument("--units", type=int, help="override units per arm")
    p_sim.add_argument("--out", metavar="PATH",
                       help="override the output CSV path")

    p_sweep = sub.add_parser("sweep", help="reproduce a figure sweep to CSV")
    p_sweep.add_argument("--figure", choices=tuple(harness.FIGURE_GRIDS),
                         required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--units", type=int, default=0,
                         help="units per arm for the Monte Carlo columns")
    p_sweep.add_argument("--out", metavar="PATH", required=True)
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="worker threads for the oracle rows")

    p_val = sub.add_parser("validate", help="oracle-vs-analytic suite")
    p_val.add_argument("--units", type=int, default=1_000_000)
    p_val.add_argument("--seed", type=int, default=1)
    p_val.add_argument("--threads", type=int, default=1,
                       help="worker threads for the oracle checks")
    return parser


def _run_analytic(args: argparse.Namespace) -> int:
    s, d = (cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
            for cls in (SymptomModelParams, DurationModelParams))
    form = args.form
    if form == "symptom-target-mu":
        value = estimands.symptom_prompted_target_mu(s)
    elif form == "symptom-actual-mu":
        value = estimands.symptom_prompted_actual_mu(s)
    elif form == "invert-nu":
        value = estimands.invert_target_to_nu(args.target_ve, args.lambda_symptom,
                                              args.delta, args.rho_symptom)
    elif form == "infrequent-target-mu":
        value = estimands.infrequent_target_mu(d)
    elif form == "sampling-fraction":
        value = estimands.sampling_fraction(args.k, args.rho_v, args.c)
    elif form == "infrequent-observed-component":
        value = estimands.infrequent_observed_component(args.k, args.rho_v,
                                                        args.c, args.tau_v)
    else:
        value = estimands.infrequent_observed_mu(args.k, d)
    print(harness.fmt12(value))
    return 0


def _apply_overrides(cfg: harness.ScenarioConfig,
                     args: argparse.Namespace) -> harness.ScenarioConfig:
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.units is not None:
        kwargs["units_per_arm"] = args.units
    if args.out is not None:
        kwargs["out_path"] = args.out
    return replace(cfg, **kwargs) if kwargs else cfg


def _run_simulate(args: argparse.Namespace) -> int:
    if not args.config:
        print("simulate requires --config PATH", file=sys.stderr)
        return 2
    try:
        cfg = harness.load_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not cfg.out_path:
        print("no output path: set scenario.out or pass --out", file=sys.stderr)
        return 2
    rows = harness.run_scenario(cfg)
    harness.write_csv(rows, cfg.out_path)
    print(f"wrote {len(rows)} rows to {cfg.out_path}")
    return 0


def _check_shared_flags(args: argparse.Namespace) -> None:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")


def _run_sweep(args: argparse.Namespace) -> int:
    _check_shared_flags(args)
    if args.units < 0:
        raise ValueError(f"--units must be >= 0, got {args.units}")
    rows = harness.sweep_figure(args.figure, units_per_arm=args.units,
                                seed=args.seed, threads=args.threads)
    harness.write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    _check_shared_flags(args)
    if args.units < 1:
        raise ValueError(f"--units must be >= 1, got {args.units}")
    ok = validation.main_validation(units_per_arm=args.units, seed=args.seed,
                                    threads=args.threads)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _run_simulate(args)
    run = {"analytic": _run_analytic, "sweep": _run_sweep,
           "validate": _run_validate}[args.command]
    try:
        return run(args)
    except ValueError as exc:  # bad flag values and oracles with empty arms
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
