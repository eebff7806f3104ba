"""Command-line surface: expand, check, words, spectrum, thermo, zerotemp.

Exit codes: 0 success, 2 invalid configuration, 3 regime or transitivity
refusal, 4 non-convergence.  The environment variable SYMBETA_TOL overrides
the default tolerance (an explicit --tol always wins).
"""

from __future__ import annotations

import argparse
import os
import sys

from .operator import RegimeError
from .reporting import (ConfigError, Report, RunConfig, cmd_check, cmd_expand,
                        cmd_spectrum, cmd_thermo, cmd_words, cmd_zerotemp,
                        render_report)
from .shift import UndecidedError

_COMMANDS = ("expand", "check", "words", "spectrum", "thermo", "zerotemp")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symbeta",
        description="thermodynamic formalism on symmetric beta-shifts")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--beta", type=str, default=None,
                        help="decimal string or one of: golden, beta_T, m+1")
        sp.add_argument("--depth", type=int, default=None)
        sp.add_argument("--kneading-depth", type=int, default=None)
        sp.add_argument("--potential", type=str, default=None,
                        help="zero | digit_table:v0,v1,... | "
                             "block_table:k:w=v,... | geometric:c=..,theta=..,kmax=..")
        sp.add_argument("--t-grid", type=str, default=None,
                        help="comma-separated increasing values")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--format", type=str, default=None,
                        choices=("table", "jsonl", "csv"))
        sp.add_argument("--config", type=str, default=None,
                        help="flat key = value config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--max-period", type=int, default=None)
        if name == "expand":
            sp.add_argument("--a", type=str, default=None,
                            help="the number to expand (decimal string)")
        if name == "spectrum":
            sp.add_argument("--full", action="store_true",
                            help="dump all cylinder weights, not just the top")
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base = RunConfig.from_text(fh.read())
    else:
        base = RunConfig()
    updates: dict[str, object] = {}
    mapping = {
        "m": "m", "beta": "beta", "depth": "depth",
        "kneading_depth": "kneading_depth", "potential": "potential",
        "tol": "tol", "format": "fmt", "seed": "seed",
        "max_period": "max_period",
    }
    for arg_name, field_name in mapping.items():
        v = getattr(args, arg_name, None)
        if v is not None:
            updates[field_name] = v
    if getattr(args, "t_grid", None) is not None:
        updates["t_grid"] = tuple(float(x) for x in args.t_grid.split(",") if x)
    if getattr(args, "a", None) is not None:
        updates["a"] = args.a
    if "tol" not in updates:
        env = os.environ.get("SYMBETA_TOL")
        if env is not None:
            try:
                updates["tol"] = float(env)
            except ValueError as exc:
                raise ConfigError(f"bad SYMBETA_TOL: {env!r}") from exc
    from dataclasses import replace
    try:
        return replace(base, **updates)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def dispatch(command: str, cfg: RunConfig, args: argparse.Namespace) -> Report:
    if command == "expand":
        return cmd_expand(cfg)
    if command == "check":
        return cmd_check(cfg)
    if command == "words":
        return cmd_words(cfg)
    if command == "spectrum":
        return cmd_spectrum(cfg, full=getattr(args, "full", False))
    if command == "thermo":
        return cmd_thermo(cfg)
    if command == "zerotemp":
        return cmd_zerotemp(cfg)
    raise ConfigError(f"unknown command {command!r}")


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        rep = dispatch(args.command, cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UndecidedError as exc:
        print(f"config error: {exc} (increase --kneading-depth)", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(render_report(rep, cfg.fmt))
    return rep.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
