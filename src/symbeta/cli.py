"""Command-line surface: expand, check, words, spectrum, thermo, zerotemp.

Exit codes: 0 success, 2 invalid configuration, 3 regime or transitivity
refusal, 4 non-convergence.  The configuration is merged from three
sources, each later one winning: the --config file, the environment
variable SYMBETA_TOL (the tolerance only) and the explicit flags.  Each
source gives key -> text, and ``RunConfig.from_mapping`` converts and
checks the merged mapping once.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .operator import RegimeError
from .potentials import MissingBlockError
from .reporting import (ConfigError, Report, RunConfig, cmd_check, cmd_expand,
                        cmd_spectrum, cmd_thermo, cmd_words, cmd_zerotemp,
                        render_report)
from .shift import UndecidedError

# Each runner looks its cmd_* up when called, so a rebinding of the module
# names (as benchmark/tracer.py does) is seen.
_COMMANDS = {
    "expand": lambda cfg, args: cmd_expand(cfg),
    "check": lambda cfg, args: cmd_check(cfg),
    "words": lambda cfg, args: cmd_words(cfg),
    "spectrum": lambda cfg, args: cmd_spectrum(cfg, full=args.full),
    "thermo": lambda cfg, args: cmd_thermo(cfg),
    "zerotemp": lambda cfg, args: cmd_zerotemp(cfg),
}

# RunConfig fields with a flag on every subcommand, and the flag's help
_FLAGS = {
    "m": None,
    "beta": "decimal string or one of: golden, beta_T, m+1",
    "depth": None,
    "kneading_depth": None,
    "potential": "zero | digit_table:v0,v1,... | "
                 "block_table:k:w=v,... | geometric:c=..,theta=..,kmax=..",
    "t_grid": "comma-separated increasing values (read by zerotemp); a "
              "negative first value needs the = form, --t-grid=-4,-2,-1",
    "tol": None,
    "fmt": "table | jsonl | csv",
    "seed": None,
    "max_period": None,
}

_FIELDS = {f.name for f in fields(RunConfig)}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Flags are kept as text; ``config_from_args`` converts them.  Every
    subcommand is known, but only ``command`` gets its flags (all of them
    do when it is None), so a run builds the one parser it reads."""
    ap = argparse.ArgumentParser(
        prog="symbeta",
        description="thermodynamic formalism on symmetric beta-shifts")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        if command not in (None, name):
            continue
        for field_name, help_text in _FLAGS.items():
            flag = "format" if field_name == "fmt" else field_name.replace("_", "-")
            sp.add_argument(f"--{flag}", dest=field_name, help=help_text)
        sp.add_argument("--config", help="flat key = value config file")
        if name == "expand":
            sp.add_argument("--a", help="the number to expand (decimal string)")
        if name == "spectrum":
            sp.add_argument("--full", action="store_true",
                            help="dump all cylinder weights, not just the top")
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    kv: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        kv.update(RunConfig.parse_text(text))
    env = os.environ.get("SYMBETA_TOL")
    if env is not None:
        kv["tol"] = env
    kv.update((k, v) for k, v in vars(args).items() if k in _FIELDS and v is not None)
    return RunConfig.from_mapping(kv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand is the first argument; anything else gets every flag
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        cfg = config_from_args(args)
        rep = _COMMANDS[args.command](cfg, args)
    except (ConfigError, MissingBlockError) as exc:
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
