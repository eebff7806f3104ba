"""The benchmark's output checks pass on the output of every subcommand,
so a renamed or removed field they read shows here first; and the check on
``thermo`` can fail: a run whose pressure is 0.2 too low must be flagged,
and the same run with the true pressure must pass.  ``benchmark/checks.py``
is loaded read-only, as the benchmark worker loads it, with ``workloads``
importable by that name."""

import dataclasses
import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symbeta import cli, operator

BENCH = Path(__file__).resolve().parents[1] / "benchmark"
POT = "digit_table:0.3,0,0.1,0.05"
ARGV = ["thermo", "--m", "3", "--beta", "3.5", "--depth", "4", "--potential", POT]

# (argv, keyword arguments of workloads.Case) of one small run per check
CASES = [
    (f"spectrum --m 3 --beta 3.5 --depth 4 --potential {POT}", {}),
    (f"spectrum --m 3 --beta 4 --depth 3 --potential {POT}",
     {"full_shift_lambda": sum(math.exp(v) for v in (0.3, 0, 0.1, 0.05))}),
    (f"zerotemp --m 3 --beta 3.5 --depth 4 --potential {POT}", {}),
    (f"zerotemp --m 3 --beta 3.5 --depth 4 --potential {POT} --format csv", {}),
    ("expand --m 3 --beta 3.5 --a 0.9 --depth 40 --kneading-depth 42",
     {"exact_expand": (Fraction("0.9"), Fraction("3.5"))}),
    ("check --m 3 --beta 3.5 --depth 4", {}),
    ("words --m 3 --beta 3.5 --depth 4 --format jsonl", {}),
]


def _load(name, monkeypatch):
    """Import benchmark/<name>.py under its own name, registered in
    ``sys.modules`` for this test only (its dataclasses look it up)."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_check_thermo_flags_a_low_pressure(monkeypatch, capsys):
    workloads = _load("workloads", monkeypatch)
    checks = _load("checks", monkeypatch)
    case = workloads.Case(tuple(ARGV))

    def check_run():
        assert cli.main(ARGV) == 0
        return checks.check_thermo(case, capsys.readouterr().out)

    assert check_run() == []
    solve = operator.power_solve

    def low_solve(*args, **kwargs):
        eig = solve(*args, **kwargs)
        return dataclasses.replace(eig, log_lam=eig.log_lam - 0.2)

    monkeypatch.setattr(operator, "power_solve", low_solve)
    errors = check_run()
    assert any(e.startswith("worst_gap_violation") for e in errors), errors


@pytest.mark.parametrize("argv, kwargs", CASES, ids=[c[0] for c in CASES])
def test_checks_pass_on_each_command(argv, kwargs, monkeypatch, capsys):
    workloads = _load("workloads", monkeypatch)
    checks = _load("checks", monkeypatch)
    case = workloads.Case(tuple(argv.split()), **kwargs)
    assert cli.main(list(case.argv)) in case.exits
    out = capsys.readouterr().out
    assert checks.check_output(case, out) == []
    if case.command == "zerotemp" and case.arg("--format") is None:
        # check_zerotemp compares the two bounds only when both are printed
        summary, _ = checks.parse_table(out)
        assert {"max_average_lower", "max_average_upper"} <= summary.keys()
