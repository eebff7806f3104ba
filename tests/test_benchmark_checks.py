"""The benchmark's output check on ``thermo`` can fail: a run whose
pressure is 0.2 too low must be flagged, and the same run with the true
pressure must pass.  ``benchmark/checks.py`` is loaded read-only, as the
benchmark worker loads it, with ``workloads`` importable by that name."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from symbeta import cli, operator

BENCH = Path(__file__).resolve().parents[1] / "benchmark"
ARGV = ["thermo", "--m", "3", "--beta", "3.5", "--depth", "4",
        "--potential", "digit_table:0.3,0,0.1,0.05"]


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
