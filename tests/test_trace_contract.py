"""The names and signatures the benchmark tracer (benchmark/tracer.py)
relies on: it rebinds the public solver and build functions in every
symbeta module, reads ``len(T.rows)`` as the edge count, and hooks the
private power-iteration halves, reading ``max_iter`` at a fixed argument
position and the iteration count at ``result[2]``."""

import importlib.util
import time
from pathlib import Path

from symbeta import cli, operator
from symbeta.expansion import Params
from symbeta.potentials import parse_potential
from symbeta.shift import build_kneading

_spec = importlib.util.spec_from_file_location(
    "benchmark_tracer", Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py")
tracer_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_module)

POTENTIAL = "digit_table:0.3,0,0.1,0.05"


def _toy_system():
    p = Params.make(3, "3.5")
    return operator.build_system(p, build_kneading(p, 64), parse_potential(POTENTIAL), 4)


def _traced(call):
    tracer = tracer_module.Tracer()
    start = time.perf_counter()
    with tracer.installed():
        result = call()
    return result, tracer, tracer.layer_metrics(time.perf_counter() - start)


def test_cli_passes_report_solver_counts(capsys):
    edges = len(_toy_system().rows)
    args = ["--m", "3", "--beta", "3.5", "--depth", "4", "--potential", POTENTIAL]
    code, _, spec = _traced(lambda: cli.main(["spectrum", *args]))
    assert code == 0
    # the command table must reach the rebound cmd_* name
    assert spec["reporting.cmd_spectrum.s"] > 0
    assert spec["operator.power_solve.calls"] > 0
    assert spec["operator.power_solve.iters"] > 0
    assert spec["operator.build_system.edges"] == edges > 0
    code, _, zt = _traced(lambda: cli.main(["zerotemp", *args]))
    assert code == 0
    assert zt["operator.log_power_solve.calls"] > 0
    assert zt["operator.build_system.edges"] == edges
    code, _, th = _traced(lambda: cli.main(["thermo", *args]))
    assert code == 0
    for span in ("thermo.random_markov_measure.s", "thermo.variational_gap.s",
                 "thermo.entropy_inf_check.s"):
        assert th[span] > 0, span
    # thermo solves its system once, at t = 1
    assert th["operator.power_solve.calls"] == 1
    assert th["operator.log_power_solve.calls"] == 0
    capsys.readouterr()


def test_max_iter_hooks_see_both_halves():
    T = _toy_system()
    eig, _, m = _traced(lambda: operator.log_power_solve(T, max_iter=3))
    assert eig.iterations == 6
    assert m["operator.log_power_solve.max_iter_hits"] == 2
    _, tracer, _ = _traced(lambda: operator.power_solve(T, max_iter=3))
    hits = [s.counts.get("max_iter_hits") for s in tracer.spans
            if s.name == "operator.power_solve"]
    assert hits == [2]
