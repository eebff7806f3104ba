"""Outside-in span tracer for the symbeta package.

The package is not edited.  ``Tracer.installed()`` wraps the public
functions named in ``SPANS`` and rebinds each wrapper under every name
that refers to the original in any ``symbeta.*`` module.  A function body
looks a module-level name up when it runs, so the wrappers also see calls
between and within modules (``zero_temperature_scan -> max_ergodic_average
-> periodic_orbits -> is_admissible_point``).  The modules ``algebraic``,
``sequences`` and ``potentials`` get no spans; their time shows as self
time of the callers (``expansion.*``, ``thermo.periodic_orbits``,
``operator.build_system``).

Spans (name, start, end, parent id) stay in memory until the pass ends;
``layer_metrics`` then derives self times and counts.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

_now = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict = {}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _system_counts(c, args, kwargs, T):
    c["words"] = T.n_words
    c["edges"] = len(T.rows)


def _solve_counts(c, args, kwargs, eig):
    edges = len(_arg(args, kwargs, 0, "T").rows)
    c["iters"] = eig.iterations
    c["unconverged"] = int(not eig.converged)
    # two flops (multiply, add) per edge per matvec, from the array sizes
    c["matvec_flops"] = 2 * edges * eig.iterations


def _render_counts(c, args, kwargs, text):
    c["bytes"] = len(text.encode())


def _orbit_counts(c, args, kwargs, orbits):
    c["orbits"] = len(orbits)


def _enumerate_counts(c, args, kwargs, basis):
    c["words"] = len(basis)
    # (p, K, n) to count the candidates after the pass, off the clock
    c["level"] = (_arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "K"),
                  _arg(args, kwargs, 2, "n"))


# Traced public functions: "module.function" -> counter, called after the
# span closes with (counts, args, kwargs, result).
SPANS = {
    "cli.main": None,
    **{f"reporting.cmd_{c}": None
       for c in ("expand", "check", "words", "spectrum", "thermo", "zerotemp")},
    "reporting.render_report": _render_counts,
    "expansion.greedy_expansion": None,
    "expansion.lazy_expansion": None,
    "expansion.quasi_greedy": None,
    "shift.build_kneading": None,
    "shift.check_transitivity": None,
    "shift.enumerate_words": _enumerate_counts,
    "shift.forbidden_words": None,
    "shift.preimage_digits": None,
    "shift.is_admissible_point": None,
    "operator.build_system": _system_counts,
    "operator.power_solve": _solve_counts,
    "operator.log_power_solve": _solve_counts,
    "operator.lk_solve": None,
    "operator.normalize_potential": None,
    "thermo.periodic_orbits": _orbit_counts,
    "thermo.random_markov_measure": None,
    "thermo.variational_gap": None,
    "thermo.entropy_inf_check": None,
    "thermo.zero_temperature_scan": None,
    "thermo.max_ergodic_average": None,
    "thermo.entropy_of_gibbs": None,
}

# Private power-iteration halves, hooked for one count only (no span): how
# often a half ran into max_iter.  Argument position of max_iter in each.
MAX_ITER_HOOKS = {"operator._power_one": 2, "operator._log_power_one": 3}

ROOTS = ("cli.main",) + tuple(n for n in SPANS if n.startswith("reporting.cmd_"))

# Per-layer metrics: name -> unit.  Every one is reported on every
# workload, 0 where the layer does not run.
LAYER_METRICS = {
    **{f"{name}.s": "s" for name in SPANS},
    "operator.build_system.words": "count",
    "operator.build_system.edges": "count",
    "shift.enumerate_words.calls": "count",
    "shift.enumerate_words.words": "count",
    "shift.enumerate_words.accept_ratio": "ratio",
    "operator.log_power_solve.calls": "count",
    "operator.log_power_solve.iters": "count",
    "operator.log_power_solve.unconverged": "count",
    "operator.log_power_solve.max_iter_hits": "count",
    "operator.power_solve.calls": "count",
    "operator.power_solve.iters": "count",
    "operator.power_solve.unconverged": "count",
    "operator.matvec_flops": "flop-computed",
    "thermo.periodic_orbits.orbits": "count",
    "thermo.periodic_orbits.yield": "ratio",
    "shift.is_admissible_point.calls": "count",
    "shift.preimage_digits.calls": "count",
    "reporting.render_report.bytes": "B",
    "trace_coverage": "ratio",
    "trace_overhead_s": "s",
    "fail_frac": "ratio",
}


def _resolve(qualname: str):
    mod, _, attr = qualname.rpartition(".")
    return getattr(importlib.import_module(f"symbeta.{mod}"), attr)


class Tracer:
    """Collects the spans of one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _now()
                stack.pop()
            if count is not None:
                count(span.counts, args, kwargs, result)
            return result
        return traced

    def _hook(self, fn, max_iter_pos):
        spans, stack = self.spans, self._stack

        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack and result[2] >= args[max_iter_pos]:
                c = spans[stack[-1]].counts
                c["max_iter_hits"] = c.get("max_iter_hits", 0) + 1
            return result
        return hooked

    @contextmanager
    def installed(self):
        """Rebind the wrappers in every symbeta module; restore on exit."""
        repl = {}
        for name, count in SPANS.items():
            self._originals[name] = fn = _resolve(name)
            repl[id(fn)] = (fn, self._wrap(name, fn, count))
        for name, pos in MAX_ITER_HOOKS.items():
            fn = _resolve(name)
            repl[id(fn)] = (fn, self._hook(fn, pos))
        rebound = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "symbeta" and not mod_name.startswith("symbeta."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = repl.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    rebound.append((mod, attr, val))
        try:
            yield self
        finally:
            for mod, attr, val in rebound:
                setattr(mod, attr, val)

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the pass; ``wall`` is its traced wall time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        agg: dict[str, dict] = {}
        enum_levels = []
        orbit_words = 0
        for i, s in enumerate(spans):
            a = agg.setdefault(s.name, {"s": 0.0, "calls": 0})
            a["s"] += (s.end - s.start) - child[i]
            a["calls"] += 1
            for k, v in s.counts.items():
                if k == "level":
                    enum_levels.append(v)
                else:
                    a[k] = a.get(k, 0) + v
            if s.name == "shift.enumerate_words" and s.parent >= 0 \
                    and spans[s.parent].name == "thermo.periodic_orbits":
                orbit_words += s.counts["words"]

        out = {name: 0.0 for name in LAYER_METRICS}
        for name, a in agg.items():
            for k, v in a.items():
                key = f"{name}.{k}"
                if key in out:
                    out[key] = float(v)
        out["operator.matvec_flops"] = float(sum(
            agg.get(n, {}).get("matvec_flops", 0)
            for n in ("operator.power_solve", "operator.log_power_solve")))
        if enum_levels:
            out["shift.enumerate_words.accept_ratio"] = \
                out["shift.enumerate_words.words"] / self._candidates(enum_levels)
        if orbit_words:
            out["thermo.periodic_orbits.yield"] = \
                out["thermo.periodic_orbits.orbits"] / orbit_words
        root_self = sum(agg[n]["s"] for n in ROOTS if n in agg)
        out["trace_coverage"] = (wall - root_self) / wall
        return out

    def _candidates(self, levels) -> int:
        """(m+1) * |admissible words of length n-1| summed over the calls,
        counted with the untraced enumerate_words."""
        enumerate_words = self._originals["shift.enumerate_words"]
        sizes: dict = {}
        total = 0
        for p, K, n in levels:
            if n == 1:
                total += p.m + 1
                continue
            key = (p, K, n - 1)
            if key not in sizes:
                sizes[key] = len(enumerate_words(p, K, n - 1))
            total += (p.m + 1) * sizes[key]
        return total
