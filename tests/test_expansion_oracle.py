"""The integer digit recursion against the QuadReal loops it replaced,
kept here as the references.

Both must return the same digits and the same exact ``PeriodicSeq`` (or
both None) for greedy and quasi-greedy, on a value and on its dual
``max_value - a``, over golden ratios, the transitive bases and rational
bases.  The grid reaches all three ends of the recursion: an exact zero
remainder, an exact cycle and truncation at the depth.  ``quasi_lazy``,
now the reflected greedy recursion of the dual, is held to the direct
smallest-digit loop on the same grid.
"""

import tracemalloc
from fractions import Fraction

import pytest

from symbeta.algebraic import QuadReal
from symbeta.expansion import (Params, _extend, _greedy_digits, greedy_expansion,
                               quasi_lazy)
from symbeta.sequences import PeriodicSeq


# ---------------------------------------------------------------------------
# reference: the QuadReal loop


def oracle_greedy_digits(a: QuadReal, p: Params, depth: int, quasi: bool):
    beta, m = p.beta, p.m
    r = a
    digits: list[int] = []
    seen: dict[QuadReal, int] = {}
    for n in range(depth):
        if r == 0:
            if quasi and digits:
                raise AssertionError("quasi recursion reached zero remainder")
            return digits + [0] * (depth - n), PeriodicSeq.from_word(tuple(digits))
        if r in seen:
            start = seen[r]
            pre, per = tuple(digits[:start]), tuple(digits[start:])
            return digits + _extend(per, depth - n), PeriodicSeq(pre, per)
        seen[r] = n
        t = beta * r
        d = t.floor_int()
        if quasi and d <= m and QuadReal.of(d) == t:
            d -= 1
        d = min(d, m)
        if d < 0:
            raise ValueError("negative digit: value out of range")
        digits.append(d)
        r = t - d
    return digits, None


def oracle_quasi_lazy(a: QuadReal, p: Params, depth: int):
    if a == 0:
        return PeriodicSeq.constant(0)
    beta, m = p.beta, p.m
    top = p.max_value
    r = a
    digits: list[int] = []
    seen: dict[QuadReal, int] = {}
    for n in range(depth):
        if r in seen:
            start = seen[r]
            return PeriodicSeq(tuple(digits[:start]), tuple(digits[start:]))
        seen[r] = n
        t = beta * r
        low = t - top  # digit must be > low to leave a representable remainder
        d = max(0, low.floor_int() + 1)
        if d > 0 and QuadReal.of(low.floor_int()) == low:
            # remainder would sit exactly at the top boundary: the smaller
            # digit is still representable (forced m^inf tail), take it
            d -= 1
        if d > m:
            raise ValueError("value out of range for lazy recursion")
        digits.append(d)
        r = t - d
    return tuple(digits)


# ---------------------------------------------------------------------------

DEPTH = 120
BASES = ([(m, "golden") for m in range(1, 6)]
         + [(m, "beta_T") for m in range(1, 7)]
         + [(3, "3.5"), (4, "4.7"), (1, "1.8"), (12, "12.5")]
         + [(m, "m+1") for m in range(1, 4)])
VALUES = [Fraction(1), Fraction(9, 10), Fraction(1, 2), Fraction(1, 3), Fraction(3, 7)]


def _branch(exact, quasi, a):
    if exact is None:
        return "truncated"
    if not quasi and a != 0 and exact.period == (0,):
        return "terminated"
    return "cycled"


def test_integer_recursion_matches_quadreal_loop():
    branches = {}
    for m, beta in BASES:
        p = Params.make(m, beta)
        for v in VALUES:
            a = QuadReal.of(v)
            for x in (a, p.max_value - a):
                if not 0 <= x <= p.max_value:
                    continue
                for quasi in (False, True):
                    if quasi and x == 0:
                        continue
                    case = (m, beta, x, quasi)
                    want = oracle_greedy_digits(x, p, DEPTH, quasi)
                    assert _greedy_digits(x, p, DEPTH, quasi) == want, case
                    branches.setdefault(_branch(want[1], quasi, x), case)
    assert set(branches) == {"terminated", "cycled", "truncated"}, branches


def test_quasi_lazy_matches_smallest_digit_loop():
    # The reflected recursion can close a cycle one step before the loop
    # does: the loop then returns the truncated digits at ``depth`` and the
    # same exact sequence at ``depth + 1``.  Short depths reach that case.
    earlier = 0
    for m, beta in BASES:
        p = Params.make(m, beta)
        for v in VALUES:
            a = QuadReal.of(v)
            for x in (a, p.max_value - a):
                if not 0 <= x <= p.max_value:
                    continue
                for depth in (1, 2, 3, DEPTH):
                    got = quasi_lazy(x, p, depth)
                    want = oracle_quasi_lazy(x, p, depth)
                    case = (m, beta, x, depth)
                    if got == want:
                        continue
                    assert isinstance(got, PeriodicSeq) and isinstance(want, tuple), case
                    assert got.prefix(depth) == want, case
                    assert oracle_quasi_lazy(x, p, depth + 1) == got, case
                    earlier += 1
    assert earlier > 0


def test_rational_base_cycle_memory_stays_small():
    # beta_T at m = 3 is a rational with a 73-bit denominator, so the
    # remainder grows by about 73 bits a step and never recurs
    p = Params.make(3, "beta_T")
    tracemalloc.start()
    try:
        digits = greedy_expansion(1, p, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(digits) == 4000
    assert peak < 5 * 2 ** 20
