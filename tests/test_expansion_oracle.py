"""The integer digit recursion against the QuadReal loop it replaced, kept
here as the reference.

Both must return the same digits and the same exact ``PeriodicSeq`` (or
both None) for greedy and quasi-greedy, on a value and on its dual
``max_value - a``, over golden ratios, the transitive bases and rational
bases.  The grid reaches all three ends of the recursion: an exact zero
remainder, an exact cycle and truncation at the depth.
"""

from fractions import Fraction

import pytest

from symbeta.algebraic import QuadReal
from symbeta.expansion import Params, _extend, _greedy_digits
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
