"""The integer digit recursion against the QuadReal loops it replaced,
kept here as the references.

Both must return the same digits and the same exact ``PeriodicSeq`` (or
both None) for greedy and quasi-greedy, on a value and on its dual
``max_value - a``, over golden ratios, the transitive bases and rational
bases.  The grid reaches all three ends of the recursion: an exact zero
remainder, an exact cycle and truncation at the depth.  The one run of
the quasi rule gives both, greedy read off at its first exact step, so
every public expansion is held to the greedy and quasi-greedy loops too,
at depths where that step is the last digit.  ``quasi_lazy``, now the
reflected greedy recursion of the dual, is also held to the direct
smallest-digit loop.
"""

import math
import tracemalloc
from fractions import Fraction

import pytest

from symbeta import expansion
from symbeta.algebraic import QuadReal
from symbeta.expansion import (Params, _extend, _greedy_digits, expansions,
                               greedy_expansion, lazy_expansion, quasi_greedy,
                               quasi_lazy, unique_expansion)
from symbeta.reporting import RunConfig, cmd_expand
from symbeta.sequences import PeriodicSeq, reflect_word


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


def exact_greedy_digits(a: QuadReal, p: Params, depth: int):
    """``_greedy_digits`` with every step on the exact integer remainder,
    the loop that ran before settled digits of wide-denominator bases were
    taken from an enclosure."""
    beta, m = p.beta, p.m
    d = beta.d or a.d
    s = math.lcm(beta.a.denominator, beta.b.denominator)
    P, Q = int(beta.a * s), int(beta.b * s)
    D = math.lcm(a.a.denominator, a.b.denominator)
    X, Y = int(a.a * D), int(a.b * D)
    k = 0
    digits: list[int] = []
    seen: dict[tuple[int, int, int], int] = {}
    exact_step = None
    for n in range(depth):
        if not X and not Y:
            digits += [0] * depth
            exact = PeriodicSeq.constant(0)
            break
        settled = not Q and k
        if not settled:
            key = (X, Y, k)
            if key in seen:
                start = seen[key]
                exact = PeriodicSeq(tuple(digits[:start]), tuple(digits[start:]))
                digits += _extend(digits[start:], depth - n)
                break
            seen[key] = n
        X, Y = P * X + Q * d * Y, Q * X + P * Y
        if s > 1:
            D *= s
            k += 1
        if Y > 0:
            dig = (X + math.isqrt(Y * Y * d)) // D
        elif Y < 0:
            dig = (X - math.isqrt(Y * Y * d) - 1) // D
        else:
            dig = X // D
        dig = min(dig, m)
        X -= dig * D
        if not X and not Y:
            if exact_step is None:
                exact_step = n
            dig -= 1
            X = D
        digits.append(dig)
        while not settled and k and not X % s and not Y % s:
            X, Y, D, k = X // s, Y // s, D // s, k - 1
    else:
        exact = None
    if exact_step is None:
        return (digits, exact), (digits, exact)
    head = digits[:exact_step] + [digits[exact_step] + 1]
    greedy_exact = PeriodicSeq.from_word(head) if len(head) < depth else None
    return (digits, exact), (head + [0] * (depth - len(head)), greedy_exact)


# ---------------------------------------------------------------------------

DEPTH = 120
BASES = ([(m, "golden") for m in range(1, 6)]
         + [(m, "beta_T") for m in range(1, 7)]
         + [(3, "3.5"), (4, "4.7"), (1, "1.8"), (12, "12.5")]
         + [(m, "m+1") for m in range(1, 4)])
VALUES = [Fraction(1), Fraction(9, 10), Fraction(1, 2), Fraction(1, 3), Fraction(3, 7)]
# quadratic values in rational bases, whose runs carry a Y sqrt(d) term
QUADRATIC_VALUES = [QuadReal.sqrt_int(2) / 4, (QuadReal.sqrt_int(5) - 1) / 4]
QUADRATIC_VALUE_BASES = {(3, "beta_T"), (5, "beta_T"), (3, "3.5"), (4, "4.7")}


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
        quadratic = QUADRATIC_VALUES if (m, beta) in QUADRATIC_VALUE_BASES else []
        for v in VALUES + quadratic:
            a = QuadReal.of(v)
            for x in (a, p.max_value - a):
                if not 0 <= x <= p.max_value:
                    continue
                runs = dict(zip((True, False), _greedy_digits(x, p, DEPTH)))
                for quasi, got in runs.items():
                    case = (m, beta, x, quasi)
                    want = oracle_greedy_digits(x, p, DEPTH, quasi)
                    assert got == want, case
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


def _oracle_expansions(x: QuadReal, p: Params, depth: int):
    """greedy, lazy, quasi_greedy, quasi_lazy and unique from the QuadReal
    loop, as the public functions define them."""
    greedy, _ = oracle_greedy_digits(x, p, depth, False)
    dual, dual_exact = oracle_greedy_digits(p.max_value - x, p, depth, False)
    lazy = reflect_word(dual, p.m)
    digits, exact = oracle_greedy_digits(x, p, depth, True)
    quasi = exact if exact is not None else tuple(digits)
    if x == 0:
        qlazy = PeriodicSeq.constant(0)
    else:
        qlazy = dual_exact.reflect(p.m) if dual_exact is not None else lazy
    return tuple(greedy), lazy, quasi, qlazy, tuple(greedy) == lazy


def _public_expansions(x: QuadReal, p: Params, depth: int):
    return (greedy_expansion(x, p, depth), lazy_expansion(x, p, depth),
            quasi_greedy(x, p, depth), quasi_lazy(x, p, depth),
            unique_expansion(x, p, depth))


# (m, beta, values, depths): beta_T at odd m is a rational with a 73-bit
# denominator; 2/7 at beta = 5/2 and 10/21 at beta = 47/10 have s | X, so
# their first step reduces; at beta = 2, 1/2 and 3/8 terminate at digits
# 1 and 3, so depths 1 and 3 end on the exact step; the quadratic bases
# keep the remainder test on every step.
PUBLIC_CASES = [
    *[(m, "beta_T", (1, Fraction(9, 10), Fraction(1, 3)), (300,)) for m in (1, 3, 5)],
    (2, "2.5", (Fraction(2, 7),), (1, 2, 40)),
    (4, "4.7", (Fraction(10, 21),), (1, 2, 40)),
    (1, "2", (Fraction(1, 2), Fraction(3, 8), 0, 1), (1, 2, 3, 4, 20)),
    *[(m, "beta_T", (1, Fraction(1, 2), Fraction(3, 7)), (1, 3, 120)) for m in (2, 4, 6)],
    *[(m, "golden", (1, Fraction(1, 2), Fraction(3, 7)), (1, 3, 120)) for m in (1, 2, 3)],
]


@pytest.mark.parametrize("m, beta, values, depths", PUBLIC_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in PUBLIC_CASES])
def test_public_expansions_match_quadreal_loop(m, beta, values, depths):
    p = Params.make(m, beta)
    for v in values:
        a = QuadReal.of(v)
        for x in (a, p.max_value - a):
            if not 0 <= x <= p.max_value:
                continue
            for depth in depths:
                case = (m, beta, x, depth)
                want = _oracle_expansions(x, p, depth)
                assert _public_expansions(x, p, depth) == want, case
                # one run of x to a longer depth gives greedy and lazy at depth
                digits, exact = oracle_greedy_digits(x, p, depth + 2, True)
                longer = exact if exact is not None else tuple(digits)
                assert expansions(x, p, depth, depth + 2) == (*want[:2], longer), case


def test_exact_step_at_the_last_digit():
    p = Params.make(1, 2)
    a = QuadReal.of(Fraction(1, 2))
    quasi, greedy = _greedy_digits(a, p, 1)
    assert quasi == ([0], None)
    assert greedy == ([1], None)
    # greedy sees its zero remainder at the second step, quasi its cycle
    # at the third
    quasi, greedy = _greedy_digits(a, p, 2)
    assert quasi == ([0, 1], None)
    assert greedy == ([1, 0], PeriodicSeq.from_word((1,)))
    quasi, greedy = _greedy_digits(a, p, 3)
    assert quasi == ([0, 1, 1], PeriodicSeq((0,), (1,)))
    assert greedy == ([1, 0, 0], PeriodicSeq.from_word((1,)))


def test_cmd_expand_runs_two_recursions(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _greedy_digits(*args)

    monkeypatch.setattr(expansion, "_greedy_digits", counted)
    for a in ("1", "0.5"):
        calls.clear()
        rep = cmd_expand(RunConfig(m=3, beta="beta_T", a=a, depth=40, kneading_depth=42))
        assert len(calls) == 2
        assert rep.summary["greedy"] == "".join(map(str, greedy_expansion(a, rep.config.params(), 40)))


# ---------------------------------------------------------------------------
# the enclosure of settled digits in wide-denominator rational bases

# beta_T at odd m is a rational with a 71- to 75-bit denominator
ENCLOSED_BASES = ([(m, "beta_T") for m in range(1, 12, 2)]
                  + [(4, "4.7317"), (4, "4.731713"), (3, "3.713")])
ENCLOSED_VALUES = [Fraction(1), Fraction(9, 10), Fraction(1, 3)]


def _enclosed_cases(values):
    for m, beta in ENCLOSED_BASES:
        p = Params.make(m, beta)
        for v in values:
            a = QuadReal.of(v)
            yield from ((m, beta, p, x) for x in (a, p.max_value - a))


def _counting_enclosure(monkeypatch):
    """Wrap ``_enclosed_digits``; the returned list collects the length of
    each run it returns."""
    runs = []
    helper = expansion._enclosed_digits

    def counted(*args):
        out = helper(*args)
        runs.append(len(out))
        return out

    monkeypatch.setattr(expansion, "_enclosed_digits", counted)
    return runs


@pytest.mark.parametrize("depth", [1, 2, 17, 300, 1500])
def test_enclosed_digits_match_exact_loop(depth, monkeypatch):
    runs = _counting_enclosure(monkeypatch)
    # sqrt(2)/4 adds the Y sqrt(d) term; its exact loop is slow at 1,500
    values = ENCLOSED_VALUES + ([QUADRATIC_VALUES[0]] if depth <= 300 else [])
    for m, beta, p, x in _enclosed_cases(values):
        runs.clear()
        got = _greedy_digits(x, p, depth)
        assert got == exact_greedy_digits(x, p, depth), (m, beta, x, depth)
        # at the full guard no run straddles: one entry, once it settles
        assert len(runs) == (depth > 1), (m, beta, x, depth)


def test_narrow_and_quadratic_bases_stay_exact(monkeypatch):
    runs = _counting_enclosure(monkeypatch)
    for m, beta in [(3, "3.5"), (4, "4.7"), (3, "3.71"), (4, "4.73"), (3, "golden"),
                    (4, "beta_T")]:
        p = Params.make(m, beta)
        _greedy_digits(QuadReal.of(Fraction(9, 10)), p, 200)
        assert runs == [], (m, beta)


@pytest.mark.parametrize("depth", [1, 2, 17, 300, 1000])
def test_quadratic_values_run_enclosed_at_narrow_bases(depth, monkeypatch):
    # a quadratic value in a rational base carries a Y sqrt(d) term, whose
    # exact step takes an isqrt of the whole remainder; its settled digits
    # are enclosed whatever the width of s, and rational values at the same
    # bases stay exact (test_narrow_and_quadratic_bases_stay_exact)
    runs = _counting_enclosure(monkeypatch)
    for m, beta in [(3, "3.5"), (4, "4.7"), (3, "3.71"), (1, "1.8"), (12, "12.5")]:
        p = Params.make(m, beta)
        for v in QUADRATIC_VALUES:
            for x in (v, p.max_value - v):
                runs.clear()
                got = _greedy_digits(x, p, depth)
                assert got == exact_greedy_digits(x, p, depth), (m, beta, x, depth)
                assert len(runs) == (depth > 1), (m, beta, x, depth)


@pytest.mark.parametrize("depth", [1, 2, 17, 300, 1000, 2000])
def test_quadratic_values_run_enclosed_from_the_first_step_in_integer_bases(depth, monkeypatch):
    # in an integer base k never grows, but a quadratic value's run never
    # recurs or reaches an integer beta r, so it is enclosed from its first
    # step rather than taking an isqrt of the whole remainder on every one;
    # rational values there stay exact
    runs = _counting_enclosure(monkeypatch)
    for m, beta in [(3, "4"), (4, "5")]:
        p = Params.make(m, beta)
        for v in QUADRATIC_VALUES:
            for x in (v, p.max_value - v):
                runs.clear()
                got = _greedy_digits(x, p, depth)
                assert got == exact_greedy_digits(x, p, depth), (m, beta, x, depth)
                assert runs == [depth], (m, beta, x, depth)
        runs.clear()
        _greedy_digits(QuadReal.of(Fraction(9, 10)), p, depth)
        assert runs == [], (m, beta)


@pytest.mark.parametrize("guard", [-10 ** 6, -8, 0])
def test_forced_straddles_keep_digits_and_bound_the_work(guard, monkeypatch):
    # a guard of -10^6 drops the enclosure to whole units (p = 0), so it
    # straddles on most steps; -8 and 0 prove long prefixes and straddle near
    # their ends, so the caller advances the exact state over whole blocks
    monkeypatch.setattr(expansion, "_GUARD_BITS", guard)
    runs = _counting_enclosure(monkeypatch)
    steps, proven, blocks = 0, 0, 0
    # the exact steps of a quadratic value take an isqrt of the whole remainder
    cases = [(*case, 400) for case in _enclosed_cases(ENCLOSED_VALUES)]
    cases += [(*case, 120) for case in _enclosed_cases(QUADRATIC_VALUES[:1])]
    for m, beta, p, x, depth in cases:
        runs.clear()
        got = _greedy_digits(x, p, depth)
        assert got == exact_greedy_digits(x, p, depth), (m, beta, x, guard)
        # each entry but the last ends on a straddle, which takes one exact
        # step; so the enclosure is entered at most once per exact step
        assert 1 <= len(runs) <= depth - sum(runs), (m, beta, x, guard)
        steps += depth
        proven += sum(runs)
        blocks += sum(j > 1 for j in runs[:-1])
    if guard == -10 ** 6:
        assert proven < steps // 2
    else:
        assert blocks > 0
