"""Expansions of real numbers in a non-integer base over the alphabet 0..m.

Everything here runs on exact rational or quadratic-irrational arithmetic
(values are :class:`symbeta.algebraic.QuadReal`; the digit recursion runs
on integers over Z[sqrt(d)]), so every digit is proven: the greedy
recursion detects exact termination and exact cycles of its remainders,
which is what makes kneading data exactly computable for algebraic bases.
Once a run in a rational base with a wide denominator can neither end nor
cycle, its digits come from a fixed-point enclosure of the remainder,
rounded outward, and a digit is taken only when the whole enclosure
decides it; where it cannot, that digit is taken on the exact remainder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .algebraic import QuadReal
from .sequences import PeriodicSeq, Word, reflect_word

RealLike = Union[int, Fraction, str, QuadReal]

#: bisection tolerance for the distinguished transitive base
BETA_T_TOL = Fraction(1, 10 ** 15)


def as_real(x: RealLike) -> QuadReal:
    if isinstance(x, QuadReal):
        return x
    if isinstance(x, str):
        return QuadReal.from_decimal(x)
    if isinstance(x, float):
        # floats are accepted but converted via their exact binary value
        return QuadReal.of(Fraction(x))
    return QuadReal.of(x)


def golden_ratio(m: int) -> QuadReal:
    """Generalized golden ratio: the base below which no number in the
    representable interval has a unique expansion.

    Closed form: k+1 for m = 2k, (k + 1 + sqrt(k^2 + 6k + 5)) / 2 for m = 2k+1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k, odd = divmod(m, 2)
    if not odd:
        return QuadReal.of(k + 1)
    return (QuadReal.of(k + 1) + QuadReal.sqrt_int(k * k + 6 * k + 5)) / 2


def transitive_pattern(m: int) -> PeriodicSeq:
    """The periodic quasi-greedy expansion of 1 characterizing beta_T:
    (k+1) k^inf for m = 2k, (k+1) ((k+1)k)^inf for m = 2k+1."""
    k, odd = divmod(m, 2)
    if not odd:
        return PeriodicSeq((k + 1,), (k,))
    return PeriodicSeq((k + 1,), (k + 1, k))


@functools.lru_cache(maxsize=None)
def beta_t(m: int) -> QuadReal:
    """The unique base in (1, m+1] whose quasi-greedy expansion of 1 is
    ``transitive_pattern(m)``.

    For even m the root is quadratic (beta^2 - (k+2) beta + 1 = 0) and is
    returned exactly; for odd m the defining series equation is solved by
    bisection in exact rational arithmetic down to ``BETA_T_TOL``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k, odd = divmod(m, 2)
    if not odd:
        # series of (k+1) k^inf equal to 1  <=>  beta^2 - (k+2) beta + 1 = 0
        disc = (k + 2) * (k + 2) - 4
        return (QuadReal.of(k + 2) + QuadReal.sqrt_int(disc)) / 2

    def excess(c: int, den: int) -> int:
        # series of (k+1) ((k+1)k)^inf minus 1 at b = c/den, which is
        # -b^3 + (k+1) b^2 + (k+2) b - 1, times den^3 > 0
        return (((k + 1) * den - c) * c + (k + 2) * den * den) * c - den ** 3

    # the Fraction bisection on integers: lo/den, hi/den, with den = 10^6 2^i
    lo, hi, den = 10 ** 6 + 1, (m + 1) * 10 ** 6, 10 ** 6
    if excess(hi, den) > 0:
        raise ArithmeticError("bisection bracket failed")
    while (hi - lo) * BETA_T_TOL.denominator > den * BETA_T_TOL.numerator:
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2
        if excess(mid, den) > 0:
            lo = mid
        else:
            hi = mid
    return QuadReal.of(Fraction(lo + hi, 2 * den))


@dataclass(frozen=True)
class Params:
    """The pair (m, beta) with its derived constants.

    beta is held exactly (rational or quadratic). ``operator_regime`` marks
    the parameter region m > 2, beta in [m/2 + 2, m + 1] on which every
    point of the shift has at least one (claimed: two) preimages, making
    the transfer operator well defined.
    """

    m: int
    beta: QuadReal
    golden_ratio: QuadReal = field(init=False)
    operator_regime: bool = field(init=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (self.beta > 1 and self.beta <= self.m + 1):
            raise ValueError(f"beta must lie in (1, {self.m + 1}]")
        object.__setattr__(self, "golden_ratio", golden_ratio(self.m))
        regime = (self.m > 2
                  and self.beta >= Fraction(self.m, 2) + 2
                  and self.beta <= self.m + 1)
        object.__setattr__(self, "operator_regime", regime)

    @staticmethod
    def make(m: int, beta: RealLike) -> "Params":
        """Build Params from m and a beta given as int, Fraction, decimal
        string or one of the named constants 'golden', 'beta_T', 'm+1'."""
        if isinstance(beta, str):
            name = beta.strip().lower()
            if name == "golden":
                return Params(m, golden_ratio(m))
            if name in ("beta_t", "betat"):
                return Params(m, beta_t(m))
            if name == "m+1":
                return Params(m, QuadReal.of(m + 1))
        return Params(m, as_real(beta))

    @property
    def max_value(self) -> QuadReal:
        """m / (beta - 1), the largest representable number."""
        return QuadReal.of(self.m) / (self.beta - 1)

    @property
    def alphabet(self) -> range:
        return range(self.m + 1)


# ---------------------------------------------------------------------------
# series evaluation


def eval_series(x: PeriodicSeq, p: Params) -> QuadReal:
    """Exact value of sum x(n) beta^(-n) for an eventually periodic sequence."""
    beta = p.beta
    binv = beta.inverse()
    value = QuadReal.of(0)
    power = QuadReal.of(1)
    for d in x.preperiod:
        power = power * binv
        value = value + power * d
    per_value = QuadReal.of(0)
    q = QuadReal.of(1)
    for d in x.period:
        q = q * binv
        per_value = per_value + q * d
    # geometric tail: per_value * beta^{-k} / (1 - beta^{-L})
    tail = per_value / (QuadReal.of(1) - binv ** len(x.period))
    return value + power * tail


def prefix_value(w: Word, p: Params) -> tuple[QuadReal, QuadReal]:
    """Value of the finite partial sum plus the rigorous bound on any
    admissible continuation: m * beta^(-N) / (beta - 1)."""
    beta = p.beta
    binv = beta.inverse()
    value = QuadReal.of(0)
    power = QuadReal.of(1)
    for d in w:
        power = power * binv
        value = value + power * d
    tail = power * p.m / (beta - 1)
    return value, tail


# ---------------------------------------------------------------------------
# digit recursions


def _greedy_digits(a: QuadReal, p: Params, depth: int):
    """Shared digit recursion: the quasi-greedy digits of a, and the greedy
    digits read off the same run.

    Greedy: x(n) = min(floor(beta r), m), r <- beta r - x(n).
    Quasi-greedy: identical except that an exact integer beta*r <= m takes
    digit beta*r - 1 so the remainder stays strictly positive, which yields
    the largest never-terminating expansion.  The two agree up to the first
    such exact step; there greedy takes beta*r and its remainder is 0, so
    every later greedy digit is 0.  The run applies the quasi rule and
    records that step.

    The remainder is held in integers, with no rational normalisation:
    r = (X + Y sqrt(d)) / D with D = D0 s^k, where beta = (P + Q sqrt(d)) / s
    and D0 is the denominator of a (d = 0 for a rational base).  A step
    multiplies X + Y sqrt(d) by P + Q sqrt(d) and D by s.  The digit is
    floor((X + floor(Y sqrt d)) / D), with floor(Y sqrt d) from ``isqrt``
    (Y^2 d is never a square for squarefree d > 1).  beta r is an integer
    x <= m exactly when Y == 0 and X - x D == 0.  Factors of s common to X
    and Y are divided out while k > 0, which makes (X, Y, k) a canonical
    form of r, so the cycle test compares remainders exactly.

    A run in a rational base is settled once k >= 1 and no factor of s
    divides out, and a quadratic value in an integer base from its first
    step: it never reduces, recurs or reaches an integer beta r
    again.  X then grows by log2 s bits a step where a digit needs log2
    beta of them, so where log2 s exceeds ``_ENCLOSE_RATIO`` log2 beta
    (beta_T at odd m, with s = 2^53 10^6), and wherever a quadratic value
    carries a Y sqrt(d) term, whose exact digit takes an isqrt of the whole
    remainder, the settled digits come from
    ``_enclosed_digits``, an outward-rounded fixed-point enclosure of r
    that takes a digit only when the whole enclosure decides it.  Where it
    straddles a digit boundary, the exact state is advanced over the
    proven digits in one block (``_digit_block``) and that digit is taken
    exactly, so each digit is decided once, and every digit stays proven.

    Returns (quasi, greedy), each a pair (digits, exact) of ``depth`` digits,
    where exact is the full PeriodicSeq when that recursion terminates or
    cycles within ``depth`` steps, else None.
    """
    beta, m = p.beta, p.m
    if a.d and beta.d and a.d != beta.d:
        raise TypeError(f"{a!r} does not lie in the field of beta = {beta!r}")
    d = beta.d or a.d
    s = math.lcm(beta.a.denominator, beta.b.denominator)
    P, Q = int(beta.a * s), int(beta.b * s)
    Qd = Q * d
    D = math.lcm(a.a.denominator, a.b.denominator)
    X, Y = int(a.a * D), int(a.b * D)
    # The exact remainder of a settled run grows by log2 s bits a step, an
    # enclosure of it by log2 beta bits: wide denominators run enclosed, and
    # so does a quadratic value, whose exact step takes an isqrt of the
    # whole remainder.
    enclose = not Q and (Y != 0 or s.bit_length() > _ENCLOSE_RATIO * math.log2(P / s))
    k = 0
    digits: list[int] = []
    seen: dict[tuple[int, int, int], int] = {}
    exact_step = None
    exact = None
    n = 0
    while n < depth:
        if not X and not Y:
            # only a = 0 starts here: the quasi rule never leaves remainder 0
            if digits:
                raise AssertionError("quasi recursion reached zero remainder")
            digits += [0] * depth
            exact = PeriodicSeq.constant(0)
            break
        # For a rational base (Q == 0), gcd(P, s) = 1 and s divides D once
        # k >= 1, so a step maps X, Y to P X, P Y modulo s.  A state with
        # k >= 1, whose X and Y are not both divisible by s, passes that on
        # to every later state: none reduces, k only grows, none recurs and
        # beta r is never an integer.  From there the run keeps no cycle
        # table and tests no remainder for divisibility.  In an integer
        # base (s = 1) k stays 0, but a quadratic value (Y != 0) keeps Y
        # != 0: it never recurs (an eventually periodic expansion in an
        # integer base has a rational value) and beta r is never an
        # integer, so its run is settled from the first step.
        settled = not Q and (k or (s == 1 and Y))
        if settled and enclose:
            run = _enclosed_digits(X, Y, d, D, P, s, m, depth - n)
            if run:
                digits += run
                n += len(run)
                if n == depth:
                    break
                # advance the exact state over the proven digits at once
                Pj, sj, S = _digit_block(run, P, s)
                X, Y, D = Pj * X - D * S, Pj * Y, D * sj
                k += len(run)
            # the enclosure straddled the next digit: take it exactly
        elif not settled:
            key = (X, Y, k)
            if key in seen:
                start = seen[key]
                exact = PeriodicSeq(tuple(digits[:start]), tuple(digits[start:]))
                digits += _extend(digits[start:], depth - n)
                break
            seen[key] = n
        X, Y = P * X + Qd * Y, Q * X + P * Y
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
        if dig < 0:
            raise ValueError("negative digit: value out of range")
        X -= dig * D
        if not X and not Y:
            # beta r is the integer dig <= m: greedy ends here, and the
            # quasi rule takes dig - 1, leaving the remainder 1
            if exact_step is None:
                exact_step = n
            dig -= 1
            X = D
        digits.append(dig)
        n += 1
        while not settled and k and not X % s and not Y % s:
            X //= s
            Y //= s
            D //= s
            k -= 1
    if exact_step is None:
        return (digits, exact), (digits, exact)
    head = digits[:exact_step] + [digits[exact_step] + 1]
    # greedy sees its zero remainder one step later, if the depth allows
    greedy_exact = PeriodicSeq.from_word(head) if len(head) < depth else None
    return (digits, exact), (head + [0] * (depth - len(head)), greedy_exact)


#: a run encloses its settled digits when log2 s exceeds this many times
#: log2 beta (the two paths took equal time near s = 10^3 at beta = 3.713
#: and 4.731, depth 1,000; at beta = 3.5, s = 2, the exact path is faster;
#: measured on a 2-vCPU x86 machine with Python 3.11)
_ENCLOSE_RATIO = 4
#: bits an enclosure carries beyond the count * log2 beta its width grows by
_GUARD_BITS = 64


def _enclosed_digits(X: int, Y: int, d: int, D: int, P: int, s: int, m: int,
                     count: int) -> list[int]:
    """Up to ``count`` next digits of a settled run in the rational base
    P / s from the remainder r = (X + Y sqrt(d)) / D, each proven.

    The run steps an enclosure lo / 2^p <= r <= hi / 2^p: beta r is
    bracketed by P lo / s rounded down and P hi / s rounded up, and a digit
    is taken only when the whole bracket maps to it, min(floor, m).  As
    beta r is never an integer in a settled run, that is the greedy and the
    quasi-greedy digit alike.  The width grows by a factor beta a step, so
    p = count log2 beta + ``_GUARD_BITS`` leaves a straddle a chance of
    order 2^-64 per digit; at a straddle the proven prefix is returned and
    the caller takes the next digit exactly.  No digit depends on p, which
    sets only how often the enclosure straddles.
    """
    # p >= 0 for any guard: a negative one, which forces straddles, still
    # leaves a valid enclosure
    p = max(math.ceil(count * math.log2(P / s)) + _GUARD_BITS, 0)
    num = X << p
    if Y:
        # floor(|Y| sqrt(d) 2^p); never exact, as Y^2 d is not a square
        t = math.isqrt(Y * Y * d << 2 * p)
        num += t if Y > 0 else -t - 1
        lo, hi = num // D, -(-(num + 1) // D)
    else:
        lo, hi = num // D, -(-num // D)
    digits: list[int] = []
    for _ in range(count):
        lo = lo * P // s
        hi = -(-hi * P // s)
        x = lo >> p
        if x < m and x != hi >> p:
            break
        x = min(x, m)
        lo -= x << p
        hi -= x << p
        digits.append(x)
    return digits


def _digit_block(run: list[int], P: int, s: int) -> tuple[int, int, int]:
    """(P^j, s^j, S) for the digits x_1..x_j of a settled run, with
    S = sum x_i P^(j-i) s^i: the j steps map X to P^j X - D S, Y to P^j Y
    and D to D s^j.  Halves combine as S = P^(j-h) S_left + s^h S_right."""
    if len(run) == 1:
        return P, s, run[0] * s
    h = len(run) // 2
    P1, s1, S1 = _digit_block(run[:h], P, s)
    P2, s2, S2 = _digit_block(run[h:], P, s)
    return P1 * P2, s1 * s2, P2 * S1 + s1 * S2


def _extend(per: Word, count: int) -> list[int]:
    return [per[i % len(per)] for i in range(count)]


def _check_range(a: QuadReal, p: Params):
    if a < 0 or a > p.max_value:
        raise ValueError(f"value outside [0, m/(beta-1)] = [0, {float(p.max_value)}]")


def greedy_expansion(a: RealLike, p: Params, depth: int) -> Word:
    """First ``depth`` digits of the lexicographically largest expansion of a."""
    a = as_real(a)
    _check_range(a, p)
    _, (digits, _) = _greedy_digits(a, p, depth)
    return tuple(digits)


def lazy_expansion(a: RealLike, p: Params, depth: int) -> Word:
    """First digits of the smallest expansion, via the reflection duality
    lazy(a) = reflect(greedy(m/(beta-1) - a))."""
    a = as_real(a)
    _check_range(a, p)
    dual = greedy_expansion(p.max_value - a, p, depth)
    return reflect_word(dual, p.m)


def quasi_greedy(a: RealLike, p: Params, depth: int) -> PeriodicSeq | Word:
    """Largest never-terminating expansion of a > 0 (0 itself yields 0^inf).

    Returns an exact PeriodicSeq when the digit recursion cycles within
    ``depth`` steps, otherwise the truncated Word of length ``depth``.
    """
    a = as_real(a)
    _check_range(a, p)
    (digits, exact), _ = _greedy_digits(a, p, depth)
    return exact if exact is not None else tuple(digits)


def expansions(a: RealLike, p: Params, depth: int,
               quasi_depth: int) -> tuple[Word, Word, PeriodicSeq | Word]:
    """``greedy_expansion`` and ``lazy_expansion`` of a to ``depth``, and
    ``quasi_greedy`` to ``quasi_depth >= depth``, from two digit recursions:
    one of a, giving greedy and quasi-greedy, and one of its dual
    m/(beta-1) - a, giving lazy."""
    a = as_real(a)
    _check_range(a, p)
    (quasi, exact), (greedy, _) = _greedy_digits(a, p, quasi_depth)
    _, (dual, _) = _greedy_digits(p.max_value - a, p, depth)
    return (tuple(greedy[:depth]), reflect_word(dual, p.m),
            exact if exact is not None else tuple(quasi))


def quasi_greedy_of_one(p: Params, depth: int = 64) -> PeriodicSeq | Word:
    """The quasi-greedy expansion of 1: the kneading sequence of the shift.

    Equal to the greedy expansion of 1 when that is infinite; when greedy
    terminates as x(1)..x(k) 0^inf it is the periodic rewrite
    (x(1)..x(k-1)(x(k)-1))^inf.  Both branches fall out of the quasi digit
    recursion; the rewrite identity is checked by the series round-trip in
    the test-suite.
    """
    return quasi_greedy(1, p, depth)


def quasi_lazy(a: RealLike, p: Params, depth: int) -> PeriodicSeq | Word:
    """Smallest never-terminating expansion of a (0^inf for a = 0).

    For a > 0 the lazy expansion never terminates, so this is the lazy
    expansion: the reflection of the greedy expansion of m/(beta-1) - a,
    exact when that recursion terminates or cycles within ``depth`` steps,
    else the truncated Word of length ``depth``.
    """
    a = as_real(a)
    _check_range(a, p)
    if a == 0:
        return PeriodicSeq.constant(0)
    _, (digits, exact) = _greedy_digits(p.max_value - a, p, depth)
    if exact is not None:
        return exact.reflect(p.m)
    return reflect_word(digits, p.m)


def unique_expansion(a: RealLike, p: Params, depth: int) -> bool:
    """True when greedy and lazy digit streams agree through ``depth``."""
    return greedy_expansion(a, p, depth) == lazy_expansion(a, p, depth)
