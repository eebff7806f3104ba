"""Expansions of real numbers in a non-integer base over the alphabet 0..m.

Everything here runs on exact rational or quadratic-irrational arithmetic
(values are :class:`symbeta.algebraic.QuadReal`; the digit recursion runs
on integers over Z[sqrt(d)]), so digit decisions are never subject to
rounding: the greedy recursion detects exact termination and exact cycles
of its remainders, which is what makes kneading data exactly computable
for algebraic bases.
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

    def excess(b: Fraction) -> Fraction:
        # series of (k+1) ((k+1)k)^inf minus 1, rational in b
        return (k + 1) * (b * b - 1) + (k + 1) * b + k - b * (b * b - 1)

    lo, hi = Fraction(1) + Fraction(1, 10 ** 6), Fraction(m + 1)
    if excess(hi) > 0:
        raise ArithmeticError("bisection bracket failed")
    while hi - lo > BETA_T_TOL:
        mid = (lo + hi) / 2
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return QuadReal.of((lo + hi) / 2)


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


def _greedy_digits(a: QuadReal, p: Params, depth: int, quasi: bool):
    """Shared digit recursion.

    Greedy: x(n) = min(floor(beta r), m), r <- beta r - x(n).
    Quasi-greedy: identical except that an exact integer beta*r <= m takes
    digit beta*r - 1 so the remainder stays strictly positive, which yields
    the largest never-terminating expansion.

    The remainder is held in integers, with no rational normalisation:
    r = (X + Y sqrt(d)) / D with D = D0 s^k, where beta = (P + Q sqrt(d)) / s
    and D0 is the denominator of a (d = 0 for a rational base).  A step
    multiplies X + Y sqrt(d) by P + Q sqrt(d) and D by s.  The digit is
    floor((X + floor(Y sqrt d)) / D), with floor(Y sqrt d) from ``isqrt``
    (Y^2 d is never a square for squarefree d > 1).  beta r is an integer
    exactly when Y == 0 and D divides X.  Factors of s common to X and Y
    are divided out while k > 0, which makes (X, Y, k) a canonical form of
    r, so the cycle test compares remainders exactly.

    Returns (digits, exact) where exact is the full PeriodicSeq when the
    remainder sequence terminates or cycles within ``depth`` steps, else None.
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
    k = 0
    digits: list[int] = []
    seen: dict[tuple[int, int, int], int] = {}
    for n in range(depth):
        if not X and not Y:
            if quasi and digits:
                raise AssertionError("quasi recursion reached zero remainder")
            return digits + [0] * (depth - n), PeriodicSeq.from_word(tuple(digits))
        # For a rational base (Q == 0) a state with k >= 1 never recurs:
        # its X and Y are not both divisible by s, and as gcd(P, s) = 1
        # neither are the next state's, so k only grows.  Only k == 0
        # states are kept.
        if Q or not k:
            key = (X, Y, k)
            if key in seen:
                start = seen[key]
                pre, per = tuple(digits[:start]), tuple(digits[start:])
                return digits + _extend(per, depth - n), PeriodicSeq(pre, per)
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
            if quasi and dig <= m and dig * D == X:
                dig -= 1
        dig = min(dig, m)
        if dig < 0:
            raise ValueError("negative digit: value out of range")
        digits.append(dig)
        X -= dig * D
        while k and not X % s and not Y % s:
            X //= s
            Y //= s
            D //= s
            k -= 1
    return digits, None


def _extend(per: Word, count: int) -> list[int]:
    return [per[i % len(per)] for i in range(count)]


def _check_range(a: QuadReal, p: Params):
    if a < 0 or a > p.max_value:
        raise ValueError(f"value outside [0, m/(beta-1)] = [0, {float(p.max_value)}]")


def greedy_expansion(a: RealLike, p: Params, depth: int) -> Word:
    """First ``depth`` digits of the lexicographically largest expansion of a."""
    a = as_real(a)
    _check_range(a, p)
    digits, _ = _greedy_digits(a, p, depth, quasi=False)
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
    if a == 0:
        return PeriodicSeq.constant(0)
    digits, exact = _greedy_digits(a, p, depth, quasi=True)
    if exact is not None:
        return exact
    return tuple(digits)


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
    digits, exact = _greedy_digits(p.max_value - a, p, depth, quasi=False)
    if exact is not None:
        return exact.reflect(p.m)
    return reflect_word(digits, p.m)


def unique_expansion(a: RealLike, p: Params, depth: int) -> bool:
    """True when greedy and lazy digit streams agree through ``depth``."""
    return greedy_expansion(a, p, depth) == lazy_expansion(a, p, depth)
