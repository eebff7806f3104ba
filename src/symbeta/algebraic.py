"""Exact arithmetic over quadratic number fields Q(sqrt(d)).

Digit recursions for beta-expansions are discontinuous in beta, so every
sign decision they make must be exact.  All bases handled by this package
are either rationals (decimal-string input) or quadratic irrationals
(generalized golden ratios, the distinguished transitive base for even
alphabets), so elements of the form a + b*sqrt(d) with rational a, b cover
everything.  Comparisons, floors and field operations below are exact.

``QuadReal`` is the value type of bases, expanded values and series sums.
The digit recursion does not run on it: it keeps its remainders as
integers over Z[sqrt(d)] (see ``expansion._greedy_digits``), and the
QuadReal loop it replaced is kept in the tests as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def _sq_free_pull(d: int) -> tuple[int, int]:
    # pull out the largest square factor: d = f**2 * rest
    if d in (0, 1):
        return (1, d)
    f = 1
    k = 2
    dd = d
    while k * k <= dd:
        while dd % (k * k) == 0:
            dd //= k * k
            f *= k
        k += 1
    return (f, dd)


@dataclass(frozen=True)
class QuadReal:
    """Exact real of the form a + b*sqrt(d), a and b rational, d >= 0 integer.

    Instances are normalized: d is squarefree and d == 0 whenever b == 0, so
    equality of values coincides with equality of representations.  Mixed
    arithmetic is defined with ints, Fractions and same-radicand QuadReals.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        a, b, d = self.a, self.b, self.d
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if b == 0 or d == 0:
            b, d = Fraction(0), 0
        else:
            f, rest = _sq_free_pull(d)
            if rest == 1:
                a, b, d = a + b * f, Fraction(0), 0
            else:
                b, d = b * f, rest
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x: "QuadReal | Rational") -> "QuadReal":
        if isinstance(x, QuadReal):
            return x
        return QuadReal(Fraction(x), Fraction(0), 0)

    @staticmethod
    def sqrt_int(d: int) -> "QuadReal":
        return QuadReal(Fraction(0), Fraction(1), d)

    @staticmethod
    def from_decimal(text: str) -> "QuadReal":
        """Parse a decimal string ('3.5', '2', '0.125') exactly."""
        return QuadReal(Fraction(text.strip()), Fraction(0), 0)

    # -- helpers -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def _coerce(self, other) -> "QuadReal | None":
        if isinstance(other, QuadReal):
            if other.d == 0 or self.d == 0 or other.d == self.d:
                return other
            return None
        if isinstance(other, (int, Fraction)):
            return QuadReal.of(other)
        return None

    def _common_d(self, other: "QuadReal") -> int:
        return self.d or other.d

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadReal(self.a + o.a, self.b + o.b, self._common_d(o))

    __radd__ = __add__

    def __neg__(self):
        return QuadReal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadReal(self.a - o.a, self.b - o.b, self._common_d(o))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        return QuadReal(self.a * o.a + self.b * o.b * d,
                        self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadReal":
        denom = self.a * self.a - self.b * self.b * self.d
        if denom == 0:
            if self.a == 0 and self.b == 0:
                raise ZeroDivisionError("division by zero")
            # a^2 == b^2 d with nonzero entries cannot happen for squarefree d>1
            raise ZeroDivisionError("degenerate quadratic inverse")
        return QuadReal(self.a / denom, -self.b / denom, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return QuadReal.of(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadReal.of(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact order -------------------------------------------------------

    def sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs = a * a
        rhs = b * b * d
        if a > 0:  # b < 0: sign of a - |b| sqrt d
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadReal(d={self.d}) with {other!r}")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (QuadReal, int, Fraction)):
            o = self._coerce(other)
            if o is None:
                return False
            return self.a == o.a and self.b == o.b
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def floor_int(self) -> int:
        """Exact floor.

        With self = (A + B sqrt(d)) / C over integers, C > 0, it is
        floor((A + floor(B sqrt(d))) / C): B sqrt(d) is irrational, so no
        multiple of C lies between the two numerators.  No float is read,
        so a and b may be far larger than their sum.
        """
        if not self.b:
            return math.floor(self.a)
        C = math.lcm(self.a.denominator, self.b.denominator)
        A, B = int(self.a * C), int(self.b * C)
        t = math.isqrt(B * B * self.d)
        return (A + t) // C if B > 0 else (A - t - 1) // C

    def __float__(self) -> float:
        if self.b == 0:
            return float(self.a)
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        if self.is_rational:
            return f"QuadReal({self.a})"
        return f"QuadReal({self.a} + {self.b}*sqrt({self.d}))"
