"""Digit words and eventually periodic digit sequences.

Finite words are plain tuples of ints.  Infinite sequences are stored as
(preperiod, period) pairs canonicalized to the minimal period and minimal
preperiod, so value equality equals representation equality and both the
lexicographic order and the shift metric are exactly decidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Word = tuple[int, ...]


def reflect_word(w: Sequence[int], m: int) -> Word:
    """Digitwise d -> m - d."""
    return tuple(m - d for d in w)


def word_plus(w: Sequence[int], m: int) -> Word:
    """Increment the last digit; defined only when it is < m."""
    w = tuple(w)
    if not w:
        raise ValueError("empty word")
    if w[-1] >= m:
        raise ValueError(f"word_plus undefined: last digit {w[-1]} = m")
    return w[:-1] + (w[-1] + 1,)


def word_minus(w: Sequence[int]) -> Word:
    """Decrement the last digit; defined only when it is > 0."""
    w = tuple(w)
    if not w:
        raise ValueError("empty word")
    if w[-1] <= 0:
        raise ValueError("word_minus undefined: last digit is 0")
    return w[:-1] + (w[-1] - 1,)


def _minimal_period(per: Word) -> Word:
    n = len(per)
    for length in range(1, n + 1):
        if n % length == 0 and per == per[:length] * (n // length):
            return per[:length]
    return per


@dataclass(frozen=True)
class PeriodicSeq:
    """Eventually periodic digit sequence preperiod . (period)^inf.

    Canonical form: the period is the shortest possible and the preperiod
    the shortest possible (trailing preperiod digits equal to the rotating
    last period digit are absorbed).  A sequence is a finite expansion in
    the usual sense exactly when its canonical period is (0,).
    """

    preperiod: Word
    period: Word

    def __post_init__(self):
        pre = tuple(int(d) for d in self.preperiod)
        per = tuple(int(d) for d in self.period)
        if not per:
            raise ValueError("period must be nonempty")
        per = _minimal_period(per)
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        per = _minimal_period(per)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @staticmethod
    def constant(digit: int) -> "PeriodicSeq":
        return PeriodicSeq((), (digit,))

    @staticmethod
    def from_word(w: Sequence[int]) -> "PeriodicSeq":
        """The finite sequence w followed by zeros."""
        return PeriodicSeq(tuple(w), (0,))

    @property
    def is_zero_tail(self) -> bool:
        return self.period == (0,)

    def digit(self, i: int) -> int:
        """1-based digit access."""
        if i < 1:
            raise IndexError("digit index is 1-based")
        k = len(self.preperiod)
        if i <= k:
            return self.preperiod[i - 1]
        return self.period[(i - k - 1) % len(self.period)]

    def prefix(self, n: int) -> Word:
        reps = -(-max(n - len(self.preperiod), 0) // len(self.period))
        return (self.preperiod + self.period * reps)[:max(n, 0)]

    def shift(self, k: int = 1) -> "PeriodicSeq":
        """Drop the first k digits."""
        if k < 0:
            raise ValueError("k must be >= 0")
        pre, per = self.preperiod, self.period
        if k <= len(pre):
            return PeriodicSeq(pre[k:], per)
        r = (k - len(pre)) % len(per)
        return PeriodicSeq((), per[r:] + per[:r])

    def reflect(self, m: int) -> "PeriodicSeq":
        return PeriodicSeq(reflect_word(self.preperiod, m), reflect_word(self.period, m))

    def __str__(self):
        pre = "".join(map(str, self.preperiod)) if max(self.preperiod + self.period) <= 9 \
            else ",".join(map(str, self.preperiod))
        per = "".join(map(str, self.period)) if max(self.preperiod + self.period) <= 9 \
            else ",".join(map(str, self.period))
        return f"{pre}({per})^inf"


def lex_compare(x: PeriodicSeq, y: PeriodicSeq) -> int:
    """Exact lexicographic comparison: -1, 0 or 1.

    Two eventually periodic sequences agreeing up to index
    |pre_x| + |pre_y| + lcm(|per_x|, |per_y|) are equal.
    """
    bound = (len(x.preperiod) + len(y.preperiod)
             + math.lcm(len(x.period), len(y.period)))
    for i in range(1, bound + 1):
        a, b = x.digit(i), y.digit(i)
        if a != b:
            return -1 if a < b else 1
    return 0


def metric_d(x: PeriodicSeq, y: PeriodicSeq) -> Fraction:
    """Shift metric 2^(1 - first disagreement index); 0 for equal sequences."""
    bound = (len(x.preperiod) + len(y.preperiod)
             + math.lcm(len(x.period), len(y.period)))
    for i in range(1, bound + 1):
        if x.digit(i) != y.digit(i):
            return Fraction(1, 2 ** (i - 1))
    return Fraction(0)
