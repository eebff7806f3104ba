"""The symmetric beta-shift as a combinatorial object.

The shift is the set of sequences whose every shifted suffix lies
lexicographically between the reflected kneading sequence and the kneading
sequence (the quasi-greedy expansion of 1).  A finite word is admissible
exactly when none of its factors is forbidden, which reduces to comparing
each suffix against the kneading prefixes; a suffix that matches a kneading
prefix exactly is admissible-so-far and constrains further extensions.

Comparisons against a depth-truncated kneading sequence use three-valued
logic: True / False / None, where None means the truncation is too shallow
to decide.  Exact (eventually periodic) kneading data never yields None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .expansion import Params, beta_t, quasi_greedy_of_one
from .sequences import PeriodicSeq, Word, lex_compare, reflect_word, word_plus


class UndecidedError(RuntimeError):
    """An admissibility or order decision ran past the kneading depth."""


@dataclass(frozen=True)
class Kneading:
    """Kneading data of the shift: the quasi-greedy expansion of 1 (upper
    bound) and, implicitly, its reflection (lower bound).

    ``exact`` is True when ``upper`` is a complete PeriodicSeq; otherwise
    ``upper`` is a truncated Word and comparisons are only valid through
    ``depth`` digits.
    """

    m: int
    upper: PeriodicSeq | Word
    exact: bool
    depth: int

    @property
    def lower(self) -> PeriodicSeq | Word:
        if self.exact:
            return self.upper.reflect(self.m)
        return reflect_word(self.upper, self.m)

    def upper_digit(self, i: int) -> int | None:
        """1-based digit of the kneading sequence; None beyond known depth."""
        if self.exact:
            return self.upper.digit(i)
        if i > self.depth:
            return None
        return self.upper[i - 1]

    def upper_prefix(self, n: int) -> Word:
        if not self.exact and n > self.depth:
            raise UndecidedError(f"kneading known to depth {self.depth} < {n}")
        if self.exact:
            return self.upper.prefix(n)
        return self.upper[:n]

    def lower_prefix(self, n: int) -> Word:
        return reflect_word(self.upper_prefix(n), self.m)

    def upper_seq(self) -> PeriodicSeq:
        if not self.exact:
            raise UndecidedError("kneading sequence is truncated")
        return self.upper

    def describe(self) -> dict:
        head = self.upper_prefix(min(self.depth, 24))
        return {
            "exact": self.exact,
            "depth": self.depth,
            "upper": str(self.upper) if self.exact else "".join(map(str, head)) + "...",
            "upper_prefix": list(head),
        }


def build_kneading(p: Params, depth: int = 64) -> Kneading:
    """Compute kneading data for (m, beta), exact whenever the quasi-greedy
    digit recursion terminates in a cycle within ``depth`` steps."""
    x = quasi_greedy_of_one(p, depth)
    if isinstance(x, PeriodicSeq):
        return Kneading(p.m, x, True, depth)
    return Kneading(p.m, x, False, depth)


# ---------------------------------------------------------------------------
# admissibility


def _suffix_ok(w: Sequence[int], K: Kneading) -> bool | None:
    """Check lower(1..j) <= w <= upper(1..j) for the single full suffix w.

    Returns None when the kneading truncation leaves the comparison open.
    """
    dec_up = dec_lo = False
    for j, d in enumerate(w, start=1):
        if dec_up and dec_lo:
            return True
        u = K.upper_digit(j)
        if u is None:
            return None
        if not dec_up:
            if d > u:
                return False
            if d < u:
                dec_up = True
        if not dec_lo:
            lo = K.m - u
            if d < lo:
                return False
            if d > lo:
                dec_lo = True
    return True


def is_admissible(w: Sequence[int], K: Kneading) -> bool | None:
    """Whether the cylinder of the word w is nonempty in the shift.

    True iff every suffix s of w satisfies lower(1..|s|) <= s <= upper(1..|s|)
    in truncated lexicographic order (suffixes that tie a kneading prefix
    pass).  Returns None only when the kneading data is truncated too
    shallow to decide; a definite violation wins over an open comparison.
    """
    w = tuple(w)
    undecided = False
    for k in range(len(w)):
        r = _suffix_ok(w[k:], K)
        if r is False:
            return False
        if r is None:
            undecided = True
    return None if undecided else True


def is_admissible_point(x: PeriodicSeq, K: Kneading) -> bool | None:
    """Point membership: every shift of x between the kneading bounds."""
    shifts = len(x.preperiod) + len(x.period)
    undecided = False
    if K.exact:
        up = K.upper_seq()
        lo = up.reflect(K.m)
    for k in range(shifts):
        s = x.shift(k)
        if K.exact:
            if lex_compare(s, up) > 0 or lex_compare(lo, s) > 0:
                return False
        else:
            r = _suffix_ok(s.prefix(K.depth), K)
            if r is False:
                return False
            # prefix comparisons that stay tied through the full depth are open
            if _tied_through_depth(s, K):
                undecided = True
    return None if undecided else True


def _tied_through_depth(s: PeriodicSeq, K: Kneading) -> bool:
    up_tied = lo_tied = True
    for j in range(1, K.depth + 1):
        u = K.upper_digit(j)
        d = s.digit(j)
        if u is None:
            break
        if d != u:
            up_tied = False
        if d != K.m - u:
            lo_tied = False
        if not up_tied and not lo_tied:
            return False
    return True


# ---------------------------------------------------------------------------
# word enumeration


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per row of a uint8 matrix.  Keys compare
    bytewise, so their order is the lexicographic order of the digit rows,
    whatever the row length."""
    rows = np.ascontiguousarray(rows, dtype=np.uint8)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def locate_rows(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each query row among the lex-sorted distinct ``rows`` (both
    uint8 digit matrices of one width), -1 where it is absent."""
    if rows.shape[1] == 0:
        return np.full(len(queries), 0 if len(rows) else -1, dtype=np.int64)
    keys, q = _row_keys(rows), _row_keys(queries)
    idx = np.searchsorted(keys, q)
    hit = idx < len(keys)
    hit[hit] = keys[idx[hit]] == q[hit]
    return np.where(hit, idx, -1)


@dataclass(frozen=True, eq=False)
class CylinderBasis:
    """All admissible words of one length, lex-sorted.

    The depth-n cylinders of these words partition the shift and are the
    discretization basis for the transfer operator.  ``digits`` is the
    (N, depth) uint8 matrix of the words, one per row in lexicographic
    order; it is the only stored form.  ``words`` (a tuple of digit
    tuples) and ``index`` (word -> row) are built on first use and cached;
    ``word(i)`` reads one row without building either.
    """

    depth: int
    digits: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.digits)

    def __contains__(self, w):
        return tuple(w) in self.index

    def word(self, i: int) -> Word:
        return tuple(self.digits[i].tolist())

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(map(tuple, self.digits.tolist()))

    @cached_property
    def index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.words)}


def _suffix_verdicts(cands: np.ndarray, K: Kneading) -> np.ndarray:
    """``_suffix_ok`` on every row of a uint8 candidate matrix at once:
    1 / 0 / -1 for True / False / None.

    Each row is compared with the kneading prefix and its reflection by
    first differences.  The row loses at the first difference where it
    exceeds the upper or undercuts the lower prefix; it is undecided when
    the comparison must read a kneading digit beyond the known depth, i.e.
    when no violation, no point where both bounds are settled, and no end
    of the row comes first.
    """
    rows, L = cands.shape
    known = L if K.exact else min(L, K.depth)
    # digits past the known depth are placeholders; a row whose verdict
    # would read one comes out undecided whatever they are
    up = np.zeros(L, dtype=np.uint8)
    lo = np.zeros(L, dtype=np.uint8)
    up[:known] = K.upper_prefix(known)
    lo[:known] = K.lower_prefix(known)

    def first_difference(bound, loses):
        """Position of the first digit differing from bound (L if none),
        and that position again where the row loses there (L otherwise)."""
        neq = cands != bound
        f = np.where(neq.any(axis=1), neq.argmax(axis=1), L)
        at = np.minimum(f, L - 1)
        lost = (f < L) & loses(cands[np.arange(rows), at], bound[at])
        return f, np.where(lost, f, L)

    f_up, lost_up = first_difference(up, np.greater)
    f_lo, lost_lo = first_difference(lo, np.less)
    viol = np.minimum(lost_up, lost_lo)
    out = np.where(viol < L, 0, 1).astype(np.int8)
    if not K.exact:
        # last position read: the violation, the point where both bounds
        # are settled, or the end of the row, whichever comes first
        last = np.minimum(np.minimum(viol, np.maximum(f_up, f_lo)), L - 1)
        out[last >= K.depth] = -1
    return out


def _rotation_points(W: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` digits of the periodic point r^inf of every
    rotation r of every row of W: an (N, L, width) matrix whose [i, k] is
    rotation k (first digit W[i, k]) of row i."""
    L = W.shape[1]
    return W[:, (np.arange(L)[:, None] + np.arange(width)) % L]


def _periodic_verdicts(W: np.ndarray, K: Kneading) -> np.ndarray:
    """``is_admissible_point(PeriodicSeq((), r), K)`` for every row r of a
    uint8 word matrix at once: 1 / 0 / -1 for True / False / None.

    Every rotation of r must lie between the kneading bounds.  Exact
    kneading: two eventually periodic sequences agreeing on |pre| +
    lcm(L, |period|) digits are equal (the bound of ``lex_compare``), so
    the truncated order on that many digits is the order of the points.
    Truncated kneading: the comparison reads ``K.depth`` digits, and a
    rotation tied with the kneading prefix or its reflection through all
    of them is undecided, as in ``_tied_through_depth``.  A violation by
    any rotation wins over an undecided one.
    """
    N, L = W.shape
    if K.exact:
        width = len(K.upper.preperiod) + math.lcm(L, len(K.upper.period))
    else:
        width = K.depth
    points = _rotation_points(W, width).reshape(N * L, width)
    verdict = _suffix_verdicts(points, K)
    if not K.exact:
        tied = ((points == np.asarray(K.upper_prefix(width), dtype=np.uint8)).all(axis=1)
                | (points == np.asarray(K.lower_prefix(width), dtype=np.uint8)).all(axis=1))
        verdict[tied & (verdict != 0)] = -1
    verdict = verdict.reshape(N, L)
    return np.where((verdict == 0).any(axis=1), 0, verdict.min(axis=1))


def _levels(p: Params, K: Kneading, n: int):
    """Yield (candidates, ok) for lengths 1..n: the lex-sorted uint8 matrix
    of every digit prepended to the admissible words one shorter, and
    which candidates are admissible.

    Only the full-length suffix condition is new at each length; every
    shorter suffix was checked at the previous one.  Prepending the
    digits in increasing order to a sorted level keeps the candidates
    sorted.
    """
    if p.m > 255:
        raise ValueError("digits above 255 do not fit the uint8 word matrix")
    level = np.zeros((1, 0), dtype=np.uint8)
    for length in range(1, n + 1):
        head = np.repeat(np.arange(p.m + 1, dtype=np.uint8), len(level))
        cands = np.concatenate([head[:, None], np.tile(level, (p.m + 1, 1))], axis=1)
        verdict = _suffix_verdicts(cands, K)
        if np.any(verdict < 0):
            raise UndecidedError(f"kneading too shallow at length {length}")
        ok = verdict > 0
        yield cands, ok
        level = cands[ok]


def enumerate_words(p: Params, K: Kneading, n: int) -> CylinderBasis:
    """Enumerate all admissible words of length n.

    Words are grown level by level, by prepending each digit to the
    admissible words of the previous length (see ``_levels``).

    Raises
    ------
    UndecidedError
        if the kneading truncation cannot decide some candidate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for cands, ok in _levels(p, K, n):
        pass
    return CylinderBasis(n, cands[ok])


def forbidden_words(p: Params, K: Kneading, n: int) -> list[Word]:
    """Minimal forbidden words of length <= n: inadmissible words whose
    every proper factor is admissible.

    Together with their reflections (the set is reflection-symmetric) these
    generate the same subshift as the full forbidden collection up to
    length n.  Sorted by (length, word).
    """
    out: list[Word] = []
    level = None
    for cands, ok in _levels(p, K, n):
        bad = cands[~ok]
        if level is not None:
            # bad[1:] is admissible by construction; with bad[:-1]
            # admissible too, every proper factor passes
            bad = bad[locate_rows(level, bad[:, :-1]) >= 0]
        out.extend(map(tuple, bad.tolist()))
        level = cands[ok]
    return out


# ---------------------------------------------------------------------------
# preimages


def preimage_digits(x: "PeriodicSeq | Sequence[int]", p: Params, K: Kneading) -> set[int]:
    """Digits a such that a.x stays in the shift.

    For a finite basis word w of length n this is the depth-n approximation
    {a : a + w(1..n-1) admissible}, the set indexing the nonzero entries of
    the transfer-operator column of w.  For an exact PeriodicSeq the
    membership test is exact.
    """
    if isinstance(x, PeriodicSeq):
        out = set()
        for a in p.alphabet:
            y = PeriodicSeq((a,) + x.preperiod, x.period)
            r = is_admissible_point(y, K)
            if r is None:
                raise UndecidedError("kneading too shallow for point preimages")
            if r:
                out.add(a)
        return out
    w = tuple(x)
    if not w:
        raise ValueError("empty word")
    out = set()
    for a in p.alphabet:
        r = _suffix_ok((a,) + w[:-1], K)
        if r is None:
            raise UndecidedError("kneading too shallow for word preimages")
        if r:
            out.add(a)
    return out


def digit_interval(p: Params) -> tuple[Fraction | float, Fraction | float]:
    """The open interval (beta (m - beta + 1)/(beta - 1), beta - 1) whose
    integer points are guaranteed preimage digits of every shift point."""
    beta = p.beta
    lo = beta * (p.m - beta + 1) / (beta - 1)
    hi = beta - 1
    return lo, hi


def digit_interval_integers(p: Params) -> set[int]:
    lo, hi = digit_interval(p)
    out = set()
    for a in p.alphabet:
        if lo < a < hi:
            out.add(a)
    return out


# ---------------------------------------------------------------------------
# irreducibility and transitivity


def kneading_self_admissible(K: Kneading) -> bool | None:
    """Whether the kneading sequence is itself a point of the shift it
    bounds, i.e. every shifted tail stays between the reflected kneading
    sequence and the kneading sequence.

    This holds exactly when the base lies in (the closure of) the set of
    univoque bases, which is the parameter class the transitivity
    criterion speaks about.  Outside it the shift is still well defined;
    the criterion just becomes inapplicable.
    """
    if K.exact:
        return is_admissible_point(K.upper_seq(), K)
    undecided = False
    for k in range(1, K.depth):
        w = K.upper[k:]
        r = _suffix_ok(w, K)
        if r is False:
            return False
        if r is None:
            undecided = True
    return None if undecided else True


@dataclass(frozen=True)
class IrreducibilityResult:
    verdict: bool | None
    checked: int
    failed_at: int | None
    skipped: tuple[int, ...]   # j where the incremented reflection is undefined
    undecided: tuple[int, ...]


def is_irreducible(K: Kneading, J: int) -> IrreducibilityResult:
    """Check the irreducibility condition on the kneading sequence:
    x(1..j) (reflect(x(1..j))+)^inf  <=  x  for all j <= J.

    A candidate equal to the kneading sequence itself (the self-similar
    bases, e.g. beta_T for even m or the full shift at m = 1) counts as
    passing; only a strictly larger candidate witnesses reducibility.
    j with x(j) = 0 make the incremented reflection undefined and are
    skipped (recorded).  With truncated kneading, comparisons that stay
    tied through the depth yield an undecided verdict (None).
    """
    skipped: list[int] = []
    undecided: list[int] = []
    for j in range(1, J + 1):
        u = K.upper_digit(j)
        if u is None:
            undecided.append(j)
            continue
        head = K.upper_prefix(j)
        if head[-1] == 0:
            skipped.append(j)
            continue
        period = word_plus(reflect_word(head, K.m), K.m)
        cand = PeriodicSeq(head, period)
        cmp = _compare_seq_to_kneading(cand, K)
        if cmp is None:
            undecided.append(j)
        elif cmp > 0:
            return IrreducibilityResult(False, J, j, tuple(skipped), tuple(undecided))
    if undecided:
        return IrreducibilityResult(None, J, None, tuple(skipped), tuple(undecided))
    return IrreducibilityResult(True, J, None, tuple(skipped), tuple(undecided))


def _compare_seq_to_kneading(s: PeriodicSeq, K: Kneading) -> int | None:
    if K.exact:
        return lex_compare(s, K.upper_seq())
    for j in range(1, K.depth + 1):
        a, b = s.digit(j), K.upper_digit(j)
        if a != b:
            return -1 if a < b else 1
    return None


@dataclass(frozen=True)
class TransitivityResult:
    verdict: str  # "transitive" | "not_transitive" | "unknown"
    reason: str
    irreducibility: IrreducibilityResult
    self_admissible: bool | None


def check_transitivity(p: Params, K: Kneading, J: int = 32,
                       tol: Fraction = Fraction(1, 10 ** 12)) -> TransitivityResult:
    """Topological transitivity of the shift: the kneading sequence is
    irreducible, or beta equals the distinguished base beta_T.

    The criterion presumes the kneading sequence is self-admissible (the
    base lies in the closure of the univoque set).  When it is not, the
    verdict is ``unknown`` with an explanatory reason; downstream
    consumers refuse only on a definite ``not_transitive``.
    """
    bt = beta_t(p.m)
    diff = p.beta - bt
    if diff.sign() < 0:
        diff = -diff
    at_bt = diff < tol
    irr = is_irreducible(K, J)
    sa = kneading_self_admissible(K)
    if at_bt:
        return TransitivityResult("transitive", "beta = beta_T", irr, sa)
    if sa is False:
        return TransitivityResult(
            "unknown",
            "kneading sequence is not self-admissible: base outside the "
            "univoque closure, transitivity criterion inapplicable", irr, sa)
    if irr.verdict is True:
        return TransitivityResult("transitive", f"irreducible (J={J})", irr, sa)
    if irr.verdict is False:
        return TransitivityResult(
            "not_transitive", f"irreducibility fails at j={irr.failed_at}", irr, sa)
    return TransitivityResult("unknown", "comparisons undecided at kneading depth", irr, sa)
