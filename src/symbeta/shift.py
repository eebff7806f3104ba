"""The symmetric beta-shift as a combinatorial object.

The shift is the set of sequences whose every shifted suffix lies
lexicographically between the reflected kneading sequence and the kneading
sequence (the quasi-greedy expansion of 1).  A finite word is admissible
exactly when none of its factors is forbidden, which reduces to comparing
each suffix against the kneading prefixes; a suffix that matches a kneading
prefix exactly is admissible-so-far and constrains further extensions.
Those constraints also give the operator's sample points
(``canonical_point``), so every comparison with the kneading sequence is
made in this module.

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
from .sequences import (PeriodicSeq, Word, digits_str, lex_compare, reflect_word,
                        word_plus)


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
            "upper": str(self.upper) if self.exact else digits_str(head) + "...",
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
    else:
        ties = (K.upper_prefix(K.depth), K.lower_prefix(K.depth))
    for k in range(shifts):
        s = x.shift(k)
        if K.exact:
            if lex_compare(s, up) > 0 or lex_compare(lo, s) > 0:
                return False
        else:
            head = s.prefix(K.depth)
            r = _suffix_ok(head, K)
            if r is False:
                return False
            # prefix comparisons that stay tied through the full depth are open
            if head in ties:
                undecided = True
    return None if undecided else True


# ---------------------------------------------------------------------------
# word enumeration


def _row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """One key per row of a digit matrix with digits below ``base``, in the
    lexicographic order of the rows: the row read as a base-``base`` int64
    while base**width < 2**63, else an opaque byte string compared bytewise
    (no width limit).  Both kinds support ``==`` and ``np.searchsorted``."""
    width = rows.shape[1]
    if base ** width >= 2 ** 63:
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        return rows.view(np.dtype((np.void, width))).ravel()
    keys = np.zeros(len(rows), dtype=np.int64)
    for j in range(width):
        keys *= base
        keys += rows[:, j]
    return keys


def locate_rows(rows: np.ndarray, queries: np.ndarray, base: int) -> np.ndarray:
    """Index of each query row among the lex-sorted distinct ``rows`` (both
    digit matrices of one width, digits below ``base``), -1 where it is
    absent: one sorted search of the queries' keys among the rows' keys."""
    keys, q = _row_keys(rows, base), _row_keys(queries, base)
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

    The key (``_row_keys``) of each row's first ``known`` digits (all with
    exact kneading, at most ``K.depth`` otherwise) is placed by two sorted
    searches against the keys of the kneading prefix and its reflection.
    Below the lower or above the upper key the row is violated (0).  A tie
    with either key, in a row longer than ``known``, needs a kneading digit
    beyond the known depth (-1).  Every other row passes (1).
    """
    L = cands.shape[1]
    known = L if K.exact else min(L, K.depth)
    keys = _row_keys(cands[:, :known], K.m + 1)
    bounds = np.array([K.lower_prefix(known), K.upper_prefix(known)], dtype=np.uint8)
    lo, up = np.split(_row_keys(bounds, K.m + 1), 2)
    ok = (np.searchsorted(lo, keys, "right") > 0) & (np.searchsorted(up, keys) == 0)
    out = ok.astype(np.int8)
    if known < L:
        out[ok & ((keys == lo) | (keys == up))] = -1
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
    of them is undecided, as in ``is_admissible_point``; the rotations are
    taken one digit longer, so ``_suffix_verdicts`` finds those ties.  A
    violation by any rotation wins over an undecided one.
    """
    N, L = W.shape
    if K.exact:
        width = len(K.upper.preperiod) + math.lcm(L, len(K.upper.period))
    else:
        width = K.depth + 1
    points = _rotation_points(W, width).reshape(N * L, width)
    verdict = _suffix_verdicts(points, K).reshape(N, L)
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


def words_and_forbidden(p: Params, K: Kneading, n: int) -> tuple[CylinderBasis, list[Word]]:
    """``enumerate_words(p, K, n)`` and ``forbidden_words(p, K, n)`` from one
    walk of the levels: a rejected candidate is a minimal forbidden word
    when dropping its last digit leaves a word of the previous level.
    """
    out: list[Word] = []
    level = np.zeros((1, 0), dtype=np.uint8)
    for cands, ok in _levels(p, K, n):
        # bad[1:] is admissible by construction; with bad[:-1] admissible
        # too, every proper factor passes
        bad = cands[~ok]
        bad = bad[locate_rows(level, bad[:, :-1], p.m + 1) >= 0]
        out.extend(map(tuple, bad.tolist()))
        level = cands[ok]
    return CylinderBasis(n, level), out


def forbidden_words(p: Params, K: Kneading, n: int) -> list[Word]:
    """Minimal forbidden words of length <= n: inadmissible words whose
    every proper factor is admissible.

    Together with their reflections (the set is reflection-symmetric) these
    generate the same subshift as the full forbidden collection up to
    length n.  Sorted by (length, word).
    """
    return words_and_forbidden(p, K, n)[1]


# ---------------------------------------------------------------------------
# canonical sampling points


def canonical_point(w: Sequence[int], K: Kneading, total_len: int) -> Word:
    """Deterministic extension of w to ``total_len`` digits, appending the
    smallest admissible digit at each step.

    Only the suffixes of the growing word tied with a prefix of the
    kneading sequence u or of its reflection (the word's pins, the empty
    suffix among them) bound the next digit.  A suffix equal to u(1..k)
    bounds it above by u(k+1); one equal to the reflection of u(1..k)
    bounds it below by m - u(k+1).  The digit appended is the largest lower
    bound, whenever that is at most the smallest upper bound.  Outside the
    univoque closure an admissible word can have an empty cylinder (no
    admissible continuation at all); the bounds then cross, and the
    longest-standing pin is dropped, deterministically, until they do not,
    so the sample point stays as close to the cell as possible.  Such cells
    carry vanishing Gibbs weight as the depth grows.

    Raises ``UndecidedError`` when a pin needs a kneading digit beyond the
    known depth, and RuntimeError when no digit at all is admissible
    (m - u(1) > u(1)).
    """
    w = tuple(w)
    if total_len <= len(w):
        return w[:total_len]
    known = total_len if K.exact else min(total_len, K.depth)
    up = K.upper_prefix(known)
    lo = reflect_word(up, K.m)
    # the pins: lengths of the suffixes tied with the upper and the lower
    # kneading prefix, longest first
    ups: list[int] = []
    los: list[int] = []
    for start in range(len(w)):
        s = w[start:start + known]
        for ties, prefix in ((ups, up), (los, lo)):
            if s == prefix[:len(s)]:
                if len(w) - start > len(s):
                    raise UndecidedError("kneading too shallow for canonical point")
                ties.append(len(s))
    if lo[0] > up[0]:
        raise RuntimeError(f"no extension of {w} possible")
    out = list(w)
    while len(out) < total_len:
        ups.append(0)   # the empty suffix ties both, and is never dropped
        los.append(0)
        if max(ups[0], los[0]) >= known:
            raise UndecidedError("kneading too shallow for canonical point")
        while (a := max([lo[k] for k in los])) > min([up[k] for k in ups]):
            # drop the longest-standing pin, the upper one of a pair
            del (ups if ups[0] >= los[0] else los)[0]
        ups = [k + 1 for k in ups if up[k] == a]
        los = [k + 1 for k in los if lo[k] == a]
        out.append(a)
    return tuple(out)


def _canonical_points(basis: CylinderBasis, K: Kneading, total_len: int) -> np.ndarray:
    """``canonical_point`` of every basis word, as an (N, total_len) uint8
    matrix.

    The appended digits depend only on the word's pins.  The longest
    suffix tied with each kneading bound fixes the word's last digits and
    so all of its pins, so ``canonical_point`` runs once per distinct pair
    of those lengths and the tails are gathered.  A word's k-suffix ties
    with a kneading k-prefix where their keys (``_row_keys``) are equal.
    """
    D = basis.digits
    N, n = D.shape
    base = K.m + 1
    longest_up = np.zeros(N, dtype=np.int64)
    longest_lo = np.zeros(N, dtype=np.int64)
    for k in range(1, n + 1):
        suffix = _row_keys(D[:, n - k:], base)
        up, lo = _row_keys(np.array([K.upper_prefix(k), K.lower_prefix(k)], dtype=np.uint8), base)
        longest_up[suffix == up] = k
        longest_lo[suffix == lo] = k
    _, first, inverse = np.unique(longest_up * (n + 1) + longest_lo,
                                  return_index=True, return_inverse=True)
    tails = np.array([canonical_point(basis.word(i), K, total_len)[n:] for i in first],
                     dtype=np.uint8)
    return np.concatenate([D, tails[inverse]], axis=1)


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
    return is_admissible(K.upper[1:], K)


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
    a, b = s.prefix(K.depth), K.upper_prefix(K.depth)
    if a == b:
        return None   # tied through the known depth
    return -1 if a < b else 1


@dataclass(frozen=True)
class TransitivityResult:
    verdict: str  # "transitive" | "not_transitive" | "unknown"
    reason: str
    irreducibility: IrreducibilityResult
    self_admissible: bool | None


def check_transitivity(p: Params, K: Kneading) -> TransitivityResult:
    """Topological transitivity of the shift: the kneading sequence is
    irreducible (checked for j <= 32), or beta is within 1e-12 of the
    distinguished base beta_T.

    The criterion presumes the kneading sequence is self-admissible (the
    base lies in the closure of the univoque set).  When it is not, the
    verdict is ``unknown`` with an explanatory reason; downstream
    consumers refuse only on a definite ``not_transitive``.
    """
    bt = beta_t(p.m)
    diff = p.beta - bt
    if diff.sign() < 0:
        diff = -diff
    at_bt = diff < Fraction(1, 10 ** 12)
    irr = is_irreducible(K, 32)
    sa = kneading_self_admissible(K)
    if at_bt:
        return TransitivityResult("transitive", "beta = beta_T", irr, sa)
    if sa is False:
        return TransitivityResult(
            "unknown",
            "kneading sequence is not self-admissible: base outside the "
            "univoque closure, transitivity criterion inapplicable", irr, sa)
    if irr.verdict is True:
        return TransitivityResult("transitive", f"irreducible (J={irr.checked})",
                                  irr, sa)
    if irr.verdict is False:
        return TransitivityResult(
            "not_transitive", f"irreducibility fails at j={irr.failed_at}", irr, sa)
    return TransitivityResult("unknown", "comparisons undecided at kneading depth", irr, sa)
