"""The symmetric beta-shift as a combinatorial object.

The shift is the set of sequences whose every shifted suffix lies
lexicographically between the reflected kneading sequence and the kneading
sequence (the quasi-greedy expansion of 1).  A finite word is admissible
exactly when none of its factors is forbidden, which reduces to comparing
each suffix against the kneading prefixes; a suffix that matches a kneading
prefix exactly is admissible-so-far and constrains further extensions.
Those constraints also give the operator's sample points
(``sample_points``, from ``canonical_point``), and the same bounds decide
which periodic words are orbits of the shift (``periodic_words``), so
every comparison with the kneading sequence is made in this module.

A word of length n is stored as its key, the word read as a base-(m+1)
integer, so lexicographic order is the order of the keys, and the
admissible words of one length grown from one digit are a contiguous
range of them (``_levels``).  ``CylinderBasis`` holds the
ascending keys of a word level and derives from them its digit matrix and
the rows of given words; the level walk gives it its word graph, where
asked.  No other module reads a key.

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
    ``depth`` digits (``known``).
    """

    m: int
    upper: PeriodicSeq | Word
    exact: bool
    depth: int

    def known(self, n: int) -> int:
        """How many of the first n kneading digits are known: all n with
        exact kneading, at most ``depth`` otherwise."""
        return n if self.exact else min(n, self.depth)

    def upper_digit(self, i: int) -> int | None:
        """1-based digit of the kneading sequence; None beyond known depth."""
        if self.exact:
            return self.upper.digit(i)
        if i > self.depth:
            return None
        return self.upper[i - 1]

    def upper_prefix(self, n: int) -> Word:
        if self.known(n) < n:
            raise UndecidedError(f"kneading known to depth {self.depth} < {n}")
        return self.upper.prefix(n) if self.exact else self.upper[:n]

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
    return Kneading(p.m, x, isinstance(x, PeriodicSeq), depth)


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


def _key_dtype(base: int, width: int):
    """int64 while every ``width``-digit key fits it, else Python ints."""
    return np.int64 if base ** width < 2 ** 63 else object


def _key(w: Sequence[int], base: int) -> int:
    """The word w read as a base-``base`` integer."""
    return sum(d * base ** i for i, d in enumerate(reversed(w)))


def _keys(rows: np.ndarray, base: int) -> np.ndarray:
    """``_key`` of every row of a digit matrix with digits below ``base``,
    ascending in the lexicographic order of the rows: int64 while
    base**width < 2**63, else Python ints (no width limit)."""
    keys = np.zeros(len(rows), dtype=_key_dtype(base, rows.shape[1]))
    for j in range(rows.shape[1]):
        keys *= base
        keys += rows[:, j]
    return keys


def _rank(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Index of each of the keys ``q`` among the ascending distinct
    ``keys``, -1 where it is absent: one sorted search."""
    idx = np.searchsorted(keys, q)
    hit = idx < len(keys)
    hit[hit] = keys[idx[hit]] == q[hit]
    return np.where(hit, idx, -1)


@dataclass(frozen=True, eq=False)
class CylinderBasis:
    """All admissible words of one length, lex-sorted.

    The depth-n cylinders of these words partition the shift and are the
    discretization basis for the transfer operator.  The words are stored
    once, as their ascending ``keys``: each word read as a base-``base``
    integer (``_keys``), int64 while base**depth < 2**63 and Python ints
    beyond.  Only this module reads that form.  ``digits`` (the (N, depth)
    uint8 matrix, one word per row) is derived on each call; ``words`` (a
    tuple of digit tuples) and ``index`` (word -> row) are built on first
    use and cached; ``word(i)`` reads one word without building either.

    ``graph`` is the word graph (head, tail) when the level walk was asked
    for it (``words_and_forbidden``), else None: target t has source s when
    s[1:] == t[:-1].  Both sides are ranked among the distinct
    (n-1)-prefixes of the words: ``head[t]`` is the rank of t's prefix
    (nondecreasing, as the keys ascend) and ``tail[s]`` the rank of s's
    suffix, -1 when s[1:] starts no word.
    """

    depth: int
    base: int
    keys: np.ndarray = field(repr=False)
    graph: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __len__(self):
        return len(self.keys)

    def __contains__(self, w):
        return tuple(w) in self.index

    def digits_of(self, idx, width: int | None = None) -> np.ndarray:
        """The uint8 digit matrix of the words at ``idx``, one per row: the
        first ``width`` digits of each word (all ``depth`` by default)."""
        width = self.depth if width is None else width
        keys = self.keys[idx] // self.base ** (self.depth - width)   # new, divided in place
        out = np.empty((len(keys), width), dtype=np.uint8)
        if keys.dtype == object:   # np.divmod with out= rejects object arrays
            for j in reversed(range(width)):
                out[:, j] = keys % self.base
                keys //= self.base
            return out
        rem = np.empty_like(keys)
        for j in reversed(range(width)):
            np.divmod(keys, self.base, out=(keys, rem))
            out[:, j] = rem
        return out

    @property
    def digits(self) -> np.ndarray:
        return self.digits_of(slice(None))

    def word(self, i: int) -> Word:
        return tuple(self.digits_of([i])[0].tolist())

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(map(tuple, self.digits.tolist()))

    @cached_property
    def index(self) -> dict[Word, int]:
        return {w: i for i, w in enumerate(self.words)}

    def locate(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row of a (Q, depth) digit matrix among the words,
        -1 where the row is not one of them."""
        return _rank(self.keys, _keys(rows, self.base))


def _lex_sign(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sign (-1, 0, 1) of the lexicographic comparison of the digit
    rows a and b along their last axis, broadcast over the others: the
    sign of their first differing digit, 0 where none differs (the first
    digit is read then, and it ties)."""
    a, b = np.broadcast_arrays(a, b)
    first = (a != b).argmax(axis=-1)[..., None]
    a_at, b_at = (np.take_along_axis(x, first, -1)[..., 0] for x in (a, b))
    return (a_at > b_at).astype(np.int8) - (a_at < b_at)


def _suffix_verdicts(cands: np.ndarray, K: Kneading) -> np.ndarray:
    """``_suffix_ok`` on every row of a uint8 candidate matrix at once:
    1 / 0 / -1 for True / False / None.

    Each row's first ``known`` digits (``K.known``) are compared
    (``_lex_sign``) with the kneading prefix and its reflection.  Below
    the lower or above the upper prefix the row is violated (0).  A tie
    with either, in a row longer than ``known``, needs a kneading digit
    beyond the known depth (-1).  Every other row passes (1).
    """
    L = cands.shape[1]
    known = K.known(L)
    c_lo, c_up = (_lex_sign(cands[:, :known], np.array(bound(known), dtype=np.uint8))
                  for bound in (K.lower_prefix, K.upper_prefix))
    ok = (c_lo >= 0) & (c_up <= 0)
    tie = ((c_lo == 0) | (c_up == 0)) if known < L else False
    return np.where(ok & tie, -1, ok).astype(np.int8)


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
    """The walk of the word levels 1..n: for each length L, yields (prev,
    lead, cut, keys), with ``prev`` the ascending keys of level L - 1,
    ``lead[d]`` = d * base**(L-1) the key of digit d prepended, ``cut[d]``
    the four positions in prev that bound digit d's candidates (columns
    0:3 are admissible, 0:1 and 2:3 tie lo and up; see
    ``words_and_forbidden``) and ``keys`` the ascending keys of level L.

    Raises
    ------
    ValueError
        if n < 1.
    UndecidedError
        at the first length where the kneading truncation cannot decide
        some candidate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p.m > 255:
        raise ValueError("digits above 255 do not fit the uint8 word matrix")
    base = p.m + 1
    keys = np.zeros(1, dtype=np.int64)      # level 0: the empty word
    for length in range(1, n + 1):
        prev = keys.astype(_key_dtype(base, length), copy=False)
        known = K.known(length)
        s = base ** (length - known)
        lo, up = (_key(w, base) * s for w in (K.lower_prefix(known), K.upper_prefix(known)))
        lead = base ** (length - 1) * np.arange(base).astype(prev.dtype)
        # per prepended digit, where its candidates reach lo, lo + s, up and
        # up + s
        cut = np.searchsorted(prev, np.array([lo, lo + s, up, up + s], dtype=prev.dtype)
                              - lead[:, None])
        if known < length and lo <= up and np.any(cut[:, [1, 3]] > cut[:, [0, 2]]):
            raise UndecidedError(f"kneading too shallow at length {length}")
        keys = np.concatenate([d + prev[a:b] for d, (a, _, _, b) in zip(lead, cut)])
        yield prev, lead, cut, keys


def words_and_forbidden(p: Params, K: Kneading, n: int,
                        graph: bool = False) -> tuple[CylinderBasis, list[Word]]:
    """The admissible words of length n and the minimal forbidden words of
    length <= n (inadmissible words whose every proper factor is
    admissible), from one walk of the word levels (``_levels``); with
    ``graph``, the basis carries its word graph (``_level_graph``).
    ``enumerate_words`` reads the same walk and builds no forbidden word.

    Level L is grown from the ascending keys of level L - 1 by prepending
    each digit d in increasing order: candidate d * base**(L-1) + key.
    Only the full-length suffix condition is new at each length (every
    shorter suffix was checked at the previous one), and it reads
    lo <= key // s <= up, with lo and up the keys of the reflected and the
    plain kneading prefix of the ``known`` length and s = base**(L - known).
    So for each d the admissible candidates are one slice of the previous
    level, found by two sorted searches; two more find the candidates tied
    with lo or up past the kneading depth, which are undecided.  A rejected
    candidate is minimal forbidden when its key // base (the word without
    its last digit) is in the previous level, as its key % base**(L-1)
    (the word without its first digit) is by construction.

    Raises
    ------
    ValueError
        if n < 1.
    UndecidedError
        if the kneading truncation cannot decide some candidate.
    """
    base = p.m + 1
    forbidden: list[Word] = []
    for length, (prev, lead, cut, keys) in enumerate(_levels(p, K, n), 1):
        rejected = np.concatenate([d + prev[i] for d, (a, _, _, b) in zip(lead, cut)
                                   for i in (slice(0, a), slice(max(a, b), None))])
        bad = rejected[_rank(prev, rejected // base) >= 0]
        forbidden.extend(map(tuple, CylinderBasis(length, base, bad).digits.tolist()))
    word_graph = _level_graph(keys, prev, cut, base) if graph else None
    return CylinderBasis(n, base, keys, word_graph), forbidden


def _level_graph(keys: np.ndarray, prev: np.ndarray, cut: np.ndarray,
                 base: int) -> tuple[np.ndarray, np.ndarray]:
    """(head, tail) of the word graph (see ``CylinderBasis``) of the level
    ``keys``, grown from the level ``prev`` by the slices prev[a:b] of
    ``cut`` (``_levels``).

    head is the run index of key // base.  The suffixes of the words of one
    slice are the run prev[a:b] itself, so tail is that run of the ranks of
    the previous level's words among the prefixes: one sorted search of
    the G prefixes in the previous level, and a copy.  A prefix of an
    admissible word is admissible, so every prefix is found there.
    """
    prefix = keys // base
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(prefix[1:], prefix[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    head = np.repeat(np.arange(len(first)), np.diff(first, append=len(keys)))
    rank = np.full(len(prev), -1, dtype=np.int64)
    rank[np.searchsorted(prev, prefix[first])] = np.arange(len(first))
    return head, np.concatenate([rank[a:b] for a, _, _, b in cut])


def enumerate_words(p: Params, K: Kneading, n: int, graph: bool = False) -> CylinderBasis:
    """Enumerate all admissible words of length n, level by level, with
    their word graph when ``graph`` is set: the walk of
    ``words_and_forbidden`` (``_levels``), without its minimal forbidden
    words.

    Raises
    ------
    ValueError
        if n < 1.
    UndecidedError
        if the kneading truncation cannot decide some candidate.
    """
    for prev, _, cut, keys in _levels(p, K, n):
        pass
    base = p.m + 1
    return CylinderBasis(n, base, keys, _level_graph(keys, prev, cut, base) if graph else None)


def forbidden_words(p: Params, K: Kneading, n: int) -> list[Word]:
    """Minimal forbidden words of length <= n: inadmissible words whose
    every proper factor is admissible.

    Together with their reflections (the set is reflection-symmetric) these
    generate the same subshift as the full forbidden collection up to
    length n.  Sorted by (length, word).
    """
    return words_and_forbidden(p, K, n)[1]


def periodic_words(p: Params, K: Kneading, length: int) -> np.ndarray:
    """One period of every admissible periodic orbit of the given least
    period, as a uint8 digit matrix: each orbit's lex-least rotation, one
    per row, ascending.

    The rows are the admissible words of that length (every factor of an
    admissible point is an admissible word, ``enumerate_words``) whose key k
    is strictly below the key of each nontrivial rotation, (k % B^(L-r))
    B^r + k // B^(L-r) for r = 1 ... L-1 (B = base); a non-primitive word
    equals one of its rotations and fails.  Of those, the words whose
    periodic point the kneading data decides admissible are kept
    (``_periodic_verdicts``): an undecided orbit is left out.
    """
    words = enumerate_words(p, K, length)
    keys, base = words.keys, words.base
    least = np.ones(len(keys), dtype=bool)
    for r in range(1, length):
        low = base ** (length - r)
        least &= keys < keys % low * base ** r + keys // low
    W = words.digits_of(least)
    return W[_periodic_verdicts(W, K) == 1]


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
    known = K.known(total_len)
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


def sample_points(basis: CylinderBasis, K: Kneading, width: int) -> np.ndarray:
    """The operator's sample point of every basis word, its first ``width``
    digits as an (N, width) uint8 matrix: the word's own digits while
    ``width`` is at most the depth, its ``canonical_point`` beyond.

    Beyond the depth, the appended digits depend only on the word's pins.
    The longest suffix tied with each kneading bound fixes the word's last
    digits and so all of its pins, so ``canonical_point`` runs once per
    distinct pair of those lengths and the tails are gathered.  A word's
    k-suffix, key % base**k, ties with a kneading k-prefix where it equals
    that prefix's key.

    Raises ``UndecidedError`` when the kneading sequence is known to fewer
    than ``width`` digits, also where ``width`` is within the depth.
    """
    if K.known(width) < width:
        raise UndecidedError(
            f"potential reads {width} digits but the kneading sequence is "
            f"only known to depth {K.depth}; sample points beyond it cannot "
            "be certified")
    if width <= basis.depth:
        return basis.digits_of(slice(None), width)
    keys, n, base = basis.keys, basis.depth, basis.base
    # tied with up, with lo; the (n + 1)^2 pairs fit int16 at any practical
    # depth, which np.unique sorts by radix
    longest = np.zeros((2, len(keys)), dtype=np.int16 if (n + 1) ** 2 <= 2 ** 15 else np.int64)
    for k in range(1, n + 1):
        suffix = keys % base ** k
        for row, bound in zip(longest, (K.upper_prefix, K.lower_prefix)):
            row[suffix == _key(bound(k), base)] = k
    _, first, inverse = np.unique(longest[0] * (n + 1) + longest[1],
                                  return_index=True, return_inverse=True)
    tails = np.array([canonical_point(basis.word(i), K, width)[n:] for i in first],
                     dtype=np.uint8)
    return np.concatenate([basis.digits, tails[inverse]], axis=1)


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
