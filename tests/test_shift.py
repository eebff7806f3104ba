import ast
import math
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from symbeta.expansion import Params, unique_expansion
from symbeta.operator import _in_degree
from symbeta.sequences import PeriodicSeq, reflect_word
from symbeta.shift import (CylinderBasis, UndecidedError, _keys, _suffix_ok,
                           _suffix_verdicts, build_kneading, check_transitivity,
                           digit_interval, digit_interval_integers,
                           enumerate_words, forbidden_words, is_admissible,
                           is_admissible_point, is_irreducible,
                           kneading_self_admissible, preimage_digits)


def kn(m, b, depth=64):
    p = Params.make(m, b)
    return p, build_kneading(p, depth)


def brute_admissible(w, K):
    """Independent oracle: every suffix between the kneading prefixes,
    compared as plain tuples."""
    for k in range(len(w)):
        s = w[k:]
        if s > K.upper_prefix(len(s)) or s < K.lower_prefix(len(s)):
            return False
    return True


# ---------------------------------------------------------------------------
# admissibility


def test_full_shift_all_words_admissible():
    p, K = kn(3, 4)
    for w in product(range(4), repeat=3):
        assert is_admissible(w, K)


def test_beta_t_word_examples():
    p, K = kn(2, "beta_T")
    assert is_admissible((2, 2), K) is False
    assert is_admissible((0, 0), K) is False
    assert is_admissible((2, 1), K) is True


def test_admissibility_matches_brute_force():
    for m, b in [(2, "beta_T"), (3, "3.5"), (2, "2.7"), (4, "4.3")]:
        p, K = kn(m, b)
        for n in (1, 2, 3, 4):
            for w in product(range(m + 1), repeat=n):
                assert is_admissible(w, K) == brute_admissible(w, K), (m, b, w)


def test_shift_invariance_and_reflection_symmetry():
    p, K = kn(3, "3.5")
    basis = enumerate_words(p, K, 5)
    for w in basis.words:
        assert is_admissible(w[1:], K)
        assert is_admissible(reflect_word(w, 3), K)


def test_undecided_beyond_kneading_depth():
    p = Params.make(3, "3.5")
    K = build_kneading(p, 6)
    # follow the kneading prefix one digit past the known depth: the
    # comparison stays tied and cannot be decided
    w = K.upper_prefix(6) + (1,)
    assert is_admissible(w, K) is None
    with pytest.raises(UndecidedError):
        enumerate_words(p, K, 7)
    # a definite violation wins over an open comparison
    bad = K.upper_prefix(6) + (0,)   # contains the forbidden factor 020
    assert is_admissible(bad, K) is False
    # a truncated kneading knows at most its depth, and its prefixes stop
    # there; an exact one knows every digit asked for
    assert not K.exact and [K.known(n) for n in (0, 1, 6, 7, 100)] == [0, 1, 6, 6, 6]
    with pytest.raises(UndecidedError, match="known to depth 6 < 7"):
        K.upper_prefix(7)
    for m, b in ((3, 4), (2, "beta_T")):
        _, K = kn(m, b, 6)
        assert K.exact and [K.known(n) for n in (0, 6, 7, 100)] == [0, 6, 7, 100]
        assert len(K.upper_prefix(100)) == 100


# every fact about words and kneading is decided in shift.py: no other
# module reads a word key (a CylinderBasis's ``keys`` or ``base``; a call
# of a method named ``keys``, such as a dict's, is not a read) or a field
# of a kneading, by convention the name ``K``
KNEADING_FIELDS = {"exact", "depth", "upper", "upper_prefix", "lower_prefix", "upper_digit"}


def shift_reads(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of every key or kneading read in the source."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and ((node.attr in ("keys", "base") and id(node) not in called)
                  or (node.attr in KNEADING_FIELDS and isinstance(node.value, ast.Name)
                      and node.value.id == "K"))]
    return [(node.lineno, node.attr)
            for node in sorted(reads, key=lambda node: (node.lineno, node.col_offset))]


def test_only_shift_reads_keys_and_kneading():
    assert shift_reads("b.keys[0]; n = b.base; d.keys(); K.exact; K.upper_prefix(3); T.depth") \
        == [(1, "keys"), (1, "base"), (1, "exact"), (1, "upper_prefix")]
    src = Path(__file__).resolve().parents[1] / "src" / "symbeta"
    paths = sorted(path for path in src.glob("*.py") if path.name != "shift.py")
    assert paths
    reads = {path.name: shift_reads(path.read_text()) for path in paths}
    assert reads == {path.name: [] for path in paths}


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts():
    p, K = kn(3, 4)
    assert len(enumerate_words(p, K, 2)) == 16
    p2, K2 = kn(2, "beta_T")
    basis = enumerate_words(p2, K2, 2)
    assert len(basis) == 7
    assert basis.words == ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1))


def test_extension_bound_and_subadditivity():
    p, K = kn(3, "3.5")
    counts = [len(enumerate_words(p, K, n)) for n in range(1, 9)]
    for a, b in zip(counts, counts[1:]):
        assert b <= 4 * a
    # log-subadditivity: N(i + j) <= N(i) N(j)
    for i in range(1, 5):
        for j in range(1, 5):
            assert counts[i + j - 1] <= counts[i - 1] * counts[j - 1]


def test_basis_lex_sorted_and_shift_closed():
    p, K = kn(3, "3.5")
    basis = enumerate_words(p, K, 6)
    assert list(basis.words) == sorted(basis.words)
    for w in basis.words:
        assert any(w[1:] + (b,) in basis.index for b in range(4))


def test_monotonicity_in_beta():
    # words admissible at the smaller base stay admissible at the larger,
    # on pairs where both kneading sequences are exact
    pairs = [((1, "golden"), (1, 2)), ((2, "beta_T"), (2, 3)), ((4, "beta_T"), (4, 5))]
    for (m, b1), (_, b2) in pairs:
        p1, K1 = kn(m, b1)
        p2, K2 = kn(m, b2)
        assert K1.exact and K2.exact
        from symbeta.sequences import lex_compare
        assert lex_compare(K1.upper_seq(), K2.upper_seq()) <= 0
        for n in (2, 4):
            for w in enumerate_words(p1, K1, n).words:
                assert is_admissible(w, K2)


# ---------------------------------------------------------------------------
# forbidden words


def test_forbidden_words_examples():
    p, K = kn(3, 4)
    assert forbidden_words(p, K, 4) == []
    p2, K2 = kn(2, "beta_T")
    assert forbidden_words(p2, K2, 2) == [(0, 0), (2, 2)]


def test_forbidden_words_are_minimal():
    p, K = kn(2, "beta_T")
    for w in forbidden_words(p, K, 5):
        assert is_admissible(w, K) is False
        # every proper factor admissible
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                if (i, j) != (0, len(w)):
                    assert is_admissible(w[i:j], K)


def test_forbidden_words_regenerate_basis():
    p, K = kn(3, "3.5")
    forb = set(forbidden_words(p, K, 5))

    def clean(w):
        return not any(w[i:i + len(f)] == f for f in forb for i in range(len(w) - len(f) + 1))

    basis = set(enumerate_words(p, K, 5).words)
    for w in product(range(4), repeat=5):
        assert (w in basis) == clean(w)


# ---------------------------------------------------------------------------
# row keys: int64 codes below base**width = 2**63, byte strings from there


VERDICT = {1: True, 0: False, -1: None}


def rows_near_kneading(K, width, tail=4):
    """Rows of ``width`` digits that start with the kneading prefix or its
    reflection (through ``width - tail`` digits, or the known depth), end
    in every ``tail`` digits, and are padded between with 0s or with m's,
    plus one constant row per digit: the rows whose verdicts are decided
    last or not at all."""
    k = width - tail if K.exact else min(width - tail, K.depth)
    heads = {K.upper_prefix(k), K.lower_prefix(k)}
    rows = [h + (d,) * (width - tail - k) + t for h in heads for d in (0, K.m)
            for t in product(range(K.m + 1), repeat=tail)]
    return rows + [(d,) * width for d in range(K.m + 1)]


@pytest.mark.parametrize("m, b, depth", [
    (3, 4, 64), (3, "golden", 64),    # exact kneading
    (3, "3.5", 64),                   # truncated, deeper than every row
    (3, "3.5", 3), (3, "3.5", 5), (4, "4.7", 4),
])
def test_suffix_verdicts_match_scalar_reference(m, b, depth):
    p, K = kn(m, b, depth)
    for n in range(1, 7):
        rows = list(product(range(m + 1), repeat=n))
        got = _suffix_verdicts(np.array(rows, dtype=np.uint8).reshape(-1, n), K)
        assert [VERDICT[v] for v in got.tolist()] == [_suffix_ok(w, K) for w in rows], n
        if not K.exact and n > K.depth:
            # rows tied with a kneading prefix through the depth
            assert (got == -1).any()


@pytest.mark.parametrize("m, b, depth, width", [
    (3, "golden", 64, 31), (3, "golden", 64, 32), (3, "golden", 64, 40),  # int64, bytes
    (3, "3.5", 64, 31), (3, "3.5", 64, 40),
    (3, "3.5", 30, 40), (3, "3.5", 34, 40),                 # truncated: -1 past it
])
def test_suffix_verdicts_on_both_sides_of_the_int64_limit(m, b, depth, width):
    p, K = kn(m, b, depth)
    rows = rows_near_kneading(K, width)
    got = _suffix_verdicts(np.array(rows, dtype=np.uint8), K)
    assert [VERDICT[v] for v in got.tolist()] == [_suffix_ok(w, K) for w in rows]
    assert set(got.tolist()) == ({0, 1} if K.exact or width <= K.depth else {-1, 0, 1})


@pytest.mark.parametrize("width, kind", [(5, np.int64), (31, np.int64), (32, np.object_),
                                         (40, np.object_)])
def test_row_keys_sort_in_lex_order(width, kind):
    rng = random.Random(width)
    rows = sorted({tuple(rng.randrange(4) for _ in range(width)) for _ in range(300)}
                  | {(3,) * width, (0,) * width, (0,) * (width - 1) + (1,)})
    keys = _keys(np.array(rows, dtype=np.uint8), 4)
    assert keys.dtype.type is kind
    assert type(keys[-1]) is (int if kind is np.object_ else np.int64)
    # strictly increasing: each key is found at its own position only
    idx = np.arange(len(rows))
    assert (np.searchsorted(keys, keys, "left") == idx).all()
    assert (np.searchsorted(keys, keys, "right") == idx + 1).all()


@pytest.mark.parametrize("m, b, n", [(3, 4, 4), (3, "3.5", 6), (4, "4.7", 5), (2, "beta_T", 7)])
def test_locate_rows_matches_admissibility(m, b, n):
    p, K = kn(m, b)
    basis = enumerate_words(p, K, n)
    queries = list(product(range(m + 1), repeat=n))
    got = basis.locate(np.array(queries, dtype=np.uint8)).tolist()
    assert got == [basis.index.get(w, -1) for w in queries]
    assert [i >= 0 for i in got] == [is_admissible(w, K) for w in queries]


@pytest.mark.parametrize("width", [31, 32, 40])
def test_locate_rows_at_wide_widths(width):
    rng = random.Random(width)
    rows = sorted({tuple(rng.randrange(4) for _ in range(width)) for _ in range(200)})
    # every row, and every row with its last or first digit changed
    queries = rows + [w[:-1] + ((w[-1] + 1) % 4,) for w in rows] \
        + [((w[0] + 2) % 4,) + w[1:] for w in rows]
    basis = CylinderBasis(width, 4, _keys(np.array(rows, dtype=np.uint8), 4))
    got = basis.locate(np.array(queries, dtype=np.uint8))
    index = {w: i for i, w in enumerate(rows)}
    assert got.tolist() == [index.get(w, -1) for w in queries]
    assert basis.words == tuple(rows)


# ---------------------------------------------------------------------------
# preimages


def test_digit_interval_values():
    lo, hi = digit_interval(Params.make(3, "3.5"))
    assert float(lo) == pytest.approx(0.7) and float(hi) == pytest.approx(2.5)
    assert digit_interval_integers(Params.make(3, "3.5")) == {1, 2}
    lo4, hi4 = digit_interval(Params.make(4, 4))
    assert float(lo4) == pytest.approx(4 / 3) and float(hi4) == pytest.approx(3.0)
    assert digit_interval_integers(Params.make(4, 4)) == {2}
    # beta = m + 1: (0, m)
    assert digit_interval_integers(Params.make(4, 5)) == {1, 2, 3}


def test_preimage_digits_full_shift():
    p, K = kn(3, 4)
    for w in enumerate_words(p, K, 3).words:
        assert preimage_digits(w, p, K) == {0, 1, 2, 3}


def test_interval_contained_in_preimages():
    for m, b in [(3, "3.5"), (3, 4), (4, 4), (4, 5), (6, 5)]:
        p, K = kn(m, b)
        ints = digit_interval_integers(p)
        basis = enumerate_words(p, K, 5)
        for w in basis.words:
            pre = preimage_digits(w, p, K)
            assert ints <= pre
            assert len(pre) >= 1


def test_point_preimages_exact():
    p, K = kn(2, "beta_T")
    x = PeriodicSeq((), (1,))   # 1^inf
    assert is_admissible_point(x, K)
    pre = preimage_digits(x, p, K)
    assert 1 in pre
    # prepending 2 gives 21^inf = the kneading sequence: admissible
    assert 2 in pre
    # 0·1^inf = 011... >= 01^inf: admissible
    assert pre == {0, 1, 2}


@pytest.mark.parametrize("m, beta, n", [(4, "4.7", 7), (3, "3.5", 6)])
def test_preimage_counts_are_graph_in_degrees(m, beta, n):
    # check reads every word's preimage count from the word graph
    p, K = kn(m, beta)
    basis = enumerate_words(p, K, n, graph=True)
    counts = _in_degree(*basis.graph)
    assert counts.tolist() == [len(preimage_digits(w, p, K)) for w in basis.words]


def test_preimage_stability():
    # depth n+1 preimage sets refine depth n, equality off the pinned words
    p, K = kn(3, "3.5")
    n = 6
    b_lo = enumerate_words(p, K, n)
    b_hi = enumerate_words(p, K, n + 1)
    up = K.upper_prefix(n)
    lo = K.lower_prefix(n)
    disagree = 0
    for u in b_hi.words:
        s_hi = preimage_digits(u, p, K)
        s_lo = preimage_digits(u[:n], p, K)
        assert s_hi <= s_lo
        if s_hi != s_lo:
            disagree += 1
            # only words pinned to a kneading prefix can lose digits
            assert any((a,) + u[:n - 1] in (up, lo) for a in range(4))
    assert disagree <= 2 * (p.m + 1) ** 2
    assert disagree / len(b_hi) < 0.05


# ---------------------------------------------------------------------------
# irreducibility / transitivity


def test_irreducibility_examples():
    _, K = kn(2, "beta_T")
    r = is_irreducible(K, 3)
    assert r.verdict is True          # candidate at j=1 ties the kneading seq
    _, K34 = kn(3, 4)
    assert is_irreducible(K34, 8).verdict is True
    assert is_irreducible(K34, 0).verdict is True  # vacuous


def test_irreducibility_skips_zero_digits():
    # a zero at position j >= 2 always makes the j-1 candidate fail first,
    # so the skip bookkeeping is only observable on a synthetic sequence
    # starting with 0 (never a real kneading sequence)
    from symbeta.shift import Kneading
    K = Kneading(2, PeriodicSeq((0,), (1,)), True, 32)
    r = is_irreducible(K, 3)
    assert r.skipped == (1,)
    assert r.verdict is False and r.failed_at == 2


def test_transitivity_verdicts():
    cases = {
        (2, "beta_T"): "transitive",
        (4, "beta_T"): "transitive",
        (3, 4): "transitive",
        (4, 5): "transitive",
        (6, 5): "transitive",
        (1, 2): "transitive",
        (3, "3.5"): "unknown",       # outside the univoque closure
    }
    for (m, b), want in cases.items():
        p, K = kn(m, b)
        assert check_transitivity(p, K).verdict == want, (m, b)


def test_kneading_self_admissibility():
    for m, b, want in [(1, "golden", True), (2, "beta_T", True), (3, 4, True),
                       (6, 5, True), (3, "3.5", False)]:
        _, K = kn(m, b)
        assert kneading_self_admissible(K) is want


def test_unique_expansion_test():
    p = Params.make(1, "golden")
    assert unique_expansion(0, p, 30)
    assert unique_expansion(p.max_value, p, 30)
    assert not unique_expansion(1, p, 30)
