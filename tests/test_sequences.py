import random
from fractions import Fraction

import pytest

from symbeta.sequences import (PeriodicSeq, digits_str, lex_compare, metric_d,
                               reflect_word, word_minus, word_plus)


def test_canonical_minimal_period():
    s = PeriodicSeq((), (1, 0, 1, 0))
    assert s.period == (1, 0)
    assert s.preperiod == ()


def test_canonical_preperiod_absorption():
    # 0 1 (1)^inf == 0 (1)^inf
    s = PeriodicSeq((0, 1), (1,))
    assert s.preperiod == (0,)
    assert s.period == (1,)
    # 1 1 (0)^inf stays: 1 != 0
    t = PeriodicSeq((1, 1), (0,))
    assert t.preperiod == (1, 1) and t.period == (0,)


def test_equality_is_value_equality():
    assert PeriodicSeq((2, 1), (1,)) == PeriodicSeq((2,), (1,))
    assert PeriodicSeq((), (1, 0)) == PeriodicSeq((1,), (0, 1))


def test_digit_and_shift():
    s = PeriodicSeq((3,), (1, 2))
    assert [s.digit(i) for i in range(1, 7)] == [3, 1, 2, 1, 2, 1]
    assert s.shift(1) == PeriodicSeq((), (1, 2))
    assert s.shift(4) == PeriodicSeq((), (2, 1))
    assert s.shift(0) == s


def test_prefix_matches_digits():
    rng = random.Random(5)
    for _ in range(200):
        s = PeriodicSeq(tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4))),
                        tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4))))
        for n in (0, 1, 2, 5, 13):
            assert s.prefix(n) == tuple(s.digit(i) for i in range(1, n + 1))


def test_lex_compare_examples():
    # 01^inf vs (10)^inf: first digit 0 < 1
    assert lex_compare(PeriodicSeq((0,), (1,)), PeriodicSeq((), (1, 0))) == -1
    # (10)^inf vs 110^inf: second digit 0 < 1
    assert lex_compare(PeriodicSeq((), (1, 0)), PeriodicSeq((1, 1), (0,))) == -1
    # (21)^inf vs itself
    assert lex_compare(PeriodicSeq((), (2, 1)), PeriodicSeq((), (2, 1))) == 0


def _random_seq(rng, m=3):
    pre = tuple(rng.randrange(m + 1) for _ in range(rng.randrange(0, 4)))
    per = tuple(rng.randrange(m + 1) for _ in range(rng.randrange(1, 5)))
    return PeriodicSeq(pre, per)


def test_lex_total_order_random_triples():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (_random_seq(rng) for _ in range(3))
        # antisymmetry
        assert lex_compare(a, b) == -lex_compare(b, a)
        # equality iff canonical representations match
        assert (lex_compare(a, b) == 0) == (a == b)
        # transitivity
        if lex_compare(a, b) <= 0 and lex_compare(b, c) <= 0:
            assert lex_compare(a, c) <= 0


def test_reflection_order_antiisomorphism():
    rng = random.Random(11)
    m = 4
    for _ in range(200):
        a, b = _random_seq(rng, m), _random_seq(rng, m)
        assert lex_compare(a, b) == -lex_compare(a.reflect(m), b.reflect(m))
        assert a.reflect(m).reflect(m) == a


def test_reflect_word_examples():
    assert reflect_word((2, 1), 4) == (2, 3)
    assert reflect_word((0, 1), 1) == (1, 0)
    assert reflect_word(reflect_word((0, 3, 1), 3), 3) == (0, 3, 1)


def test_word_plus_minus():
    assert word_plus((1, 0), 2) == (1, 1)
    assert word_plus((2, 1), 2) == (2, 2)
    with pytest.raises(ValueError):
        word_plus((1, 2), 2)
    assert word_minus((1, 1)) == (1, 0)
    with pytest.raises(ValueError):
        word_minus((1, 0))


def test_metric():
    a = PeriodicSeq((), (1, 0))
    assert metric_d(a, a) == 0
    b = PeriodicSeq((0,), (1,))
    assert metric_d(a, b) == 1              # differ at n=1
    c = PeriodicSeq((1, 0, 0), (1, 0))      # differs from a first at n=3
    assert metric_d(a, c) == Fraction(1, 4)


def test_digits_str_uses_commas_only_above_9():
    assert digits_str((3, 0, 9)) == "309"
    assert digits_str((12, 6, 0)) == "12,6,0"
    assert digits_str(()) == ""
    # a sequence takes one form for both parts
    assert str(PeriodicSeq((1, 2), (0,))) == "12(0)^inf"
    assert str(PeriodicSeq((1, 2), (10, 0))) == "1,2(10,0)^inf"
