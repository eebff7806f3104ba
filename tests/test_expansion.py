import math
import random
from fractions import Fraction

import pytest

from symbeta.algebraic import QuadReal
from symbeta.expansion import (BETA_T_TOL, Params, as_real, beta_t, eval_series,
                               golden_ratio, greedy_expansion, lazy_expansion,
                               prefix_value, quasi_greedy, quasi_greedy_of_one,
                               quasi_lazy, transitive_pattern, unique_expansion)
from symbeta.sequences import PeriodicSeq, reflect_word

GOLDEN = Params.make(1, "golden")


# ---------------------------------------------------------------------------
# constants


def test_golden_ratio_closed_form():
    # even m = 2k: k + 1; odd m = 2k+1: (k + 1 + sqrt(k^2 + 6k + 5)) / 2
    for m in range(1, 9):
        k, odd = divmod(m, 2)
        ref = (k + 1 + math.sqrt(k * k + 6 * k + 5)) / 2 if odd else k + 1
        assert float(golden_ratio(m)) == pytest.approx(ref, abs=1e-12)


def test_beta_t_quadratic_values():
    assert beta_t(2) == (QuadReal.of(3) + QuadReal.sqrt_int(5)) / 2
    assert beta_t(4) == QuadReal.of(2) + QuadReal.sqrt_int(3)
    # derived from the series of 21^inf: beta^2 - 3 beta + 1 = 0
    b = beta_t(2)
    assert b * b - 3 * b + 1 == 0
    # series of 32^inf: beta^2 - 4 beta + 1 = 0
    b4 = beta_t(4)
    assert b4 * b4 - 4 * b4 + 1 == 0


def test_beta_t_bisection_odd_m():
    # m=1: root of b^3 - b^2 - 2b + 1 (frozen from an exact bisection oracle)
    assert float(beta_t(1)) == pytest.approx(1.8019377358048383, abs=1e-10)
    b = float(beta_t(3))
    assert b ** 3 - 2 * b ** 2 - 3 * b + 1 == pytest.approx(0.0, abs=1e-9)


def _beta_t_fraction_bisection(m: int) -> QuadReal:
    """The Fraction bisection ``beta_t`` ran before it moved to integers,
    kept as the reference."""
    k = m // 2

    def excess(b: Fraction) -> Fraction:
        return (k + 1) * (b * b - 1) + (k + 1) * b + k - b * (b * b - 1)

    lo, hi = Fraction(1) + Fraction(1, 10 ** 6), Fraction(m + 1)
    while hi - lo > BETA_T_TOL:
        mid = (lo + hi) / 2
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return QuadReal.of((lo + hi) / 2)


@pytest.mark.parametrize("m", [*range(1, 16, 2), 255])
def test_beta_t_integer_bisection_matches_fraction_bisection(m):
    assert beta_t.__wrapped__(m) == _beta_t_fraction_bisection(m)


def test_beta_t_above_golden():
    for m in range(1, 9):
        assert golden_ratio(m) < beta_t(m)
        assert beta_t(m) <= m + 1


def test_beta_t_round_trip_pattern():
    # quasi-greedy expansion of 1 at beta_T reproduces the periodic pattern
    for m in (2, 4, 6):
        p = Params.make(m, "beta_T")
        assert quasi_greedy_of_one(p) == transitive_pattern(m)
    # odd m: bisected base, pattern holds on a prefix
    for m in (1, 3):
        p = Params.make(m, "beta_T")
        got = quasi_greedy_of_one(p, depth=30)
        want = transitive_pattern(m)
        prefix = got.prefix(30) if isinstance(got, PeriodicSeq) else tuple(got)
        assert prefix == want.prefix(len(prefix))


def test_params_invariants():
    p = Params.make(3, "3.5")
    assert p.operator_regime
    assert not Params.make(3, "3.4").operator_regime
    assert not Params.make(2, "beta_T").operator_regime
    # regime lower edge m/2 + 2 exceeds the golden ratio for all m > 2
    for m in range(3, 9):
        assert QuadReal.of(Fraction(m, 2)) + 2 > golden_ratio(m)
    with pytest.raises(ValueError):
        Params.make(3, "1.0")
    with pytest.raises(ValueError):
        Params.make(3, "4.5")


# ---------------------------------------------------------------------------
# series evaluation


def test_eval_series_golden_example():
    # 110^inf at the golden ratio evaluates to exactly 1
    s = PeriodicSeq((1, 1), (0,))
    assert eval_series(s, GOLDEN) == 1


def test_eval_series_trivial():
    p = Params.make(3, "3.5")
    assert eval_series(PeriodicSeq.constant(0), p) == 0
    assert eval_series(PeriodicSeq.constant(3), p) == p.max_value


def test_prefix_value_tail_bound():
    p = Params.make(3, "3.5")
    rng = random.Random(3)
    for _ in range(40):
        a = Fraction(rng.randrange(0, 1000), 1000) * Fraction(6, 5)
        if as_real(a) > p.max_value:
            continue
        w = greedy_expansion(a, p, 12)
        val, tail = prefix_value(w, p)
        assert val <= as_real(a) <= val + tail


# ---------------------------------------------------------------------------
# expansions


def test_golden_ratio_expansions_of_one():
    assert greedy_expansion(1, GOLDEN, 10) == (1, 1) + (0,) * 8
    assert lazy_expansion(1, GOLDEN, 10) == (0,) + (1,) * 9
    assert quasi_greedy_of_one(GOLDEN) == PeriodicSeq((), (1, 0))


def test_greedy_trivial_and_frozen():
    p = Params.make(3, "3.5")
    assert greedy_expansion(0, p, 6) == (0,) * 6
    # frozen from the exact digit recursion, verified by the series round trip
    assert greedy_expansion(1, p, 10) == (3, 1, 2, 2, 0, 2, 1, 0, 0, 1)


def test_quasi_greedy_examples():
    assert quasi_greedy_of_one(Params.make(2, "beta_T")) == PeriodicSeq((2,), (1,))
    assert quasi_greedy_of_one(Params.make(3, 4)) == PeriodicSeq.constant(3)
    assert quasi_greedy_of_one(Params.make(4, 4)) == PeriodicSeq.constant(3)


def test_quasi_greedy_is_infinite():
    rng = random.Random(5)
    cases = [(1, "golden"), (2, "beta_T"), (3, 4), (3, "3.5"), (4, 5), (6, 5)]
    for _ in range(10):
        m = rng.randrange(1, 5)
        b = Fraction(rng.randrange(110, 100 * (m + 1)), 100)
        if b <= 1:
            continue
        cases.append((m, b))
    for m, b in cases:
        q = quasi_greedy_of_one(Params.make(m, b), depth=48)
        if isinstance(q, PeriodicSeq):
            assert q.period != (0,)
        else:
            # truncated: no all-zero tail visible
            assert any(d != 0 for d in q[-8:])


def test_lazy_via_reflection_matches_direct_recursion():
    # quasi_lazy returns the exact sequence when the recursion ends within
    # the depth, lazy_expansion the digits -- they must agree digitwise
    rng = random.Random(9)
    for m, b in [(1, "golden"), (2, "beta_T"), (3, "3.5"), (3, 4), (4, "4.25")]:
        p = Params.make(m, b)
        for _ in range(15):
            a = Fraction(rng.randrange(0, 2000), 997)
            if as_real(a) > p.max_value:
                continue
            direct = quasi_lazy(a, p, 24)
            dual = lazy_expansion(a, p, 24)
            got = direct.prefix(24) if isinstance(direct, PeriodicSeq) else direct
            if as_real(a) == 0:
                continue
            assert got == dual


def test_quasi_lazy_examples():
    p2 = Params.make(2, "beta_T")
    a = QuadReal.of(2) / (p2.beta - 1) - 1
    assert quasi_lazy(a, p2, 30) == PeriodicSeq((0,), (1,))
    # reflection duality holds here
    qg = quasi_greedy_of_one(p2)
    assert qg.reflect(2) == quasi_lazy(a, p2, 30)
    # quasi-lazy of 1 at the golden ratio equals its lazy expansion
    assert quasi_lazy(1, GOLDEN, 30) == PeriodicSeq((0,), (1,))
    assert quasi_lazy(0, GOLDEN, 30) == PeriodicSeq.constant(0)


def test_greedy_lazy_duality_random():
    rng = random.Random(13)
    for m, b in [(2, "2.5"), (3, "3.5"), (4, "4.75")]:
        p = Params.make(m, b)
        for _ in range(20):
            a = Fraction(rng.randrange(0, 3000), 1000)
            if as_real(a) > p.max_value:
                continue
            dual = reflect_word(greedy_expansion(p.max_value - as_real(a), p, 20), p.m)
            assert lazy_expansion(a, p, 20) == dual


def test_lazy_of_extremes():
    p = Params.make(3, "3.5")
    assert lazy_expansion(p.max_value, p, 8) == (3,) * 8
    assert lazy_expansion(0, p, 8) == (0,) * 8


def test_unique_expansion():
    assert unique_expansion(0, GOLDEN, 40)
    assert unique_expansion(GOLDEN.max_value, GOLDEN, 40)
    assert not unique_expansion(1, GOLDEN, 40)


def test_range_errors():
    with pytest.raises(ValueError):
        greedy_expansion(-1, GOLDEN, 5)
    with pytest.raises(ValueError):
        greedy_expansion(QuadReal.of(10), GOLDEN, 5)
    with pytest.raises(ValueError):
        lazy_expansion("9.99", Params.make(3, "3.5"), 5)
