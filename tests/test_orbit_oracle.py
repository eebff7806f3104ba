"""The vectorised periodic-orbit search against the per-word loop it
replaced, kept here as the reference."""

import math

import numpy as np
import pytest

from symbeta.expansion import Params
from symbeta.potentials import PotentialSpec
from symbeta.sequences import PeriodicSeq
from symbeta.shift import (Kneading, _lex_sign, _periodic_verdicts, _rotation_points,
                           build_kneading, enumerate_words, is_admissible_point,
                           periodic_words)
from symbeta.thermo import (ErgodicMaxReport, PeriodicOrbit, max_ergodic_average,
                            periodic_orbits)


def reference_points(p, K, max_period):
    """The loop: every admissible word of each length as a periodic point,
    once per distinct point, so each orbit appears once per rotation."""
    seen = set()
    out = []
    for length in range(1, max_period + 1):
        for w in enumerate_words(p, K, length).words:
            seq = PeriodicSeq((), w)
            if seq in seen:
                continue
            seen.add(seq)
            if is_admissible_point(seq, K):
                out.append(seq)
    return out


def reference_orbits(points, A):
    """The loop's orbit list: the mean of A over the rotations of each
    point, starting from the point itself, under its lex-least rotation."""
    out = []
    need = max(A.needed_digits, 1)
    for seq in points:
        per = len(seq.period)
        vals = [A.value(tuple(seq.digit(k + 1 + i) for i in range(need)))
                for k in range(per)]
        canonical = min(seq.period[i:] + seq.period[:i] for i in range(per))
        out.append(PeriodicOrbit(canonical, float(np.mean(vals))))
    return out


def first_occurrences(orbits):
    seen = set()
    out = []
    for o in orbits:
        if o.word not in seen:
            seen.add(o.word)
            out.append(o)
    return out


SHIFTS = {
    "full-3-4": (Params.make(3, 4), 64),
    "full-4-5": (Params.make(4, 5), 64),
    "2-beta_T": (Params.make(2, "beta_T"), 64),
    "3-3.5": (Params.make(3, "3.5"), 64),
    "4-4.7": (Params.make(4, "4.7"), 64),
    "3-3.5-shallow": (Params.make(3, "3.5"), 14),
}
HAND_BUILT = Kneading(3, (3, 1) * 7, False, 14)
# the loop takes over 2 s for the full (4,5) shift at period 6
MAX_PERIOD = {"full-4-5": 5}


def potentials(m):
    rng = np.random.default_rng(m)
    blocks = {w: float(v) for w, v in zip(
        ((a, b) for a in range(m + 1) for b in range(m + 1)),
        rng.uniform(-1.0, 1.0, size=(m + 1) ** 2))}
    return {
        "zero": PotentialSpec.zero(),
        "digit": PotentialSpec.digit_table(rng.uniform(-1.0, 1.0, size=m + 1)),
        "block": PotentialSpec.block_table(2, blocks),
        "geometric": PotentialSpec.geometric(0.7, theta=0.3, kmax=12),
    }


@pytest.mark.parametrize("shift", SHIFTS)
def test_orbits_match_loop_reference(shift):
    p, depth = SHIFTS[shift]
    K = build_kneading(p, depth)
    P = MAX_PERIOD.get(shift, 6)
    points = reference_points(p, K, P)
    for name, A in potentials(p.m).items():
        got = periodic_orbits(p, K, A, P)
        ref = reference_orbits(points, A)
        want = first_occurrences(ref)
        assert [o.word for o in got] == [o.word for o in want], name
        # bit-equal averages: the same values summed in the same order
        assert [o.average for o in got] == [o.average for o in want], name
        rep = max_ergodic_average(p, K, A, P)
        # the lower bound is the float maximum; the best orbit is the
        # shortest, then lex-least, orbit within 4 * P ulps of it
        top = max(o.average for o in want)
        tied = [o for o in want if top - o.average <= 4 * P * math.ulp(top)]
        assert rep.lower_bound == top, name
        assert rep.best_orbit == min(tied, key=lambda o: (o.period, o.word)), name
        # the loop also kept the other rotations' means, which can round one
        # ulp higher; at (2, beta_T) the geometric averages of (1) and
        # (012111) are equal, and the loop's maximum is the latter's by 1 ulp
        loop_best = max(ref, key=lambda o: o.average)
        assert 0.0 <= loop_best.average - rep.lower_bound <= 4e-16 * abs(rep.lower_bound)


def test_best_orbit_does_not_follow_rounding():
    # dozens of orbits at (2, beta_T) average 0.7 * sum(0.3^j) to within
    # 2 ulps; the float maximum is (1) up to period 6 and (0111112) at 8
    p = Params.make(2, "beta_T")
    K = build_kneading(p, 64)
    A = PotentialSpec.geometric(0.7, theta=0.3, kmax=12)
    for P in (6, 8):
        rep = max_ergodic_average(p, K, A, P)
        assert rep.best_orbit.word == (1,), P
        assert rep.lower_bound == max(o.average for o in periodic_orbits(p, K, A, P))


def test_undecided_orbits_are_skipped():
    # a truncated kneading prefix that is periodic with period 2: the
    # rotation (31)^inf of the orbit (13) ties with it through the depth
    p, K = Params.make(3, 4), HAND_BUILT
    assert is_admissible_point(PeriodicSeq((), (3, 1)), K) is None
    assert (1, 3) in enumerate_words(p, K, 2)
    points = reference_points(p, K, 6)
    for name, A in potentials(p.m).items():
        got = periodic_orbits(p, K, A, 6)
        want = first_occurrences(reference_orbits(points, A))
        assert [(o.word, o.average) for o in got] == \
            [(o.word, o.average) for o in want], name
        assert (1, 3) not in {o.word for o in got}


@pytest.mark.parametrize("shift", ["3-3.5", "3-3.5-shallow", "2-beta_T", "hand-built"])
def test_periodic_verdicts_match_point_test(shift):
    if shift == "hand-built":
        p, K = Params.make(3, 4), HAND_BUILT
    else:
        p, depth = SHIFTS[shift]
        K = build_kneading(p, depth)
    for n in range(1, 7):
        W = enumerate_words(p, K, n).digits
        want = [is_admissible_point(PeriodicSeq((), w), K) for w in W.tolist()]
        verdict = {1: True, 0: False, -1: None}
        assert [verdict[v] for v in _periodic_verdicts(W, K).tolist()] == want


@pytest.mark.parametrize("shift", SHIFTS)
def test_one_entry_per_orbit(shift):
    p, depth = SHIFTS[shift]
    K = build_kneading(p, depth)
    words = [o.word for o in periodic_orbits(p, K, PotentialSpec.zero(), 6)]
    assert words and len(set(words)) == len(words)
    for w in words:
        assert w == min(w[i:] + w[:i] for i in range(len(w)))


def _least_rotation_rows(W):
    """Rows of a word matrix strictly lex-smaller than each of their
    nontrivial rotations, by an (N, L, L) digit comparison."""
    return (_lex_sign(W[:, None], _rotation_points(W, W.shape[1])[:, 1:]) < 0).all(axis=1)


def digit_matrix_words(p, K, length):
    """The orbit words of one length by the search on digit matrices that
    the key comparison replaced: the lex-least rotations by
    ``_least_rotation_rows``, decided admissible."""
    W = enumerate_words(p, K, length).digits
    W = W[_least_rotation_rows(W)]
    return W[_periodic_verdicts(W, K) == 1]


def digit_matrix_orbits(p, K, A, max_period):
    """The orbits of ``digit_matrix_words``, one PeriodicOrbit built per
    orbit, in a list."""
    out = []
    need = max(A.needed_digits, 1)
    for length in range(1, max_period + 1):
        W = digit_matrix_words(p, K, length)
        N, L = W.shape
        averages = A.values(_rotation_points(W, need).reshape(N * L, need)).reshape(N, L).mean(axis=1)
        out.extend(PeriodicOrbit(tuple(w), float(a)) for w, a in zip(W.tolist(), averages))
    return out


def digit_matrix_max(orbits, max_period):
    """max_ergodic_average's rule on an orbit list: the first orbit within
    4 * max_period ulps of the largest average."""
    top = max((o.average for o in orbits), default=-math.inf)
    near = 4 * max_period * math.ulp(top)
    return ErgodicMaxReport(next((o for o in orbits if top - o.average <= near), None), top)


@pytest.mark.parametrize("shift", [*SHIFTS, "hand-built"])
def test_orbit_arrays_match_digit_matrix_search(shift):
    if shift == "hand-built":
        p, K = Params.make(3, 4), HAND_BUILT
    else:
        p, depth = SHIFTS[shift]
        K = build_kneading(p, depth)
    P = 7 if shift == "full-4-5" else 8
    for length in range(1, P + 1):
        got, want = periodic_words(p, K, length), digit_matrix_words(p, K, length)
        assert got.dtype == want.dtype == np.uint8 and np.array_equal(got, want), length
    for name, A in potentials(p.m).items():
        want = digit_matrix_orbits(p, K, A, P)
        got = periodic_orbits(p, K, A, P)
        # same words, same order, bit-equal averages
        assert [(o.word, o.average) for o in got] == [(o.word, o.average) for o in want], name
        assert len(got) == len(list(got)) == len(want), name
        for i in (0, len(want) // 2, -1):
            assert got[i] == want[i], (name, i)
        assert got[-3:] == want[-3:], name
        with pytest.raises(IndexError):
            got[len(want)]
        for q in range(1, P + 1):
            shorter = [o for o in want if o.period <= q]
            assert max_ergodic_average(p, K, A, q) == digit_matrix_max(shorter, q), (name, q)
