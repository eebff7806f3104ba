"""The vectorised enumeration and system build against the per-word loop
implementation they replaced, kept here as the reference.

Every array of the build (a_vals and the edge lists rows, cols) and the
warnings must be equal, not close: the vectorised passes run the same
floating-point operations in the same order.  The operator kernels are
checked against the dense matrix scattered from the reference edges, and
the forward kernel bit for bit against a sequential sum.
"""

import random
import warnings
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from symbeta.expansion import Params
from symbeta.operator import _Operator, _in_degree, build_system, canonical_point
from symbeta.potentials import PotentialSpec
from symbeta.shift import (UndecidedError, _suffix_ok, build_kneading,
                           check_transitivity, enumerate_words, forbidden_words,
                           is_admissible)


# ---------------------------------------------------------------------------
# reference: the loop implementation


def oracle_enumerate(p, K, n):
    level = []
    for a in p.alphabet:
        r = _suffix_ok((a,), K)
        if r is None:
            raise UndecidedError("kneading too shallow at length 1")
        if r:
            level.append((a,))
    for length in range(2, n + 1):
        nxt = []
        for a in p.alphabet:
            for w in level:
                cand = (a,) + w
                r = _suffix_ok(cand, K)
                if r is None:
                    raise UndecidedError(f"kneading too shallow at length {length}")
                if r:
                    nxt.append(cand)
        level = nxt
    return sorted(level)


def oracle_forbidden(p, K, n):
    out = []
    level = []
    for a in p.alphabet:
        ok = _suffix_ok((a,), K)
        if ok is None:
            raise UndecidedError("kneading too shallow at length 1")
        (level if ok else out).append((a,))
    prev_set = set(level)
    for length in range(2, n + 1):
        nxt = []
        for a in p.alphabet:
            for w in level:
                cand = (a,) + w
                ok = _suffix_ok(cand, K)
                if ok is None:
                    raise UndecidedError(f"kneading too shallow at length {length}")
                if ok:
                    nxt.append(cand)
                elif cand[:-1] in prev_set:
                    out.append(cand)
        level = nxt
        prev_set = set(level)
    return sorted(out, key=lambda w: (len(w), w))


def oracle_build(p, K, A, n):
    """(a_vals, rows, cols, warnings) by the per-word loops."""
    trans = check_transitivity(p, K)
    warnings = []
    if trans.verdict == "unknown":
        warnings.append(f"transitivity unknown: {trans.reason}; "
                        "eigenfunction positivity is not guaranteed")
    if trans.self_admissible is False:
        warnings.append("kneading sequence is not self-admissible; "
                        "finite-depth word sets over-approximate the shift")
    words = oracle_enumerate(p, K, n)
    index = {w: i for i, w in enumerate(words)}
    need = A.needed_digits
    a_vals = np.empty(len(words))
    for i, w in enumerate(words):
        digits = w if need <= n else canonical_point(w, K, need)
        a_vals[i] = A.value(digits)

    rows_l, cols_l = [], []
    for i, w in enumerate(words):
        head = w[:-1]
        for a in p.alphabet:
            j = index.get((a,) + head)
            if j is not None:
                rows_l.append(i)
                cols_l.append(j)
    rows = np.asarray(rows_l, dtype=np.int64)
    cols = np.asarray(cols_l, dtype=np.int64)
    return a_vals, rows, cols, warnings


def outcome(fn, *args):
    """fn(*args), or the UndecidedError message it raised."""
    try:
        return fn(*args)
    except UndecidedError as exc:
        return ("UndecidedError", str(exc))


# ---------------------------------------------------------------------------
# enumeration


SHIFTS = [(1, "golden"), (2, "beta_T"), (2, "2.7"), (3, "3.5"), (3, 4),
          (4, "4.3"), (4, "4.7")]


def test_enumeration_matches_brute_force():
    for m, b in SHIFTS:
        p = Params.make(m, b)
        K = build_kneading(p, 64)
        for n in range(1, 6 if m <= 3 else 5):
            want = [w for w in product(range(m + 1), repeat=n) if is_admissible(w, K)]
            basis = enumerate_words(p, K, n)
            assert basis.words == tuple(want), (m, b, n)
            assert basis.digits.dtype == np.uint8 and basis.digits.shape == (len(want), n)


def test_enumeration_and_forbidden_match_loops():
    for m, b in SHIFTS:
        p = Params.make(m, b)
        K = build_kneading(p, 64)
        for n in (1, 2, 5, 7):
            assert list(enumerate_words(p, K, n).words) == oracle_enumerate(p, K, n)
            assert forbidden_words(p, K, n) == oracle_forbidden(p, K, n), (m, b, n)


def test_deep_enumeration_has_no_key_width_limit():
    # at m = 1 and n >= 64 there are (m+1)^n >= 2^64 words of length n, so
    # a base-(m+1) int64 word code would wrap; byte-row keys do not
    p = Params.make(1, "golden")
    K = build_kneading(p, 80)
    for n in (64, 70):
        basis = enumerate_words(p, K, n)
        assert list(basis.words) == oracle_enumerate(p, K, n)
        assert forbidden_words(p, K, n) == oracle_forbidden(p, K, n)


def test_undecided_parity_on_shallow_kneading():
    for m, b in [(3, "3.5"), (4, "4.7"), (4, "4.3")]:
        p = Params.make(m, b)
        for depth in range(2, 7):
            K = build_kneading(p, depth)
            if K.exact:
                continue
            for n in range(1, depth + 3):
                got = outcome(lambda: list(enumerate_words(p, K, n).words))
                assert got == outcome(oracle_enumerate, p, K, n), (m, b, depth, n)
                assert outcome(forbidden_words, p, K, n) == \
                    outcome(oracle_forbidden, p, K, n), (m, b, depth, n)


def test_word_accessor_and_lazy_tuples():
    p = Params.make(3, "3.5")
    basis = enumerate_words(p, build_kneading(p, 64), 6)
    assert "words" not in vars(basis) and "index" not in vars(basis)
    for i in range(0, len(basis), 7):
        assert basis.word(i) == basis.words[i]
        assert basis.index[basis.word(i)] == i
        assert basis.word(i) in basis
    assert all(type(d) is int for d in basis.word(0))
    assert (9, 9, 9, 9, 9, 9) not in basis


# ---------------------------------------------------------------------------
# system build


def _potentials(m, n):
    rng = random.Random(f"{m}:{n}")
    digit = PotentialSpec.digit_table([rng.uniform(-0.5, 0.5) for _ in range(m + 1)])
    # one block longer than the words, so the table is read at canonical points
    k = n + 1
    block = PotentialSpec.block_table(
        k, {w: rng.uniform(-1, 1) for w in product(range(m + 1), repeat=k)})
    return [PotentialSpec.zero(), digit, block,
            PotentialSpec.geometric(0.7, theta=0.3, kmax=12, m_hint=m),
            PotentialSpec.geometric(-1.3, theta=0.2, kmax=2, m_hint=m)]


@pytest.mark.parametrize("m,b,depths,kdepth", [
    (3, 4, (1, 2, 3, 4), 64),          # full shifts
    (4, 5, (1, 3), 64),
    (5, 6, (2,), 64),
    (3, "3.5", (1, 4, 5, 6), 14),      # truncated kneading; 3122 has an empty cylinder
    (4, "4.7", (2, 3, 4), 64),
])
def test_build_matches_loop_reference(m, b, depths, kdepth):
    p = Params.make(m, b)
    K = build_kneading(p, kdepth)
    for n in depths:
        for A in _potentials(m, n):
            T = build_system(p, K, A, n)
            a_vals, rows, cols, warns = oracle_build(p, K, A, n)
            assert T.a_vals.dtype == a_vals.dtype
            assert np.array_equal(T.a_vals, a_vals), (m, b, n, A.kind)
            for got, want in [(T.rows, rows), (T.cols, cols)]:
                assert got.dtype == want.dtype and np.array_equal(got, want), (m, b, n)
            assert T.warnings == warns
            check_kernels(T, rows, cols, 1.0, dense=True)


@pytest.mark.parametrize("m,b,n,tight", [
    (3, 4, 4, False), (4, 5, 3, False), (5, 6, 2, False), (3, "3.5", 6, True),
    (4, "4.7", 4, False), (4, "4.3", 4, True), (5, "5.5", 3, True), (6, "6.2", 3, True),
])
def test_every_word_has_a_predecessor(m, b, n, tight):
    # every digit a with m - u1 < a < u1 (u1 the first kneading digit)
    # precedes every word, so the in-degree is at least 2 u1 - m - 1, which
    # is at least 1 in the operator regime
    p = Params.make(m, b)
    K = build_kneading(p, 64)
    T = build_system(p, K, PotentialSpec.zero(), n)
    bound = 2 * K.upper_digit(1) - m - 1
    assert p.operator_regime and bound >= 1
    least = _in_degree(T.head, T.tail).min()
    assert least >= bound
    assert (least == bound) == tight


def test_empty_cylinder_fallback_points_match():
    # (3, 3.5) depth 4: the canonical point of 3122 drops a constraint
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    A = PotentialSpec.geometric(1.0, theta=0.25, kmax=10, m_hint=3)
    T = build_system(p, K, A, 4)
    i = T.basis.index[(3, 1, 2, 2)]
    assert T.a_vals[i] == A.value(canonical_point((3, 1, 2, 2), K, 10))
    assert np.array_equal(T.a_vals, oracle_build(p, K, A, 4)[0])


def test_dense_equals_edge_scatter():
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    A = PotentialSpec.geometric(0.5, m_hint=3)
    T = build_system(p, K, A, 6)
    _, rows, cols, _ = oracle_build(p, K, A, 6)
    for t in (1.0, 2.5):
        M = np.zeros((T.n_words, T.n_words))
        M[rows, cols] = np.exp(t * T.a_vals[cols])
        assert np.array_equal(T.dense(t), M)


# ---------------------------------------------------------------------------
# operator kernels


def check_kernels(T, rows, cols, t, dense):
    """The four kernels of T at scale t against the operator with edges
    (rows, cols): the forward kernel equal to the sequential sum over each
    target's sources in ascending order, all four close to the dense
    product (dense=True) or the edge-list sums, and the log kernels on
    inputs with -inf entries raising no numpy warning."""
    N = T.n_words
    rng = np.random.default_rng(N)
    e = np.exp(t * T.a_vals)
    v = rng.uniform(0.5, 2.0, N)
    u = rng.uniform(0.5, 2.0, N)
    # zero on a whole source group and a whole target group, so that some
    # log-kernel outputs are -inf
    v[T.tail == T.tail[N // 2]] = 0.0
    u[T.head == T.head[N // 2]] = 0.0
    v[rng.random(N) < 0.2] = 0.0
    u[rng.random(N) < 0.2] = 0.0
    seq = np.zeros(N)
    for r, c in zip(rows.tolist(), cols.tolist()):
        seq[r] += e[c] * v[c]
    if dense:
        M = np.zeros((N, N))
        M[rows, cols] = e[cols]
        want_f, want_b = M @ v, M.T @ u
    else:
        want_f = seq
        want_b = np.zeros(N)
        np.add.at(want_b, cols, e[cols] * u[rows])
    L = _Operator(T, t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_f, got_b = L.fwd(v), L.bwd(u)
        with np.errstate(divide="ignore"):
            lv, lu = np.log(v), np.log(u)
        log_f, log_b = L.log_fwd(lv), L.log_bwd(lu)
    assert np.array_equal(got_f, seq)
    assert np.allclose(got_f, want_f, rtol=1e-13, atol=0)
    assert np.allclose(got_b, want_b, rtol=1e-13, atol=0)
    with np.errstate(divide="ignore"):
        assert np.allclose(log_f, np.log(want_f), rtol=1e-13, atol=1e-13)
        assert np.allclose(log_b, np.log(want_b), rtol=1e-13, atol=1e-13)
    assert np.any(np.isneginf(log_f)) and np.any(np.isneginf(log_b))


def test_kernels_on_dead_ends():
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    A = PotentialSpec.geometric(1.0, theta=0.25, kmax=12, m_hint=3)
    # depth 9: 16 words whose suffix starts no word, so they have no
    # successor; the dense matrix (N = 15,812) would take 2 GB, so the
    # reference is the edge-list sum
    T = build_system(p, K, A, 9)
    assert np.count_nonzero(T.tail < 0) > 0
    for t in (1.0, 4.0):
        check_kernels(T, T.rows, T.cols, t, dense=False)
    # no admissible word of the grids lacks a predecessor; cutting the
    # sources of one prefix group gives targets with none
    T = build_system(p, K, A, 5)
    cut = replace(T, tail=np.where(T.tail == T.tail[0], -1, T.tail))
    rows, cols = np.nonzero(cut.head[:, None] == cut.tail[None, :])
    assert len(np.unique(rows)) < cut.n_words
    assert _in_degree(cut.head, cut.tail).min() == 0 < _in_degree(T.head, T.tail).min()
    assert np.array_equal(cut.rows, rows) and np.array_equal(cut.cols, cols)
    check_kernels(cut, rows, cols, 1.0, dense=True)
