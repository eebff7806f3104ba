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
from symbeta.operator import _Operator, _in_degree, build_system
from symbeta.potentials import PotentialSpec
from symbeta.reporting import RunConfig, cmd_check
from symbeta.shift import (UndecidedError, _rank, _suffix_ok, build_kneading, canonical_point,
                           check_transitivity, enumerate_words, forbidden_words,
                           is_admissible, words_and_forbidden)


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
    # at m = 1 and n >= 63 there are (m+1)^n >= 2^63 words of length n, so
    # a base-(m+1) int64 word key would wrap; the keys are Python ints there
    p = Params.make(1, "golden")
    K = build_kneading(p, 80)
    for n in (62, 63, 64, 70):
        basis = enumerate_words(p, K, n)
        assert basis.keys.dtype == (np.int64 if n < 63 else object)
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


def test_enumerate_words_is_the_basis_of_the_walk():
    # enumerate_words reads the level walk of words_and_forbidden without
    # building its forbidden words: the same keys and word graph, and the
    # same UndecidedError at the same length, on exact and truncated
    # kneadings
    def walk(fn, p, K, n, graph):
        basis = fn(p, K, n, graph)
        return basis.keys.dtype, basis.keys.tolist(), \
            None if basis.graph is None else [g.tolist() for g in basis.graph]

    for m, b in SHIFTS + [(3, "2.9")]:
        p = Params.make(m, b)
        for kdepth in (2, 3, 4, 6, 64):
            K = build_kneading(p, kdepth)
            for n in range(1, 7):
                for graph in (False, True):
                    assert outcome(walk, enumerate_words, p, K, n, graph) == \
                        outcome(walk, lambda *a: words_and_forbidden(*a)[0], p, K, n, graph), \
                        (m, b, kdepth, n, graph)
            # both refuse a walk of no level
            for fn in (enumerate_words, words_and_forbidden):
                for graph in (False, True):
                    with pytest.raises(ValueError, match="n must be >= 1"):
                        fn(p, K, 0, graph)


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


def oracle_graph(basis):
    """(head, tail) as derived from the keys alone before the level walk
    gave them: the distinct (n-1)-prefixes by np.unique, and each word's
    (n-1)-suffix ranked among them by one sorted search."""
    prefixes, head = np.unique(basis.keys // basis.base, return_inverse=True)
    return head, _rank(prefixes, basis.keys % basis.base ** (basis.depth - 1))


@pytest.mark.parametrize("m, b, depths, kdepth", [
    (4, 5, range(1, 10), 64),               # full shift; depth 1 has one empty prefix
    (3, "3.5", range(1, 10), 64),           # words without successor at depths 8 and 9
    (3, "beta_T", range(1, 8), 64),
    (2, "beta_T", range(1, 8), 64),
    (1, "golden", (62, 63, 64, 70), 80),    # Python-int keys from depth 63
    (3, "2.9", (33,), 64),                  # Python-int keys, words without successor
])
def test_walk_graph_matches_unique_and_rank(m, b, depths, kdepth):
    p = Params.make(m, b)
    K = build_kneading(p, kdepth)
    for n in depths:
        basis = enumerate_words(p, K, n, graph=True)
        head, tail = basis.graph
        want_head, want_tail = oracle_graph(basis)
        assert head.dtype == want_head.dtype and tail.dtype == want_tail.dtype
        assert np.array_equal(head, want_head) and np.array_equal(tail, want_tail), (m, b, n)
        if (m, b) == (3, "3.5"):
            assert np.any(tail < 0) == (n >= 8)
        if m == 1:
            assert basis.keys.dtype == (np.int64 if n < 63 else object)
        # the words and orbit paths ask for no graph, and keep none
        assert enumerate_words(p, K, n).graph is None
        assert words_and_forbidden(p, K, n)[0].graph is None


@pytest.mark.parametrize("m, b, n, kdepth", [
    (4, "4.7", 7, 64), (3, "3.5", 9, 64), (3, "beta_T", 6, 512), (3, "2.9", 33, 64)])
def test_check_counts_preimages_on_the_walk_graph(m, b, n, kdepth):
    rep = cmd_check(RunConfig(m=m, beta=b, depth=n, kneading_depth=kdepth))
    p = Params.make(m, b)
    counts = _in_degree(*oracle_graph(enumerate_words(p, build_kneading(p, kdepth), n)))
    assert (rep.summary["preimage_count_min"], rep.summary["preimage_count_max"]) == \
        (counts.min(), counts.max())


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
            PotentialSpec.geometric(0.7, theta=0.3, kmax=12),
            PotentialSpec.geometric(-1.3, theta=0.2, kmax=2)]


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
            assert T.warnings == tuple(warns)
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
    A = PotentialSpec.geometric(1.0, theta=0.25, kmax=10)
    T = build_system(p, K, A, 4)
    i = T.basis.index[(3, 1, 2, 2)]
    assert T.a_vals[i] == A.value(canonical_point((3, 1, 2, 2), K, 10))
    assert np.array_equal(T.a_vals, oracle_build(p, K, A, 4)[0])


def test_dense_equals_edge_scatter():
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    A = PotentialSpec.geometric(0.5)
    T = build_system(p, K, A, 6)
    _, rows, cols, _ = oracle_build(p, K, A, 6)
    for t in (1.0, 2.5):
        M = np.zeros((T.n_words, T.n_words))
        M[rows, cols] = np.exp(t * T.a_vals[cols])
        assert np.array_equal(T.dense(t), M)


# ---------------------------------------------------------------------------
# operator kernels


def check_kernels(T, rows, cols, t, dense):
    """The kernels of T at scale t against the operator with edges (rows,
    cols): the forward kernel equal to the sequential sum over each
    target's sources in ascending order; it, the group kernels the linear
    solve runs (psi = g[head] forward, rho = f * U[tail] backward) close to
    the dense product (dense=True) or the edge-list sums; the kernels on
    inputs with zero entries raising no numpy warning."""
    N = T.n_words
    rng = np.random.default_rng(N)
    e = np.exp(t * T.a_vals)
    L = _Operator(T, t)
    G = len(L.first)
    v = rng.uniform(0.5, 2.0, N)
    g = rng.uniform(0.5, 2.0, G)
    U = rng.uniform(0.5, 2.0, G)
    # zero on a whole source group, so that some forward outputs are 0
    v[T.tail == T.tail[N // 2]] = 0.0
    v[rng.random(N) < 0.2] = 0.0
    g[rng.random(G) < 0.2] = 0.0
    U[rng.random(G) < 0.2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, f = L.scaled
        rho = f * np.append(U, 0.0)[L.tail]
        got_f, got_g = L.fwd(v), L.fwd_groups(g)[T.head]
        got_b = f * np.append(L.bwd_groups(U), 0.0)[L.tail]
    assert np.all((f > 0) & (f <= 1))
    seq = np.zeros(N)
    for r, c in zip(rows.tolist(), cols.tolist()):
        seq[r] += e[c] * v[c]
    if dense:
        M = np.zeros((N, N))
        M[rows, cols] = e[cols]
        want_f, want_g = M @ v, M @ g[T.head]
        want_b = M.T @ rho
    else:
        def fwd(x):
            y = np.zeros(N)
            np.add.at(y, rows, e[cols] * x[cols])
            return y

        def bwd(x):
            y = np.zeros(N)
            np.add.at(y, cols, e[cols] * x[rows])
            return y
        want_f, want_g, want_b = seq, fwd(g[T.head]), bwd(rho)
    assert np.array_equal(got_f, seq)
    for got, want in [(got_f, want_f), (got_g, want_g), (got_b, want_b)]:
        assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_kernels_on_dead_ends():
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    A = PotentialSpec.geometric(1.0, theta=0.25, kmax=12)
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
