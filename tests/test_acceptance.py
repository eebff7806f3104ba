"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math

import numpy as np
import pytest

from symbeta.algebraic import QuadReal
from symbeta.expansion import (Params, beta_t, golden_ratio, greedy_expansion,
                               lazy_expansion, quasi_greedy_of_one,
                               transitive_pattern)
from symbeta.potentials import PotentialSpec
from symbeta.operator import (build_system, iterate, lk_solve,
                              normalize_potential, power_solve)
from symbeta.sequences import PeriodicSeq
from symbeta.shift import (build_kneading, digit_interval_integers,
                           enumerate_words, forbidden_words, preimage_digits)
from symbeta.thermo import (InvariantTestMeasure, entropy_inf_check,
                            gibbs_measure, random_markov_measure,
                            variational_gap, zero_temperature_scan)


def _ok(num, text):
    print(f"PASS criterion {num}: {text}")


def _solved(m, b, A, n, tol=1e-15):
    p = Params.make(m, b)
    K = build_kneading(p, 64)
    return build_system(p, K, A, n).solve(tol=tol)


# a standard collection of solved systems used by criteria 5-8
def _registry():
    c3 = [0.3, 0.0, 0.1, 0.05]
    return [
        ("(3,4) zero n=4", _solved(3, 4, PotentialSpec.zero(), 4)),
        ("(3,4) digit n=4", _solved(3, 4, PotentialSpec.digit_table(c3), 4)),
        ("(3,4) geometric n=4",
         _solved(3, 4, PotentialSpec.geometric(0.4, 0.25, 12), 4)),
        ("(3,3.5) digit n=5", _solved(3, "3.5", PotentialSpec.digit_table(c3), 5)),
        ("(4,5) digit n=4",
         _solved(4, 5, PotentialSpec.digit_table([0.2, 0.0, 0.1, 0.05, -0.1]), 4)),
        ("(6,5) digit n=4",
         _solved(6, 5, PotentialSpec.digit_table([0.0] * 2 + [0.1, 0.3, 0.05] + [0.0] * 2), 4)),
    ]


def test_criterion_01_golden_ratio_expansions():
    p = Params.make(1, "golden")
    assert greedy_expansion(1, p, 50) == (1, 1) + (0,) * 48
    assert lazy_expansion(1, p, 50) == (0,) + (1,) * 49
    q = quasi_greedy_of_one(p)
    assert q == PeriodicSeq((), (1, 0))
    assert q.prefix(50) == tuple([1, 0] * 25)
    _ok(1, "greedy 110^inf, lazy 01^inf, quasi-greedy (10)^inf exact to depth 50")


def test_criterion_02_constants():
    for m in range(1, 9):
        k, odd = divmod(m, 2)
        ref = (k + 1 + math.sqrt(k * k + 6 * k + 5)) / 2 if odd else float(k + 1)
        assert abs(float(golden_ratio(m)) - ref) < 1e-12
    assert abs(float(beta_t(2)) - (3 + math.sqrt(5)) / 2) < 1e-10
    assert abs(float(beta_t(4)) - (2 + math.sqrt(3))) < 1e-10
    # exact periodic patterns of the quasi-greedy expansion of 1 at beta_T
    assert quasi_greedy_of_one(Params.make(2, "beta_T")) == transitive_pattern(2)
    assert quasi_greedy_of_one(Params.make(4, "beta_T")) == transitive_pattern(4)
    _ok(2, "G(m) closed form (m=1..8) to 1e-12; "
           "beta_T(2), beta_T(4) to 1e-10 with exact periodic patterns")


def test_criterion_03_full_shift_recovery():
    for m, depths in [(3, (1, 2, 3, 4, 5)), (4, (1, 2, 3, 4))]:
        p = Params.make(m, m + 1)
        K = build_kneading(p, 64)
        for n in depths:
            assert len(enumerate_words(p, K, n)) == (m + 1) ** n
        assert forbidden_words(p, K, 4) == []
        T = build_system(p, K, PotentialSpec.zero(), 4).solve(tol=1e-15)
        assert abs(T.eigen.lam - (m + 1)) < 1e-10
        g = gibbs_measure(T)
        assert abs(g.pressure - math.log(m + 1)) < 1e-10
        assert abs(g.entropy - math.log(m + 1)) < 1e-8
    _ok(3, "beta = m+1 (m=3,4): (m+1)^n words, no forbidden words, "
           "lambda_0 = m+1 (1e-10), P(0) = h = log(m+1) (1e-8)")


def test_criterion_04_preimage_interval():
    lines = []
    for m, b in [(3, "3.5"), (3, 4), (4, 4), (4, 5), (6, 5)]:
        p = Params.make(m, b)
        K = build_kneading(p, 64)
        ints = digit_interval_integers(p)
        basis = enumerate_words(p, K, 6)
        min_count = min(len(preimage_digits(w, p, K)) for w in basis.words)
        for w in basis.words:
            assert ints <= preimage_digits(w, p, K)
        flag = "" if min_count >= 2 else "  FLAG: below the expected bound 2"
        lines.append(f"({m},{b}): interval integers {sorted(ints)}, "
                     f"measured min preimages {min_count}{flag}")
        assert min_count >= 1
    _ok(4, "digit-interval integers contained in every depth-6 preimage set; "
           + "; ".join(lines))


def test_criterion_05_normalization():
    for label, T in _registry():
        nrm = normalize_potential(T)
        assert nrm.row_sum_residual < 1e-10, label
    _ok(5, "normalized operator row sums within 1e-10 of 1 on every tested system")


def test_criterion_06_variational_principle():
    for label, T in [("(3,4) digit n=4", _solved(3, 4, PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05]), 4)),
                     ("(3,3.5) digit n=4", _solved(3, "3.5", PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05]), 4))]:
        g = gibbs_measure(T)
        rng = np.random.default_rng(2026)
        for i in range(100):
            # the gap takes h(nu) as the chain's own entropy rate
            assert variational_gap(g, random_markov_measure(T, rng)) >= -1e-8, (label, i)
        # equality at the Gibbs state, with its own entropy
        nu_g = InvariantTestMeasure("gibbs", g.weights, g.entropy)
        assert abs(variational_gap(g, nu_g)) < 1e-8, label
    _ok(6, "h(nu) + avg(nu) <= P(A) + 1e-8 on 100 random invariant measures "
           "per system, each with its own entropy, equality at the Gibbs state (1e-8)")


def test_criterion_07_entropy_formulas():
    for label, T in _registry():
        g = gibbs_measure(T)
        assert abs(g.entropy - (g.pressure - g.average * T.eigen.t_scale)) < 1e-8, label
        rep = entropy_inf_check(g, n_random=25, seed=11)
        assert rep.min_trial >= g.entropy - 1e-8, label
    _ok(7, "entropy equals P - avg within 1e-8; every trial of the infimum "
           "formula stays above it (1e-8)")


def test_criterion_08_uniform_limit_and_lk():
    for label, T in _registry():
        eig = T.eigen
        lam, psi = eig.lam, eig.psi
        assert abs(np.sum(eig.rho) - 1.0) < 1e-12
        v = np.ones(T.n_words)
        hit = None
        for it in range(1, 501):
            v = iterate(T, v, 1) / lam
            if np.max(np.abs(v - psi)) < 1e-8:
                hit = it
                break
        assert hit is not None, label
        lk = lk_solve(T)
        assert abs(lk.lam - lam) < 1e-8, label
        assert lk.min_margin > 0, label
    _ok(8, "sup|lam^-n L^n 1 - psi| < 1e-8 within 500 iterations; "
           "perturbed fixed-point solver matches power iteration to 1e-8")


def test_criterion_09_zero_temperature():
    c_unique = [0.3, 0.0, 0.1, 0.05]
    c_tied = [0.3, 0.3, 0.0, 0.1]
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    cu = zero_temperature_scan(p, K, PotentialSpec.digit_table(c_unique), depth=4)
    assert cu.points[-1].entropy < 1e-3
    ct = zero_temperature_scan(p, K, PotentialSpec.digit_table(c_tied), depth=4)
    assert abs(ct.points[-1].entropy - math.log(2)) < 1e-3
    c0 = zero_temperature_scan(p, K, PotentialSpec.zero(), depth=4)
    h0 = c0.column("entropy")
    assert max(h0) - min(h0) < 1e-10
    # non-full shift: monotone tail and Cesaro stability across depths 6, 7
    p35 = Params.make(3, "3.5")
    K35 = build_kneading(p35, 64)
    A35 = PotentialSpec.digit_table(c_unique)
    c6 = zero_temperature_scan(p35, K35, A35, depth=6)
    c7 = zero_temperature_scan(p35, K35, A35, depth=7)
    assert c6.monotone_tail and c7.monotone_tail
    assert abs(c6.cesaro_tail - c7.cesaro_tail) < 1e-3
    _ok(9, "h(512): unique max < 1e-3, tied maxima = log 2 (1e-3), A=0 constant "
           "(1e-10); (3,3.5) tail monotone with Cesaro answer stable (1e-3) "
           "between depths 6 and 7")


def test_criterion_10_depth_convergence():
    A = PotentialSpec.geometric(0.4, theta=0.25, kmax=12)
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    logs = []
    for n in range(3, 9):
        T = build_system(p, K, A, n).solve(tol=1e-15)
        logs.append(T.eigen.log_lam)
    diffs = [abs(b - a) for a, b in zip(logs, logs[1:])]
    ratios = [d2 / d1 for d1, d2 in zip(diffs, diffs[1:])]
    bound = A.geo_theta + 0.1
    assert all(r <= bound for r in ratios), ratios
    _ok(10, f"geometric-potential eigenvalue differences shrink with ratios "
            f"{[round(r, 4) for r in ratios]} <= theta + 0.1 = {bound}")
