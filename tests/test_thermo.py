import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from symbeta.expansion import Params
from symbeta.potentials import PotentialSpec
from symbeta.operator import (_Operator, _in_degree, build_system, log_power_solve,
                              normalize_potential, power_solve)
from symbeta.reporting import RunConfig, cmd_thermo, cmd_zerotemp
from symbeta.shift import build_kneading
from symbeta.thermo import (GibbsMeasure, InvariantTestMeasure, PeriodicOrbit,
                            ThermoPoint, entropy_inf_check, entropy_of_gibbs,
                            gibbs_measure, inf_formula_value,
                            max_ergodic_average, orbit_measure, periodic_orbits,
                            random_markov_measure, variational_gap,
                            zero_temperature_scan)

C = [0.3, 0.0, 0.1, 0.05]


def solved(m, b, A=None, n=4, tol=1e-15):
    p = Params.make(m, b)
    K = build_kneading(p, 64)
    T = build_system(p, K, A or PotentialSpec.zero(), n).solve(tol=tol)
    return p, K, T


# ---------------------------------------------------------------------------
# pressure and entropy


def test_pressure_full_shift():
    _, _, T = solved(3, 4)
    assert gibbs_measure(T).pressure == pytest.approx(math.log(4), abs=1e-12)


def test_pressure_closed_form_and_constant_shift():
    _, _, T = solved(3, 4, PotentialSpec.digit_table(C))
    Z = sum(math.exp(v) for v in C)
    P = gibbs_measure(T).pressure
    assert P == pytest.approx(math.log(Z), abs=1e-12)
    kappa = 0.37
    _, _, T2 = solved(3, 4, PotentialSpec.digit_table([v + kappa for v in C]))
    assert gibbs_measure(T2).pressure - P == pytest.approx(kappa, abs=1e-12)


def test_entropy_closed_forms():
    # A = 0: uniform Bernoulli, h = log(m + 1)
    _, _, T0 = solved(3, 4)
    assert entropy_of_gibbs(normalize_potential(T0)) == pytest.approx(math.log(4), abs=1e-10)
    # digit table: Shannon entropy of the induced Bernoulli weights
    _, _, T = solved(3, 4, PotentialSpec.digit_table(C))
    Z = sum(math.exp(v) for v in C)
    probs = [math.exp(v) / Z for v in C]
    h_ref = -sum(q * math.log(q) for q in probs)
    h = entropy_of_gibbs(normalize_potential(T))
    assert h == pytest.approx(h_ref, abs=1e-10)
    assert h <= math.log(4)


def test_entropy_identity_with_pressure():
    for m, b, A, n in [(3, 4, PotentialSpec.digit_table(C), 4),
                       (3, "3.5", PotentialSpec.digit_table(C), 5),
                       (4, 5, PotentialSpec.geometric(0.3, 0.25, 8), 4),
                       (6, 5, PotentialSpec.digit_table([0.1] * 3 + [0.0] * 4), 4)]:
        _, _, T = solved(m, b, A, n)
        g = gibbs_measure(T)
        assert g.pressure == T.eigen.log_lam
        assert g.entropy == entropy_of_gibbs(normalize_potential(T))
        assert g.average == float(np.add.reduce(g.weights * T.a_vals))
        assert g.identity_residual == abs(g.pressure - g.entropy - g.average)
        assert g.identity_residual < 1e-10
        assert 0.0 <= g.entropy <= math.log(m + 1) + 1e-12


def test_gibbs_measure_invariants():
    _, _, T = solved(3, "3.5", PotentialSpec.digit_table(C), 5)
    mu = gibbs_measure(T)
    assert np.all(mu.weights >= 0)
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # exact word-level shift invariance: summing over first digits equals
    # summing over last digits, prefix by prefix
    by_suffix: dict = {}
    by_prefix: dict = {}
    for w, wt in zip(T.basis.words, mu.weights):
        by_suffix[w[1:]] = by_suffix.get(w[1:], 0.0) + wt
        by_prefix[w[:-1]] = by_prefix.get(w[:-1], 0.0) + wt
    assert set(by_suffix) == set(by_prefix)
    for v in by_suffix:
        assert by_suffix[v] == pytest.approx(by_prefix[v], abs=1e-12)


def test_gibbs_ranking_breaks_ties_by_word_index():
    w = np.array([0.1, 0.3, 0.2, 0.3, 0.0, 0.2, 0.2, 0.3])
    mu = GibbsMeasure(nrm=None, weights=w, entropy=math.nan, average=math.nan)
    assert mu.ranked().tolist() == [1, 3, 7, 2, 5, 6, 0, 4]
    for k in range(len(w) + 2):
        assert mu.ranked(k).tolist() == mu.ranked().tolist()[:k]
    assert mu.top(2) == [(1, 0.3), (3, 0.3)]


# ---------------------------------------------------------------------------
# entropy infimum formula


def test_inf_check_trials_bound_the_gibbs_entropy():
    _, _, T = solved(3, "3.5", PotentialSpec.digit_table(C), 4)
    g = gibbs_measure(T)
    rep = entropy_inf_check(g, n_random=30, seed=3)
    h = g.entropy
    assert rep.entropy_reference == h
    assert rep.min_trial >= h - 1e-10
    # a constant trial gives the log of the mean preimage count, above h
    const_val = dict(rep.trial_values)["constant"]
    assert const_val >= h


def test_inf_check_full_shift_jensen_bound():
    _, _, T = solved(3, 4)
    rep = entropy_inf_check(gibbs_measure(T), n_random=25, seed=5)
    for _, v in rep.trial_values:
        assert v >= math.log(4) - 1e-10


def test_inf_formula_is_vacuous_where_the_trial_underflows():
    # a trial 0 on a weighted word bounds nothing: inf, with no log of 0
    _, _, T = solved(3, 4, n=3)
    w = np.full(T.n_words, 1.0 / T.n_words)
    u = np.ones(T.n_words)
    u[5] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert inf_formula_value(_Operator(T, 0.0), w, u) == math.inf


def test_cli_thermo_on_an_underflowing_eigenfunction_writes_no_warning():
    # at c = 900 the eigenfunction trial exp(log_psi - max) underflows to 0
    # on words that carry Gibbs weight
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-m", "symbeta", "thermo", "--m", "3", "--beta", "3.5", "--depth", "6",
         "--potential", "geometric:c=900,theta=0.4,kmax=12"],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0 and out.stderr == ""


# ---------------------------------------------------------------------------
# test measures and the variational principle


def window_marginals(T, weights):
    """The weights summed by (n-1)-prefix and by (n-1)-suffix; a suffix
    that starts no word goes to one extra group.  They agree exactly when
    the weights are shift invariant."""
    first, tail = T._groups
    return (np.bincount(T.head, weights, minlength=len(first) + 1),
            np.bincount(tail, weights, minlength=len(first) + 1))


def with_log_lam(T, log_lam):
    """T with its pressure replaced, everything else kept."""
    return dataclasses.replace(T, eigen=dataclasses.replace(T.eigen, log_lam=log_lam))


def test_variational_gap_random_markov():
    _, _, T = solved(3, "3.5", PotentialSpec.digit_table(C), 4)
    g = gibbs_measure(T)
    rng = np.random.default_rng(0)
    for i in range(30):
        nu = random_markov_measure(T, rng)
        prefix, suffix = window_marginals(T, nu.weights)
        assert np.max(np.abs(prefix - suffix)) < 1e-10
        gap = variational_gap(g, nu)
        assert gap == g.pressure - (nu.entropy_true + nu.average(T))
        assert gap >= -1e-10


@pytest.mark.parametrize("beta", [4, "3.5"])
def test_variational_gap_flags_a_low_pressure(beta):
    # every stationary chain has h + t avg <= P: a pressure 0.2 too low
    # must show as a negative gap on some random Markov measure
    _, _, T = solved(3, beta, PotentialSpec.digit_table(C), 4)
    rng = np.random.default_rng(0)
    nus = [random_markov_measure(T, rng) for _ in range(20)]
    true = gibbs_measure(T)
    low = gibbs_measure(with_log_lam(T, T.eigen.log_lam - 0.2))
    assert min(variational_gap(true, nu) for nu in nus) >= -1e-8
    assert min(variational_gap(low, nu) for nu in nus) < -1e-8


def test_variational_equality_at_gibbs():
    _, _, T = solved(3, "3.5", PotentialSpec.digit_table(C), 4)
    g = gibbs_measure(T)
    nu = InvariantTestMeasure("gibbs", g.weights, g.entropy)
    assert abs(variational_gap(g, nu)) < 1e-10
    # a pressure off by 1e-6 either way breaks the equality
    for shift in (-1e-6, 1e-6):
        off = gibbs_measure(with_log_lam(T, T.eigen.log_lam + shift))
        assert abs(variational_gap(off, nu)) > 1e-8, shift


def test_orbit_measure_gap_zero_potential():
    # Dirac at an admissible fixed point with A = 0: gap equals log lambda_0
    _, _, T = solved(3, 4, n=3)
    orbits = periodic_orbits(T.params, T.kneading, T.potential, 1)
    fp = next(o for o in orbits if o.word == (0,))
    nu = orbit_measure(T, fp)
    # the infimum formula bounds the orbit's entropy 0 from above: a trial
    # large on the orbit's window and 1 elsewhere brings the bound to ~0
    u = 1.0 + 1e8 * (nu.weights > 0)
    assert 0.0 <= inf_formula_value(_Operator(T, 0.0), nu.weights, u) < 1e-6
    assert nu.entropy_true == 0.0
    assert variational_gap(gibbs_measure(T), nu) == math.log(4)


def test_orbit_measure_locates_windows_without_word_index():
    _, _, T = solved(3, "3.5", n=3)
    orbits = periodic_orbits(T.params, T.kneading, T.potential, 4)
    for orbit in orbits:
        nu = orbit_measure(T, orbit)
        assert nu.weights.sum() == pytest.approx(1.0)
    assert "index" not in vars(T.basis)
    # 0^inf lies below the reflected kneading sequence: 000 is no word
    assert (0, 0, 0) not in T.basis.words
    with pytest.raises(ValueError, match="leaves the admissible word basis"):
        orbit_measure(T, PeriodicOrbit((0,), 0.0))


def test_markov_measure_prunes_words_without_an_infinite_path():
    # (3, 3.5) at depth 8 has 6 words whose suffix starts no word
    _, _, T = solved(3, "3.5", PotentialSpec.digit_table(C), 8, tol=1e-14)
    assert np.sum(T.tail < 0) == 6
    P = T.eigen.log_lam
    rng = np.random.default_rng(0)
    for _ in range(3):
        nu = random_markov_measure(T, rng)
        assert nu.weights.sum() == pytest.approx(1.0)
        assert not np.any(nu.weights[T.tail < 0])
        prefix, suffix = window_marginals(T, nu.weights)
        assert np.max(np.abs(prefix - suffix)) < 1e-10
        assert nu.entropy_true + T.eigen.t_scale * nu.average(T) <= P + 1e-10
    # a graph in which no word has a successor leaves no word to run on
    with pytest.raises(ValueError, match="no infinite path"):
        random_markov_measure(dataclasses.replace(T, tail=np.full(T.n_words, -1)), rng)


def _markov_reference(T, rng):
    """random_markov_measure on a sink-free system, by successor slots
    found on the edge list: (pi, entropy rate)."""
    n = T.n_words
    # successor slots of each source, ascending, from the edge list
    succ_idx = np.full((n, T.params.m + 1), -1)
    fill = np.zeros(n, dtype=int)
    for t, s in zip(T.rows, T.cols):
        succ_idx[s, fill[s]] = t
        fill[s] += 1
    succ_ok = succ_idx >= 0
    raw = np.where(succ_ok, rng.uniform(0.1, 1.0, size=succ_idx.shape), 0.0)
    q = raw / raw.sum(axis=1)[:, None]
    pi = np.full(n, 1.0 / n)
    succ = np.clip(succ_idx, 0, None)
    for _ in range(20000):
        nxt = np.zeros(n)
        np.add.at(nxt, succ.ravel(), (pi[:, None] * q).ravel())
        if float(np.max(np.abs(nxt - pi))) < 1e-15:
            pi = nxt
            break
        pi = nxt
    pi = pi / pi.sum()
    mask = q > 0
    return pi, float(-np.sum((pi[:, None] * q)[mask] * np.log(q[mask])))


def test_test_measures_match_edge_list_reference():
    _, _, T = solved(3, "3.5", PotentialSpec.digit_table(C), 5)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        nu = random_markov_measure(T, rng)
        pi, h = _markov_reference(T, ref_rng)
        assert np.array_equal(nu.weights, pi) and nu.entropy_true == h
    for orbit in periodic_orbits(T.params, T.kneading, T.potential, 4):
        nu = orbit_measure(T, orbit)
        p = orbit.period
        weights = np.zeros(T.n_words)
        for k in range(p):
            weights[T.basis.index[tuple(orbit.word[(k + i) % p] for i in range(5))]] += 1.0 / p
        np.testing.assert_allclose(nu.weights, weights, rtol=1e-15, atol=0.0)


def _markov_grouped_sum(T, rng):
    """random_markov_measure by the step that the source-table pull
    replaced, rebuilding every table per draw: the slot masses pi[s]
    q[s, k] are summed by (k, tail[s]) with ``np.bincount``, and word t
    reads the bin (rank of t in its group, head[t]).  (pi, entropy rate)."""
    n, m1 = T.n_words, T.params.m + 1
    first, tail = T._groups
    G = len(first) + 1
    raw = rng.uniform(0.1, 1.0, size=(n, m1))
    alive = np.ones(n, dtype=bool)
    while True:
        keep = (np.bincount(T.head, alive, minlength=G) > 0)[tail]
        if np.array_equal(keep, alive):
            break
        alive = keep
    rank = np.arange(n) - first[T.head]
    live = np.zeros((m1, G), dtype=bool)
    live[rank, T.head] = alive
    raw = np.where(live[:, tail].T, raw, 0.0)
    q = raw / np.where(alive, raw.sum(axis=1), 1.0)[:, None]
    q_slots = np.ascontiguousarray(q.T)
    bins, read = (tail + G * np.arange(m1)[:, None]).ravel(), T.head + G * rank
    pi = alive / alive.sum()
    for _ in range(20000):
        pi, prev = np.bincount(bins, (q_slots * pi).ravel())[read], pi
        if float(np.max(np.abs(pi - prev))) < 1e-15:
            break
    pi = pi / pi.sum()
    mask = q > 0
    return pi, float(-np.sum((pi[:, None] * q)[mask] * np.log(q[mask])))


@pytest.mark.parametrize("m, beta, n", [(3, "3.5", 5), (3, "3.5", 6), (3, "3.5", 8),
                                        (4, 5, 5), (8, 9, 3)])
def test_markov_pull_step_matches_grouped_sum(m, beta, n):
    # (3, 3.5) at depth 8 prunes 6 words; the full (8, 9) shift gives every
    # prefix group 9 sources, where a pairwise sum would round differently
    p = Params.make(m, beta)
    T = build_system(p, build_kneading(p, 64), PotentialSpec.zero(), n)
    # one row per source of the largest group, one column per group and
    # the extra one, which holds no word
    src_at = T._chain[3]
    G = len(T._groups[0]) + 1
    assert src_at.shape == (_in_degree(T.head, T.tail).max(), G)
    if (m, beta) == (8, 9):
        assert src_at.shape == (9, 82) and np.all(src_at[:, :-1] % G < G - 1)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(3):
        nu = random_markov_measure(T, rng)
        pi, h = _markov_grouped_sum(T, ref_rng)
        assert np.array_equal(nu.weights, pi) and nu.entropy_true == h


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 40])
def test_sum_over_axis_0_adds_rows_in_order(k):
    # the pull step's bit-identity rests on numpy reducing a (k, m+1, G)
    # array over axis 0 row by row, as bincount adds a bin's entries; only a
    # reduction to a single entry is summed pairwise, and m + 1 >= 2 slots
    # and G >= 2 groups (one real, one extra) rule that out
    rng = np.random.default_rng(k)
    x = rng.uniform(0.0, 1.0, size=(k, 2, 3)) * 10.0 ** rng.integers(-8, 8, size=(k, 2, 3))
    seq = x[0].copy()
    for row in x[1:]:
        seq += row
    out = np.zeros((2, 3))
    np.add.reduce(x, axis=0, out=out)
    assert np.array_equal(out, seq)


# ---------------------------------------------------------------------------
# ergodic optimization


def test_periodic_orbit_search():
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    A = PotentialSpec.digit_table(C)
    orbits = periodic_orbits(p, K, A, 3)
    words = {o.word for o in orbits}
    assert (0,) in words and (1,) in words
    best = max(o.average for o in orbits)
    assert best == pytest.approx(0.3)


def test_periodic_orbits_respect_admissibility():
    p = Params.make(2, "beta_T")
    K = build_kneading(p, 64)
    orbits = periodic_orbits(p, K, PotentialSpec.zero(), 3)
    words = {o.word for o in orbits}
    assert (0,) not in words          # 0^inf < lower bound
    assert (2,) not in words          # 2^inf > kneading sequence
    assert (1,) in words
    assert (0, 2) in words or (2, 0) in words


def test_max_ergodic_average_asymptote():
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    A = PotentialSpec.digit_table(C)
    rep = max_ergodic_average(p, K, A, 4)
    assert rep.lower_bound == pytest.approx(0.3)
    cfg = RunConfig(m=3, beta="4", depth=3, potential="digit_table:0.3,0,0.1,0.05",
                    t_grid=(100.0, 200.0), max_period=4)
    summary = cmd_thermo(cfg).summary
    assert summary["max_average_lower"] == rep.lower_bound
    # the pressure asymptote is zerotemp's, from the last two grid points
    assert "max_average_upper" not in summary and "max_average_slope" not in summary
    zt = cmd_zerotemp(cfg)
    assert zt.exit_code == 0
    assert zt.summary["max_average_lower"] == rep.lower_bound
    assert zt.summary["max_average_upper"] >= rep.lower_bound - 1e-12
    p100, p200 = zt.columns["pressure"]
    assert abs((p200 - p100) / 100 - rep.lower_bound) < 1e-3


def test_zero_potential_max_average():
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    rep = max_ergodic_average(p, K, PotentialSpec.zero(), 2)
    assert rep.lower_bound == 0.0


# ---------------------------------------------------------------------------
# zero-temperature scans


def test_scan_unique_maximum():
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    curve = zero_temperature_scan(p, K, PotentialSpec.digit_table(C), depth=3)
    assert curve.points[-1].entropy < 1e-3
    assert curve.monotone_tail
    avgs = curve.column("average")
    assert all(b >= a - 1e-8 for a, b in zip(avgs, avgs[1:]))
    # closed form at every grid point
    for pt in curve.points:
        Z = sum(math.exp(pt.t * v) for v in C)
        probs = [math.exp(pt.t * v) / Z for v in C]
        h_ref = -sum(q * math.log(q) for q in probs if q > 0)
        assert pt.entropy == pytest.approx(h_ref, abs=1e-8)
        assert pt.identity_residual < 1e-8


def test_scan_tied_maxima():
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    A = PotentialSpec.digit_table([0.3, 0.3, 0.0, 0.1])
    curve = zero_temperature_scan(p, K, A, depth=3)
    assert curve.points[-1].entropy == pytest.approx(math.log(2), abs=1e-3)


def test_scan_zero_potential_constant():
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    curve = zero_temperature_scan(p, K, PotentialSpec.zero(), depth=3)
    hs = curve.column("entropy")
    assert max(hs) - min(hs) < 1e-10
    assert hs[0] == pytest.approx(math.log(4), abs=1e-10)


def test_scan_pressure_convex():
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    curve = zero_temperature_scan(p, K, PotentialSpec.digit_table(C), depth=4)
    ts = curve.column("t")
    Ps = curve.column("pressure")
    slopes = [(P2 - P1) / (t2 - t1)
              for (t1, P1), (t2, P2) in zip(zip(ts, Ps), zip(ts[1:], Ps[1:]))]
    assert all(s2 >= s1 - 1e-8 for s1, s2 in zip(slopes, slopes[1:]))
    assert all(0.0 <= h <= math.log(4) + 1e-12 for h in curve.column("entropy"))


def test_scan_constant_shift_invariance():
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    kappa = 0.21
    c1 = zero_temperature_scan(p, K, PotentialSpec.digit_table(C), depth=3)
    c2 = zero_temperature_scan(
        p, K, PotentialSpec.digit_table([v + kappa for v in C]), depth=3)
    for p1, p2 in zip(c1.points, c2.points):
        assert p2.entropy == pytest.approx(p1.entropy, abs=1e-10)
        assert p2.pressure - p1.pressure == pytest.approx(p1.t * kappa, abs=1e-9)


def test_scan_residual_entropy_fields():
    p = Params.make(3, 4)
    K = build_kneading(p, 64)
    curve = zero_temperature_scan(p, K, PotentialSpec.digit_table(C), depth=3)
    assert curve.residual_entropy >= 0
    assert curve.residual_entropy <= curve.points[-2].entropy + 1e-12
    assert curve.richardson is not None
    assert curve.max_avg_lower <= curve.max_avg_upper + 1e-9
    assert curve.max_avg_upper == curve.points[-1].pressure / curve.points[-1].t


def test_scan_points_all_converge():
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    curve = zero_temperature_scan(p, K, PotentialSpec.digit_table(C), depth=5)
    assert all(pt.converged for pt in curve.points)
    assert not any("did not converge" in w for w in curve.warnings)
    assert [pt.mode for pt in curve.points] == ["linear"] * 6 + ["log"] * 4


def test_scan_matches_an_explicit_solver_chain():
    # the reference: each grid point solved by power_solve (t <= 32) or
    # log_power_solve, warm-started from the point before it
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    A = PotentialSpec.digit_table(C)
    curve = zero_temperature_scan(p, K, A, depth=5)
    T = build_system(p, K, A, 5)
    eig = None
    for pt in curve.points:
        solve = power_solve if pt.t <= 32.0 else log_power_solve
        eig = solve(T, tol=1e-14, t_scale=pt.t, start=eig)
        Tt = dataclasses.replace(T, eigen=eig)
        nrm = normalize_potential(Tt)
        h = entropy_of_gibbs(nrm)
        avg = float(np.add.reduce(nrm.weights * Tt.a_vals))
        assert pt == ThermoPoint(pt.t, eig.log_lam, h, avg,
                                 abs(eig.log_lam - h - pt.t * avg),
                                 nrm.row_sum_residual, eig.converged, eig.mode)
    assert len(curve.points) == 10
