"""The grouped normalization and Gibbs entropy against the per-edge forms
they replaced.

``normalize_potential`` computes the row sums of Mbar and the two
marginals of the transition weights J[t,s] = mu(t) Mbar[t,s] as grouped
sums over the N words, and ``entropy_of_gibbs`` reads h from those
marginals; neither builds the edge list.  The oracle below is the per-edge
computation they replaced: log Mbar on every edge of ``T.rows``/``T.cols``,
row sums by ``bincount`` over the supported sources, and h = -sum J
min(log Mbar, 0) over the edges within e^100 of the heaviest.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from symbeta import operator
from symbeta.expansion import Params
from symbeta.operator import build_system, lk_solve, normalize_potential
from symbeta.potentials import parse_potential
from symbeta.reporting import RunConfig, cmd_spectrum, cmd_thermo, cmd_zerotemp
from symbeta.shift import build_kneading
from symbeta.thermo import (DEFAULT_T_GRID, entropy_of_gibbs, gibbs_measure,
                            orbit_measure, periodic_orbits)

C4 = "digit_table:0.3,0,0.1,0.05"
TABLES = {3: C4, 4: "digit_table:0.3,0,0.1,0.05,0.2",
          5: "digit_table:0.3,0,0.1,0.05,0.2,0.1"}
GEO = "geometric:c=1,theta=0.25,kmax=12"


def edge_normalize(T):
    """(log Mbar per edge, row sums, row-sum residual, support), per edge."""
    eig = T.eigen
    rows, cols = T.rows, T.cols
    log_mbar = (eig.t_scale * T.a_vals[cols] + eig.log_psi[cols]
                - eig.log_psi[rows] - eig.log_lam)
    log_mu = eig.log_psi + eig.log_rho
    support = log_mu > (np.max(log_mu) - 600.0)
    keep = support[cols]
    sums = np.bincount(rows[keep], np.exp(log_mbar[keep]), minlength=T.n_words)
    resid = float(np.max(np.abs(sums[support] - 1.0)))
    return log_mbar, sums, resid, support


def edge_entropy(T, log_mbar):
    """-sum J log Mbar over the edges, J = mu[row] Mbar, clamped per edge."""
    log_mu = T.eigen.log_psi + T.eigen.log_rho
    log_j = log_mu[T.rows] + log_mbar
    mask = log_j > (np.max(log_j) - 100.0)
    j = np.exp(log_j[mask])
    return float(-np.sum(j * np.minimum(log_mbar[mask], 0.0)))


def system(m, b, pot, n):
    p = Params.make(m, b)
    return build_system(p, build_kneading(p, 64), parse_potential(pot), n)


def identity_residual(T, h):
    eig = T.eigen
    avg = float(np.dot(gibbs_measure(T).weights, T.a_vals))
    return abs(eig.log_lam - h - eig.t_scale * avg)


def check_against_oracle(T):
    """Grouped results of the solved system T (its edge lists not built)
    against the per-edge oracle on a copy of T."""
    nrm = normalize_potential(T)
    h = entropy_of_gibbs(nrm)
    assert "_edges" not in vars(T)
    ref = dataclasses.replace(T)          # the oracle builds its edges here
    log_mbar, sums, resid, support = edge_normalize(ref)
    h_ref = edge_entropy(ref, log_mbar)
    assert abs(h - h_ref) <= 1e-11
    assert h >= 0.0
    assert np.array_equal(nrm.support, support)
    # row sums: J's row marginal over mu
    log_mu = T.eigen.log_psi + T.eigen.log_rho
    rsum = np.exp(nrm.log_j_out[support] - log_mu[support])
    np.testing.assert_allclose(rsum, sums[support], rtol=1e-12, atol=0.0)
    assert abs(nrm.row_sum_residual - resid) <= 1e-12
    assert identity_residual(T, h) <= identity_residual(T, h_ref) + 1e-12


SYSTEMS = ([(3, "3.5", C4, 4), (3, "4", C4, 3)]
           + [(m, m + 1, pot, n) for m in (4, 5) for pot in (TABLES[m], GEO)
              for n in range(2, 6)]
           + [(3, "3.5", pot, n) for pot in (C4, GEO) for n in range(4, 8)])


@pytest.mark.parametrize("m, b, pot, n", SYSTEMS)
def test_grouped_normalization_matches_per_edge_oracle(m, b, pot, n):
    check_against_oracle(system(m, b, pot, n).solve(tol=1e-14))


@pytest.mark.parametrize("m, b, pot, n", [(3, "3.5", C4, 5), (3, "3.5", GEO, 5),
                                          (3, "4", C4, 3), (3, "4", GEO, 3)])
def test_grouped_normalization_along_the_t_grid(m, b, pot, n):
    # the zerotemp continuation: each point warm-starts from the one before
    T = system(m, b, pot, n)
    for t in DEFAULT_T_GRID:
        T = T.solve(tol=1e-14, t_scale=t)
        check_against_oracle(T)
    assert T.eigen.t_scale == 512.0 and T.eigen.mode == "log"


def test_row_sums_equal_one_along_the_geometric_grid():
    # the gauged solves from t = 64 converge on every supported word: the
    # word-sampled log solve they replaced left words far below its
    # maximum unconverged, and the row sums there read 0.36, 0.66 and 0.88
    # at t = 64, 128 and 256
    T = system(3, "3.5", GEO, 5)
    for t in DEFAULT_T_GRID:
        T = T.solve(tol=1e-14, t_scale=t)
        assert T.eigen.converged
        assert normalize_potential(T).row_sum_residual < 1e-10, t


def test_normalize_entropy_and_lk_build_no_edge_list():
    T = system(3, "3.5", C4, 5).solve(tol=1e-14)
    entropy_of_gibbs(normalize_potential(T))
    lk_solve(T)
    assert "_edges" not in vars(T)


def test_spectrum_and_zerotemp_build_no_edge_list(monkeypatch):
    def refuse(self):
        raise AssertionError("edge list built")
    monkeypatch.setattr(operator.TransferSystem, "_edges", property(refuse))
    cfg = RunConfig(m=3, beta="3.5", depth=4, potential=C4)
    assert cmd_spectrum(cfg, full=True).exit_code == 0
    assert cmd_zerotemp(cfg).exit_code == 0
    assert cmd_thermo(cfg).exit_code == 0
    T = system(3, "3.5", C4, 4)
    for orbit in periodic_orbits(T.params, T.kneading, T.potential, 4):
        assert orbit_measure(T, orbit).weights.sum() == pytest.approx(1.0)
    with pytest.raises(AssertionError, match="edge list built"):
        system(3, "3.5", C4, 3).rows


def test_normalize_and_entropy_allocate_no_edge_sized_array():
    # (5, 6) at depth 5: N = 7,776 words and 46,656 edges.  Any pass over
    # the edges allocates 6 N floats at least; the grouped forms stay
    # well below 16 N.
    T = system(5, 6, TABLES[5], 5).solve(tol=1e-14)
    N = T.n_words
    tracemalloc.start()
    try:
        h = entropy_of_gibbs(normalize_potential(T))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(h)
    assert peak < 16 * N * 8


# ---------------------------------------------------------------------------
# the prefix-group Gibbs state against the per-edge normalized operator


def cut_system():
    # (3, 3.5) at depth 5 with the sources of one prefix group cut: the
    # words whose suffix was that group have no successor
    T = system(3, "3.5", C4, 5)
    return dataclasses.replace(T, tail=np.where(T.tail == T.tail[0], -1, T.tail))


def edge_gibbs(nrm):
    """Per-edge oracle in the coordinates the solve iterated: Mbar on each
    edge (rows, cols) of the system, from ``nrm.dense()`` up to N = 2,062
    and from the same entries per edge beyond; J = mu[row] Mbar with mu
    from the eigendata; and each edge's exponent size: |la[s]| + |log
    psi[s]| + |log psi[t]| + |log lambda| in those coordinates, and |log
    psi[t]| + |log rho[t]| as the eigendata stores them, which bounds the
    rounding of its entries relative to eps."""
    T = nrm.system
    L = operator._iterated(T)[0]
    rows, cols = T.rows, T.cols
    log_psi = nrm.log_psi[T.head]
    live = np.isfinite(log_psi[rows])
    rows, cols = rows[live], cols[live]
    if T.n_words <= 2062:
        mbar = nrm.dense()[rows, cols]
    else:
        mbar = np.exp(L.la[cols] + log_psi[cols] - log_psi[rows] - nrm.log_lam)
    log_mu = T.eigen.log_psi + T.eigen.log_rho
    mu = np.exp(log_mu - np.max(log_mu))
    mu /= math.fsum(mu)
    stored = np.abs(T.eigen.log_psi) + np.abs(T.eigen.log_rho)
    stored[~np.isfinite(stored)] = 0.0      # words of mu = 0
    size = (np.abs(L.la[cols]) + np.abs(np.where(mbar > 0, log_psi[cols], 0.0))
            + np.abs(log_psi[rows]) + abs(nrm.log_lam) + stored[rows])
    return rows, cols, mbar, mu[rows] * mbar, size, log_mu


GIBBS_SYSTEMS = {
    "golden-3.5-d4": lambda: system(3, "3.5", C4, 4),
    "golden-4-d3": lambda: system(3, "4", C4, 3),
    "golden-3.5-d6": lambda: system(3, "3.5", C4, 6),
    "golden-3.5-d7": lambda: system(3, "3.5", C4, 7),
    "geometric-d6": lambda: system(3, "3.5", GEO, 6),
    "cut-d5": cut_system,
    "geometric-d9": lambda: system(3, "3.5", GEO, 9),
}


@pytest.mark.parametrize("t", [1.0, 16.0, 64.0, 512.0, 4096.0])
@pytest.mark.parametrize("name", list(GIBBS_SYSTEMS))
def test_group_gibbs_state_matches_the_per_edge_normalized_operator(name, t):
    tol = 1e-14
    T = GIBBS_SYSTEMS[name]().solve(tol=tol, t_scale=t)
    assert T.eigen.converged
    g = gibbs_measure(T)
    nrm = g.nrm
    rows, cols, mbar, J, size, log_mu = edge_gibbs(nrm)
    head, G, N = T.head, len(nrm.j_out), T.n_words
    eps = np.finfo(float).eps
    # each entry of either side is a product and quotient of exponentials
    # of its exponents (relative rounding eps size) and a sum of at most N
    # terms (relative rounding N eps, plus N times the smallest subnormal
    # where a term underflows): err bounds the difference of J on each edge,
    # and of log Mbar eps size
    tiny = np.finfo(float).smallest_subnormal
    err = eps * J * (size + 2 * N + 8) + (2 * N + 8) * tiny
    # support: every word within e^600 of the heaviest Gibbs weight
    support = np.isfinite(log_mu) & (log_mu > np.max(log_mu) - 600.0)
    assert np.array_equal(nrm.support, support)
    # row sums on the support
    sums = np.bincount(rows, mbar, minlength=N)
    got = nrm.row_sums[head]
    row_err = eps * np.bincount(rows, mbar * (size + 2 * N + 8), minlength=N)
    assert np.all(np.abs(got - sums)[support] <= row_err[support])
    resid = np.max(np.abs(sums - 1.0)[support])
    assert abs(nrm.row_sum_residual - resid) <= np.max(row_err[support])
    # J's two marginals, summed per prefix group
    for got, by in ((nrm.j_out, head[rows]), (nrm.j_in, head[cols])):
        want = np.bincount(by, J, minlength=G)
        assert np.all(np.abs(got - want) <= np.bincount(by, err, minlength=G))
    # h = -sum J log Mbar over the edges
    log_mbar = np.log(mbar, out=np.zeros_like(mbar), where=J > 0)
    h_ref = -math.fsum(J * log_mbar)
    assert abs(g.entropy - max(h_ref, 0.0)) <= math.fsum(err * (1.0 + size))
