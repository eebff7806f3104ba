"""Pressure, entropy, Gibbs weights, ergodic optimization and
zero-temperature scans.

Entropy of the Gibbs state is computed as -integral of the normalized
potential against the Gibbs weights, with the integral taken at transition
resolution: within a depth-n cylinder the normalized potential still
depends on the next digit, so it is averaged over the outgoing transition
weights J[t,s] = mu[t] Mbar[t,s].  Both marginals of J equal mu exactly,
which makes the identity h + t * avg = P hold to rounding error and the
finite-dimensional variational inequality exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expansion import Params
from .operator import (EigenData, NormalizedSystem, TransferSystem,
                       build_system, iterate, log_power_solve,
                       normalize_potential, power_solve)
from .potentials import PotentialSpec
from .sequences import Word
from .shift import (Kneading, _levels, _periodic_verdicts, _rotation_points,
                    locate_rows)


# ---------------------------------------------------------------------------
# Gibbs weights, pressure, entropy


@dataclass(frozen=True)
class GibbsMeasure:
    """Cylinder weights of the equilibrium state: mu = psi * rho."""

    depth: int
    weights: np.ndarray

    def top(self, k: int = 10) -> list[tuple[int, float]]:
        order = np.argsort(-self.weights)[:k]
        return [(int(i), float(self.weights[i])) for i in order]


def gibbs_measure(T: TransferSystem, eigen: EigenData | None = None) -> GibbsMeasure:
    eig = eigen if eigen is not None else T.eigen
    if eig is None:
        raise ValueError("system is not solved")
    w = np.exp(eig.log_psi + eig.log_rho)
    return GibbsMeasure(T.depth, w / w.sum())


def pressure(T: TransferSystem, eigen: EigenData | None = None) -> float:
    """Topological pressure of (t_scale * A): log of the Perron eigenvalue."""
    eig = eigen if eigen is not None else T.eigen
    if eig is None:
        raise ValueError("system is not solved")
    return eig.log_lam


def average_energy(T: TransferSystem, weights: np.ndarray) -> float:
    """integral of A (at unit scale) against cylinder weights."""
    return float(np.dot(weights, T.a_vals))


def entropy_of_gibbs(T: TransferSystem, normalized: NormalizedSystem | None = None) -> float:
    """Entropy of the Gibbs state: -integral of the normalized potential.

    Uses the transition-resolved quadrature (see module docstring); agrees
    with pressure - t * average to rounding error by construction.
    """
    nrm = normalized if normalized is not None else normalize_potential(T)
    eig = nrm.eigen
    log_mu = eig.log_psi + eig.log_rho
    log_j = log_mu[nrm.rows] + nrm.log_mbar
    # transitions below ~e^-100 relative weight contribute nothing and, at
    # strong scaling, may sit on unconverged eigenvector components
    mask = log_j > (np.max(log_j) - 100.0)
    j = np.exp(log_j[mask])
    # Mbar entries are probabilities: clamp rounding excursions above 1
    # so the entropy stays exactly nonnegative
    return float(-np.sum(j * np.minimum(nrm.log_mbar[mask], 0.0)))


# ---------------------------------------------------------------------------
# entropy infimum formula


def inf_formula_value(T: TransferSystem, weights: np.ndarray, u: np.ndarray) -> float:
    """integral of log(L_0 u / u) against the given cylinder weights,
    where L_0 is the unweighted preimage-sum operator."""
    lsum = iterate(T, u, 1, t_scale=0.0)
    mask = weights > 0.0
    if np.any(lsum[mask] <= 0.0):
        return math.inf
    return float(np.sum(weights[mask] * (np.log(lsum[mask]) - np.log(u[mask]))))


@dataclass(frozen=True)
class InfCheckReport:
    trial_values: tuple[tuple[str, float], ...]
    min_trial: float
    u0_value: float
    entropy_reference: float

    @property
    def min_gap(self) -> float:
        return self.min_trial - self.entropy_reference

    @property
    def u0_gap(self) -> float:
        return abs(self.u0_value - self.entropy_reference)


def entropy_inf_check(T: TransferSystem, normalized: NormalizedSystem | None = None,
                      n_random: int = 20, seed: int = 0) -> InfCheckReport:
    """Evaluate the entropy infimum formula on a family of trial functions.

    Word-indexed trials (constants, the eigenfunction, random positive
    vectors) must all stay above the Gibbs entropy; the distinguished
    trial u0 = exp(normalized potential) lives at transition resolution
    and attains the entropy exactly.
    """
    nrm = normalized if normalized is not None else normalize_potential(T)
    mu = gibbs_measure(T, nrm.eigen).weights
    h = entropy_of_gibbs(T, nrm)
    rng = np.random.default_rng(seed)
    trials: list[tuple[str, np.ndarray]] = [
        ("constant", np.ones(T.n_words)),
        ("eigenfunction", np.exp(nrm.eigen.log_psi - np.max(nrm.eigen.log_psi))),
    ]
    for i in range(n_random):
        trials.append((f"random_{i}", np.exp(0.5 * rng.standard_normal(T.n_words))))
    values = [(label, inf_formula_value(T, mu, u)) for label, u in trials]
    # u0 = exp(Abar) satisfies L_0 u0 = 1 exactly, so its integrand is -Abar
    u0_value = h
    return InfCheckReport(tuple(values), min(v for _, v in values), u0_value, h)


# ---------------------------------------------------------------------------
# test invariant measures and the variational gap


@dataclass(frozen=True)
class InvariantTestMeasure:
    """An invariant measure of the depth-n word system, given by cylinder
    weights plus joint edge weights J[s -> t] whose marginals both equal
    the weights (word-level shift invariance)."""

    label: str
    weights: np.ndarray
    edge_rows: np.ndarray   # target indices, aligned with system edges
    edge_cols: np.ndarray   # source indices
    edge_j: np.ndarray      # joint weights on edges (s=col followed by t=row)
    entropy_true: float | None = None

    def average(self, T: TransferSystem) -> float:
        return float(np.dot(self.weights, T.a_vals))


def random_markov_measure(T: TransferSystem, rng: np.random.Generator,
                          label: str = "markov") -> InvariantTestMeasure:
    """A random stationary Markov measure supported on the word graph."""
    n = T.n_words
    # the targets of s are the words of prefix group tail[s], a run of the
    # sorted basis; slot k of s holds the k-th, ascending
    succ = np.searchsorted(T.head, T.tail)[:, None] + np.arange(T.params.m + 1)
    succ_ok = (succ < n) & (T.head[np.minimum(succ, n - 1)] == T.tail[:, None])
    succ = np.where(succ_ok, succ, 0)
    raw = np.where(succ_ok, rng.uniform(0.1, 1.0, size=succ.shape), 0.0)
    totals = raw.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError("word graph has a sink; cannot build a Markov kernel")
    q = raw / totals[:, None]          # q[s, slot] = P(s -> succ[s, slot])
    pi = np.full(n, 1.0 / n)
    for _ in range(20000):
        nxt = np.zeros(n)
        np.add.at(nxt, succ.ravel(), (pi[:, None] * q).ravel())
        if float(np.max(np.abs(nxt - pi))) < 1e-15:
            pi = nxt
            break
        pi = nxt
    pi = pi / pi.sum()
    # entropy rate of the chain
    mask = q > 0
    h = float(-np.sum((pi[:, None] * q)[mask] * np.log(q[mask])))
    # edge joint weights aligned with the system edge list (rows=target):
    # the successor slots of s hold its targets in ascending order, so
    # row-major order of the slots is the edge order by (source, target)
    ej = np.empty(len(T.rows))
    ej[np.lexsort((T.rows, T.cols))] = (pi[:, None] * q)[succ_ok]
    return InvariantTestMeasure(label, pi, T.rows, T.cols, ej, entropy_true=h)


def orbit_measure(T: TransferSystem, orbit: "PeriodicOrbit") -> InvariantTestMeasure:
    """Uniform invariant measure on an admissible periodic orbit, expressed
    on depth-n cylinder words."""
    p = len(orbit.word)
    word = np.asarray(orbit.word, dtype=np.uint8)[None, :]
    # the depth-n window at each point of the orbit, in orbit order
    src = locate_rows(T.basis.digits, _rotation_points(word, T.depth)[0])
    if np.any(src < 0):
        raise ValueError("orbit leaves the admissible word basis")
    weights = np.zeros(T.n_words)
    np.add.at(weights, src, 1.0 / p)
    # consecutive windows s -> t are an edge t <- s; the edges are sorted
    # by (row, column), so their codes row * N + col are too
    codes = T.rows * T.n_words + T.cols
    steps = np.roll(src, -1) * T.n_words + src
    edge = np.searchsorted(codes, steps)
    ej = np.zeros(len(T.rows))
    np.add.at(ej, edge, 1.0 / p)
    return InvariantTestMeasure(f"orbit_{orbit.word}", weights, T.rows, T.cols, ej,
                       entropy_true=0.0)


@dataclass(frozen=True)
class GapReport:
    label: str
    entropy_upper: float     # min of the infimum formula over trials
    average: float
    gap: float               # P(A) - (entropy_upper + average)
    entropy_true: float | None


def variational_gap(T: TransferSystem, nu: InvariantTestMeasure,
                    normalized: NormalizedSystem | None = None,
                    n_random: int = 8, seed: int = 1) -> GapReport:
    """P(A) - (h(nu) + integral A d nu), with h(nu) bounded from above by
    the entropy infimum formula over a trial family that includes
    u0 = exp(normalized potential).  Nonnegative up to rounding for every
    invariant test measure, zero at the Gibbs state."""
    nrm = normalized if normalized is not None else normalize_potential(T)
    eig = nrm.eigen
    rng = np.random.default_rng(seed)
    # u0 at transition resolution: -sum J log Mbar over nu's own transitions
    mask = nu.edge_j > 0.0
    u0_val = float(-np.sum(nu.edge_j[mask] * nrm.log_mbar[mask]))
    values = [u0_val]
    values.append(inf_formula_value(T, nu.weights, np.ones(T.n_words)))
    support = nu.weights > 0
    for kappa in (1e2, 1e4, 1e6, 1e8):
        u = np.ones(T.n_words) + kappa * support
        values.append(inf_formula_value(T, nu.weights, u))
    for _ in range(n_random):
        values.append(inf_formula_value(
            T, nu.weights, np.exp(0.5 * rng.standard_normal(T.n_words))))
    h_up = min(values)
    avg = nu.average(T)
    gap = pressure(T, eig) - (h_up + eig.t_scale * avg)
    return GapReport(nu.label, h_up, avg, gap, nu.entropy_true)


# ---------------------------------------------------------------------------
# ergodic optimization


@dataclass(frozen=True)
class PeriodicOrbit:
    word: Word            # one period, canonical (lex-least rotation)
    average: float        # orbit average of the potential

    @property
    def period(self) -> int:
        return len(self.word)


def _least_rotation_rows(W: np.ndarray) -> np.ndarray:
    """Which rows of a word matrix are strictly lex-smaller than each of
    their nontrivial rotations: one row per primitive orbit, its lex-least
    rotation.  A non-primitive word equals one of its rotations and fails."""
    N, L = W.shape
    rot = _rotation_points(W, L)[:, 1:]
    neq = rot != W[:, None, :]
    first = neq.argmax(axis=2)           # first difference, 0 where none
    w_at = W[np.arange(N)[:, None], first]
    r_at = np.take_along_axis(rot, first[..., None], axis=2)[..., 0]
    return (neq.any(axis=2) & (w_at < r_at)).all(axis=1)


def periodic_orbits(p: Params, K: Kneading, A: PotentialSpec,
                    max_period: int) -> list[PeriodicOrbit]:
    """The admissible periodic orbits of period <= max_period, one entry
    per orbit, with their potential averages.

    Each orbit is given by its lex-least rotation; entries are ordered by
    period, then lexicographically.  Orbits whose admissibility is
    undecided at the kneading depth are skipped.  The orbits of period L
    are found among the admissible words of length L (every factor of an
    admissible point is an admissible word), in one pass over the word
    levels.
    """
    out: list[PeriodicOrbit] = []
    need = max(A.needed_digits, 1)
    for cands, ok in _levels(p, K, max_period):
        W = cands[ok]
        W = W[_least_rotation_rows(W)]
        W = W[_periodic_verdicts(W, K) == 1]
        N, L = W.shape
        # the average over the orbit, starting from its lex-least rotation
        vals = A.values(_rotation_points(W, need).reshape(N * L, need))
        averages = vals.reshape(N, L).mean(axis=1)
        out.extend(PeriodicOrbit(tuple(w), float(a))
                   for w, a in zip(W.tolist(), averages))
    return out


@dataclass(frozen=True)
class ErgodicMaxReport:
    best_orbit: PeriodicOrbit | None
    lower_bound: float         # best periodic-orbit average
    upper_estimate: float | None   # P(tA)/t at the largest scanned t
    slope_estimate: float | None   # (P(t2 A) - P(t1 A)) / (t2 - t1)


def max_ergodic_average(p: Params, K: Kneading, A: PotentialSpec,
                        max_period: int,
                        system: TransferSystem | None = None,
                        t_pair: tuple[float, float] = (100.0, 200.0)) -> ErgodicMaxReport:
    """Lower bound on the maximal ergodic average from periodic orbits,
    cross-checked against the pressure asymptote when a system is given.

    The two asymptote solves continue in t: the first starts from the
    system's own eigendata when it is solved, the second from the first.
    """
    orbits = periodic_orbits(p, K, A, max_period)
    best = max(orbits, key=lambda o: o.average, default=None)
    lower = best.average if best is not None else -math.inf
    upper = slope = None
    if system is not None:
        t1, t2 = t_pair
        e1 = log_power_solve(system, t_scale=t1, start=system.eigen)
        e2 = log_power_solve(system, t_scale=t2, start=e1)
        upper = e2.log_lam / t2
        slope = (e2.log_lam - e1.log_lam) / (t2 - t1)
    return ErgodicMaxReport(best, lower, upper, slope)


# ---------------------------------------------------------------------------
# zero-temperature scans


@dataclass(frozen=True)
class ThermoPoint:
    t: float
    pressure: float
    entropy: float
    average: float
    identity_residual: float
    row_sum_residual: float
    converged: bool
    mode: str


@dataclass(frozen=True)
class ThermoCurve:
    points: tuple[ThermoPoint, ...]
    max_avg_lower: float           # periodic-orbit bound on the max average
    max_avg_upper: float           # P(tA)/t at the largest t
    residual_entropy: float        # h at the largest t
    cesaro_tail: float             # mean of h over the tail of the grid
    richardson: float | None      # 2 h(t_max) - h(t_max/2) when available
    monotone_tail: bool
    warnings: tuple[str, ...]

    def column(self, name: str) -> list[float]:
        return [getattr(pt, name) for pt in self.points]


DEFAULT_T_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


def zero_temperature_scan(p: Params, K: Kneading, A: PotentialSpec,
                          t_grid: Sequence[float] = DEFAULT_T_GRID,
                          depth: int = 6, log_threshold: float = 32.0,
                          tol: float = 1e-14, max_iter: int = 20000,
                          max_period: int = 6) -> ThermoCurve:
    """Scan the equilibrium family t -> (P(tA), h, avg) along a grid of
    inverse temperatures.

    Solves switch to log-domain above ``log_threshold`` (exp(tA) would
    overflow).  The scan is a continuation in t: each solve is warm-started
    from the eigendata of the grid point before it (across the switch to
    log-domain too), and stops by the rules of ``power_solve`` /
    ``log_power_solve``, so a point that runs into ``max_iter`` is reported
    unconverged.  The upper estimate of the maximal ergodic average is
    P(t_max A)/t_max of the last point, and the periodic-orbit lower bound
    needs no further solve.  The entropy at large t estimates the residual
    entropy of the zero-temperature limit; tail diagnostics (Cesaro mean of
    the last grid points, a Richardson step, tail monotonicity) are
    reported.
    """
    t_grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    T = build_system(p, K, A, depth)
    warnings = list(T.warnings)
    points: list[ThermoPoint] = []
    eig = None
    for t in t_grid:
        solve = power_solve if t <= log_threshold else log_power_solve
        eig = solve(T, tol=tol, max_iter=max_iter, t_scale=t, start=eig)
        nrm = normalize_potential(T, eig)
        mu = gibbs_measure(T, eig).weights
        P = pressure(T, eig)
        h = entropy_of_gibbs(T, nrm)
        avg = average_energy(T, mu)
        resid = abs(P - (h + t * avg))
        if not eig.converged:
            warnings.append(f"solve at t={t} did not converge (residual {eig.residual:.2e})")
        points.append(ThermoPoint(t, P, h, avg, resid, nrm.row_sum_residual,
                                  eig.converged, eig.mode))
    report = max_ergodic_average(p, K, A, max_period)
    hs = [pt.entropy for pt in points]
    tail = hs[-min(4, len(hs)):]
    cesaro = float(np.mean(tail))
    richardson = None
    half = t_grid[-1] / 2
    for pt in points:
        if abs(pt.t - half) < 1e-12:
            richardson = 2 * hs[-1] - pt.entropy
    mono = all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
    return ThermoCurve(tuple(points), report.lower_bound,
                       points[-1].pressure / t_grid[-1],
                       hs[-1], cesaro, richardson, mono, tuple(warnings))
