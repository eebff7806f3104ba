"""Pressure, entropy, Gibbs weights, ergodic optimization and
zero-temperature scans.

Entropy of the Gibbs state is computed as -integral of the normalized
potential against the Gibbs weights, with the integral taken at transition
resolution: within a depth-n cylinder the normalized potential still
depends on the next digit, so it is averaged over the outgoing transition
weights J[t,s] = mu[t] Mbar[t,s].  Both marginals of J equal mu exactly,
which makes the identity h + t * avg = P hold to rounding error and the
finite-dimensional variational inequality exact.  As log Mbar[t,s] =
t A(s) + log psi(s) - log psi(t) - log lambda splits into a source and a
target term, the sum over the edges needs only J's two marginals (row
sums J_out, column sums J_in, see ``NormalizedSystem``):

    h = <log psi, J_out - J_in> - <J_in, t A - log lambda>,

grouped so that the first term is the small difference of two sums that
both equal mu up to rounding.

The variational principle P(A) = sup_nu h(nu) + integral A d nu is checked
on test measures that carry their exact entropy (a stationary Markov
chain's entropy rate, 0 for a periodic orbit): on the finite word graph
every stationary chain satisfies log lambda >= h + t integral A, with
equality at the Gibbs chain (Parry 1964), so a pressure set too low
makes some gap negative.
The entropy infimum formula is checked separately, on word-indexed trial
functions that must all stay above the Gibbs entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expansion import Params
from .operator import (NormalizedSystem, TransferSystem, _Operator, build_system,
                       normalize_potential)
from .potentials import PotentialSpec
from .sequences import Word
from .shift import (Kneading, _levels, _periodic_verdicts, _rotation_points,
                    locate_rows)


# ---------------------------------------------------------------------------
# the equilibrium state


@dataclass(frozen=True)
class GibbsMeasure:
    """The equilibrium state of a solved system: its normalized operator
    data ``nrm``, cylinder weights mu = psi * rho, entropy h(mu) and
    average of A (at unit scale).  P = log lambda = h + t * average holds
    to rounding; ``identity_residual`` is the violation."""

    nrm: NormalizedSystem
    weights: np.ndarray
    entropy: float
    average: float

    @property
    def pressure(self) -> float:
        """P(tA) = log lambda, the log of the Perron eigenvalue."""
        return self.nrm.system.eigen.log_lam

    @property
    def identity_residual(self) -> float:
        """|P - h - t * average|."""
        eig = self.nrm.system.eigen
        return abs(eig.log_lam - self.entropy - eig.t_scale * self.average)

    def ranked(self, k: int | None = None) -> np.ndarray:
        """Indices of the k heaviest words (all words when k is None), by
        descending weight and, among equal weights, ascending index (lex
        order).  For k < N only the words weighing at least the k-th
        largest weight are sorted."""
        w = self.weights
        cand = np.arange(len(w))
        if k is not None and 0 < k < len(w):
            kth = w[np.argpartition(-w, k - 1)[k - 1]]
            cand = np.flatnonzero(w >= kth)
        return cand[np.argsort(-w[cand], kind="stable")][:k]

    def top(self, k: int = 10) -> list[tuple[int, float]]:
        return [(int(i), float(self.weights[i])) for i in self.ranked(k)]


def gibbs_measure(T: TransferSystem) -> GibbsMeasure:
    """The equilibrium state of the solved system ``T``: it normalizes the
    operator once (``normalize_potential``) and takes the entropy from
    that (``entropy_of_gibbs``).  Raises ValueError on an unsolved system."""
    nrm = normalize_potential(T)
    w = np.exp(T.eigen.log_psi + T.eigen.log_rho)
    w = w / w.sum()
    return GibbsMeasure(nrm, w, entropy_of_gibbs(nrm), float(np.dot(w, T.a_vals)))


def entropy_of_gibbs(nrm: NormalizedSystem) -> float:
    """Entropy of the Gibbs state of ``nrm.system``: -integral of the
    normalized potential.

    Uses the transition-resolved quadrature from J's two marginals (see
    module docstring), with no pass over the edges; agrees with pressure -
    t * average to rounding error by construction.
    """
    T = nrm.system
    eig = T.eigen
    # marginal entries below ~e^-100 relative weight contribute nothing
    # and, at strong scaling, may sit on unconverged eigenvector components
    j_out, j_in = (np.exp(np.where(log_j > np.max(log_j) - 100.0, log_j, -np.inf))
                   for log_j in (nrm.log_j_out, nrm.log_j_in))
    # h = -sum J log Mbar, summed by target and by source (module docstring)
    flow = j_out - j_in
    h = (np.dot(np.where(flow != 0.0, eig.log_psi, 0.0), flow)
         - np.dot(j_in, eig.t_scale * T.a_vals - eig.log_lam))
    # Mbar entries are probabilities, so h >= 0 up to rounding: clamp it
    return max(float(h), 0.0)


# ---------------------------------------------------------------------------
# entropy infimum formula


def inf_formula_value(L0: _Operator, weights: np.ndarray, u: np.ndarray) -> float:
    """integral of log(L_0 u / u) against the given cylinder weights,
    where L_0 is the unweighted preimage-sum operator (``_Operator`` at
    t = 0, built once by the caller for all its trials)."""
    lsum = L0.fwd(u)
    mask = weights > 0.0
    if np.any(lsum[mask] <= 0.0):
        return math.inf
    return float(np.sum(weights[mask] * (np.log(lsum[mask]) - np.log(u[mask]))))


@dataclass(frozen=True)
class InfCheckReport:
    trial_values: tuple[tuple[str, float], ...]
    min_trial: float
    entropy_reference: float

    @property
    def min_gap(self) -> float:
        return self.min_trial - self.entropy_reference


def entropy_inf_check(g: GibbsMeasure, n_random: int = 20,
                      seed: int = 0) -> InfCheckReport:
    """Evaluate the entropy infimum formula against the Gibbs state ``g``
    on a family of word-indexed trial functions (a constant, the
    eigenfunction, random positive vectors).  Each trial bounds the Gibbs
    entropy ``g.entropy`` from above, so ``min_gap`` must be >= 0.
    """
    T = g.nrm.system
    log_psi = T.eigen.log_psi
    rng = np.random.default_rng(seed)
    trials: list[tuple[str, np.ndarray]] = [
        ("constant", np.ones(T.n_words)),
        ("eigenfunction", np.exp(log_psi - np.max(log_psi))),
    ]
    for i in range(n_random):
        trials.append((f"random_{i}", np.exp(0.5 * rng.standard_normal(T.n_words))))
    L0 = _Operator(T, 0.0)
    values = [(label, inf_formula_value(L0, g.weights, u)) for label, u in trials]
    return InfCheckReport(tuple(values), min(v for _, v in values), g.entropy)


# ---------------------------------------------------------------------------
# test invariant measures and the variational gap


@dataclass(frozen=True)
class InvariantTestMeasure:
    """An invariant measure of the depth-n word system, given by its
    cylinder weights (a word's (n-1)-prefix and (n-1)-suffix carry the
    same total weight), and its entropy ``entropy_true``, which
    ``variational_gap`` takes as h(nu)."""

    label: str
    weights: np.ndarray
    entropy_true: float

    def average(self, T: TransferSystem) -> float:
        return float(np.dot(self.weights, T.a_vals))


def random_markov_measure(T: TransferSystem, rng: np.random.Generator,
                          label: str = "markov") -> InvariantTestMeasure:
    """A random stationary Markov measure supported on the word graph.

    Source s draws m + 1 uniform slot weights; slot k leads to word
    first[tail[s]] + k, the k-th word of prefix group tail[s], when that
    group has more than k words.  Words that cannot be continued forever
    are pruned first, and the slots leading to them get no weight; a
    ValueError is raised when no word remains.  A step of the stationary
    loop is a grouped sum, as in ``_Operator.fwd``: the slot masses
    pi[s] q[s, k] are summed by (k, tail[s]), each in ascending s, and
    word t reads the sum at (its rank in its group, head[t]).
    """
    n, m1 = T.n_words, T.params.m + 1
    first, tail = T._groups
    G = len(first) + 1                 # the prefix groups and the extra one
    raw = rng.uniform(0.1, 1.0, size=(n, m1))
    # a word lives while its successor group holds a live word
    alive = np.ones(n, dtype=bool)
    while True:
        keep = (np.bincount(T.head, alive, minlength=G) > 0)[tail]
        if np.array_equal(keep, alive):
            break
        alive = keep
    if not alive.any():
        raise ValueError("word graph has no infinite path; cannot build a Markov kernel")
    rank = np.arange(n) - first[T.head]
    live = np.zeros((m1, G), dtype=bool)   # live[k, g]: word first[g] + k lives
    live[rank, T.head] = alive
    raw = np.where(live[:, tail].T, raw, 0.0)
    q = raw / np.where(alive, raw.sum(axis=1), 1.0)[:, None]   # q[s, k] = P(s -> slot k)
    q_slots = np.ascontiguousarray(q.T)
    # slot k of s adds to bin k G + tail[s]; word t reads bin rank[t] G + head[t]
    bins, read = (tail + G * np.arange(m1)[:, None]).ravel(), T.head + G * rank
    pi = alive / alive.sum()
    for _ in range(20000):
        pi, prev = np.bincount(bins, (q_slots * pi).ravel())[read], pi
        if float(np.max(np.abs(pi - prev))) < 1e-15:
            break
    pi = pi / pi.sum()
    # entropy rate of the chain
    mask = q > 0
    h = float(-np.sum((pi[:, None] * q)[mask] * np.log(q[mask])))
    return InvariantTestMeasure(label, pi, entropy_true=h)


def orbit_measure(T: TransferSystem, orbit: "PeriodicOrbit") -> InvariantTestMeasure:
    """Uniform invariant measure on an admissible periodic orbit, expressed
    on depth-n cylinder words: each of the orbit's p depth-n windows
    weighs 1/p."""
    p = len(orbit.word)
    word = np.asarray(orbit.word, dtype=np.uint8)[None, :]
    # the depth-n window at each point of the orbit, in orbit order
    src = locate_rows(T.basis.digits, _rotation_points(word, T.depth)[0])
    if np.any(src < 0):
        raise ValueError("orbit leaves the admissible word basis")
    weights = np.bincount(src, minlength=T.n_words) / p
    return InvariantTestMeasure(f"orbit_{orbit.word}", weights, entropy_true=0.0)


def variational_gap(g: GibbsMeasure, nu: InvariantTestMeasure) -> float:
    """P(tA) - (h(nu) + t integral A d nu) on the system of the Gibbs
    state ``g``, with h(nu) the measure's own entropy.  Nonnegative up to
    rounding for every invariant test measure when P is the true pressure,
    and zero at the Gibbs state itself (``g.identity_residual``)."""
    T = g.nrm.system
    return T.eigen.log_lam - (nu.entropy_true + T.eigen.t_scale * nu.average(T))


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


def max_ergodic_average(p: Params, K: Kneading, A: PotentialSpec,
                        max_period: int) -> ErgodicMaxReport:
    """Lower bound on the maximal ergodic average: the best average over
    the admissible periodic orbits of period <= max_period (-inf, with no
    best orbit, when there are none)."""
    orbits = periodic_orbits(p, K, A, max_period)
    best = max(orbits, key=lambda o: o.average, default=None)
    return ErgodicMaxReport(best, best.average if best is not None else -math.inf)


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
                          depth: int = 6, tol: float = 1e-14,
                          max_period: int = 6) -> ThermoCurve:
    """Scan the equilibrium family t -> (P(tA), h, avg) along a grid of
    inverse temperatures.

    The scan is a continuation in t: each grid point solves the system
    solved at the point before it (``TransferSystem.solve``, log scale
    above t = 32), warm-started from its eigendata and with its cached
    graph index arrays; a point that runs into ``max_iter`` is reported unconverged.
    The upper estimate of the maximal ergodic average is P(t_max A)/t_max
    of the last point, and the periodic-orbit lower bound needs no further
    solve.  The entropy at large t estimates the residual entropy of the
    zero-temperature limit; tail diagnostics (Cesaro mean of the last grid
    points, a Richardson step, tail monotonicity) are reported.
    """
    t_grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    T = build_system(p, K, A, depth)
    warnings = list(T.warnings)
    points: list[ThermoPoint] = []
    for t in t_grid:
        T = T.solve(tol=tol, t_scale=t)
        eig = T.eigen
        g = gibbs_measure(T)
        if not eig.converged:
            warnings.append(f"solve at t={t} did not converge (residual {eig.residual:.2e})")
        points.append(ThermoPoint(t, g.pressure, g.entropy, g.average,
                                  g.identity_residual, g.nrm.row_sum_residual,
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
