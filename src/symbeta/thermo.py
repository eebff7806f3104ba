"""Pressure, entropy, Gibbs weights, ergodic optimization and
zero-temperature scans.

Entropy of the Gibbs state is computed as -integral of the normalized
potential against the Gibbs weights, with the integral taken at transition
resolution: within a depth-n cylinder the normalized potential still
depends on the next digit, so it is averaged over the outgoing transition
weights J[t,s] = mu[t] Mbar[t,s].  Both marginals of J equal mu exactly,
which makes the identity h + t * avg = P hold to rounding error and the
finite-dimensional variational inequality exact.  As log Mbar[t,s] =
la(s) + log psi(s) - log psi(t) - log lambda splits into a source and a
target term (la = t A, or its gauged form in the coordinates the solve
iterated, where Mbar and J are the same), and psi is constant on prefix
groups, the sum over the edges needs only J's two marginals summed per
prefix group h (J_out and J_in, see ``NormalizedSystem``) and the J-average
of la:

    h = sum_h log psi_h (J_out[h] - J_in[h]) - sum_s J_in[s] (la(s) - log lambda),

grouped so that the first term is a sum of small differences of two
sums that both equal mu up to rounding.

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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .expansion import Params
from .operator import (NormalizedSystem, TransferSystem, _Operator, build_system,
                       normalize_potential)
from .potentials import PotentialSpec
from .sequences import Word
from .shift import Kneading, _rotation_points, periodic_words


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
        order).  Weights equal in exact arithmetic may differ by rounding,
        and are then ranked by it.  For k < N only the words weighing at
        least the k-th largest weight are sorted."""
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
    operator once (``normalize_potential``), which gives the weights, and
    takes the entropy from that (``entropy_of_gibbs``).  Raises ValueError
    on an unsolved system."""
    nrm = normalize_potential(T)
    w = nrm.weights
    return GibbsMeasure(nrm, w, entropy_of_gibbs(nrm), float(np.add.reduce(w * T.a_vals)))


def entropy_of_gibbs(nrm: NormalizedSystem) -> float:
    """Entropy of the Gibbs state of ``nrm.system``: -integral of the
    normalized potential.

    Uses the transition-resolved quadrature from J's two marginals per
    prefix group and the J-average of la (see module docstring and
    ``NormalizedSystem``), in the coordinates the solve iterated, with no
    pass over the edges or the words; agrees with pressure - t * average to
    rounding error by construction.
    """
    # h = -sum J log Mbar, summed by target group and by source (module
    # docstring); a group whose psi underflowed to 0 has no flow
    flow = nrm.j_out - nrm.j_in
    h = (np.add.reduce(np.where(flow != 0.0, nrm.log_psi, 0.0) * flow)
         - (nrm.la_average - nrm.log_lam * np.add.reduce(nrm.j_in)))
    # Mbar entries are probabilities, so h >= 0 up to rounding: clamp it
    return max(float(h), 0.0)


# ---------------------------------------------------------------------------
# entropy infimum formula


def inf_formula_value(L0: _Operator, weights: np.ndarray, u: np.ndarray) -> float:
    """integral of log(L_0 u / u) against the given cylinder weights,
    where L_0 is the unweighted preimage-sum operator (``_Operator`` at
    t = 0, built once by the caller for all its trials).  Where L_0 u or u
    is 0 on a weighted word (u underflowed there) the bound is vacuous:
    inf, without taking a log of 0."""
    lsum = L0.fwd(u)
    mask = weights > 0.0
    if np.any(lsum[mask] <= 0.0) or np.any(u[mask] <= 0.0):
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
        return float(np.add.reduce(self.weights * T.a_vals))


def random_markov_measure(T: TransferSystem, rng: np.random.Generator,
                          label: str = "markov") -> InvariantTestMeasure:
    """A random stationary Markov measure supported on the word graph.

    Source s draws m + 1 uniform slot weights; slot k leads to word
    first[tail[s]] + k, the k-th word of prefix group tail[s], when that
    group has more than k words.  Words that cannot be continued forever
    are pruned first, and the slots leading to them get no weight; a
    ValueError is raised when no word remains.  The tables that do not
    depend on the draw are derived once per graph and cached on the system
    (``TransferSystem._chain``).  The stationary loop keeps the masses on
    the slots (rank in group, group) of the words and pulls them from each
    group's padded source table: a gather of the sources' masses, one
    product with their slot probabilities q, and a sum over the sources,
    which adds each word's sources in ascending order, as the grouped sum
    of ``_Operator.fwd`` does.
    """
    n, m1 = T.n_words, T.params.m + 1
    raw = rng.uniform(0.1, 1.0, size=(n, m1))
    alive, live, at, src_at, src_q = T._chain
    if not alive.any():
        raise ValueError("word graph has no infinite path; cannot build a Markov kernel")
    raw = np.where(live, raw, 0.0)
    q = raw / np.where(alive, raw.sum(axis=1), 1.0)[:, None]   # q[s, k] = P(s -> slot k)
    q_src = np.append(q, 0.0)[src_q]   # q_src[j, k, g]: q of the j-th source of g, slot k
    x, nxt = np.zeros(src_q.shape[1:]), np.zeros(src_q.shape[1:])   # masses on the slots
    x.ravel()[at] = alive / alive.sum()
    pulled, mass = np.empty((len(src_at), 1, x.shape[1])), np.empty(src_q.shape)
    into = pulled[:, 0]
    for _ in range(20000):
        x.take(src_at, out=into, mode="clip")   # unbuffered: src_at is in range
        np.multiply(pulled, q_src, out=mass)
        np.add.reduce(mass, axis=0, out=nxt)
        x, nxt = nxt, x
        if float(np.abs(x - nxt).max()) < 1e-15:
            break
    pi = x.ravel()[at]
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
    # the depth-n window at each point of the orbit, in orbit order
    src = T.basis.locate(_rotation_points(np.array([orbit.word], dtype=np.uint8), T.depth)[0])
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


class OrbitList(Sequence[PeriodicOrbit]):
    """The orbits found by ``periodic_orbits``, held as one digit matrix
    (one lex-least rotation per row) and one vector of averages per
    period.  A read-only sequence: ``len`` is the orbit count, and a
    ``PeriodicOrbit`` is built only when an entry is indexed or iterated."""

    def __init__(self, digits: list[np.ndarray], averages: list[np.ndarray]):
        self.digits, self.averages = digits, averages
        self._ends = np.cumsum([len(a) for a in averages])

    def __len__(self) -> int:
        return int(self._ends[-1]) if len(self._ends) else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if not -len(self) <= i < len(self):
            raise IndexError("orbit index out of range")
        i %= len(self)
        b = int(np.searchsorted(self._ends, i, side="right"))
        j = i - (int(self._ends[b - 1]) if b else 0)
        return PeriodicOrbit(tuple(self.digits[b][j].tolist()), float(self.averages[b][j]))

    def __iter__(self):
        for W, averages in zip(self.digits, self.averages):
            for w, a in zip(W.tolist(), averages.tolist()):
                yield PeriodicOrbit(tuple(w), a)


def periodic_orbits(p: Params, K: Kneading, A: PotentialSpec,
                    max_period: int) -> OrbitList:
    """The admissible periodic orbits of period <= max_period, one entry
    per orbit, with their potential averages.

    Each orbit is given by its lex-least rotation; entries are ordered by
    period, then lexicographically.  Orbits whose admissibility is
    undecided at the kneading depth are skipped.  The orbits of period L
    come from the shift (``shift.periodic_words``), and this function only
    averages A over their rotations.  The result holds one digit matrix
    and one vector of averages per period (``OrbitList``).
    """
    digits, averages = [], []
    need = max(A.needed_digits, 1)
    for length in range(1, max_period + 1):
        W = periodic_words(p, K, length)
        N, L = W.shape
        # the average over the orbit, starting from its lex-least rotation
        vals = A.values(_rotation_points(W, need).reshape(N * L, need))
        digits.append(W)
        averages.append(vals.reshape(N, L).mean(axis=1))
    return OrbitList(digits, averages)


@dataclass(frozen=True)
class ErgodicMaxReport:
    best_orbit: PeriodicOrbit | None
    lower_bound: float         # best periodic-orbit average


def max_ergodic_average(p: Params, K: Kneading, A: PotentialSpec,
                        max_period: int) -> ErgodicMaxReport:
    """Lower bound on the maximal ergodic average: the best average over
    the admissible periodic orbits of period <= max_period (-inf, with no
    best orbit, when there are none).  Equal averages can round apart, so
    the best orbit is the first (by period, then lex) whose average is
    within ``4 * max_period`` ulps of the maximum.  Reads the orbit arrays
    and builds that one orbit only."""
    orbits = periodic_orbits(p, K, A, max_period)
    averages = np.concatenate([np.zeros(0), *orbits.averages])
    top = float(averages.max(initial=-math.inf))
    near = 4 * max_period * math.ulp(top)
    hit = np.flatnonzero(top - averages <= near)
    return ErgodicMaxReport(orbits[int(hit[0])] if len(hit) else None, top)


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
    solved at the point before it (``TransferSystem.solve``), with its
    cached graph index arrays.  Every solve starts its forward half cold
    and its backward half from the eigenmeasure of the point before it.
    Up to t = 32 the solve runs under the trivial gauge (on t A itself);
    above it under the max-plus gauge (``log_power_solve``, printed as
    mode "log"), which is computed once for the scan, at its first such
    point.  A point that runs into ``max_iter`` is reported unconverged.
    The upper estimate of the maximal ergodic average is P(t_max A)/t_max
    of the last point, and the periodic-orbit lower bound needs no further
    solve.  The entropy at large t estimates the residual entropy of the
    zero-temperature limit; tail diagnostics (Cesaro mean of the last grid
    points, a Richardson step, tail monotonicity) are reported.  ``t_grid``
    must be strictly increasing; ``cmd_zerotemp`` checks that.
    """
    t_grid = [float(t) for t in t_grid]
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
