"""Discretization of the weighted preimage-sum (Ruelle) operator.

On the depth-n cylinder basis the operator acts on piecewise-constant
functions: (L phi)(w) = sum_a exp(A(z(a w_1..w_{n-1}))) phi(a w_1..w_{n-1}),
summing over digits a whose prepended word stays admissible.  The sources
of a word t are the words s with s[1:] == t[:-1]; they depend only on t's
(n-1)-prefix.  So the word graph is stored once, as the ranks of each
word's (n-1)-prefix and (n-1)-suffix among the distinct prefixes
(``TransferSystem.head``, ``.tail``, which the level walk gives with the
basis, ``CylinderBasis.graph``), and L or its transpose is applied as one
grouped sum over the N words and one gather (``_Operator``).  So L v is
constant on the G prefix groups, and L^T u is e^{tA} times a value of the
word's suffix group: the linear solves iterate those G group values, not
the N word values.

The potential is sampled at one canonical point per cylinder: the word
extended digit by digit with the smallest admissible continuation
(``shift.sample_points``, which also decides whether the kneading data
certifies those points; this module reads no kneading field).  Each
sample is off by at most the potential's variation over its cylinder (see
``potentials``); no printed figure bounds the resulting pressure error.

Solvers: one sup-normalized power iteration on the prefix-group values
for the Perron eigenvalue with the right (eigenfunction) and left
(eigenmeasure) eigenvectors (``_solve``), under one of two gauges: the
trivial one, on t A itself (``power_solve``), and the max-plus one for
strongly scaled potentials (``log_power_solve``), where A is shifted by a
coboundary of a max-plus eigenvector and by the maximal cycle mean, so
that exp(t A') <= 1 at every t (``TransferSystem.solve`` picks one by the
scale t); and the perturbed fixed-point map psi -> L(psi + 1/k)/||L(psi +
1/k)|| at one fixed k, whose value lambda_k exceeds lambda by an exactly
known bias (``lk_solve``).  Every half runs one linear iteration loop
(``_iterate``), as does the max-plus half that finds the gauge; no
kernel works in log scale.  All solves are deterministic.

Normalization (``normalize_potential``) works on the same prefix-group
sums, in the coordinates of the operator the solve iterated (t A, or the
gauged potential above the switch): the row sums of the normalized
operator and both marginals of its transition weights are G values, each
from one pass over the N words, and no pass reads an edge or a logarithm
per word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .expansion import Params
from .potentials import PotentialSpec
from .shift import (CylinderBasis, Kneading, check_transitivity, enumerate_words,
                    sample_points)


class RegimeError(ValueError):
    """Parameters outside the operator regime, or a definitely
    non-transitive shift."""


# ---------------------------------------------------------------------------
# the discretized operator


@dataclass(frozen=True)
class EigenData:
    """Perron data of a solved system, canonically stored in log scale.

    Normalization: sum(rho) = 1 and sum(rho * psi) = 1, so psi * rho is a
    probability vector (the Gibbs weights).
    """

    log_lam: float
    log_psi: np.ndarray
    log_rho: np.ndarray
    t_scale: float
    converged: bool
    iterations: int
    residual: float
    mode: str  # "linear" | "log"
    iterations_fwd: int      # eigenfunction half; iterations is the sum
    iterations_bwd: int      # eigenmeasure half
    stop_reason: str  # "tol" | "max_iter" (either half ran into max_iter)

    @property
    def lam(self) -> float:
        return math.exp(self.log_lam)

    @property
    def psi(self) -> np.ndarray:
        return np.exp(self.log_psi)

    @property
    def rho(self) -> np.ndarray:
        return np.exp(self.log_rho)


# ``TransferSystem.solve`` takes the gauged solve above this t, where exp(t A)
# soon overflows.  Fixed: the pinned zerotemp and thermo outputs switch here.
LOG_THRESHOLD = 32.0
# ... and wherever |t| max|A| reaches this bound, which leaves exp(tA) and
# the linear iteration's sums of it a factor e^109 inside the float range.
LINEAR_LIMIT = 600.0


@dataclass(frozen=True)
class TransferSystem:
    """Cylinder basis, word graph and potential samples.  Frozen: ``solve``
    returns a new system that also holds the Perron eigendata."""

    params: Params
    kneading: Kneading
    potential: PotentialSpec
    basis: CylinderBasis
    a_vals: np.ndarray
    head: np.ndarray       # rank of each word's (n-1)-prefix, nondecreasing
    tail: np.ndarray       # rank of each word's (n-1)-suffix among them, or -1
    warnings: tuple[str, ...] = ()
    eigen: EigenData | None = None

    @property
    def n_words(self) -> int:
        return len(self.basis)

    @property
    def depth(self) -> int:
        return self.basis.depth

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        # a reference form only: no computation of the package reads it
        # the sources of t are the words s with tail[s] == head[t], ascending:
        # the run lo[t]:hi[t] of the words sorted by tail
        by_tail = np.argsort(self.tail, kind="stable")
        lo, hi = (np.searchsorted(self.tail[by_tail], self.head, side)
                  for side in ("left", "right"))
        rows = np.repeat(np.arange(self.n_words), hi - lo)
        # edge k, the j-th edge of its row t, has source by_tail[lo[t] + j]
        before = np.cumsum(hi - lo) - (hi - lo)    # edges of the rows before t
        return rows, by_tail[(lo - before)[rows] + np.arange(len(rows))]

    rows = property(lambda self: self._edges[0], doc="Edge targets, ascending.")
    cols = property(lambda self: self._edges[1],
                    doc="Edge sources, ascending within a target.")

    @cached_property
    def _groups(self) -> tuple[np.ndarray, np.ndarray]:
        # the first word of each prefix group, and tail with a source whose
        # suffix starts no word sent to an extra, unread group
        first = np.flatnonzero(np.concatenate(([True], self.head[1:] != self.head[:-1])))
        return first, np.where(self.tail < 0, len(first), self.tail)

    @cached_property
    def _chain(self) -> tuple[np.ndarray, ...]:
        """The draw-independent tables of the random Markov test measures
        (``thermo.random_markov_measure``), derived on first use.  A chain
        iterates its masses on the slots of an (m+1, G) layout, G counting
        the prefix groups and the extra one: word t sits at (rank of t in
        its group, head[t]), and every other slot, the extra group's column
        among them, holds 0.

        ``alive``: the words with an infinite path.  ``live[s, k]``: slot k
        of source s (word first[tail[s]] + k) is an alive word.  ``at[t]``:
        the flat slot of word t.  ``src_at[j, g]``: the flat slot of the
        j-th source of group g, ascending, or a slot of the extra column
        past the group's sources.  ``src_q[j, k, g]``: the flat (N, m+1)
        index of q[j-th source of g, k], or N (m+1), an appended 0, past the
        group's sources."""
        n, m1 = self.n_words, self.params.m + 1
        first, tail = self._groups
        G = len(first) + 1                 # the prefix groups and the extra one
        # a word lives while its successor group holds a live word
        alive = np.ones(n, dtype=bool)
        while True:
            keep = (np.bincount(self.head, alive, minlength=G) > 0)[tail]
            if np.array_equal(keep, alive):
                break
            alive = keep
        at = (np.arange(n) - first[self.head]) * G + self.head
        live = np.zeros((m1, G), dtype=bool)
        live.ravel()[at] = alive
        # the sources of group g are the run of g in the words sorted by tail
        by_tail = np.argsort(tail, kind="stable")
        count = np.bincount(tail, minlength=G)
        g = tail[by_tail]
        j = np.arange(n) - (np.cumsum(count) - count)[g]
        src = np.full((int(np.max(count[:-1])), G), n)
        real = g < G - 1                   # the extra group is no word's prefix
        src[j[real], g[real]] = by_tail[real]
        src_q = np.where((src < n)[:, None], src[:, None] * m1 + np.arange(m1)[:, None], n * m1)
        return alive, np.ascontiguousarray(live[:, tail].T), at, np.append(at, G - 1)[src], src_q

    @cached_property
    def _gauges(self) -> dict[float, tuple[np.ndarray, float, np.ndarray]]:
        return {}

    def _gauge(self, sign: float) -> tuple[np.ndarray, float, np.ndarray]:
        """The max-plus gauge (u, b*, b') of b = sign * A, computed once per
        sign and cached: u per prefix group, by the max-plus half
        ``_log_power_one`` on b / max|A| from u = 0; b* = max(b + u[head]
        - u[tail]) over the words with a successor; and the gauged
        potential b' = b + u[head] - u[tail] - b* there (0 on the words
        without successor, which are sources of nothing), <= 0 however far
        u has converged (see ``_coordinates``)."""
        if sign not in self._gauges:
            first, tail = self._groups
            scale = float(np.max(np.abs(self.a_vals), initial=0.0))
            u = np.zeros(len(first))
            if scale > 0:
                # the step bound is positional: the benchmark tracer reads
                # it at args[3]
                u = scale * _log_power_one(_Operator(self, sign / scale), u, _GAUGE_TOL,
                                           _GAUGE_MAX_ITER)[1]
            b = sign * self.a_vals + u[self.head] - np.append(u, 0.0)[tail]
            succ = self.tail >= 0
            b_star = float(np.max(b[succ])) if succ.any() else 0.0
            self._gauges[sign] = u, b_star, np.where(succ, b - b_star, 0.0)
        return self._gauges[sign]

    def dense(self, t_scale: float = 1.0) -> np.ndarray:
        """The operator at scale t as a dense (N, N) array, for small systems."""
        edge = self.tail[None, :] == self.head[:, None]
        return np.where(edge, np.exp(t_scale * self.a_vals)[None, :], 0.0)

    def solve(self, tol: float = 1e-14, max_iter: int = 20000,
              t_scale: float = 1.0) -> "TransferSystem":
        """The system with its Perron eigendata at scale ``t_scale``, by
        the one solve (``_solve``) under the trivial gauge
        (``power_solve``) up to ``LOG_THRESHOLD`` and under the max-plus
        gauge (``log_power_solve``) above it or where |t| max|A| >=
        ``LINEAR_LIMIT``, on which exp(tA) overflows or underflows.  A
        solved system warm-starts the backward half from its own
        eigendata, and the result keeps the graph's cached index arrays and
        max-plus gauges."""
        a_max = float(np.max(np.abs(self.a_vals), initial=0.0))
        linear = t_scale <= LOG_THRESHOLD and abs(t_scale) * a_max < LINEAR_LIMIT
        solve = power_solve if linear else log_power_solve
        solved = replace(self, eigen=solve(self, tol=tol, max_iter=max_iter,
                                           t_scale=t_scale, start=self.eigen))
        for key in ("_edges", "_groups", "_chain", "_gauges"):
            if key in vars(self):   # same graph: keep its cached index arrays
                vars(solved)[key] = vars(self)[key]
        return solved


def build_system(p: Params, K: Kneading, A: PotentialSpec, n: int,
                 require_regime: bool = True) -> TransferSystem:
    """Build the depth-n discretization of the transfer operator.

    The build runs as numpy passes over the sorted basis, with no
    per-word Python loop: the sample points come from the shift
    (``shift.sample_points``: the words' own digits, or canonical points
    computed once per kneading-pin state and gathered), the potential is
    evaluated on the whole uint8 point matrix
    (``PotentialSpec.values``), and the word graph comes from the last
    step of the level walk, where each word's (n-1)-suffix is a word of the
    previous level at a known position (``shift._level_graph``).  No word
    tuple and no edge list is built.

    Parameters
    ----------
    p, K : parameters and kneading data of the shift.
    A : potential specification, sampled at canonical cylinder points.
    n : cylinder depth (basis = admissible words of length n).
    require_regime : enforce the operator regime m > 2, beta in [m/2+2, m+1].

    Raises
    ------
    RegimeError
        outside the operator regime, or on a definitely non-transitive
        shift.  An ``unknown`` transitivity verdict proceeds with a warning.
    UndecidedError
        if the kneading truncation cannot decide admissibility at depth n,
        or certify sample points of ``A.needed_digits`` digits.
    """
    warnings: list[str] = []
    if require_regime and not p.operator_regime:
        raise RegimeError(
            f"(m={p.m}, beta={float(p.beta):.6g}) outside the operator regime "
            f"m > 2, beta in [m/2 + 2, m + 1]")
    trans = check_transitivity(p, K)
    if trans.verdict == "not_transitive":
        raise RegimeError(f"shift is not transitive ({trans.reason})")
    if trans.verdict == "unknown":
        warnings.append(f"transitivity unknown: {trans.reason}; "
                        "eigenfunction positivity is not guaranteed")
    if trans.self_admissible is False:
        warnings.append("kneading sequence is not self-admissible; "
                        "finite-depth word sets over-approximate the shift")

    basis = enumerate_words(p, K, n, graph=True)
    if len(basis) == 0:
        raise ValueError("empty cylinder basis")

    a_vals = A.values(sample_points(basis, K, A.needed_digits))

    head, tail = basis.graph
    return TransferSystem(p, K, A, basis, a_vals, head, tail, tuple(warnings))


def _in_degree(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Number of sources of every word of the graph ``(head, tail)``: the
    words s with tail[s] == head[t], i.e. the digits a with a t[:-1] a
    word, the word's preimage count at this depth."""
    return np.bincount(tail[tail >= 0], minlength=len(head))[head]


class _Operator:
    """L at one scale t and its transpose (``a_vals`` replaces the
    system's potential, as the gauged solve does).

    With e = exp(t A), (L v)[t] is the sum of e[s] v[s] over the sources s
    with tail[s] == head[t]: one grouped sum over the N sources and a
    gather by head (``fwd``).  The transpose factors e[s] out, (L^T u)[s]
    = e[s] * (sum of u over the words of prefix group tail[s]): one grouped
    sum over the N targets and a gather by tail, taken on group values
    (``bwd_groups``).  The index arrays are derived once per graph and
    cached on the system (``TransferSystem._groups``); an instance adds
    t A, and e on its first application.

    Both Perron vectors are fixed by G prefix-group values (the exact
    lumping of Kemeny and Snell, *Finite Markov Chains*, 1960): L v is
    constant on prefix groups, and L^T u is e[s] times a value of group
    tail[s].  ``fwd_groups`` and ``bwd_groups`` map those values, G in and
    G out: forward psi = g[head], backward rho = f * U[tail], where f = e /
    emax[tail] lies in (0, 1] and emax[h] is the largest e among the
    sources in group h (``scaled``), so that U[h] is the largest rho among
    them (f is 0 where all of a group's sources underflow to e = 0).
    """

    def __init__(self, T: TransferSystem, t_scale: float, a_vals: np.ndarray | None = None):
        self.head = T.head
        self.first, self.tail = T._groups
        self.la = t_scale * (T.a_vals if a_vals is None else a_vals)

    @cached_property
    def e(self) -> np.ndarray:
        with np.errstate(over="ignore"):   # an overflow is an inf iterate
            return np.exp(self.la)

    @cached_property
    def scaled(self) -> tuple[np.ndarray, np.ndarray]:
        """(emax, f): emax[h] the largest e among the sources in group h (0
        for a group without sources), and f = e / emax[tail], or 0 where
        every source of the group underflows to e = 0, as rho = e u is
        there.  Entry G of emax is the words without successor, which carry
        no rho."""
        emax = _group_max(self.tail, self.e, len(self.first) + 1, 0.0)
        # a group with emax = 0 has e = 0 on all its sources, so f = 0 / 1;
        # an overflowed e gives f = inf / inf = nan, which the power step
        # reports as an overflow
        with np.errstate(invalid="ignore"):
            return emax, self.e / np.where(emax > 0, emax, 1.0)[self.tail]

    def fwd(self, v: np.ndarray) -> np.ndarray:
        # (L v)[t] is entry head[t] of the sums per prefix group; bincount
        # adds each group's sources in ascending order, as a sequential row
        # sum does
        return np.bincount(self.tail, self.e * v, minlength=len(self.first) + 1)[:-1][self.head]

    def fwd_groups(self, g: np.ndarray) -> np.ndarray:
        # L (g[head]) per prefix group, with one N-length temporary
        v = g[self.head]
        v *= self.e
        return np.bincount(self.tail, v, minlength=len(self.first) + 1)[:-1]

    @cached_property
    def _U(self) -> np.ndarray:
        # U with an appended 0, read by the words without successor
        return np.zeros(len(self.first) + 1)

    def bwd_groups(self, U: np.ndarray) -> np.ndarray:
        """L^T (f U[tail]) = f U'[tail] with U' = emax * (sum of f U[tail]
        per prefix group), returned as U', a new array.  U is read through
        one (G+1) buffer per operator, whose last entry stays 0 for the
        words without successor (tail G)."""
        emax, f = self.scaled
        buf = self._U
        buf[:-1] = U
        out = np.bincount(self.head, f * buf[self.tail])
        out *= emax[:-1]
        return out


def _group_max(group: np.ndarray, x: np.ndarray, size: int, empty: float) -> np.ndarray:
    """The largest x[i] of each group (``group[i]`` is the group of x[i]),
    ``empty`` for a group without entries or below it."""
    mx = np.full(size, empty)
    np.maximum.at(mx, group, x)
    return mx


# ---------------------------------------------------------------------------
# solvers


def _lse_vec(v: np.ndarray) -> float:
    mx = np.max(v)
    if not np.isfinite(mx):
        return mx
    x = v - mx
    np.exp(x, out=x)
    return mx + math.log(np.sum(x))


def _warm_start(L: _Operator, lift: np.ndarray | None, start: EigenData | None,
                t_scale: float) -> np.ndarray:
    """The backward half's start per prefix group: the largest rho among
    each group's sources, 0 for a group without sources.  Cold, rho = 1,
    so the start is 1 exactly on the groups whose source count is
    positive; warm from a solve at another scale, ``start``, whose log_rho
    is scaled by t_scale / start.t_scale (the ground state sharpens
    linearly in t on log scale), shifted to maximum 0 and moved into the
    gauge's coordinates (``lift``, see ``_coordinates``).  The forward
    half always starts cold (see ``_solve``)."""
    G = len(L.first)
    if start is None or not (start.t_scale > 0 and t_scale > 0):
        return (np.bincount(L.tail, minlength=G + 1)[:-1] > 0).astype(float)
    rho = start.log_rho * (t_scale / start.t_scale)
    rho -= np.max(rho)
    if lift is not None:
        rho += lift[L.head]
        rho -= np.max(rho)
    np.exp(rho, out=rho)
    return _group_max(L.tail, rho, G + 1, 0.0)[:-1]


def _iterate(step, v, tol: float, max_iter: int, window: int | None):
    """The power-iteration loop of every half: the linear halves and the
    max-plus half (``_log_power_one``).

    ``step(v, damped)`` applies the operator once and returns (quotient,
    normalized iterate, change): the Rayleigh quotient q of v, the next
    iterate, sup-normalized, and how far it moved.  The loop stops on
    "tol" once two successive quotients agree to ``tol * max(1, |q|)``
    and the change is below ``10 * tol``; otherwise it stops on
    "max_iter".

    Undamped steps v -> L v contract by |lam_2|/lam.  The damped update
    v -> L v + max(lam, 0) v keeps the Perron vector and breaks the modulus tie
    of operators concentrating on a periodic orbit (lam_2 near -lam), but
    L is singular (words with the same (n-1)-prefix have equal rows), so
    it never contracts faster than 1/2 per step.  With ``window`` None
    every step is damped; otherwise the loop switches to damping for good
    once the change at step k exceeds 2^-window times the change at step
    k - window.  A window of the depth outlasts the transient of the zero
    eigenvalue, which can move the iterate by a constant amount for up to
    depth steps.  Returns (quotient, iterate, steps, stop reason).
    """
    q_prev = None
    diffs: list[float] = []
    damped = window is None
    stop = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        q, v, diff = step(v, damped)
        q_ok = q_prev is not None and abs(q - q_prev) < tol * max(1.0, abs(q))
        q_prev = q
        if q_ok and diff < 10 * tol:
            stop = "tol"
            break
        diffs.append(diff)
        damped = damped or (it > window and diff > diffs[-1 - window] * 0.5 ** window)
    return q_prev, v, it, stop


def power_solve(T: TransferSystem, tol: float = 1e-14, max_iter: int = 20000,
                t_scale: float = 1.0, start: EigenData | None = None) -> EigenData:
    """Perron eigendata at scale t by ``_solve`` under the trivial gauge,
    on exp(t A) itself.  ``TransferSystem.solve`` keeps |t| max|A| below
    ``LINEAR_LIMIT`` here; called directly beyond it, a group whose
    sources all underflow carries rho = 0 (as the dense operator does), and
    an overflow raises FloatingPointError."""
    return _solve(T, t_scale, False, tol, max_iter, start)


def log_power_solve(T: TransferSystem, t_scale: float = 1.0, tol: float = 1e-14,
                    max_iter: int = 20000,
                    start: EigenData | None = None) -> EigenData:
    """Perron eigendata at any scale t by ``_solve`` under the max-plus
    gauge, on which no value overflows; required once exp(t A) leaves the
    float range.  The name and the printed mode "log" are those of the
    log-scale iteration this solve replaced."""
    return _solve(T, t_scale, True, tol, max_iter, start)


def _coordinates(T: TransferSystem, t_scale: float, gauge: bool):
    """The operator that a solve at scale t iterates under the trivial
    gauge (``gauge`` False) or the max-plus one, with the change back from
    its coordinates: (L, s b*, s u per prefix group).

    The trivial gauge (u = 0, b* = 0) iterates t A itself and changes
    nothing back (0.0, None).  Under the max-plus gauge, with s = |t|,
    b = sign(t) A, and u, b* the max-plus gauge of b
    (``TransferSystem._gauge``), the gauged potential is b' = b + u[head]
    - u[tail] - b* on every word with a successor: b' <= 0 by the choice
    of b*, and 0, to the accuracy of u, on the critical cycles of b.
    Conjugating the operator by D = diag(exp(s u[head])) and dividing it
    by exp(s b*) gives the operator of b' at scale s (exp(s b') <= 1, so
    no value overflows at any t), with the same Perron vectors up to D:

        log lambda = s b* + log lambda',  log psi = log psi' + s u[head],
        log rho = log rho' - s u[head],

    so the Gibbs weights psi rho = psi' rho' are unchanged.
    """
    if not gauge:
        return _Operator(T, t_scale), 0.0, None
    s = abs(t_scale)
    u, b_star, gauged = T._gauge(-1.0 if t_scale < 0 else 1.0)
    return _Operator(T, s, gauged), s * b_star, s * u


def _solve(T: TransferSystem, t_scale: float, gauge: bool, tol: float, max_iter: int,
           start: EigenData | None) -> EigenData:
    """Perron eigendata at scale t, by sup-normalized power iteration on
    the operator of ``_coordinates`` under the chosen gauge: a forward
    half for the eigenfunction and a transpose half for the eigenmeasure,
    each in ``_iterate`` with the switch to damping over a window of
    ``T.depth`` steps.  The result is moved back from the gauge's
    coordinates and normalized to sum(rho) = 1 and sum(rho psi) = 1.

    Both halves iterate G prefix-group values, not N word values (see
    ``_Operator``).  The forward half iterates g with psi = g[head], from
    psi = 1.  The backward half iterates U with rho = f * U[tail], from
    rho = f (U = 1 on the groups with sources), or from the largest rho of
    each group's sources in ``start``'s rho (``_warm_start``), moved into
    the gauge's coordinates.  There is no warm forward start: along the
    zerotemp-scan chains it saved at most 2 steps of a gauged half and
    could cost 6, and it saved 8 of the 171 steps of the halves at t =
    2...32 at depth 7 but cost 4 of 172 at depth 6.  Each Rayleigh
    quotient weighs a group by its share of the word vector's squared
    norm: its size forward, the sum of f^2 over its sources backward.  So
    the quotient, the sup-norm, the change and the residual are those of
    the word vectors, in exact arithmetic.

    Converged means both halves stopped on "tol" and the eigen-equation
    residual, with the halves' disagreement on lambda, is below ``100 *
    tol``; a half that runs into ``max_iter`` returns its best iterate
    with ``converged=False`` rather than raising.  A word whose psi or rho
    underflows to 0 in the gauge's coordinates gets log -inf.
    """
    L, shift, lift = _coordinates(T, t_scale, gauge)
    n, G = len(L.head), len(L.first)
    _, f = L.scaled
    # max_iter is positional: the benchmark tracer reads it at args[2]
    lam_f, g, it_f, res_f, stop_f = _power_one(
        L.fwd_groups, tol, max_iter, np.ones(G), T.depth,
        weight=np.diff(L.first, append=n))
    lam_b, U, it_b, res_b, stop_b = _power_one(
        L.bwd_groups, tol, max_iter, _warm_start(L, lift, start, t_scale), T.depth,
        weight=np.bincount(L.tail, f * f, minlength=G + 1)[:-1])
    lam = 0.5 * (lam_f + lam_b)
    resid = max(res_f, res_b, abs(lam_f - lam_b) / max(lam, 1e-300))
    stop = "max_iter" if "max_iter" in (stop_f, stop_b) else "tol"
    log_lam = math.log(lam)
    with np.errstate(divide="ignore"):
        log_g = np.log(g)
        log_rho = np.log(f * np.append(U, 0.0)[L.tail])
    if lift is not None:
        log_lam += shift
        log_g += lift
        log_rho -= lift[L.head]
    log_rho -= _lse_vec(log_rho)
    log_psi = log_g[L.head]
    log_psi -= _lse_vec(log_rho + log_psi)
    converged = stop == "tol" and resid < 100 * max(tol, 1e-15)
    return EigenData(log_lam, log_psi, log_rho, t_scale, converged, it_f + it_b, resid,
                     "log" if gauge else "linear", it_f, it_b, stop)


def _power_one(apply, tol: float, max_iter: int, v: np.ndarray, window: int,
               *, weight: np.ndarray | float = 1.0):
    """One half of a linear solve: ``_iterate`` on v -> apply(v), sup-normalized,
    with the Rayleigh quotient sum(weight v apply(v)) / sum(weight v^2).
    Every sum is a fixed-order reduction (``np.add.reduce``, never
    ``np.dot``), so the result does not depend on the BLAS thread count.

    A step does only its arithmetic.  An inf or nan entry of apply(v), on
    a group of weight 0 too (0 * inf is nan), makes the quotient
    non-finite, which raises FloatingPointError ("overflowed"); so does a
    damped or normalized step whose maximum is not finite and positive
    ("left the positive cone").  ``apply`` returns a new array, which the
    step damps and normalizes in place, and the change goes into the
    previous iterate's buffer: the loop runs on one copy of the caller's
    ``v``, which is left as it was.  Returns (quotient, iterate, steps,
    residual, stop reason)."""
    def step(v, damped):
        w = apply(v)
        vw = weight * v
        lam = float(np.add.reduce(vw * w) / np.add.reduce(vw * v))
        if not math.isfinite(lam):
            raise FloatingPointError("power iteration overflowed")
        if damped:
            w += max(lam, 0.0) * v
        top = np.maximum.reduce(w)
        if top <= 0 or not math.isfinite(top):
            raise FloatingPointError("power iteration left the positive cone")
        w /= top
        np.subtract(w, v, out=v)
        np.abs(v, out=v)
        return lam, w, float(np.maximum.reduce(v))

    with np.errstate(over="ignore", invalid="ignore"):
        lam, v, it, stop = _iterate(step, np.array(v, dtype=float), tol, max_iter, window)
    resid = float(np.max(np.abs(apply(v) - lam * v)) / max(lam, 1e-300))
    return lam, v, it, resid, stop


# stop rule and fixed step bound of the max-plus half, on b / max|A|
_GAUGE_TOL = 1e-14
_GAUGE_MAX_ITER = 1000


def _log_power_one(L: _Operator, v: np.ndarray, tol: float, max_iter: int):
    """The max-plus half: the log-scale power step v -> log L e^v divided
    by t, in the limit t -> oo, on the G prefix-group values of ``L.la``.

    The step is (B v)[h] = max of la[s] + v[head[s]] over the sources s
    of group h (``np.logaddexp`` becomes ``np.maximum``), damped by the
    quotient q as the linear step is, w = max(B v, q + v), and shifted to
    maximum 0.  q is the midpoint of the max-plus Collatz-Wielandt bracket
    [min(B v - v), max(B v - v)] over the groups with sources; for a
    transitive graph the bracket holds the maximal cycle mean, and it
    closes where v is a max-plus eigenvector.  The step runs in
    ``_iterate``, always damped.  Returns (quotient, iterate, steps, stop
    reason).  Like ``_power_one``'s, the step works in place on one copy
    of the caller's v.
    """
    G = len(L.first)
    # v stays finite, so B v is -inf exactly on the groups without sources
    live = np.bincount(L.tail, minlength=G + 1)[:-1] > 0

    def step(v, damped):
        w = _group_max(L.tail, L.la + v[L.head], G + 1, -np.inf)[:-1]
        d = w - v
        q = 0.5 * (float(np.minimum.reduce(d, where=live, initial=np.inf))
                   + float(np.maximum.reduce(d, where=live, initial=-np.inf)))
        np.add(v, q, out=d)
        np.maximum(w, d, out=w)
        w -= np.maximum.reduce(w)
        np.subtract(w, v, out=v)
        np.abs(v, out=v)
        return q, w, float(np.maximum.reduce(v))

    return _iterate(step, np.array(v, dtype=float), tol, max_iter, None)


@dataclass(frozen=True)
class LkResult:
    lam: float
    psi: np.ndarray
    min_margin: float   # lambda_k - exp(-sup|A|)
    converged: bool


# the perturbation 1/k of ``lk_solve``
LK_K = 2.0 ** 34


def lk_solve(T: TransferSystem, tol: float = 1e-14) -> LkResult:
    """Alternate Perron solver (at scale t = 1) through the perturbed
    normalized map psi -> L(psi + 1/k) / ||L(psi + 1/k)||_inf at k = ``LK_K``.

    Its fixed point psi_k, with L(psi_k + 1/k) = lambda_k psi_k, is iterated
    by the forward half of ``power_solve`` (``_power_one``, with its stop
    rule, damping switch and max_iter 20000), and lambda_k always exceeds
    exp(-sup|A|).  lambda_k is biased above the Perron eigenvalue lambda by
    exactly lambda <rho, 1> / (k <rho, psi_k>), rho the eigenmeasure: pair
    the fixed-point equation with rho L = lambda rho.

    L v is constant on prefix groups, so the iteration runs on the G
    group values g -> L(g[head] + 1/k) and returns psi = g[head].
    """
    L = _Operator(T, 1.0)
    # max_iter is positional: the benchmark tracer reads it at args[2]
    lam, g, _, _, stop = _power_one(lambda g: L.fwd_groups(g + 1.0 / LK_K),
                                       tol, 20000, np.ones(len(L.first)), T.depth)
    floor = math.exp(-T.potential.sup_norm_bound(T.params.m))
    return LkResult(lam, g[T.head], lam - floor, stop == "tol")


# ---------------------------------------------------------------------------
# normalization


@dataclass(frozen=True)
class NormalizedSystem:
    """Normalized operator data of a solved system.

    Mbar[t,s] = e[s] psi(s) / (psi(t) lambda) on every edge makes L_bar 1 =
    1 (row sums equal 1 on the support of the Gibbs weights), and J[t,s] =
    mu(t) Mbar[t,s] are its transition weights, mu = psi rho the Gibbs
    weights (``weights``, summing to 1).  Neither changes when psi is
    scaled by a positive factor per prefix group and rho by its inverse,
    with e[s] scaled to match, so both are taken in the coordinates of the
    operator that the solve iterated (see ``_iterated``; log eigenvalue
    ``log_lam``, log weights la), where psi and rho are in range at every
    t.  There psi is one value per prefix group (``log_psi``), and words
    with the same prefix share their sources, so no field is per edge, and
    only ``weights`` and ``support`` are per word.  With R[h] the sum of
    rho over group h (rho divided by sum(psi rho)):

    - ``row_sums[h]`` = (L psi)[h] / (lambda psi[h]), the row sum of every
      word of group h (0 where psi[h] underflowed);
    - ``j_out[h]`` = R[h] (L psi)[h] / lambda, J's row marginal summed over
      group h;
    - ``j_in[h]`` = psi[h] / lambda * (sum of e[s] R[tail s] over the words
      s of group h), J's column marginal summed over it;
    - ``la_average``, the sum of J's column marginal times la over the
      words.

    ``support`` marks the words within e^600 of the heaviest Gibbs weight,
    over which ``row_sum_residual`` is the largest |row sum - 1|.
    ``log_j_out`` gives J's row marginal per word, and ``dense`` Mbar, for
    small systems.
    """

    system: TransferSystem
    log_lam: float
    log_psi: np.ndarray
    weights: np.ndarray
    support: np.ndarray  # bool mask of words carrying Gibbs mass
    row_sums: np.ndarray
    row_sum_residual: float
    j_out: np.ndarray
    j_in: np.ndarray
    la_average: float

    @property
    def log_j_out(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.weights * self.row_sums[self.system.head])

    def dense(self) -> np.ndarray:
        """Mbar as a dense (N, N) array, 0 on the rows of words whose psi
        underflowed to 0."""
        L = _iterated(self.system)[0]
        log_psi = self.log_psi[L.head]
        with np.errstate(invalid="ignore"):     # -inf - -inf off those rows
            log_mbar = (L.la + log_psi)[None, :] - log_psi[:, None] - self.log_lam
        edge = (L.tail[None, :] == L.head[:, None]) & np.isfinite(log_psi)[:, None]
        return np.exp(log_mbar, out=np.zeros_like(log_mbar), where=edge)


def _iterated(T: TransferSystem) -> tuple["_Operator", float, np.ndarray, np.ndarray]:
    """The operator that the solve of ``T`` iterated (``_coordinates``),
    with its log eigenvalue, its log psi per prefix group and its log rho
    per word: the eigendata itself under the trivial gauge; under the
    max-plus gauge, the eigendata moved back into its coordinates (log
    lambda - s b*, log psi - s u, log rho + s u[head])."""
    eig = T.eigen
    L, shift, lift = _coordinates(T, eig.t_scale, eig.mode == "log")
    log_psi = eig.log_psi[T._groups[0]]
    if lift is None:
        return L, eig.log_lam, log_psi, eig.log_rho
    return L, eig.log_lam - shift, log_psi - lift, eig.log_rho + lift[T.head]


def normalize_potential(T: TransferSystem) -> NormalizedSystem:
    """Rescale the operator by its Perron data.  Requires a solved system.

    Every field is a prefix-group sum in the coordinates of the operator
    the solve iterated (``_iterated``; see ``NormalizedSystem``), taken in
    one pass over the N words each: R and mu; L psi and the same sums
    weighted by la; and the sums of e[s] R[tail s], read exactly rather
    than through rho's eigen-equation, which holds only to the solve's
    residual.  The eigendata is normalized to sum(psi rho) = 1, and psi and
    rho are scaled by inverse factors to the same maximum, so every word
    within e^600 of the heaviest is in range.  A word whose psi or rho
    underflowed to 0 (log -inf, see ``_solve``) carries no Gibbs
    weight and no transition weight.
    """
    eig = T.eigen
    if eig is None:
        raise ValueError("system is not solved; run TransferSystem.solve first")
    L, log_lam, log_psi, log_rho = _iterated(T)
    shift = 0.5 * (np.max(log_psi) - np.max(log_rho))
    log_psi = log_psi - shift
    psi = np.exp(log_psi)
    rho = np.exp(log_rho + shift)
    lam, head, G = math.exp(log_lam), L.head, len(L.first)
    w = psi[head]
    v = L.e * w                  # the terms e[s] psi[head s] of L psi
    w *= rho
    z = np.add.reduce(w)
    w /= z
    R = np.bincount(head, rho, minlength=G) / z
    # (L psi)[h] = lambda psi[h] to the solve's residual, so 0 where psi[h]
    # underflowed
    Lpsi = np.where(psi > 0, np.bincount(L.tail, v, minlength=G + 1)[:-1], 0.0)
    v *= L.la
    la_average = float(np.add.reduce(R * np.bincount(L.tail, v, minlength=G + 1)[:-1])) / lam
    into = np.bincount(head, L.e * np.append(R, 0.0)[L.tail], minlength=G)
    row_sums = np.divide(Lpsi, lam * psi, out=np.zeros(G), where=psi > 0)
    support = w > np.max(w) * math.exp(-600.0)
    resid = float(np.max(np.abs(row_sums[np.logical_or.reduceat(support, L.first)] - 1.0)))
    return NormalizedSystem(T, log_lam, log_psi, w, support, row_sums, resid,
                            R * Lpsi / lam, psi * into / lam, la_average)


# ---------------------------------------------------------------------------
# iteration


def iterate(T: TransferSystem, phi: np.ndarray, n: int, t_scale: float = 1.0) -> np.ndarray:
    """Apply the operator n times to phi; an overflow is signalled
    (FloatingPointError)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    L = _Operator(T, t_scale)
    out = np.asarray(phi, dtype=float).copy()
    for _ in range(n):
        with np.errstate(over="ignore"):
            out = L.fwd(out)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("operator iteration overflowed")
    return out


def dense_spectrum(T: TransferSystem, t_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full dense spectrum oracle for small systems: eigenvalues sorted by
    modulus (descending) plus the right and left eigenvectors of the top one."""
    M = T.dense(t_scale)
    out = []
    for X in (M, M.T):
        vals, vecs = np.linalg.eig(X)
        order = np.argsort(-np.abs(vals))
        top = np.real(vecs[:, order[0]])
        out.append((vals[order], -top if top.sum() < 0 else top))
    (vals, top), (_, topl) = out
    return vals, top, topl
