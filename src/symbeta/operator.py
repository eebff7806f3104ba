"""Discretization of the weighted preimage-sum (Ruelle) operator.

On the depth-n cylinder basis the operator acts on piecewise-constant
functions: (L phi)(w) = sum_a exp(A(z(a w_1..w_{n-1}))) phi(a w_1..w_{n-1}),
summing over digits a whose prepended word stays admissible.  The sources
of a word t are the words s with s[1:] == t[:-1]; they depend only on t's
(n-1)-prefix.  So the word graph is stored once, as the ranks of each
word's (n-1)-prefix and (n-1)-suffix among the distinct prefixes
(``TransferSystem.head``, ``.tail``), and L or its transpose is applied as
one grouped sum over the N words and one gather (``_Operator``).

The potential is sampled at one canonical point per cylinder: the word
extended digit by digit with the smallest admissible continuation.  The
induced discretization error is controlled by the potential's Holder bound.

Solvers: sup-normalized power iteration for the Perron eigenvalue with the
right (eigenfunction) and left (eigenmeasure) eigenvectors, a log-domain
variant for strongly scaled potentials (``TransferSystem.solve`` picks one
by the scale t), and the perturbed fixed-point scheme
psi -> L(psi + 1/k)/||L(psi + 1/k)|| whose values lambda_k decrease the
perturbation as k grows.  All solves are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .expansion import Params
from .potentials import PotentialSpec
from .sequences import Word
from .shift import (CylinderBasis, Kneading, TransitivityResult, UndecidedError,
                    check_transitivity, enumerate_words, locate_rows)


class RegimeError(ValueError):
    """Parameters outside the operator regime, or a definitely
    non-transitive shift."""


# ---------------------------------------------------------------------------
# canonical sampling points


def canonical_point(w: Sequence[int], K: Kneading, total_len: int) -> Word:
    """Deterministic extension of w to ``total_len`` digits, appending the
    smallest admissible digit at each step.

    Tracks which suffixes of the growing word are tied with a kneading
    prefix; only those constrain the next digit.  Outside the univoque
    closure an admissible word can have an empty cylinder (no admissible
    continuation at all); the constraints then become contradictory and
    the longest-standing one is dropped, deterministically, so the sample
    point stays as close to the cell as possible.  Such cells carry
    vanishing Gibbs weight as the depth grows.
    """
    w = tuple(w)
    if total_len <= len(w):
        return w[:total_len] if total_len < len(w) else w
    # pinned suffix states: (is_upper, next kneading index); longest first
    pins: list[tuple[bool, int]] = []
    for start in range(len(w)):
        up_tied = lo_tied = True
        j = 0
        for j, d in enumerate(w[start:], start=1):
            u = K.upper_digit(j)
            if u is None:
                raise UndecidedError("kneading too shallow for canonical point")
            if d != u:
                up_tied = False
            if d != K.m - u:
                lo_tied = False
            if not up_tied and not lo_tied:
                break
        if up_tied:
            pins.append((True, j + 1))
        if lo_tied:
            pins.append((False, j + 1))

    def pick(pins):
        for a in range(K.m + 1):
            u1 = K.upper_digit(1)
            if a > u1 or a < K.m - u1:
                continue
            for is_up, j in pins:
                u = K.upper_digit(j)
                if u is None:
                    raise UndecidedError("kneading too shallow for canonical point")
                bound = u if is_up else K.m - u
                if (is_up and a > bound) or (not is_up and a < bound):
                    break
            else:
                return a
        return None

    out = list(w)
    while len(out) < total_len:
        chosen = pick(pins)
        while chosen is None and pins:
            pins = pins[1:]   # drop the longest-standing constraint
            chosen = pick(pins)
        if chosen is None:
            raise RuntimeError(f"no extension of {tuple(out)} possible")
        nxt: list[tuple[bool, int]] = []
        for is_up, j in pins:
            u = K.upper_digit(j)
            bound = u if is_up else K.m - u
            if chosen == bound:
                nxt.append((is_up, j + 1))
        u1 = K.upper_digit(1)
        if chosen == u1:
            nxt.append((True, 2))
        if chosen == K.m - u1:
            nxt.append((False, 2))
        pins = nxt
        out.append(chosen)
    return tuple(out)


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
    gap_estimate: float | None
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


# ``TransferSystem.solve`` iterates in log scale above this t, where exp(t A)
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
    transitivity: TransitivityResult
    warnings: list[str] = field(default_factory=list)
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
        first = np.flatnonzero(np.diff(self.head, prepend=-1))
        return first, np.where(self.tail < 0, len(first), self.tail)

    @cached_property
    def _by_tail(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # for the log kernels: the sources sorted by group, ascending within
        # a group, and each group closed by a -inf pad so that none is empty
        first, tail = self._groups
        key = np.append(tail, np.arange(len(first) + 1))
        order = np.argsort(key, kind="stable")
        key = key[order]
        return order, np.flatnonzero(np.diff(key, prepend=-1)), key

    def dense(self, t_scale: float = 1.0) -> np.ndarray:
        """The operator at scale t as a dense (N, N) array, for small systems."""
        edge = self.tail[None, :] == self.head[:, None]
        return np.where(edge, np.exp(t_scale * self.a_vals)[None, :], 0.0)

    def solve(self, tol: float = 1e-14, max_iter: int = 20000,
              t_scale: float = 1.0) -> "TransferSystem":
        """The system with its Perron eigendata at scale ``t_scale``, by
        ``power_solve`` up to ``LOG_THRESHOLD`` and ``log_power_solve``
        above it or where |t| max|A| >= ``LINEAR_LIMIT``, on which exp(tA)
        overflows or underflows.  A solved system warm-starts from its own
        eigendata."""
        a_max = float(np.max(np.abs(self.a_vals), initial=0.0))
        linear = t_scale <= LOG_THRESHOLD and abs(t_scale) * a_max < LINEAR_LIMIT
        solve = power_solve if linear else log_power_solve
        solved = replace(self, eigen=solve(self, tol=tol, max_iter=max_iter,
                                           t_scale=t_scale, start=self.eigen))
        for key in ("_edges", "_groups", "_by_tail"):
            if key in vars(self):   # same graph: keep its cached index arrays
                vars(solved)[key] = vars(self)[key]
        return solved


def build_system(p: Params, K: Kneading, A: PotentialSpec, n: int,
                 require_regime: bool = True) -> TransferSystem:
    """Build the depth-n discretization of the transfer operator.

    The build runs as numpy passes over the (N, n) uint8 digit matrix of
    the sorted basis (``CylinderBasis.digits``), with no per-word Python
    loop: canonical sample points are computed once per kneading-pin
    state and gathered, the potential is evaluated on the whole point
    matrix (``PotentialSpec.values``), and the edges come from one sorted
    search of the words' (n-1)-suffixes among their (n-1)-prefixes (see
    ``_word_graph``).  No word tuple and no edge list is built.

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
        if the kneading truncation cannot decide admissibility at depth n.
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

    basis = enumerate_words(p, K, n)
    if len(basis) == 0:
        raise ValueError("empty cylinder basis")

    need = A.needed_digits
    if not K.exact and need > K.depth:
        raise UndecidedError(
            f"potential reads {need} digits but the kneading sequence is "
            f"only known to depth {K.depth}; sample points beyond it cannot "
            "be certified")
    points = basis.digits if need <= n else _canonical_points(basis, K, need)
    a_vals = A.values(points)

    head, tail = _word_graph(basis.digits)
    return TransferSystem(p, K, A, basis, a_vals, head, tail, trans, warnings)


def _canonical_points(basis: CylinderBasis, K: Kneading, total_len: int) -> np.ndarray:
    """``canonical_point`` of every basis word, as an (N, total_len) uint8
    matrix.

    The appended digits depend only on which suffixes of the word are
    tied with a kneading prefix or its reflection (its pins).  The longest
    suffix tied with each fixes the word's last digits and so all of its
    pins, so ``canonical_point`` runs once per distinct pair of those
    lengths and the tails are gathered.
    """
    D = basis.digits
    N, n = D.shape
    up = np.array(K.upper_prefix(n), dtype=np.uint8)
    lo = np.array(K.lower_prefix(n), dtype=np.uint8)
    longest_up = np.zeros(N, dtype=np.int64)
    longest_lo = np.zeros(N, dtype=np.int64)
    for k in range(1, n + 1):
        suffix = D[:, n - k:]
        longest_up[np.all(suffix == up[:k], axis=1)] = k
        longest_lo[np.all(suffix == lo[:k], axis=1)] = k
    _, first, inverse = np.unique(longest_up * (n + 1) + longest_lo,
                                  return_index=True, return_inverse=True)
    tails = np.array([canonical_point(basis.word(i), K, total_len)[n:] for i in first],
                     dtype=np.uint8)
    return np.concatenate([D, tails[inverse]], axis=1)


def _word_graph(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(head, tail) of the word graph on the lex-sorted (N, n) digit matrix D.

    Target t has source s when s = a t[:-1] for a digit a, i.e. when
    s[1:] == t[:-1].  Both sides are ranked among the distinct (n-1)-digit
    prefixes of D: ``head[t]`` (nondecreasing, as D is sorted) and
    ``tail[s]`` (-1 when s[1:] starts no word), found by one sorted search.
    """
    new = np.ones(len(D), dtype=bool)
    new[1:] = np.any(D[1:, :-1] != D[:-1, :-1], axis=1)
    head = np.cumsum(new) - 1
    return head, locate_rows(D[new, :-1], D[:, 1:])


def _in_degree(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Number of sources of every word of the graph ``(head, tail)``: the
    words s with tail[s] == head[t], i.e. the digits a with a t[:-1] a
    word, the word's preimage count at this depth."""
    return np.bincount(tail[tail >= 0], minlength=len(head))[head]


class _Operator:
    """L at one scale t and its transpose, in linear and in log scale.

    With e = exp(t A), (L v)[t] is the sum of e[s] v[s] over the sources s
    with tail[s] == head[t]: one grouped sum over the N sources and a
    gather by head.  The transpose factors e[s] out, (L^T u)[s] = e[s] *
    (sum of u over the words of prefix group tail[s]): one grouped sum over
    the N targets and a gather by tail.  The log pair does the same with
    logsumexp.  The index arrays are derived once per graph and cached on
    the system (``TransferSystem._groups``, ``._by_tail``); an instance
    adds t A, and e on its first linear application.
    """

    def __init__(self, T: TransferSystem, t_scale: float):
        self.graph = T
        self.head = T.head
        self.first, self.tail = T._groups
        self.la = t_scale * T.a_vals

    @cached_property
    def e(self) -> np.ndarray:
        with np.errstate(over="ignore"):   # an overflow is an inf iterate
            return np.exp(self.la)

    def fwd(self, v: np.ndarray) -> np.ndarray:
        # bincount adds each group's sources in ascending order, as a
        # sequential row sum does
        return np.bincount(self.tail, self.e * v, minlength=len(self.first) + 1)[self.head]

    def bwd(self, u: np.ndarray) -> np.ndarray:
        return self.e * np.append(np.bincount(self.head, u), 0.0)[self.tail]

    def log_fwd(self, logv: np.ndarray) -> np.ndarray:
        order, first, key = self.graph._by_tail
        x = np.append(self.la + logv, np.full(len(self.first) + 1, -np.inf))
        return _lse_runs(x[order], first, key)[self.head]

    def log_bwd(self, logu: np.ndarray) -> np.ndarray:
        g = _lse_runs(logu, self.first, self.head)
        return self.la + np.append(g, -np.inf)[self.tail]


def _lse_runs(x: np.ndarray, first: np.ndarray, run: np.ndarray) -> np.ndarray:
    """logsumexp of each run of x starting at ``first`` (``run[i]`` is the
    run of x[i]); -inf for a run of -inf, without evaluating log(0) or
    -inf - -inf."""
    mx = np.maximum.reduceat(x, first)
    live = mx > -np.inf
    mx = np.where(live, mx, 0.0)
    s = np.add.reduceat(np.exp(x - mx[run]), first)
    return np.where(live, mx + np.log(np.where(live, s, 1.0)), -np.inf)


# ---------------------------------------------------------------------------
# solvers


def _eigen(log_lam, log_psi, log_rho, t_scale, iters, stops, resid, gap, tol,
           mode) -> EigenData:
    """Normalize and package the (forward, backward) halves.  Converged
    only when neither half ran into max_iter and the combined residual
    passes the 100*tol gate."""
    stop = "max_iter" if "max_iter" in stops else "tol"
    resid = float(resid)
    converged = stop == "tol" and resid < 100 * max(tol, 1e-15)
    log_rho = log_rho - _lse_vec(log_rho)
    log_psi = log_psi - _lse_vec(log_rho + log_psi)
    return EigenData(float(log_lam), log_psi, log_rho, t_scale, converged,
                     sum(iters), resid, gap, mode, *iters, stop)


def _lse_vec(v: np.ndarray) -> float:
    mx = np.max(v)
    if not np.isfinite(mx):
        return mx
    return mx + math.log(np.sum(np.exp(v - mx)))


def _warm_start(start: EigenData | None, t_scale: float):
    """Initial log iterates (forward, backward) from a solve at another
    scale: the ground state sharpens linearly in t on log scale, so the
    start's log_psi and log_rho are scaled by t_scale / start.t_scale and
    shifted to maximum 0.  (None, None), a cold start, without a usable
    start."""
    if start is None or not (start.t_scale > 0 and t_scale > 0):
        return None, None
    r = t_scale / start.t_scale
    return tuple(v - np.max(v) for v in (start.log_psi * r, start.log_rho * r))


def power_solve(T: TransferSystem, tol: float = 1e-14, max_iter: int = 20000,
                t_scale: float = 1.0, start: EigenData | None = None) -> EigenData:
    """Perron eigendata by sup-normalized power iteration.

    Runs the forward iteration for the eigenfunction and the transpose
    iteration for the eigenmeasure.  Each half stops once successive
    Rayleigh quotients agree to ``tol`` relative and the sup-normalized
    iterate moves by less than ``10 * tol``; converged means both halves
    stopped that way and the eigen-equation residual is below
    ``100 * tol``.  A half that runs into ``max_iter`` is never reported
    as converged; the best iterate is returned with ``converged=False``
    rather than raising.  ``start`` (eigendata at another scale)
    warm-starts both halves from its eigenvectors, see ``_warm_start``.

    Each half starts undamped, v -> L v, which contracts by |lam_2|/lam
    per step, and switches for good to the damped update
    v -> L v + max(lam, 0) v once the iterate change at step k exceeds
    2^-n times the change at step k - n, n = ``T.depth``.  Damping breaks
    the modulus tie of operators concentrating on a periodic orbit
    (lam_2 near -lam).  But L is singular (words with the same
    (n-1)-prefix have equal rows), so the damped map keeps the eigenvalue
    lam beside 2 lam and never contracts faster than 1/2 per step.  The
    window of n steps outlasts the transient of the zero eigenvalue,
    which can move the iterate by a constant amount for up to n steps.
    ``gap_estimate`` is 1 minus the last one-step contraction of the
    forward iteration actually run, damped or not.  ``log_power_solve``
    damps every step: its operators, above the log threshold,
    concentrate on periodic orbits, where undamped log iteration is
    slower or stalls (at (3, 3.5), depths 6 and 7: 111-112 iterations per
    half instead of 33-46 at t = 64, and max_iter at t = 512).
    """
    L = _Operator(T, t_scale)
    v0, u0 = (np.ones(T.n_words) if v is None else np.exp(v)
              for v in _warm_start(start, t_scale))
    lam_f, psi, it_f, res_f, gap, stop_f = _power_one(L.fwd, tol, max_iter, v0, T.depth)
    lam_b, rho, it_b, res_b, _, stop_b = _power_one(L.bwd, tol, max_iter, u0, T.depth)
    lam = 0.5 * (lam_f + lam_b)
    resid = max(res_f, res_b, abs(lam_f - lam_b) / max(lam, 1e-300))
    with np.errstate(divide="ignore"):
        log_psi = np.log(psi)
        log_rho = np.log(rho)
    return _eigen(math.log(lam), log_psi, log_rho, t_scale, (it_f, it_b),
                  (stop_f, stop_b), resid, gap, tol, "linear")


def _power_one(apply, tol: float, max_iter: int, v: np.ndarray, window: int):
    # Undamped (contraction |lam_2|/lam) until the change over the last
    # ``window`` steps, the depth, shrank by less than 2^-window; then
    # damped on M + lam*I for good.  That keeps the Perron vector and
    # breaks the modulus tie of near-antipodal eigenvalues, but M is
    # singular, so M + lam*I never contracts faster than 1/2 per step.  The
    # window outlasts the zero eigenvalue's transient of up to depth steps.
    # ``gap`` measures the iteration actually run.  The log-domain half
    # damps every step (see ``power_solve``).
    lam_prev = 0.0
    diffs: list[float] = []
    damped = False
    gap = None
    stop = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        w_raw = apply(v)
        if not np.all(np.isfinite(w_raw)):
            raise FloatingPointError("power iteration overflowed")
        lam = float(np.dot(v, w_raw) / np.dot(v, v))
        w = w_raw + max(lam, 0.0) * v if damped else w_raw
        top = w.max()
        if top <= 0 or not np.isfinite(top):
            raise FloatingPointError("power iteration left the positive cone")
        w = w / top
        diff = float(np.max(np.abs(w - v)))
        if diffs and diffs[-1] > 0 and diff > 0:
            gap = 1.0 - min(diff / diffs[-1], 1.0)
        v = w
        lam_ok = abs(lam - lam_prev) < tol * max(1.0, abs(lam))
        lam_prev = lam
        if lam_ok and diff < 10 * tol:
            stop = "tol"
            break
        diffs.append(diff)
        damped = damped or (it > window and diff > diffs[-1 - window] * 0.5 ** window)
    resid = float(np.max(np.abs(apply(v) - lam_prev * v)) / max(lam_prev, 1e-300))
    return lam_prev, v, it, resid, gap, stop


def log_power_solve(T: TransferSystem, t_scale: float = 1.0, tol: float = 1e-14,
                    max_iter: int = 20000,
                    start: EigenData | None = None) -> EigenData:
    """Power iteration in log scale; required once exp(t A) overflows.

    Each half stops once successive log Rayleigh quotients agree to
    ``tol * max(1, |log lambda|)`` and the iterate, on the components
    within e^60 of its maximum, moves by less than ``100 * tol``.  Both
    tests must pass: the windowed change alone can settle before mass
    outside the window has grown in.  Converged and ``max_iter`` are as
    in ``power_solve``, and so is the warm start from ``start``.
    """
    L = _Operator(T, t_scale)
    v0, u0 = _warm_start(start, t_scale)
    log_lam_f, log_psi, it_f, res_f, gap, stop_f = _log_power_one(
        L.log_fwd, T.n_words, tol, max_iter, v0)
    log_lam_b, log_rho, it_b, res_b, _, stop_b = _log_power_one(
        L.log_bwd, T.n_words, tol, max_iter, u0)
    log_lam = 0.5 * (log_lam_f + log_lam_b)
    resid = max(res_f, res_b, abs(log_lam_f - log_lam_b))
    return _eigen(log_lam, log_psi, log_rho, t_scale, (it_f, it_b),
                  (stop_f, stop_b), resid, gap, tol, "log")


_LOG_WINDOW = 60.0   # components below max - window carry < e^-60 relative mass


def _log_power_one(apply_log, n: int, tol: float, max_iter: int,
                   logv0: np.ndarray | None = None):
    # The iterate change is judged on the mass-carrying window only:
    # components far below the maximum keep drifting by a constant
    # log-amount per iteration (they decay at their own rate) and never
    # settle, while contributing nothing to the eigendata.
    logv = np.zeros(n) if logv0 is None else logv0
    lam_prev = None
    diff_prev = None
    gap = None
    stop = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        logw_raw = apply_log(logv)
        # Rayleigh quotient in log scale
        log_lam = _lse_vec(logv + logw_raw) - _lse_vec(2.0 * logv)
        # damped update log(exp(Lv) + lam v): same Perron vector, breaks
        # the modulus tie of asymptotically periodic operators
        logw = np.logaddexp(logw_raw, log_lam + logv)
        logw = logw - np.max(logw)
        window = logw > -_LOG_WINDOW
        diff = float(np.max(np.abs(logw[window] - logv[window])))
        if diff_prev is not None and diff_prev > 0 and diff > 0:
            gap = 1.0 - min(diff / diff_prev, 1.0)
        logv = logw
        lam_ok = (lam_prev is not None
                  and abs(log_lam - lam_prev) < tol * max(1.0, abs(log_lam)))
        lam_prev = log_lam
        if lam_ok and diff < 100 * tol:
            stop = "tol"
            break
        diff_prev = diff
    logw = apply_log(logv)
    top = np.max(logv)
    window = logv > top - _LOG_WINDOW
    # eigen-equation violation weighted by relative component mass
    resid = float(np.max(np.abs(logw[window] - lam_prev - logv[window])
                         * np.exp(logv[window] - top)))
    return lam_prev, logv, it, resid, gap, stop


@dataclass(frozen=True)
class LkResult:
    lam: float
    psi: np.ndarray
    history: tuple[tuple[float, float], ...]  # (k, lambda_k)
    min_margin: float   # min over steps of lambda_k - exp(-sup|A|)
    converged: bool


# the perturbations 1/k of ``lk_solve``, decreasing
LK_SCHEDULE = tuple(2.0 ** j for j in range(0, 36, 2))


def lk_solve(T: TransferSystem, inner_tol: float = 1e-14) -> LkResult:
    """Alternate Perron solver (at scale t = 1) through the perturbed
    normalized maps psi -> L(psi + 1/k) / ||L(psi + 1/k)||_inf.

    Each map, k along ``LK_SCHEDULE``, is iterated towards its fixed
    point psi_k (warm-started, at most 10000 steps), with lambda_k =
    ||L(psi_k + 1/k)||_inf; lambda_k converges to the Perron eigenvalue
    as k grows and always exceeds exp(-sup|A|).  Only the last map is
    iterated to ``inner_tol``: psi_k is O(1/k) from the Perron vector
    anyway, so an earlier step stops once the iterate moves by less than
    max(inner_tol, 1e-2 / k) and hands its iterate on as the next warm
    start.
    """
    L = _Operator(T, 1.0)
    floor = math.exp(-T.potential.sup_norm_bound(T.params.m))
    psi = np.full(T.n_words, 1.0)
    history = []
    min_margin = math.inf
    converged = True
    lam_k = 0.0
    for k in LK_SCHEDULE:
        step_tol = inner_tol if k == LK_SCHEDULE[-1] else max(inner_tol, 1e-2 / k)
        ok = False
        for _ in range(10000):
            w = L.fwd(psi + 1.0 / k)
            lam_k = float(w.max())
            w /= lam_k
            change = float(np.max(np.abs(w - psi)))
            psi = w
            if change < step_tol:
                ok = True
                break
        converged = converged and ok
        history.append((float(k), lam_k))
        min_margin = min(min_margin, lam_k - floor)
    return LkResult(lam_k, psi, tuple(history), min_margin, converged)


# ---------------------------------------------------------------------------
# normalization


@dataclass(frozen=True)
class NormalizedSystem:
    """Normalized operator data of a solved system, as length-N arrays.

    Mbar[t,s] = exp(t A(s)) psi(s) / (psi(t) lambda) on every edge makes
    L_bar 1 = 1 (row sums equal 1 on the support of the Gibbs weights).
    Words with the same (n-1)-prefix share their sources, so Mbar's row
    sums and the two marginals of the transition weights J[t,s] =
    mu(t) Mbar[t,s], summed over the supported sources s, are grouped sums
    over the N words: ``log_j_out[t]`` sums row t of J and ``log_j_in[s]``
    column s.  Both equal log mu on the support up to rounding.  No field
    is per edge; ``dense`` builds Mbar for small systems.
    """

    system: TransferSystem
    row_sum_residual: float
    support: np.ndarray  # bool mask of words carrying Gibbs mass
    log_j_out: np.ndarray
    log_j_in: np.ndarray

    def dense(self) -> np.ndarray:
        """Mbar as a dense (N, N) array, for small systems."""
        T = self.system
        eig = T.eigen
        log_mbar = ((eig.t_scale * T.a_vals + eig.log_psi)[None, :]
                    - eig.log_psi[:, None] - eig.log_lam)
        return np.exp(log_mbar, out=np.zeros_like(log_mbar),
                      where=T.tail[None, :] == T.head[:, None])


def normalize_potential(T: TransferSystem) -> NormalizedSystem:
    """Rescale the operator by its Perron data.  Requires a solved system.

    Only supported sources enter: unconverged, deeply decayed components
    hold no reliable eigenvector ratios and no mass.  With log psi set to
    -inf off the support, row t of Mbar sums to exp(log_fwd(log psi)[t] -
    log psi(t) - log lambda), and J's marginals are log_j_out = log rho -
    log lambda + log_fwd(log psi) and log_j_in = log_bwd(log rho) + log
    psi - log lambda, on one operator at the solve's scale.
    """
    eig = T.eigen
    if eig is None:
        raise ValueError("system is not solved; run TransferSystem.solve first")
    L = _Operator(T, eig.t_scale)
    log_mu = eig.log_psi + eig.log_rho
    support = log_mu > (np.max(log_mu) - 600.0)
    log_psi = np.where(support, eig.log_psi, -np.inf)
    into = L.log_fwd(log_psi) - eig.log_lam     # log (lambda^-1 L psi)
    sums = np.exp(into[support] - eig.log_psi[support])
    resid = float(np.max(np.abs(sums - 1.0))) if support.any() else math.inf
    log_j_in = L.log_bwd(eig.log_rho)
    log_j_in += log_psi - eig.log_lam
    return NormalizedSystem(T, resid, support, eig.log_rho + into, log_j_in)


# ---------------------------------------------------------------------------
# iteration


def iterate(T: TransferSystem, phi: np.ndarray, n: int, t_scale: float = 1.0,
            log_mode: bool = False) -> np.ndarray:
    """Apply the operator n times to phi.

    In linear mode overflow is signalled (FloatingPointError); log mode
    takes and returns log phi and is safe for strongly scaled potentials.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    L = _Operator(T, t_scale)
    step = L.log_fwd if log_mode else L.fwd
    out = np.asarray(phi, dtype=float).copy()
    for _ in range(n):
        with np.errstate(over="ignore"):
            out = step(out)
        if not log_mode and not np.all(np.isfinite(out)):
            raise FloatingPointError("overflow in linear mode; use log_mode")
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
