import dataclasses
import hashlib
import itertools
import math
import warnings
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from symbeta.expansion import Params
from symbeta.potentials import PotentialSpec, parse_potential
from symbeta import operator
from symbeta.operator import (LK_K, RegimeError, _Operator, build_system,
                              dense_spectrum, iterate, lk_solve, log_power_solve,
                              normalize_potential, power_solve)
from symbeta.reporting import LK_BIAS_C
from symbeta.shift import (UndecidedError, build_kneading, canonical_point,
                           enumerate_words, is_admissible, preimage_digits)
from symbeta.thermo import gibbs_measure


def system(m, b, A=None, n=3, **kw):
    p = Params.make(m, b)
    K = build_kneading(p, 64)
    return build_system(p, K, A or PotentialSpec.zero(), n, **kw)


# ---------------------------------------------------------------------------
# construction


def test_full_shift_depth1_all_ones():
    T = system(3, 4, n=1)
    assert np.array_equal(T.dense(), np.ones((4, 4)))


def test_digit_table_depth1_eigenvalue():
    c = [0.2, -0.1, 0.4, 0.0]
    T = system(3, 4, PotentialSpec.digit_table(c), n=1).solve()
    assert T.eigen.lam == pytest.approx(sum(math.exp(v) for v in c), abs=1e-12)
    assert np.allclose(T.eigen.psi, T.eigen.psi[0])


def test_row_sums_equal_preimage_counts():
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    T = build_system(p, K, PotentialSpec.zero(), 3)
    sums = T.dense().sum(axis=1)
    counts = [len(preimage_digits(w, p, K)) for w in T.basis.words]
    assert np.array_equal(sums, counts)


def test_solve_returns_a_new_frozen_system():
    T = system(3, 4, n=3)
    T2 = T.solve()
    assert T.eigen is None and T2.eigen is not None
    with pytest.raises(dataclasses.FrozenInstanceError):
        T.eigen = T2.eigen
    assert T.rows is T.rows and T.cols is T.cols
    assert T.solve().rows is T.rows


def test_regime_refusals():
    with pytest.raises(RegimeError):
        system(2, "beta_T", n=2)          # m = 2 outside the regime
    with pytest.raises(RegimeError):
        system(3, "3.4", n=2)             # beta below m/2 + 2
    with pytest.raises(RegimeError):
        system(1, "golden", n=2, require_regime=False)  # not transitive


def test_canonical_points():
    K = build_kneading(Params.make(3, 4), 64)
    assert canonical_point((3, 1), K, 8) == (3, 1, 0, 0, 0, 0, 0, 0)
    K2 = build_kneading(Params.make(2, "beta_T"), 64)
    assert canonical_point((0,), K2, 6) == (0, 1, 1, 1, 1, 1)
    # inside the univoque closure every extension stays admissible
    p = Params.make(4, "beta_T")
    K4 = build_kneading(p, 64)
    for w in enumerate_words(p, K4, 4).words[::5]:
        ext = canonical_point(w, K4, 12)
        assert ext[:4] == w
        assert is_admissible(ext, K4)


def test_canonical_point_empty_cylinder_fallback():
    # at (3, 3.5) the kneading prefix 3122 has an empty cylinder: no
    # admissible infinite continuation exists.  The sampler must still
    # produce a deterministic extension (dropping the oldest constraint);
    # the first n digits are always the word itself, which is what bounds
    # the quadrature error.
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    assert is_admissible((3, 1, 2, 2), K)
    ext = canonical_point((3, 1, 2, 2), K, 10)
    assert ext[:4] == (3, 1, 2, 2)
    assert ext == canonical_point((3, 1, 2, 2), K, 10)   # deterministic
    # the forced digits before the dead end follow the kneading tail
    assert ext[4:7] == (0, 2, 1)
    # extensions preserve the word and are reproducible for every basis word
    for w in enumerate_words(p, K, 4).words[::9]:
        e = canonical_point(w, K, 12)
        assert e[:4] == w and e == canonical_point(w, K, 12)


def test_canonical_point_sweep_is_pinned():
    # every value, or exception type and message, of a sweep over m = 1..6,
    # beta = 1.1, 1.6, ... <= m + 1 (many below the generalized golden
    # ratio, where no digit extends anything), truncated and exact kneading,
    # and the first 1300 words of each length 1..4, admissible or not
    lines = []
    for m in range(1, 7):
        b = Fraction(11, 10)
        while b <= m + 1:
            p = Params.make(m, b)
            for depth in (7, 64):
                K = build_kneading(p, depth)
                for length in range(1, 5):
                    for w in itertools.islice(itertools.product(range(m + 1), repeat=length),
                                              1300):
                        try:
                            lines.append(repr(canonical_point(w, K, 12)))
                        except RuntimeError as e:
                            lines.append(f"{type(e).__name__}: {e}")
            b += Fraction(1, 2)
    assert len(lines) == 89496
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "97a214482441d1c6cbe97ea1fa01d0923191b5186bd75f4c2967bfb3f3873c83")


def test_canonical_point_errors():
    # a pin that needs a kneading digit beyond the known depth is undecided
    K = build_kneading(Params.make(3, "3.5"), 4)
    assert not K.exact
    for w in [K.upper_prefix(4), K.lower_prefix(4), K.upper_prefix(4) + (0,)]:
        with pytest.raises(UndecidedError, match="too shallow for canonical point"):
            canonical_point(w, K, 6)
    # below the generalized golden ratio no first digit is admissible at
    # all (m - u(1) > u(1)); that is reported first, even where a pin also
    # needs a digit beyond the depth
    K = build_kneading(Params.make(3, "1.1"), 4)
    assert not K.exact and K.upper_digit(1) == 1
    with pytest.raises(RuntimeError, match=r"no extension of \(1, 0, 0, 0\) possible") as err:
        canonical_point(K.upper_prefix(4), K, 6)
    assert type(err.value) is RuntimeError


@pytest.mark.parametrize("m,b", [(2, "beta_T"), (3, "beta_T"), (4, "beta_T"), (5, "beta_T"),
                                 (6, "beta_T"), (3, 4), (4, 5), (4, "4.7"), (5, "5.5"),
                                 (3, "3.7")])
def test_canonical_point_is_the_least_admissible_extension(m, b):
    # on shifts where every admissible word extends, the sample point of w
    # is the lex-least admissible length-9 word starting with w: the first
    # row of the sorted length-9 basis whose 4-prefix is w
    p = Params.make(m, b)
    K = build_kneading(p, 64)
    D = enumerate_words(p, K, 9).digits
    W = enumerate_words(p, K, 4).digits
    rows = list(map(tuple, D.tolist()))
    first = [bisect_left(rows, tuple(w)) for w in W.tolist()]
    assert np.array_equal(D[first, :4], W)
    want = [tuple(row) for row in D[first].tolist()]
    assert [canonical_point(tuple(w), K, 9) for w in W.tolist()] == want


# ---------------------------------------------------------------------------
# solvers


def test_power_solve_full_shift():
    T = system(3, 4, n=3).solve()
    assert T.eigen.lam == pytest.approx(4.0, abs=1e-12)
    assert T.eigen.converged
    assert T.eigen.rho.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.dot(T.eigen.rho, T.eigen.psi) == pytest.approx(1.0, abs=1e-12)


def test_power_matches_dense_oracle():
    c = [0.2, -0.3, 0.1, 0.0]
    for m, b, n in [(3, 4, 2), (3, "3.5", 4)]:
        T = system(m, b, PotentialSpec.digit_table(c), n=n).solve(tol=1e-15)
        vals, right, left = dense_spectrum(T)
        assert T.eigen.lam == pytest.approx(abs(vals[0]), abs=1e-10)
        # simplicity of the top eigenvalue
        assert abs(vals[0]) - abs(vals[1]) > 1e-6
        right = right / np.dot(left / left.sum(), right)
        assert np.max(np.abs(T.eigen.psi - right)) < 1e-10
        left = left / left.sum()
        assert np.max(np.abs(T.eigen.rho - left)) < 1e-10


def test_linear_and_log_solvers_agree():
    A = PotentialSpec.digit_table([0.5, 0.0, -0.4, 0.2])
    T = system(3, "3.5", A, n=4)
    lin = power_solve(T, t_scale=2.0)
    log = log_power_solve(T, t_scale=2.0)
    assert lin.log_lam == pytest.approx(log.log_lam, abs=1e-12)
    assert np.max(np.abs(lin.log_psi - log.log_psi)) < 1e-10
    assert np.max(np.abs(lin.log_rho - log.log_rho)) < 1e-10


def test_max_iter_is_never_converged():
    T = system(3, "3.5", PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05]), n=4)
    for eig in (power_solve(T, max_iter=3), log_power_solve(T, max_iter=3)):
        assert not eig.converged
        assert eig.stop_reason == "max_iter"
        assert (eig.iterations_fwd, eig.iterations_bwd) == (3, 3)
        assert eig.iterations == 6


def _stops(eig):
    return eig.iterations_fwd, eig.iterations_bwd, eig.stop_reason


def test_stop_rule_is_pinned():
    # step counts and stop reasons of both solves, cold, along a zerotemp
    # continuation (the backward half warm-started; the gauged solve from
    # t = 64) and cut at max_iter
    T = system(3, "3.5", PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05]), n=5)
    assert _stops(power_solve(T)) == (31, 33, "tol")
    assert _stops(log_power_solve(T, t_scale=64.0)) == (29, 38, "tol")
    assert _stops(power_solve(T, max_iter=3)) == (3, 3, "max_iter")
    assert _stops(log_power_solve(T, max_iter=3)) == (3, 3, "max_iter")
    chain = [(31, 33, "tol"), (31, 32, "tol"), (32, 31, "tol"), (30, 28, "tol"),
             (36, 32, "tol"), (34, 30, "tol"), (29, 30, "tol"), (19, 19, "tol"),
             (12, 11, "tol")]
    for t, stops in zip((1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0), chain):
        T = T.solve(t_scale=t)
        assert _stops(T.eigen) == stops, t


def test_each_half_compares_two_quotients():
    # lambda ~ 2e-15 < tol: a first quotient compared with a start value
    # of 0 would pass the quotient test before two quotients exist
    T = system(3, 4, PotentialSpec.digit_table([-35.0, -35.0, -35.0, -36.0]), n=3)
    for eig in (power_solve(T), log_power_solve(T)):
        assert eig.lam < 1e-14
        assert eig.converged and eig.stop_reason == "tol"
        assert min(eig.iterations_fwd, eig.iterations_bwd) >= 2


def test_verdict_fields_are_python_scalars():
    T = system(3, "3.5", PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05]), n=4)
    for t in (1.0, 256.0):
        for eig in (power_solve(T, t_scale=t, max_iter=3), log_power_solve(T, t_scale=t),
                    T.solve(t_scale=t).eigen):
            assert type(eig.converged) is bool and type(eig.residual) is float
            assert type(eig.log_lam) is float


def test_cold_log_solve_at_large_scale_stops_on_tol():
    # log(lambda) ~ 89.6 here: an absolute stop test on log(lambda) could
    # never pass and ran into max_iter
    A = PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05])
    T = system(3, "3.5", A, n=7)
    eig = log_power_solve(T, t_scale=512.0)
    assert eig.converged and eig.stop_reason == "tol"
    assert eig.iterations < 1000
    assert eig.iterations == eig.iterations_fwd + eig.iterations_bwd
    assert eig.log_lam == pytest.approx(89.6, abs=1e-3)


def test_warm_start_matches_cold_solve():
    A = PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05])
    T = system(3, "3.5", A, n=6)
    lin = power_solve(T, t_scale=32.0)
    for start in (lin, log_power_solve(T, t_scale=128.0, start=lin)):
        cold = log_power_solve(T, t_scale=256.0)
        warm = log_power_solve(T, t_scale=256.0, start=start)
        assert warm.converged
        assert warm.log_lam == pytest.approx(cold.log_lam, abs=1e-11)
        mass = np.exp(cold.log_psi + cold.log_rho) > 1e-12
        assert np.max(np.abs(warm.log_psi - cold.log_psi)[mass]) < 1e-9
    warm = power_solve(T, t_scale=2.0, start=power_solve(T))
    cold = power_solve(T, t_scale=2.0)
    assert warm.converged
    assert warm.log_lam == pytest.approx(cold.log_lam, abs=1e-13)
    assert np.max(np.abs(warm.psi - cold.psi)) < 1e-11


@pytest.mark.parametrize("t, mode", [(1.0, "linear"), (32.0, "linear"), (64.0, "log")])
def test_solve_runs_in_log_scale_above_32(t, mode):
    T = system(3, "3.5", PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05]), n=4)
    assert T.solve(t_scale=t).eigen.mode == mode


@pytest.mark.parametrize("t, mode, log_lam", [
    (19.0, "linear", 570.0), (20.0, "log", 600.0), (-20.0, "log", math.log(3))])
def test_solve_runs_in_log_scale_where_tA_reaches_600(t, mode, log_lam):
    # max|A| = 30: at |t| = 20, below t = 32, exp(tA) reaches e^600
    T = system(3, 4, PotentialSpec.digit_table([30.0, 0.0, 0.0, 0.0]), n=3)
    eig = T.solve(t_scale=t).eigen
    assert (eig.mode, eig.converged) == (mode, True)
    assert eig.log_lam == pytest.approx(log_lam, abs=1e-9)


def test_solving_a_solved_system_continues_from_its_eigendata():
    T = system(3, "3.5", PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05]), n=5).solve()
    warm = T.solve(t_scale=64.0).eigen
    ref = log_power_solve(T, t_scale=64.0, start=T.eigen)
    for f in dataclasses.fields(ref):
        assert np.array_equal(getattr(warm, f.name), getattr(ref, f.name)), f.name
    assert warm.converged
    assert warm.iterations < log_power_solve(T, t_scale=64.0).iterations


def test_log_solve_without_predecessors_emits_no_warning():
    # at depth 9 some words have no successor: their rows of the transposed
    # (eigenmeasure) iteration are all padding
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    T = build_system(p, K, parse_potential("geometric:c=1,theta=0.25,kmax=12"), 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = log_power_solve(T, t_scale=64.0)
    assert eig.stop_reason == "tol"
    assert np.isfinite(eig.log_lam)


@pytest.mark.parametrize("m, n", [(3, 3), (3, 7), (4, 5)])
def test_full_shift_solve_never_damps(m, n):
    # on a full shift L^n has rank one, so the undamped iteration is exact
    # after n steps; a switch to damping could first act at step n + 2
    A = PotentialSpec.digit_table([0.2, -0.3, 0.1, 0.0, 0.25][:m + 1])
    eig = power_solve(system(m, m + 1, A, n=n))
    assert eig.converged and eig.stop_reason == "tol"
    assert max(eig.iterations_fwd, eig.iterations_bwd) <= n + 1


@pytest.mark.parametrize("t", [8.0, 32.0])
@pytest.mark.parametrize("b, n", [(4, 4), ("3.5", 6)])
def test_nearly_periodic_solve_switches_to_damping(b, n, t):
    # A concentrates on the 2-cycle 0303...: L has an eigenvalue next to
    # -lambda, and undamped iteration from a generic start never settles
    A = PotentialSpec.block_table(2, {w: float(w in ((0, 3), (3, 0)))
                                      for w in itertools.product(range(4), repeat=2)})
    T = system(3, b, A, n=n)
    vals = dense_spectrum(T, t)[0]
    assert vals[1].real < -0.999 * abs(vals[0])
    rng = np.random.default_rng(0)
    start = dataclasses.replace(power_solve(T, max_iter=1, t_scale=t),
                                log_psi=np.log(rng.uniform(0.01, 1.0, T.n_words)),
                                log_rho=np.log(rng.uniform(0.01, 1.0, T.n_words)))
    eig = power_solve(T, max_iter=5000, t_scale=t, start=start)
    assert eig.converged and eig.stop_reason == "tol"
    assert eig.lam == pytest.approx(abs(vals[0]), rel=1e-12)


def test_lk_solver_agrees_with_power():
    A = PotentialSpec.digit_table([0.2, 0.05, -0.1, 0.0])
    T = system(3, "3.5", A, n=3).solve(tol=1e-15)
    res = lk_solve(T)
    assert res.converged
    assert abs(res.lam - T.eigen.lam) < 1e-8
    assert res.min_margin > 0


def test_lk_full_shift_constant_eigenfunction():
    T = system(3, 4, n=2)
    res = lk_solve(T)
    assert res.lam == pytest.approx(4.0, abs=1e-8)
    assert np.allclose(res.psi, res.psi[0], atol=1e-10)


# the paper's construction: perturbations 1/k decreasing to lk_solve's 1/LK_K
LK_SCHEDULE = tuple(2.0 ** j for j in range(0, 36, 2))


def lk_reference(T, tol=1e-14):
    """(k, lambda_k, psi_k) along ``LK_SCHEDULE``: the fixed point of each
    map psi -> L(psi + 1/k) / ||L(psi + 1/k)||_inf, by an undamped loop
    over all N words, warm-started from the one before."""
    L = _Operator(T, 1.0)
    psi = np.ones(T.n_words)
    out = []
    for k in LK_SCHEDULE:
        for _ in range(10000):
            w = L.fwd(psi + 1.0 / k)
            lam_k = float(w.max())
            w /= lam_k
            change = float(np.max(np.abs(w - psi)))
            psi = w
            if change < tol:
                break
        else:
            raise AssertionError(f"no fixed point at k = {k}")
        out.append((k, lam_k, psi))
    return out


def lk_bias_miss(T, k, lam_k, psi_k):
    """Relative distance of lambda_k from its exact value lambda (1 + <rho, 1>
    / (k <rho, psi_k>)), from L(psi_k + 1/k) = lambda_k psi_k paired with
    rho L = lambda rho; sum(rho) = 1."""
    lam = T.eigen.lam
    return abs(lam_k - lam * (1.0 + 1.0 / (k * float(T.eigen.rho @ psi_k)))) / lam_k


@pytest.mark.parametrize("m, b, n, pot", [
    (3, "3.5", 6, "geometric:c=1,theta=0.25,kmax=12"),
    (3, "3.5", 6, "digit_table:0.3,0,0.1,0.05"),
    (4, 5, 5, "geometric:c=-0.8,theta=0.3,kmax=8"),
    (4, 5, 5, "digit_table:0.3,0,0.1,0.05,0.2"),
])
def test_lk_meets_its_exact_bias_along_the_schedule(m, b, n, pot):
    tol = 1e-14
    T = system(m, b, parse_potential(pot), n=n).solve(tol=tol)
    res = lk_solve(T, tol=tol)
    assert res.converged
    assert lk_bias_miss(T, LK_K, res.lam, res.psi) <= LK_BIAS_C * tol
    floor = math.exp(-T.potential.sup_norm_bound(m))
    schedule = lk_reference(T, tol)
    for k, lam_k, psi_k in schedule:
        assert lk_bias_miss(T, k, lam_k, psi_k) <= LK_BIAS_C * tol, k
        assert lam_k > floor, k
    # the schedule ends at lk_solve's one map, on the same fixed point
    k, lam_k, psi_k = schedule[-1]
    assert k == LK_K
    assert lam_k == pytest.approx(res.lam, rel=LK_BIAS_C * tol)
    assert np.max(np.abs(psi_k - res.psi)) < 1e-12


# ---------------------------------------------------------------------------
# normalization


def test_normalize_row_sums():
    A = PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05])
    T = system(3, "3.5", A, n=5).solve(tol=1e-15)
    nrm = normalize_potential(T)
    assert nrm.row_sum_residual < 1e-10
    # full shift A=0: Mbar = M / (m + 1)
    T0 = system(3, 4, n=2).solve()
    nrm0 = normalize_potential(T0)
    assert np.allclose(nrm0.dense(), T0.dense() / 4.0, atol=1e-12)


def test_normalize_idempotent():
    A = PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05])
    T = system(3, "3.5", A, n=4).solve(tol=1e-15)
    nrm = normalize_potential(T)
    M = nrm.dense()
    # the normalized operator has Perron eigenvalue 1 and eigenfunction 1,
    # so normalizing again changes nothing
    v = np.ones(T.n_words)
    for _ in range(50):
        v = M @ v
    assert np.max(np.abs(v - 1.0)) < 1e-10


def test_unsolved_normalize_raises():
    T = system(3, 4, n=2)
    with pytest.raises(ValueError):
        normalize_potential(T)


# ---------------------------------------------------------------------------
# iteration


def test_iterate_basics():
    T = system(3, 4, n=3)
    phi = np.arange(1.0, T.n_words + 1)
    assert np.array_equal(iterate(T, phi, 0), phi)
    out = iterate(T, np.ones(T.n_words), 5)
    assert np.allclose(out, 4.0 ** 5)


def test_iterate_overflow_signalled():
    A = PotentialSpec.digit_table([1.0, 0.0, 0.0, 0.0])
    T = system(3, 4, A, n=2)
    with pytest.raises(FloatingPointError):
        iterate(T, np.ones(T.n_words), 500, t_scale=100.0)


def test_uniform_limit_monotone():
    A = PotentialSpec.digit_table([0.2, 0.0, 0.1, -0.1])
    T = system(3, "3.5", A, n=4).solve(tol=1e-15)
    lam, psi = T.eigen.lam, T.eigen.psi
    v = np.ones(T.n_words)
    errs = []
    for _ in range(200):
        v = iterate(T, v, 1) / lam
        errs.append(float(np.max(np.abs(v - psi))))
    assert errs[-1] < 1e-8
    # monotone decay past a burn-in, until the rounding floor is reached
    tail = errs[20:]
    stop = next((i for i, e in enumerate(tail) if e < 1e-11), len(tail))
    tail = tail[:stop]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))


# ---------------------------------------------------------------------------
# structure


def test_reflection_covariance():
    # reflection-symmetric potential: spectrum and eigenfunction commute
    # with the reflection permutation of the basis
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    A = PotentialSpec.digit_table([0.2, 0.0, 0.0, 0.2])
    assert A.digit_values == A.digit_values[::-1]
    T = build_system(p, K, A, 5).solve(tol=1e-15)
    from symbeta.sequences import reflect_word
    perm = np.array([T.basis.index[reflect_word(w, 3)] for w in T.basis.words])
    Tm = T.dense()
    assert np.allclose(Tm[np.ix_(perm, perm)], Tm, atol=1e-14)
    psi = T.eigen.psi
    assert np.max(np.abs(psi[perm] - psi)) < 1e-9


POT = "digit_table:0.3,0,0.1,0.05"


def cut_system():
    # (3, 3.5) at depth 5 with the sources of one prefix group cut: the
    # words whose suffix was that group have no successor, and the group's
    # words have no source
    T = system(3, "3.5", parse_potential(POT), n=5)
    return dataclasses.replace(T, tail=np.where(T.tail == T.tail[0], -1, T.tail))


@pytest.mark.parametrize("m, b, n, pot, t", [
    (3, "3.5", 4, POT, 1.0), (3, "3.5", 4, POT, 32.0), (3, 4, 3, POT, 1.0),
    (3, 4, 3, POT, 32.0), (3, "3.5", 5, None, 1.0), (3, "3.5", 5, None, 8.0)])
def test_group_solve_matches_the_dense_spectrum(m, b, n, pot, t):
    # the golden spectrum, thermo and zerotemp systems, and the cut system;
    # psi and rho within 1e-10 of the dense eigenvectors
    T = system(m, b, parse_potential(pot), n=n) if pot else cut_system()
    first = np.flatnonzero(np.diff(T.head, prepend=-1))
    eig = power_solve(T, t_scale=t)
    vals, right, left = dense_spectrum(T, t)
    assert eig.converged and eig.stop_reason == "tol"
    assert eig.lam == pytest.approx(abs(vals[0]), rel=1e-13)
    left = left / left.sum()
    right = right / np.dot(left, right)
    assert np.max(np.abs(eig.psi - right)) < 1e-10 * np.max(right)
    assert np.max(np.abs(eig.rho - left)) < 1e-10 * np.max(left)
    # psi is one value per prefix group; rho is 0 exactly on dead ends
    assert np.array_equal(eig.log_psi, eig.log_psi[first][T.head])
    assert np.all(np.isneginf(eig.log_rho[T.tail < 0]))
    if pot is None:
        assert np.any(T.tail < 0) and np.any(np.isneginf(eig.log_psi))


def test_group_solve_carries_zeros_where_every_source_of_a_group_underflows():
    # called directly, below |t| max|A| = 600 nowhere: the sources of one
    # prefix group have A = -800, so e = exp(A) is 0 on all of them, and
    # the operator is that of the cut system
    T = system(3, "3.5", parse_potential(POT), n=5)
    dead = T.tail == T.tail[0]
    under = dataclasses.replace(T, a_vals=np.where(dead, -800.0, T.a_vals))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = power_solve(under)
    want = power_solve(cut_system())
    assert eig.converged and eig.stop_reason == "tol"
    assert eig.lam == pytest.approx(want.lam, rel=1e-14)
    assert np.all(np.isneginf(eig.log_rho[dead]))
    assert np.allclose(eig.psi, want.psi, rtol=1e-12, atol=0)
    assert np.allclose(eig.rho, want.rho, rtol=1e-12, atol=0)


def test_group_solve_keeps_the_forward_counts_of_the_word_solve():
    # the step counts of the iteration over all N words, along a zerotemp
    # chain: every forward half, cold from psi = 1, and every warm-started
    # backward half; the cold backward half starts from rho = f (the word
    # solve from rho = 1).  From t = 64 the counts are the gauged solve's
    # (``log_power_solve``).
    p = Params.make(3, "3.5")
    K = build_kneading(p, 64)
    word_solve = {
        6: [(32, 60), (33, 32), (33, 32), (36, 34), (36, 43), (34, 30), (28, 29),
            (16, 16), (13, 12), (11, 10)],
        7: [(32, 64), (32, 31), (32, 32), (36, 33), (36, 34), (35, 30), (28, 28),
            (17, 17), (14, 13), (12, 11)]}
    cold_bwd = {6: 55, 7: 62}
    for n, want in word_solve.items():
        T = build_system(p, K, parse_potential(POT), n)
        for k, t in enumerate((1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)):
            T = T.solve(t_scale=t)
            fwd, bwd = want[k]
            assert (T.eigen.iterations_fwd, T.eigen.iterations_bwd) == \
                (fwd, cold_bwd[n] if k == 0 else bwd), (n, t)


def test_forward_half_starts_cold(monkeypatch):
    # a start sets the backward half's start only: the forward half's
    # steps and iterate are those of the cold solve, at either gauge
    T = system(3, "3.5", parse_potential(POT), n=6)
    halves, power_one = [], operator._power_one

    def recorded(*args, **kw):
        halves.append(power_one(*args, **kw))
        return halves[-1]

    monkeypatch.setattr(operator, "_power_one", recorded)
    for solve, t, s in [(power_solve, 8.0, 4.0), (log_power_solve, 128.0, 64.0)]:
        start = solve(T, t_scale=s)
        halves.clear()
        warm, cold = solve(T, t_scale=t, start=start), solve(T, t_scale=t)
        assert len(halves) == 4
        assert warm.iterations_fwd == cold.iterations_fwd
        assert np.array_equal(halves[0][1], halves[2][1])
        assert warm.iterations_bwd != cold.iterations_bwd


# ---------------------------------------------------------------------------
# the power steps


def reference_power_one(apply, tol, max_iter, v, window, *, weight=1.0):
    """``operator._power_one`` as it was before its step worked in place:
    every step checks its iterate for an overflow in a separate pass and
    allocates its damped, normalized and change vectors."""
    def step(v, damped):
        w_raw = apply(v)
        if not np.all(np.isfinite(w_raw)):
            raise FloatingPointError("power iteration overflowed")
        vw = weight * v
        lam = float(np.add.reduce(vw * w_raw) / np.add.reduce(vw * v))
        w = w_raw + max(lam, 0.0) * v if damped else w_raw
        top = w.max()
        if top <= 0 or not np.isfinite(top):
            raise FloatingPointError("power iteration left the positive cone")
        w = w / top
        return lam, w, float(np.max(np.abs(w - v)))

    lam, v, it, stop = operator._iterate(step, v, tol, max_iter, window)
    resid = float(np.max(np.abs(apply(v) - lam * v)) / max(lam, 1e-300))
    return lam, v, it, resid, stop


def reference_log_power_one(L, v, tol, max_iter):
    """``operator._log_power_one`` as it was before its step worked in
    place, with a boolean-indexed copy of the live groups per step."""
    G = len(L.first)

    def step(v, damped):
        w = operator._group_max(L.tail, L.la + v[L.head], G + 1, -np.inf)[:-1]
        live = w > -np.inf
        d = w[live] - v[live]
        q = 0.5 * (float(np.min(d)) + float(np.max(d)))
        w = np.maximum(w, q + v)
        w -= np.max(w)
        return q, w, float(np.max(np.abs(w - v)))

    return operator._iterate(step, v, tol, max_iter, None)


def _bits(result):
    """A result tuple with every float and array as its bytes."""
    return [x if isinstance(x, (int, str)) else (np.asarray(x).dtype, np.asarray(x).tobytes())
            for x in result]


def test_power_steps_are_bitwise_those_of_the_reference(monkeypatch):
    # every half of every solve on the golden systems (both halves, both
    # gauges, the max-plus half of each gauge and the lk_solve map), run
    # by the step and by the reference from a copy of its start: the same
    # quotient, iterate, steps, residual and stop reason, bit for bit, and
    # the caller's start is left as it was
    power_one, log_power_one = operator._power_one, operator._log_power_one
    seen = {"linear": 0, "max-plus": 0}

    def checked(step, reference, kind, start_at):
        def run(*args, **kw):
            start = args[start_at].copy()
            got = step(*args, **kw)
            assert args[start_at].tobytes() == start.tobytes()
            want = reference(*args[:start_at], start, *args[start_at + 1:], **kw)
            assert _bits(got) == _bits(want)
            seen[kind] += 1
            return got
        return run

    monkeypatch.setattr(operator, "_power_one",
                        checked(power_one, reference_power_one, "linear", 3))
    monkeypatch.setattr(operator, "_log_power_one",
                        checked(log_power_one, reference_log_power_one, "max-plus", 1))
    chain = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)
    under = system(3, "3.5", parse_potential(POT), n=5)
    under = dataclasses.replace(under, a_vals=np.where(under.tail == under.tail[0], -800.0,
                                                       under.a_vals))
    cases = [(system(3, "3.5", parse_potential(POT), n=n), chain) for n in (4, 6, 7)]
    cases += [(system(3, 4, parse_potential(POT), n=3), chain),
              (system(4, 5, parse_potential("digit_table:0.3,0,0.1,0.05,0.2"), n=5), (1.0,)),
              (system(3, 4, PotentialSpec.digit_table([30.0, 0.0, 0.0, 0.0]), n=3),
               (19.0, 20.0, -20.0, -8.0)),
              (cut_system(), (1.0, 8.0, 64.0)), (under, (1.0,))]
    for T, ts in cases:
        for t in ts:
            T = T.solve(t_scale=t)
        lk_solve(T)
    # 49 solves and 8 lk_solve maps; 8 max-plus gauges (7 of sign 1)
    assert seen == {"linear": 2 * 49 + 8, "max-plus": 8}


@pytest.mark.parametrize("out, weight, window, message", [
    # an inf on a group of weight 0: 0 * inf makes the quotient nan
    ([1.0, np.inf], [1.0, 0.0], 3, "overflowed"),
    ([np.nan, 1.0], [1.0, 1.0], 3, "overflowed"),
    # a finite quotient whose damped step overflows
    ([1.5e308, 1e-300], [1.0, 1.0], None, "left the positive cone"),
])
def test_power_step_raises_on_overflow(out, weight, window, message):
    start = np.ones(2)
    with pytest.raises(FloatingPointError, match=message):
        operator._power_one(lambda v: np.array(out), 1e-14, 10, start, window,
                            weight=np.array(weight))
    assert np.array_equal(start, np.ones(2))


def test_linear_solve_past_the_linear_limit_raises():
    # exp(800) overflows: called directly, power_solve raises, and no numpy
    # warning leaks (the test suite turns warnings into errors)
    T = system(3, 4, PotentialSpec.digit_table([800.0, 0.0, 0.0, 0.0]), n=3)
    with pytest.raises(FloatingPointError, match="overflowed"):
        power_solve(T)
    assert T.solve().eigen.mode == "log"


# ---------------------------------------------------------------------------
# the gauged solve (log_power_solve)


GEO = "geometric:c=1,theta=0.25,kmax=12"


def gauged_potential(T):
    """The gauged potential A' = A + u[head] - u[tail] - b* from the cached
    gauge (u, b*) of A, 0 on the words without successor (they are sources
    of nothing)."""
    u, b_star, _ = T._gauge(1.0)
    succ = np.where(T.tail >= 0, T.tail, 0)
    return np.where(T.tail >= 0, T.a_vals + u[T.head] - u[succ] - b_star, 0.0)


def dense_perron(M):
    """Perron root and right and left Perron vectors (each summing to 1) of
    a dense nonnegative matrix: the eigenvalue of largest real part from
    ``eigvals``, then each vector from one bordered solve [[M - lam I, 1],
    [1^T, 0]] x = e_n, which is nonsingular for a simple root with a
    positive left and right vector.  At large t the critical cycle makes
    the gauged matrix nearly a permutation, with eigenvalues of almost the
    Perron root's modulus, so the root is not picked by modulus."""
    vals = np.linalg.eigvals(M)
    lam = float(vals[np.argmax(vals.real)].real)
    n = len(M)
    vecs = []
    for X in (M, M.T):
        B = np.ones((n + 1, n + 1))
        B[:n, :n] = X - lam * np.eye(n)
        B[n, n] = 0.0
        vecs.append(np.linalg.solve(B, np.eye(n + 1)[n])[:n])
    return lam, vecs[0], vecs[1]


def lumped(T, e):
    """The G x G prefix-group lumping K[h, h'] = sum of e[s] over the words
    s of group h' with tail[s] = h of the operator with entries e: its
    Perron root is the operator's, with psi = g[head] and rho = e R[tail]
    for its right and left vectors g and R."""
    first, tail = T._groups
    K = np.zeros((len(first) + 1, len(first)))
    np.add.at(K, (tail, T.head), e)
    return K[:-1]


@pytest.mark.parametrize("t", [16.0, 32.0])
@pytest.mark.parametrize("pot", [POT, GEO])
def test_gauged_solve_equals_the_linear_solve_and_the_dense_spectrum(pot, t):
    T = system(3, "3.5", parse_potential(pot), n=5)
    gauged, linear = log_power_solve(T, t_scale=t), power_solve(T, t_scale=t)
    vals, right, left = dense_spectrum(T, t)
    assert gauged.converged and gauged.mode == "log"
    assert gauged.log_lam == pytest.approx(linear.log_lam, rel=1e-13)
    assert gauged.log_lam == pytest.approx(math.log(abs(vals[0])), rel=1e-13)
    w = np.exp(gauged.log_psi + gauged.log_rho)
    assert np.max(np.abs(w - linear.psi * linear.rho)) < 1e-12 * np.max(w)
    mu = right * left / np.dot(right, left)
    assert np.max(np.abs(w - mu)) < 1e-12 * np.max(w)


@pytest.mark.parametrize("t", [64.0, 256.0, 512.0, 4096.0])
@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("pot", [POT, GEO])
def test_gauged_solve_matches_a_dense_eigensolve_of_the_gauged_matrix(pot, n, t):
    # cold, at scales where exp(tA) leaves the float range or nearly does;
    # the gauged matrix is dense up to N = 744 and lumped at depth 7
    # (N = 2,062, G = 744)
    T = system(3, "3.5", parse_potential(pot), n=n)
    eig = log_power_solve(T, t_scale=t)
    assert eig.converged and eig.stop_reason == "tol"
    assert not np.isnan(eig.log_psi).any() and not np.isnan(eig.log_rho).any()
    a = gauged_potential(T)
    assert np.max(a[T.tail >= 0]) == 0.0
    if T.n_words <= 744:
        lam, psi, rho = dense_perron(dataclasses.replace(T, a_vals=a).dense(t))
    else:
        e = np.exp(t * a)
        lam, g, R = dense_perron(lumped(T, e))
        psi, rho = g[T.head], e * np.append(R, 0.0)[T._groups[1]]
    log_lam = t * T._gauge(1.0)[1] + math.log(lam)
    assert eig.log_lam == pytest.approx(log_lam, rel=1e-12)
    w, mu = np.exp(eig.log_psi + eig.log_rho), psi * rho / np.dot(psi, rho)
    assert np.max(np.abs(w - mu)) <= 1e-12 * np.max(mu)


def coboundary_pair(n, seed=7):
    # a digit table c and the block table c[i] + f[i] - f[j]: the two
    # depth-n operators are diagonally similar (f(x0) - f(x1) telescopes
    # along every path), so their pressures and Gibbs weights are equal
    rng = np.random.default_rng(seed)
    c, f = rng.uniform(-0.5, 0.5, 4), rng.uniform(-0.5, 0.5, 4)
    cob = PotentialSpec.block_table(2, {(i, j): c[i] + f[i] - f[j]
                                        for i in range(4) for j in range(4)})
    return (system(3, "3.5", PotentialSpec.digit_table(list(c)), n=n),
            system(3, "3.5", cob, n=n))


@pytest.mark.parametrize("t", [1.0, 64.0, 512.0])
def test_coboundary_potential_has_the_same_pressure_and_gibbs_weights(t):
    tol = 1e-14
    T1, T2 = (T.solve(tol=tol, t_scale=t) for T in coboundary_pair(7))
    e1, e2 = T1.eigen, T2.eigen
    assert e1.converged and e2.converged
    # each solve meets its eigen-equation to 100 tol; its exponents t A are
    # rounded by at most eps t max|A| and its sums run over at most N
    # terms, each moving log lambda by at most that much (the weights too,
    # with a spectral gap of order 1 here)
    eps = np.finfo(float).eps
    a_max = max(np.max(np.abs(T.a_vals)) for T in (T1, T2))
    bound = 2 * (100 * tol + T1.n_words * eps + eps * t * a_max)
    assert abs(e1.log_lam - e2.log_lam) <= bound
    w1, w2 = (np.exp(e.log_psi + e.log_rho) for e in (e1, e2))
    assert np.max(np.abs(w1 - w2)) <= bound


@pytest.mark.parametrize("make, t", [
    (lambda: system(3, "3.5", parse_potential(GEO), n=9), 512.0),
    (lambda: system(3, "3.5", parse_potential(GEO), n=9), 4096.0),
    (cut_system, 4096.0)])
def test_gauged_solve_gives_underflowed_words_minus_inf(make, t):
    # words whose psi' or rho' underflows carry log -inf, never nan, and
    # lie outside the support; the Gibbs state is still exact on the rest
    T = make()
    eig = log_power_solve(T, t_scale=t)
    assert eig.converged
    for v in (eig.log_psi, eig.log_rho):
        assert not np.isnan(v).any()
    dead = np.isneginf(eig.log_psi + eig.log_rho)
    assert dead.any()
    g = gibbs_measure(dataclasses.replace(T, eigen=eig))
    assert not g.nrm.support[dead].any()
    assert np.all(g.weights[dead] == 0.0)
    assert math.isfinite(g.entropy) and g.entropy >= 0.0
    assert g.identity_residual < 1e-10 * max(1.0, abs(eig.log_lam))
    assert g.nrm.row_sum_residual < 1e-10


def test_matrix_entries_positive_and_eigen_invariants():
    A = PotentialSpec.digit_table([0.3, -0.2, 0.1, 0.0])
    T = system(3, 4, A, n=3).solve(tol=1e-15)
    assert np.all(T.dense()[T.rows, T.cols] > 0)
    eig = T.eigen
    assert np.all(eig.psi > 0)        # transitive system
    assert np.all(eig.rho >= 0)
    assert eig.rho.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.dot(eig.rho, eig.psi) == pytest.approx(1.0, abs=1e-12)


def test_left_eigenvector_duality():
    # <L phi, rho> = lambda <phi, rho> for random test vectors
    A = PotentialSpec.digit_table([0.2, 0.0, 0.1, 0.05])
    T = system(3, "3.5", A, n=4).solve(tol=1e-15)
    rng = np.random.default_rng(17)
    M, rho, lam = T.dense(), T.eigen.rho, T.eigen.lam
    for _ in range(10):
        phi = rng.standard_normal(T.n_words)
        lhs = float(np.dot(rho, M @ phi))
        rhs = lam * float(np.dot(rho, phi))
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


def test_block_table_must_cover_basis():
    table = {(0, 0): 0.1, (0, 1): 0.2}   # misses most 2-words
    A = PotentialSpec.block_table(2, table)
    with pytest.raises(KeyError):
        system(3, 4, A, n=2)


def test_depth_convergence_geometric():
    # successive eigenvalue differences shrink geometrically at rate
    # ~ theta for geometric potentials on the full shift, and each
    # difference respects the Holder envelope |c| m theta^n / (1 - theta)
    c, theta = 0.4, 0.25
    A = PotentialSpec.geometric(c, theta=theta, kmax=12)
    logs = []
    for n in range(3, 8):
        T = system(3, 4, A, n=n).solve(tol=1e-15)
        logs.append(T.eigen.log_lam)
    diffs = [abs(b - a) for a, b in zip(logs, logs[1:])]
    ratios = [d2 / d1 for d1, d2 in zip(diffs, diffs[1:])]
    assert all(r <= A.geo_theta + 0.1 for r in ratios)
    for n, d in zip(range(3, 7), diffs):
        assert d <= abs(c) * 3 * theta ** n / (1 - theta)
