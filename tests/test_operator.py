import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from symbeta.expansion import Params
from symbeta.potentials import PotentialSpec, parse_potential
from symbeta.operator import (RegimeError, build_system, canonical_point,
                              dense_spectrum, iterate, lk_solve, log_power_solve,
                              normalize_potential, power_solve)
from symbeta.shift import build_kneading, is_admissible, preimage_digits


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
    from symbeta.shift import enumerate_words
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
    from symbeta.shift import enumerate_words
    for w in enumerate_words(p, K, 4).words[::9]:
        e = canonical_point(w, K, 12)
        assert e[:4] == w and e == canonical_point(w, K, 12)


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
    # lambda_k stays above exp(-sup|A|) along the whole schedule
    floor = math.exp(-T.potential.sup_norm_bound(3))
    assert all(lam > floor for _, lam in res.history)
    assert res.min_margin > 0


def test_lk_full_shift_constant_eigenfunction():
    T = system(3, 4, n=2)
    res = lk_solve(T)
    assert res.lam == pytest.approx(4.0, abs=1e-8)
    assert np.allclose(res.psi, res.psi[0], atol=1e-10)


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


def test_iterate_log_mode_matches_linear():
    A = PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05])
    T = system(3, "3.5", A, n=4)
    phi = np.ones(T.n_words)
    lin = iterate(T, phi, 6)
    logv = iterate(T, np.zeros(T.n_words), 6, log_mode=True)
    assert np.max(np.abs(np.log(lin) - logv)) < 1e-10


def test_iterate_overflow_signalled():
    A = PotentialSpec.digit_table([1.0, 0.0, 0.0, 0.0])
    T = system(3, 4, A, n=2)
    with pytest.raises(FloatingPointError):
        iterate(T, np.ones(T.n_words), 500, t_scale=100.0)
    # log mode survives the same request
    out = iterate(T, np.zeros(T.n_words), 500, t_scale=100.0, log_mode=True)
    assert np.all(np.isfinite(out))


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


def test_matrix_entries_positive_and_eigen_invariants():
    A = PotentialSpec.digit_table([0.3, -0.2, 0.1, 0.0])
    T = system(3, 4, A, n=3).solve(tol=1e-15)
    assert np.all(T.dense()[T.rows, T.cols] > 0)
    eig = T.eigen
    assert np.all(eig.psi > 0)        # transitive system
    assert np.all(eig.rho >= 0)
    assert eig.rho.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.dot(eig.rho, eig.psi) == pytest.approx(1.0, abs=1e-12)
    assert eig.gap_estimate is None or eig.gap_estimate > 0.05


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
    # ~ theta = 2^(-alpha) for geometric potentials on the full shift,
    # and each difference respects the Holder-predicted envelope
    A = PotentialSpec.geometric(0.4, theta=0.25, kmax=12, m_hint=3)
    logs = []
    for n in range(3, 8):
        T = system(3, 4, A, n=n).solve(tol=1e-15)
        logs.append(T.eigen.log_lam)
    diffs = [abs(b - a) for a, b in zip(logs, logs[1:])]
    ratios = [d2 / d1 for d1, d2 in zip(diffs, diffs[1:])]
    assert all(r <= 2 ** (-A.alpha) + 0.1 for r in ratios)
    for n, d in zip(range(3, 7), diffs):
        assert d <= A.holder_const * 2.0 ** (-A.alpha * (n - 1))
