"""Perron data of the discretized transfer operator.

The weighted preimage-sum operator is discretized on depth-n cylinders as a
nonnegative operator on the cylinder words, stored as the (n-1)-prefix
factorisation of the word graph.  Its Perron eigenvalue gives the pressure, the
right/left eigenvectors the eigenfunction and eigenmeasure, and their
product the Gibbs weights.  Three independent solvers must agree: power
iteration, the perturbed fixed-point scheme, and (at small depth) a dense
full-spectrum solve.
"""

from symbeta import (Params, PotentialSpec, build_kneading, build_system,
                     dense_spectrum, entropy_inf_check, gibbs_measure, lk_solve)

p = Params.make(3, "3.5")
K = build_kneading(p, 64)
A = PotentialSpec.digit_table([0.3, 0.0, 0.1, 0.05])

for n in (3, 4, 5, 6):
    T = build_system(p, K, A, n).solve(tol=1e-15)
    print(f"depth {n}: {T.n_words:5d} words   log lambda = {T.eigen.log_lam:.12f}"
          f"   (converged in {T.eigen.iterations} iterations)")

T = build_system(p, K, A, 5).solve(tol=1e-15)
lk = lk_solve(T)
vals, _, _ = dense_spectrum(T)
print()
print(f"power iteration lambda:   {T.eigen.lam:.14f}")
print(f"perturbed fixed points:   {lk.lam:.14f}   (|diff| = {abs(lk.lam - T.eigen.lam):.1e})")
print(f"dense oracle lambda:      {abs(vals[0]):.14f}   "
      f"(second eigenvalue modulus {abs(vals[1]):.6f})")

mu = gibbs_measure(T)
print()
print(f"pressure P(A) = log lambda = {mu.pressure:.12f}")
print(f"entropy of the Gibbs state = {mu.entropy:.12f}")
print(f"|P - h - avg| = {mu.identity_residual:.2e}")
print(f"normalized row-sum residual = {mu.nrm.row_sum_residual:.2e}")
rep = entropy_inf_check(mu, n_random=10)
print(f"entropy infimum formula: min over trials = {rep.min_trial:.12f} "
      f"(>= entropy by {rep.min_gap:.2e})")
print()
print("heaviest cylinders of the Gibbs state:")
for i, w in mu.top(8):
    word = "".join(map(str, T.basis.word(i)))
    print(f"  [{word}]  mu = {w:.6f}")
