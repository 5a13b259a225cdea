"""The optimal-transport toolbox on its own.

Three exact solvers cover the distances the convergence harness needs:
a merged-CDF sweep in one dimension, ``w1_lp`` in any dimension (an
assignment problem when both clouds have uniform weights and one count
divides the other by at most 16, otherwise the transportation LP with
plan marginals re-solved to machine precision on the optimal support
forest; the 40 and 60 point clouds below take the LP), and a closed-form
semi-discrete distance to the uniform law on [0, 1], the law every initial
state approximates.  A shortest-path dual certificate bounds the
suboptimality of any plan without trusting the solver.

Run:  python demos/05_wasserstein_tools.py
"""

import numpy as np

from sphwass import (
    DiscreteMeasure,
    InitialSpec,
    dual_certificate,
    equipartition,
    sample_iid,
    w1_1d_discrete,
    w1_1d_vs_uniform,
    w1_lp,
)

rng = np.random.default_rng(42)

# --- exact 1D distance via CDFs ----------------------------------------------

mu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
nu = DiscreteMeasure([[1.0]], [1.0])
print("W1( (d_0 + d_2)/2 , d_1 ) =", w1_1d_discrete(mu, nu))

# --- the LP solver and its certificate ----------------------------------------

pts_a = rng.random((40, 2))
pts_b = rng.random((60, 2))
mu2 = DiscreteMeasure(pts_a, np.full(40, 1.0 / 40))
nu2 = DiscreteMeasure(pts_b, np.full(60, 1.0 / 60))
dist, plan = w1_lp(mu2, nu2)
gap, violation = dual_certificate(mu2, nu2, plan)
print("\n2D LP distance %.9f with %d plan arcs" % (dist, len(plan.mass)))
print("marginal defect: %.2e / %.2e" % (
    np.abs(plan.row_marginal(40) - mu2.weights).max(),
    np.abs(plan.col_marginal(60) - nu2.weights).max(),
))
print("duality gap %.2e, dual feasibility violation %.2e" % (gap, violation))

# the two solvers agree in one dimension
mu1 = DiscreteMeasure(rng.random((25, 1)), np.full(25, 0.04))
nu1 = DiscreteMeasure(rng.random((30, 1)), np.full(30, 1.0 / 30))
lp_val, _ = w1_lp(mu1, nu1)
print("\n1D cross-check: |LP - CDF| = %.2e" % abs(lp_val - w1_1d_discrete(mu1, nu1)))

# --- semi-discrete distances ---------------------------------------------------

# midpoint equipartition of the unit interval sits exactly 1/(4n) from uniform
print("\nW1(equipartition(n), uniform[0,1]) vs 1/(4n):")
for n in (4, 16, 64, 256):
    state = equipartition(InitialSpec(n=n))
    d = w1_1d_vs_uniform(DiscreteMeasure.from_state(state))
    print("  n = %4d:  %.8f  (1/(4n) = %.8f)" % (n, d, 1.0 / (4 * n)))

# i.i.d. sampling converges too, only slower and stochastically
print("\nrandom sampling, median over 10 seeds:")
for n in (64, 256, 1024):
    dists = []
    for seed in range(10):
        state = sample_iid(InitialSpec(n=n), seed=seed)
        dists.append(w1_1d_vs_uniform(DiscreteMeasure.from_state(state)))
    print("  n = %4d:  %.5f" % (n, float(np.median(dists))))
