"""One-dimensional gas expansion and its measured convergence rate.

A gas initially at rest, uniform on [0, 1], expands under the polytropic
pressure P = rho^gamma.  Doubling the particle count roughly halves the
Wasserstein-1 distance between consecutive particle solutions, so the
log2-ratio of distances tends to -1.

The scheme switch matters: theta = 1 (symmetrized pairwise pressure) and
theta = 0 (direct pressure-gradient discretization) produce the same
trajectories when gamma = 2 and genuinely different ones otherwise.

Run:  python demos/02_expansion_1d_convergence.py      (a few seconds)
"""

from sphwass import ExperimentPlan, run_convergence_study

plan = ExperimentPlan(
    family="expansion_1d",
    resolutions=(1, 2, 3, 4, 5, 6, 7),
    gamma=2.0,
    theta=1,
    h_mode="fixed",
    h_value=1.0,
    dt=1e-3,
    t_end=1.0,
    n_snapshots=10,
)
result = run_convergence_study(plan)

print("gamma = 2, theta = 1, h = 1 fixed")
print("pair        W (sup over time)   attained at t")
table = result.rate_table
for p, (k_lo, k_hi) in enumerate(zip(table.resolutions, table.resolutions[1:])):
    print(
        "W_%d,%d     %.6e       %.3f"
        % (k_lo, k_hi, result.sup_distances[p], result.argmax_times[p])
    )
print("\nrates C1 (label = middle resolution), expected to approach -1:")
for label, rate in zip(table.rate_labels, table.rates):
    print("  C1_%d = %+.4f" % (label, rate))

# the a-priori support bound r(t) holds along the whole run
rec = result.runs[-1]
inside = all(rec.support_ok)
print("\nsupport bound r(t) satisfied at every snapshot:", inside)

# gamma = 7 separates the two schemes
print("\ngamma = 7: the two schemes now differ (run both to compare)")
for theta in (0, 1):
    plan7 = ExperimentPlan(
        family="expansion_1d",
        resolutions=(3, 4, 5, 6),
        gamma=7.0,
        theta=theta,
        dt=1e-3,
        t_end=1.0,
        n_snapshots=10,
    )
    res7 = run_convergence_study(plan7)
    rates = ", ".join("%+.4f" % r for r in res7.rate_table.rates)
    print("  theta = %d:  rates %s" % (theta, rates))
