"""Two-dimensional rotating-square expansion.

A square gas cloud starts in rigid rotation (vx, vy) = (-y, x) and
expands under pressure.  In two dimensions the deterministic initial
construction approximates the continuum at rate O(1/sqrt(n)), so the
convergence rate, half the log2-ratio of consecutive Wasserstein
distances, tends to -1/2.

Resolutions go as n = 4^k; keep the ladder short for a quick look
(k up to 4 means n up to 256 and runs in well under a minute).  The
k = 5 rung (n = 1024) reproduces the reference-quality rates but costs
a few minutes of O(n^2) force evaluations plus a 256 x 1024 transport
problem per snapshot (equal masses, so it is solved as a 1024 x 1024
assignment).

Run:  python demos/03_rotating_square_2d.py
"""

from sphwass import ExperimentPlan, run_convergence_study

for gamma in (2.0, 7.0):
    plan = ExperimentPlan(
        family="rotating_square_2d",
        resolutions=(1, 2, 3, 4),
        gamma=gamma,
        theta=1,
        h_mode="fixed",
        h_value=1.0,
        dt=1e-3,
        t_end=1.0,
        n_snapshots=10,
    )
    result = run_convergence_study(plan)
    table = result.rate_table
    print("gamma = %.0f:" % gamma)
    for p, (k_lo, k_hi) in enumerate(zip(table.resolutions, table.resolutions[1:])):
        print("  W_%d,%d = %.6e" % (k_lo, k_hi, result.sup_distances[p]))
    for label, rate in zip(table.rate_labels, table.rates):
        print("  C2_%d = %+.4f   (theory: -0.5)" % (label, rate))

# the variable smoothing length h = 1.5 sqrt(V0) is the usual practical
# choice; rates stay near -1/2 but the constants change
plan_scaled = ExperimentPlan(
    family="rotating_square_2d",
    resolutions=(2, 3, 4),
    gamma=2.0,
    theta=1,
    h_mode="scaled",
    h_value=1.5,
    dt=1e-3,
    t_end=1.0,
    n_snapshots=10,
)
result = run_convergence_study(plan_scaled)
print("gamma = 2, h = 1.5 sqrt(V0):")
for label, rate in zip(result.rate_table.rate_labels, result.rate_table.rates):
    print("  C2_%d = %+.4f" % (label, rate))
