"""Acceptance gate: every shipped claim exercised at its stated tolerance.

Each test prints one ``ACCEPTANCE n (<name>): PASS/FAIL`` line (visible
under ``pytest -s`` or in the captured output of a failing run).  The
two-dimensional studies and the drag/interaction study dominate the
runtime; expect roughly a quarter of an hour in total.
"""

import numpy as np
import pytest

from sphwass import (
    DiscreteMeasure,
    EosPolytropic,
    ExperimentPlan,
    ForceModel,
    Gaussian1D,
    InitialSpec,
    IntegratorConfig,
    ParticleState,
    QuadraticPotential,
    WendlandCubic2D,
    angular_momentum,
    compute_accelerations,
    compute_density,
    equipartition,
    momentum,
    run,
    run_convergence_study,
    w1_1d_discrete,
    w1_1d_vs_uniform,
    w1_lp,
)

from conftest import normalized


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# heavy shared studies


@pytest.fixture(scope="session")
def study_1d():
    plan = ExperimentPlan(
        family="expansion_1d",
        resolutions=tuple(range(1, 8)),
        gamma=2.0,
        theta=1,
        h_mode="fixed",
        h_value=1.0,
        dt=1e-3,
        t_end=1.0,
        n_snapshots=10,
    )
    return run_convergence_study(plan)


@pytest.fixture(scope="session")
def studies_2d():
    results = {}
    for gamma in (2.0, 7.0):
        for theta in (0, 1):
            plan = ExperimentPlan(
                family="rotating_square_2d",
                resolutions=(1, 2, 3, 4, 5),
                gamma=gamma,
                theta=theta,
                h_mode="fixed",
                h_value=1.0,
                dt=1e-3,
                t_end=1.0,
                n_snapshots=10,
            )
            results[(gamma, theta)] = run_convergence_study(plan)
    return results


@pytest.fixture(scope="session")
def study_morse():
    plan = ExperimentPlan(
        family="morse_2d",
        resolutions=(1, 2, 3, 4),
        theta=1,
        dt=1e-2,
        t_end=100.0,
        eta=10.0,
        n_snapshots=10,
    )
    return run_convergence_study(plan)


# ---------------------------------------------------------------------------
# 1. scheme coincidence at gamma = 2


def test_criterion_1_scheme_coincidence(rng):
    worst_acc = 0.0
    for trial in range(100):
        dim = 1 + trial % 2
        n = int(rng.integers(2, 65))
        state = ParticleState(
            normalized(rng.random(n) + 0.1),
            rng.random((n, dim)),
            rng.standard_normal((n, dim)),
        )
        kernel = Gaussian1D(1.0) if dim == 1 else WendlandCubic2D(1.0)
        dens = compute_density(state, kernel)
        acc = {
            theta: compute_accelerations(
                state, dens, ForceModel(theta=theta, eos=EosPolytropic(gamma=2.0)), kernel
            )
            for theta in (0, 1)
        }
        scale = max(np.abs(acc[1]).max(), 1e-30)
        worst_acc = max(worst_acc, np.abs(acc[0] - acc[1]).max() / scale)

    worst_traj = 0.0
    trajectories = {}
    for theta in (0, 1):
        state0 = equipartition(InitialSpec(n=32))
        fm = ForceModel(theta=theta, eos=EosPolytropic(gamma=2.0))
        cfg = IntegratorConfig(
            dt=1e-3, t_end=1.0, snapshot_times=tuple(j / 9 for j in range(10))
        )
        trajectories[theta] = run(state0, fm, Gaussian1D(1.0), cfg)
    for s0, s1 in zip(trajectories[0].states, trajectories[1].states):
        scale = max(np.abs(s1.positions).max(), 1e-30)
        worst_traj = max(worst_traj, np.abs(s0.positions - s1.positions).max() / scale)

    ok = worst_acc <= 1e-10 and worst_traj <= 1e-10
    report(
        1,
        "scheme coincidence, gamma=2",
        ok,
        f"max rel acc dev {worst_acc:.3e}, max rel traj dev {worst_traj:.3e} (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# 2. one-dimensional convergence rate


def test_criterion_2_1d_convergence_rate(study_1d):
    rates = study_1d.rate_table.rates
    final = rates[-1]
    errs = np.abs(rates[-3:] + 1.0)
    monotone = bool(errs[0] >= errs[1] >= errs[2])
    ok = -1.2 <= final <= -0.8 and monotone
    report(
        2,
        "1D rate",
        ok,
        f"final C1 {final:.4f} in [-1.2,-0.8]; |C1+1| over last three k: "
        + ", ".join(f"{e:.2e}" for e in errs)
        + (" monotone" if monotone else " NOT monotone"),
    )


# ---------------------------------------------------------------------------
# 3 & 4. two-dimensional rates against the reference table


def _check_2d_rates(studies, gamma, tol, num, name):
    details = []
    ok = True
    for theta in (0, 1):
        result = studies[(gamma, theta)]
        rates = result.rate_table.rates
        labels = result.rate_table.rate_labels
        assert labels == [2, 3, 4]
        for label, rate in zip(labels, rates):
            good = abs(rate - (-0.5)) <= tol
            ok &= good
            details.append(f"theta={theta} C2_{label}={rate:.4f}")
        if theta == 1:
            # every symmetrized hydro run stays inside the a-priori bound
            support = all(all(rec.support_ok) for rec in result.runs)
            ok &= support
            details.append(f"support bound {'holds' if support else 'VIOLATED'}")
    report(num, name, ok, "; ".join(details) + f" (tol +/-{tol} around -0.50)")


def test_criterion_3_2d_gamma2_rates(studies_2d):
    _check_2d_rates(studies_2d, 2.0, 0.05, 3, "2D rates, gamma=2")


def test_criterion_4_2d_gamma7_rates(studies_2d):
    _check_2d_rates(studies_2d, 7.0, 0.07, 4, "2D rates, gamma=7")


# ---------------------------------------------------------------------------
# 5. deterministic initial construction


def test_criterion_5_equipartition_identity():
    worst = 0.0
    bound_ok = True
    for k in range(1, 11):
        n = 2**k
        mu = DiscreteMeasure.from_state(equipartition(InitialSpec(n=n)))
        dist = w1_1d_vs_uniform(mu)
        worst = max(worst, abs(dist - 1.0 / (4 * n)))
        bound_ok &= dist <= 1.0 / (2 * n)
    ok = worst <= 1e-12 and bound_ok
    report(
        5,
        "equipartition 1/(4n)",
        ok,
        f"max |W - 1/(4n)| = {worst:.3e} (tol 1e-12); 1/(2n) bound "
        + ("holds" if bound_ok else "VIOLATED"),
    )


# ---------------------------------------------------------------------------
# 6. transport solver equivalence


def test_criterion_6_ot_solver_equivalence(rng):
    worst_gap = 0.0
    worst_marginal = 0.0
    for _ in range(100):
        nm, nn = rng.integers(2, 33, 2)
        mu = DiscreteMeasure(rng.random((int(nm), 1)), normalized(rng.random(int(nm)) + 0.05))
        nu = DiscreteMeasure(rng.random((int(nn), 1)), normalized(rng.random(int(nn)) + 0.05))
        lp, plan = w1_lp(mu, nu)
        worst_gap = max(worst_gap, abs(lp - w1_1d_discrete(mu, nu)))
        worst_marginal = max(
            worst_marginal,
            np.abs(plan.row_marginal(mu.n) - mu.weights).max(),
            np.abs(plan.col_marginal(nu.n) - nu.weights).max(),
        )
    # metric axioms on a spot-check sample
    axioms_ok = True
    for _ in range(10):
        mu = DiscreteMeasure(rng.random((6, 1)), normalized(rng.random(6) + 0.1))
        nu = DiscreteMeasure(rng.random((5, 1)), normalized(rng.random(5) + 0.1))
        rho = DiscreteMeasure(rng.random((7, 1)), normalized(rng.random(7) + 0.1))
        d = w1_1d_discrete
        axioms_ok &= d(mu, nu) >= 0
        axioms_ok &= abs(d(mu, nu) - d(nu, mu)) <= 1e-12
        axioms_ok &= d(mu, mu) <= 1e-12
        axioms_ok &= d(mu, nu) <= d(mu, rho) + d(rho, nu) + 1e-9
    ok = worst_gap <= 1e-9 and worst_marginal <= 1e-9 and axioms_ok
    report(
        6,
        "OT equivalence",
        ok,
        f"max |lp-cdf| {worst_gap:.3e} (tol 1e-9); max marginal dev "
        f"{worst_marginal:.3e} (tol 1e-9); axioms {'hold' if axioms_ok else 'FAIL'}",
    )


# ---------------------------------------------------------------------------
# 7. conservation


def test_criterion_7_momentum_conservation(rng):
    state = ParticleState(
        normalized(rng.random(16) + 0.5),
        rng.random((16, 2)),
        0.2 * rng.standard_normal((16, 2)) + 0.4,
    )
    fm = ForceModel(theta=1, eos=EosPolytropic(gamma=7.0))
    kernel = WendlandCubic2D(1.0)
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, snapshot_times=(1.0,))
    p0, l0 = momentum(state), angular_momentum(state)
    final = run(state, fm, kernel, cfg).states[-1]
    p_drift = np.abs(momentum(final) - p0).max() / np.abs(p0).max()
    l_drift = abs(angular_momentum(final) - l0) / max(abs(l0), 1e-30)

    # the direct discretization breaks pairwise antisymmetry
    bad_state = ParticleState([0.2, 0.3, 0.5], [[0.0], [0.3], [1.0]], np.zeros((3, 1)))
    dens = compute_density(bad_state, Gaussian1D(1.0))
    acc0 = compute_accelerations(
        bad_state, dens, ForceModel(theta=0, eos=EosPolytropic(gamma=7.0)), Gaussian1D(1.0)
    )
    net_force = np.abs(bad_state.masses @ acc0).max()

    ok = p_drift <= 1e-12 and l_drift <= 1e-10 and net_force > 1e-6
    report(
        7,
        "conservation",
        ok,
        f"1000-step drift: momentum {p_drift:.3e} (tol 1e-12), angular {l_drift:.3e} "
        f"(tol 1e-10); theta=0 net force {net_force:.3e} (> 1e-6)",
    )


# ---------------------------------------------------------------------------
# 8. interaction/drag equilibrium and rate


def test_criterion_8_morse_equilibrium_and_rate(study_morse):
    vmax = max(rec.final_max_speed for rec in study_morse.runs)
    final_rate = study_morse.rate_table.rates[-1]
    ok = vmax <= 1e-3 and abs(final_rate - (-0.5)) <= 0.1
    report(
        8,
        "Morse equilibrium",
        ok,
        f"terminal max speed {vmax:.3e} (tol 1e-3); final rate {final_rate:.4f} "
        f"(tol +/-0.1 around -0.5)",
    )


# ---------------------------------------------------------------------------
# 9. integrator order


def test_criterion_9_integrator_order():
    kernel = Gaussian1D(1.0)

    # harmonic oscillator, exact solution cos(t)
    def harmonic_error(dt):
        fm = ForceModel(theta=1, v_ext=QuadraticPotential())
        state = ParticleState([1.0], [[1.0]], [[0.0]])
        cfg = IntegratorConfig(dt=dt, t_end=1.0, snapshot_times=(1.0,))
        final = run(state, fm, kernel, cfg).states[-1]
        return abs(final.positions[0, 0] - np.cos(1.0))

    h_errors = [harmonic_error(dt) for dt in (4e-3, 2e-3, 1e-3)]
    h_orders = [np.log2(h_errors[i] / h_errors[i + 1]) for i in range(2)]

    # linear drag at eta*dt = 0.1, exact solution exp(-eta t)
    eta, t_end = 10.0, 1.0

    def drag_error(dt):
        fm = ForceModel(theta=1, eta=eta)
        state = ParticleState([1.0], [[0.0]], [[1.0]])
        cfg = IntegratorConfig(dt=dt, t_end=t_end, snapshot_times=(t_end,))
        final = run(state, fm, kernel, cfg).states[-1]
        return abs(final.velocities[0, 0] - np.exp(-eta * t_end))

    d_errors = [drag_error(dt) for dt in (1e-2, 5e-3, 2.5e-3)]
    d_orders = [np.log2(d_errors[i] / d_errors[i + 1]) for i in range(2)]
    stable = abs((1 - 0.05) / (1 + 0.05)) <= 1.0
    c_measured = d_errors[0] / (1e-2) ** 2

    ok = (
        all(1.8 <= o <= 2.2 for o in h_orders + d_orders)
        and stable
        and d_errors[0] <= c_measured * (1e-2) ** 2 * (1 + 1e-12)
    )
    report(
        9,
        "integrator order",
        ok,
        f"harmonic orders {h_orders[0]:.2f},{h_orders[1]:.2f}; drag orders "
        f"{d_orders[0]:.2f},{d_orders[1]:.2f} (window [1.8,2.2]); drag error at "
        f"eta*dt=0.1 is {d_errors[0]:.3e} = C*dt^2 with C = {c_measured:.3f}",
    )


# ---------------------------------------------------------------------------
# 10. kernel normalization


def test_criterion_10_kernel_normalization():
    worst = 0.0
    for h in (0.1, 1.0, 10.0):
        worst = max(
            worst,
            Gaussian1D(h).normalization_residual(),
            WendlandCubic2D(h).normalization_residual(),
        )
    ok = worst <= 1e-6
    report(10, "kernel normalization", ok, f"max residual {worst:.3e} (tol 1e-6)")
