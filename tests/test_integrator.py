import sys

import numpy as np
import pytest

from sphwass import (
    EosPolytropic,
    ForceModel,
    Gaussian1D,
    IntegratorConfig,
    MorseInteraction,
    ParticleState,
    QuadraticPotential,
    SimulationDivergedError,
    Trajectory,
    WendlandCubic2D,
    angular_momentum,
    compute_accelerations,
    compute_density,
    equipartition,
    momentum,
    preset,
    run,
    sample_iid,
)
from sphwass.params import ParameterError

FREE = ForceModel(theta=1)
KERNEL_1D = Gaussian1D(1.0)


def single_particle(x0, v0, dim=1):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = np.atleast_1d(np.asarray(v0, dtype=float))
    return ParticleState([1.0], x0[None, :], v0[None, :])


def run_one_step(state, fm, kernel, dt):
    """One kick-drift-kick step, as a one-step run from ``state``."""
    return run(state, fm, kernel, IntegratorConfig(dt=dt, t_end=dt)).states[-1]


class TestStep:
    def test_free_particle_drifts(self):
        state = single_particle(0.0, 1.0)
        out = run_one_step(state, FREE, KERNEL_1D, dt=0.1)
        assert out.positions[0, 0] == pytest.approx(0.1, rel=1e-15)
        assert out.velocities[0, 0] == pytest.approx(1.0, rel=1e-15)
        assert out.time == pytest.approx(0.1)

    def test_pure_drag_matches_trapezoidal_closed_form(self):
        # per step the scheme multiplies v by (1 - eta dt/2)/(1 + eta dt/2)
        eta, dt, n_steps = 10.0, 1e-2, 100
        fm = ForceModel(theta=1, eta=eta)
        state = single_particle(0.0, 1.0)
        for _ in range(n_steps):
            state = run_one_step(state, fm, KERNEL_1D, dt)
        factor = (1.0 - 0.5 * eta * dt) / (1.0 + 0.5 * eta * dt)
        assert state.velocities[0, 0] == pytest.approx(factor**n_steps, rel=1e-12)

    def test_pure_drag_second_order_against_exponential(self):
        # relative error of the integrated velocity vs exp(-eta t) shrinks
        # by ~4 when dt halves
        eta, t_end = 10.0, 1.0
        fm = ForceModel(theta=1, eta=eta)
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            cfg = IntegratorConfig(dt=dt, t_end=t_end)
            v = run(single_particle(0.0, 1.0), fm, KERNEL_1D, cfg).states[-1].velocities[0, 0]
            errors.append(abs(v - np.exp(-eta * t_end)) / np.exp(-eta * t_end))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.8 <= order <= 2.2 for order in orders)

    def test_drag_stable_for_large_eta_dt(self):
        # one step shrinks |v| for every eta * dt
        for eta_dt in (0.1, 1.0, 10.0, 1e3):
            fm = ForceModel(theta=1, eta=eta_dt)
            out = run_one_step(single_particle(0.0, 1.0), fm, KERNEL_1D, dt=1.0)
            assert abs(out.velocities[0, 0]) <= 1.0
        fm = ForceModel(theta=1, eta=1e3)
        state = single_particle(0.0, 1.0)
        for _ in range(50):
            state = run_one_step(state, fm, KERNEL_1D, dt=1.0)
        assert abs(state.velocities[0, 0]) <= 1.0


class TestHarmonicOscillator:
    FM = ForceModel(theta=1, v_ext=QuadraticPotential())

    def run_harmonic(self, dt, t_end=1.0):
        cfg = IntegratorConfig(dt=dt, t_end=t_end, snapshot_times=(t_end,))
        traj = run(single_particle(1.0, 0.0), self.FM, KERNEL_1D, cfg)
        return traj.states[-1]

    def test_energy_error_small(self):
        final = self.run_harmonic(1e-3)
        energy = 0.5 * final.velocities[0, 0] ** 2 + 0.5 * final.positions[0, 0] ** 2
        assert abs(energy - 0.5) <= 1e-5

    def test_position_second_order_convergence(self):
        exact = np.cos(1.0)
        errors = [abs(self.run_harmonic(dt).positions[0, 0] - exact)
                  for dt in (4e-3, 2e-3, 1e-3)]
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert all(1.8 <= order <= 2.2 for order in orders)


class TestTwoParticleConvergence:
    def final_position(self, dt):
        state = ParticleState([0.5, 0.5], [[0.0], [1.0]], [[0.0], [0.0]])
        fm = ForceModel(theta=1, eos=EosPolytropic(gamma=7.0))
        cfg = IntegratorConfig(dt=dt, t_end=1.0, snapshot_times=(1.0,))
        return run(state, fm, KERNEL_1D, cfg).states[-1].positions[:, 0]

    def test_halving_dt_quarters_error(self):
        # Richardson reference from the finest run
        reference = self.final_position(1e-3 / 4)
        err_coarse = np.abs(self.final_position(4e-3) - reference).max()
        err_fine = np.abs(self.final_position(2e-3) - reference).max()
        ratio = err_coarse / err_fine
        assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15


class TestRun:
    def test_zero_time_returns_initial_state(self):
        state = single_particle(0.3, -0.2)
        cfg = IntegratorConfig(dt=0.1, t_end=0.0)
        traj = run(state, FREE, KERNEL_1D, cfg)
        assert len(traj) == 1
        np.testing.assert_array_equal(traj.states[0].positions, state.positions)
        np.testing.assert_array_equal(traj.states[0].velocities, state.velocities)

    def test_snapshots_at_nearest_step_multiples(self):
        state = single_particle(0.0, 1.0)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0,
                               snapshot_times=tuple(j / 9 for j in range(10)))
        traj = run(state, FREE, KERNEL_1D, cfg)
        assert len(traj) == 10
        for req, got in zip((j / 9 for j in range(10)), traj.times):
            assert abs(got - req) <= 0.5e-3 + 1e-12
            assert got == pytest.approx(round(got / 1e-3) * 1e-3, abs=1e-12)

    def test_momentum_drift_over_1000_steps(self, random_state_factory):
        # theta = 1, conservative-only forces
        state = random_state_factory(16, 2, vel_scale=0.2)
        state.velocities += 0.5  # nonzero bulk momentum
        state = ParticleState(state.masses, state.positions, state.velocities)
        fm = ForceModel(theta=1, eos=EosPolytropic(gamma=7.0))
        kernel = WendlandCubic2D(1.0)
        cfg = IntegratorConfig(dt=1e-3, t_end=1.0, snapshot_times=(1.0,))
        p0 = momentum(state)
        l0 = angular_momentum(state)
        final = run(state, fm, kernel, cfg).states[-1]
        assert np.abs(momentum(final) - p0).max() <= 1e-12 * np.abs(p0).max()
        assert abs(angular_momentum(final) - l0) <= 1e-10 * max(abs(l0), 1.0)

    def test_time_reversibility_without_drag(self):
        state = ParticleState([0.5, 0.5], [[0.0], [1.0]], [[0.1], [-0.3]])
        fm = ForceModel(theta=1, eos=EosPolytropic(gamma=7.0))
        cfg = IntegratorConfig(dt=1e-3, t_end=0.5, snapshot_times=(0.5,))
        fwd = run(state, fm, KERNEL_1D, cfg).states[-1]
        back_start = ParticleState(fwd.masses, fwd.positions, -fwd.velocities)
        back = run(back_start, fm, KERNEL_1D, cfg).states[-1]
        np.testing.assert_allclose(back.positions, state.positions, atol=1e-8)

    def test_determinism_bitwise(self, random_state_factory):
        state = random_state_factory(12, 2)
        fm = ForceModel(theta=1, eos=EosPolytropic(gamma=7.0), eta=0.3)
        kernel = WendlandCubic2D(1.0)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.3, snapshot_times=(0.15, 0.3))
        t1 = run(state.copy(), fm, kernel, cfg)
        t2 = run(state.copy(), fm, kernel, cfg)
        for s1, s2 in zip(t1.states, t2.states):
            np.testing.assert_array_equal(s1.positions, s2.positions)
            np.testing.assert_array_equal(s1.velocities, s2.velocities)

    @pytest.mark.parametrize(
        "fm",
        [
            ForceModel(theta=0, eos=EosPolytropic(gamma=7.0)),
            ForceModel(theta=1, eta=10.0, interaction=MorseInteraction()),
        ],
        ids=["theta0-gamma7", "morse-drag"],
    )
    def test_snapshots_equal_repeated_step_bitwise(self, fm, random_state_factory):
        state = random_state_factory(12, 2)
        kernel = WendlandCubic2D(1.0)
        cfg = IntegratorConfig(dt=1e-2, t_end=0.1, snapshot_times=(0.0, 0.05, 0.1))
        traj = run(state, fm, kernel, cfg)
        stepped, k = state, 0
        for t, snap in zip(traj.times, traj.states):
            while k < round(t / cfg.dt):
                stepped, k = run_one_step(stepped, fm, kernel, cfg.dt), k + 1
            np.testing.assert_array_equal(snap.positions, stepped.positions)
            np.testing.assert_array_equal(snap.velocities, stepped.velocities)
        assert k == 10

    def test_divergence_raises_with_step_index(self):
        # wildly unstable dt for the harmonic trap overflows to inf
        fm = ForceModel(theta=1, v_ext=QuadraticPotential())
        cfg = IntegratorConfig(dt=100.0, t_end=100000.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDivergedError) as exc_info:
                run(single_particle(1.0, 0.0), fm, KERNEL_1D, cfg)
        assert exc_info.value.step_index >= 1
        assert str(exc_info.value.step_index) in str(exc_info.value)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("call, step", [(1, 1), (2, 1), (5, 4)])
    def test_divergence_names_the_exact_step(self, bad, call, step):
        # Evaluation 1 is the acceleration before step 1, evaluation c >= 2 the
        # one at the end of step c - 1.  A bad first one reaches x through the
        # drift of step 1; a later one makes v bad in the last half-kick of its step.
        class TurnsBad:
            calls = 0

            def gradient(self, y):
                self.calls += 1
                return np.full_like(y, bad if self.calls >= call else 0.0)

        fm = ForceModel(theta=1, v_ext=TurnsBad())
        cfg = IntegratorConfig(dt=0.1, t_end=1.0)
        with pytest.raises(SimulationDivergedError) as exc_info:
            run(single_particle(0.0, 1.0), fm, KERNEL_1D, cfg)
        assert exc_info.value.step_index == step


class TestEnergyInvariant:
    """E = sum m|v|^2/2 + sum m_k kappa rho_k^(gamma-1)/(gamma-1) on a
    rotating 64-point square.

    The symmetrized scheme (theta = 1) is the Hamiltonian flow of E, so
    leapfrog keeps its drift O(dt^2); the direct discretization (theta = 0)
    is not, and drifts by a dt-independent amount.
    """

    DTS = (2e-3, 1e-3, 5e-4)

    def max_drift(self, theta, gamma, dt):
        eos = EosPolytropic(gamma=gamma)
        kernel = WendlandCubic2D(1.0)
        cfg = IntegratorConfig(dt=dt, t_end=1.0, snapshot_times=tuple(np.linspace(0, 1, 11)))
        state0 = equipartition(preset("rotating_square_2d", 64))
        traj = run(state0, ForceModel(theta=theta, eos=eos), kernel, cfg)
        energies = np.array([
            0.5 * s.masses @ np.einsum("id,id->i", s.velocities, s.velocities)
            + s.masses @ (eos.k_eos * compute_density(s, kernel) ** (gamma - 1) / (gamma - 1))
            for s in traj.states
        ])
        return np.abs(energies / energies[0] - 1.0).max()

    @pytest.mark.parametrize("gamma", [2.0, 7.0])
    def test_symmetrized_scheme_drift_is_second_order(self, gamma):
        drifts = [self.max_drift(1, gamma, dt) for dt in self.DTS]
        for coarse, fine in zip(drifts, drifts[1:]):
            assert 3.0 <= coarse / fine <= 5.0, drifts

    def test_direct_scheme_drift_does_not_vanish_with_dt(self):
        drifts = [self.max_drift(0, 7.0, dt) for dt in self.DTS]
        assert min(drifts) > 1e-4, drifts


class TestConfigValidation:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0, t_end=1.0)

    def test_rejects_dt_too_small_for_t_end(self):
        # t_end / dt overflows to inf, which no step count can hold
        with pytest.raises(ParameterError) as err:
            IntegratorConfig(dt=5e-324, t_end=1.0)
        assert err.value.name == "dt"

    def test_rejects_negative_t_end(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, t_end=-1.0)

    def test_rejects_out_of_range_snapshots(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, t_end=1.0, snapshot_times=(2.0,))


def per_call_run(state0, fm, kernel, dt, n_steps):
    """Kick-drift-kick with fresh arrays, a validated state and a fresh
    compute_accelerations per step, in the operation order of ``run``."""
    x, v = state0.positions.copy(), state0.velocities.copy()

    def accel(x):
        state = ParticleState(state0.masses, x, v)
        return compute_accelerations(state, None, fm, kernel, include_drag=False)

    a = accel(x)
    for _ in range(n_steps):
        v = v * (1.0 - 0.5 * dt * fm.eta) + 0.5 * dt * a
        x = x + dt * v
        a = accel(x)
        v = (v + 0.5 * dt * a) / (1.0 + 0.5 * dt * fm.eta)
    return x, v


def morse_swarm(n):
    spec = preset("morse_cloud_2d", n)
    return equipartition(spec) if n in (4, 64) else sample_iid(spec, seed=0)


def square(n):
    return equipartition(preset("rotating_square_2d", n))


def uneven(state, seed=0):
    """``state`` with random masses, so a walk's sort shows in its sums."""
    masses = np.random.default_rng(seed).random(state.n) + 0.1
    return ParticleState(masses / masses.sum(), state.positions, state.velocities)


def stirred(n, seed=0):
    """A random 2D cloud with random masses and velocities: its sort along x_0 and
    its band change from step to step."""
    rng = np.random.default_rng(seed)
    masses = rng.random(n) + 0.1
    return ParticleState(masses / masses.sum(), rng.random((n, 2)), rng.standard_normal((n, 2)))


def expansion(n):
    return equipartition(preset("uniform_box_1d", n))


MORSE = ForceModel(theta=1, eta=10.0, interaction=MorseInteraction())

ENGINE_CASES = {
    # Morse at one block, a full block and past _BLOCK
    "morse-4": (morse_swarm(4), MORSE, WendlandCubic2D(1.0), 1e-2),
    "morse-64": (morse_swarm(64), MORSE, WendlandCubic2D(1.0), 1e-2),
    "morse-300": (uneven(morse_swarm(300)), MORSE, WendlandCubic2D(1.0), 1e-2),
    # one block, no band, fixed h
    "theta0-64": (square(64), ForceModel(theta=0, eos=EosPolytropic(7.0)),
                  WendlandCubic2D(1.0), 1e-3),
    "theta1-64": (square(64), ForceModel(theta=1, eos=EosPolytropic(7.0)),
                  WendlandCubic2D(1.0), 1e-3),
    # banded, scaled h
    "theta0-300-band": (stirred(300), ForceModel(theta=0, eos=EosPolytropic(7.0)),
                        WendlandCubic2D(0.05), 1e-2),
    "theta1-300-band": (stirred(300), ForceModel(theta=1, eos=EosPolytropic(2.0)),
                        WendlandCubic2D(0.05), 1e-2),
    "gaussian-1d": (expansion(40), ForceModel(theta=1, eos=EosPolytropic(2.0)),
                    Gaussian1D(0.1), 1e-3),
    "potential-drag": (square(64), ForceModel(theta=1, eos=EosPolytropic(7.0),
                                              v_ext=QuadraticPotential(), eta=2.0),
                       WendlandCubic2D(0.3), 1e-3),
}


class TestEngine:
    """The run's engine against a fresh evaluation per step: every bit the same."""

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_run_matches_a_fresh_evaluation_per_step(self, case):
        state0, fm, kernel, dt = ENGINE_CASES[case]
        n_steps = 6
        final = run(state0, fm, kernel, IntegratorConfig(dt=dt, t_end=n_steps * dt)).states[-1]
        x, v = per_call_run(state0, fm, kernel, dt, n_steps)
        assert final.positions.tobytes() == x.tobytes()
        assert final.velocities.tobytes() == v.tobytes()

    def test_snapshots_are_copies(self):
        # the run advances x and v in place; each snapshot keeps its own
        state0, fm, kernel, dt = ENGINE_CASES["morse-4"]
        cfg = IntegratorConfig(dt=dt, t_end=4 * dt, snapshot_times=(0.0, 2 * dt, 4 * dt))
        traj = run(state0, fm, kernel, cfg)
        for k, snap in zip((0, 2, 4), traj.states):
            x, v = per_call_run(state0, fm, kernel, dt, k)
            assert snap.positions.tobytes() == x.tobytes()
            assert snap.velocities.tobytes() == v.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
    def test_warm_dense_run_takes_few_minor_faults(self):
        # a square-dense-sized run: its walk buffers are 128 x 256 doubles each,
        # 64 pages; a fresh one per evaluation would fault them in every step
        import resource

        state0 = square(256)
        fm, kernel = ForceModel(theta=0, eos=EosPolytropic(7.0)), WendlandCubic2D(1.0)
        cfg = IntegratorConfig(dt=1e-3, t_end=20e-3)
        for _ in range(2):  # the heap grows to the run's buffers once
            run(state0, fm, kernel, cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run(state0, fm, kernel, cfg)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64


BATCH_CASES = {
    # Morse at one block, a full block and past _BLOCK: the 300 takes three blocks,
    # packed side by side with the other states' blocks
    "morse": ([morse_swarm(4), morse_swarm(64), uneven(morse_swarm(300))], MORSE,
              [WendlandCubic2D(1.0)] * 3, 1e-2),
    # one dense block beside a banded walk, with a different h per state
    "theta0-band": ([square(64), stirred(300)], ForceModel(theta=0, eos=EosPolytropic(7.0)),
                    [WendlandCubic2D(1.0), WendlandCubic2D(0.05)], 1e-2),
    "theta1-band": ([square(64), stirred(300)], ForceModel(theta=1, eos=EosPolytropic(2.0)),
                    [WendlandCubic2D(0.5), WendlandCubic2D(0.05)], 1e-2),
    "gaussian-1d": ([expansion(8), expansion(40)], ForceModel(theta=1, eos=EosPolytropic(2.0)),
                    [Gaussian1D(0.3), Gaussian1D(0.1)], 1e-3),
    "potential-drag": ([square(16), square(64)],
                       ForceModel(theta=1, eos=EosPolytropic(7.0), v_ext=QuadraticPotential(),
                                  eta=2.0),
                       [WendlandCubic2D(0.5), WendlandCubic2D(0.3)], 1e-3),
}


class TestBatch:
    """A batch of states run in lockstep against each state run alone."""

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_batch_gives_the_bits_of_its_states_run_alone(self, case, order):
        states0, fm, kernels, dt = BATCH_CASES[case]
        if order == "reversed":
            states0, kernels = states0[::-1], kernels[::-1]
        cfg = IntegratorConfig(dt=dt, t_end=6 * dt, snapshot_times=(0.0, 3 * dt, 6 * dt))
        batch = run(states0, fm, kernels, cfg)
        assert len(batch) == len(states0)
        for state0, kernel, traj in zip(states0, kernels, batch):
            alone = run(state0, fm, kernel, cfg)
            assert traj.times == alone.times and len(traj) == 3
            for snap, ref in zip(traj.states, alone.states):
                assert snap.masses.tobytes() == ref.masses.tobytes()
                assert snap.positions.tobytes() == ref.positions.tobytes()
                assert snap.velocities.tobytes() == ref.velocities.tobytes()

    def test_single_state_returns_one_trajectory(self):
        state0, fm, kernel, dt = ENGINE_CASES["morse-4"]
        cfg = IntegratorConfig(dt=dt, t_end=dt)
        assert isinstance(run(state0, fm, kernel, cfg), Trajectory)
        (traj,) = run([state0], fm, [kernel], cfg)
        assert isinstance(traj, Trajectory)

    def test_rejects_mixed_dimensions_start_times_and_kernel_counts(self):
        cfg = IntegratorConfig(dt=0.1, t_end=0.1)
        flat, plane = single_particle(0.0, 0.0), single_particle([0.0, 0.0], [0.0, 0.0])
        late = ParticleState(flat.masses, flat.positions, flat.velocities, time=1.0)
        for states, kernels in (([flat, plane], [KERNEL_1D, WendlandCubic2D(1.0)]),
                                ([flat, late], [KERNEL_1D] * 2), ([flat, flat], [KERNEL_1D])):
            with pytest.raises(ValueError):
                run(states, FREE, kernels, cfg)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_divergence_names_the_state_that_diverged(self, order):
        # at rest at the center of the trap, a particle stays there; off center, dt = 100
        # overflows it at the step where it overflows when run alone
        fm = ForceModel(theta=1, v_ext=QuadraticPotential())
        cfg = IntegratorConfig(dt=100.0, t_end=100000.0)
        pair = [single_particle(0.0, 0.0), single_particle(1.0, 0.0)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDivergedError) as alone:
                run(pair[1], fm, KERNEL_1D, cfg)
            with pytest.raises(SimulationDivergedError) as batch:
                run([pair[i] for i in order], fm, [KERNEL_1D] * 2, cfg)
        assert alone.value.run_index == 0
        assert batch.value.step_index == alone.value.step_index
        assert batch.value.run_index == order.index(1)

    def test_divergence_in_one_step_names_the_first_state(self):
        # both states diverge in step 1: the second in the drift, where v dt overflows,
        # and the first later, in the step's last half-kick; the first is named
        class TurnsBad:
            calls = 0

            def gradient(self, y):
                self.calls += 1
                g = np.zeros_like(y)
                if self.calls == 2:  # the evaluation at the end of step 1
                    g[0] = np.inf
                return g

        fm = ForceModel(theta=1, v_ext=TurnsBad())
        cfg = IntegratorConfig(dt=4.0, t_end=40.0)
        states = [single_particle(0.0, 0.0), single_particle(0.0, 1e308)]
        with np.errstate(over="ignore"), pytest.raises(SimulationDivergedError) as err:
            run(states, fm, [KERNEL_1D] * 2, cfg)
        assert (err.value.step_index, err.value.run_index) == (1, 0)
