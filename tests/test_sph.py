import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphwass.sph as sph
from sphwass import (
    EosPolytropic,
    ForceModel,
    Gaussian1D,
    MorseInteraction,
    ParticleState,
    SupportDiagnostic,
    WendlandCubic2D,
    angular_momentum,
    check_support,
    compute_accelerations,
    compute_density,
    momentum,
    support_bound,
)

from conftest import normalized


def hydro_model(gamma, theta, kappa=1.0):
    return ForceModel(theta=theta, eos=EosPolytropic(gamma=gamma, k_eos=kappa))


class TestDensity:
    def test_single_particle_self_term(self):
        state = ParticleState([1.0], [[0.0]], [[0.0]])
        rho = compute_density(state, Gaussian1D(1.0))
        assert rho[0] == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-15)

    def test_two_particles_hand_evaluation(self):
        # oracle: rho(0) = 0.5 * (W(0) + W(1)) with the unit Gaussian
        state = ParticleState([0.5, 0.5], [[0.0], [1.0]], [[0.0], [0.0]])
        rho = compute_density(state, Gaussian1D(1.0))
        expected = 0.5 * (1.0 + np.exp(-1.0)) / np.sqrt(np.pi)
        assert expected == pytest.approx(0.3858717, abs=5e-8)
        assert rho[0] == pytest.approx(expected, rel=1e-14)
        assert rho[1] == pytest.approx(expected, rel=1e-14)

    def test_self_contribution_lower_bound(self, random_state_factory):
        for dim, kernel in ((1, Gaussian1D(0.7)), (2, WendlandCubic2D(0.7))):
            state = random_state_factory(64, dim)
            rho = compute_density(state, kernel)
            assert np.all(rho >= state.masses * kernel.peak_value() - 1e-15)

    def test_dimension_mismatch(self, random_state_factory):
        state = random_state_factory(8, 2)
        with pytest.raises(ValueError):
            compute_density(state, Gaussian1D(1.0))
        for fm in (hydro_model(7.0, 1), ForceModel(theta=1, interaction=MorseInteraction())):
            with pytest.raises(ValueError, match="dimension"):
                compute_accelerations(state, None, fm, Gaussian1D(1.0))


class TestAccelerations:
    def test_single_particle_is_force_free(self):
        state = ParticleState([1.0], [[0.3]], [[0.0]])
        dens = compute_density(state, Gaussian1D(1.0))
        acc = compute_accelerations(state, dens, hydro_model(7.0, 1), Gaussian1D(1.0))
        np.testing.assert_array_equal(acc, np.zeros((1, 1)))

    def test_two_particle_value_against_scalar_oracle(self):
        # scripted scalar evaluation of
        #   a_0 = -m * gradW(x0 - x1) * [F1(rho0) + F1(rho1)]
        kernel = Gaussian1D(1.0)
        state = ParticleState([0.5, 0.5], [[0.0], [1.0]], [[0.0], [0.0]])
        rho = 0.5 * (1.0 + np.exp(-1.0)) / np.sqrt(np.pi)
        grad_w_at_minus1 = 2.0 * np.exp(-1.0) / np.sqrt(np.pi)  # gradW(-1) > 0
        assert grad_w_at_minus1 == pytest.approx(0.41511, abs=5e-6)
        expected_a0 = -0.5 * grad_w_at_minus1 * (rho**5 + rho**5)
        dens = compute_density(state, kernel)
        acc = compute_accelerations(state, dens, hydro_model(7.0, 1), kernel)
        assert acc[0, 0] == pytest.approx(expected_a0, rel=1e-13)
        assert acc[1, 0] == pytest.approx(-expected_a0, rel=1e-13)

    def test_gamma2_scheme_coincidence_100_random_states(self, random_state_factory):
        for trial in range(100):
            dim = 1 + trial % 2
            state = random_state_factory(4 + trial % 61, dim)
            kernel = Gaussian1D(1.0) if dim == 1 else WendlandCubic2D(1.0)
            dens = compute_density(state, kernel)
            a0 = compute_accelerations(state, dens, hydro_model(2.0, 0), kernel)
            a1 = compute_accelerations(state, dens, hydro_model(2.0, 1), kernel)
            scale = np.abs(a1).max()
            assert np.abs(a0 - a1).max() <= 1e-12 * max(scale, 1e-30)

    @pytest.mark.parametrize("theta", [0, 1])
    def test_float_theta_evaluates_as_the_integer(self, theta, random_state_factory):
        # ForceModel and the config accept 1.0 for 1, since 1.0 in (0, 1)
        state = random_state_factory(40, 2)
        kernel = WendlandCubic2D(0.8)
        expected = compute_accelerations(state, None, hydro_model(7.0, theta), kernel)
        acc = compute_accelerations(state, None, hydro_model(7.0, float(theta)), kernel)
        np.testing.assert_array_equal(acc, expected)

    def test_theta1_momentum_closure_every_evaluation(self, random_state_factory):
        # Newton's-third-law structure: sum m_k a_k = 0 with only pressure on
        for trial in range(20):
            dim = 1 + trial % 2
            state = random_state_factory(48, dim)
            kernel = Gaussian1D(0.8) if dim == 1 else WendlandCubic2D(0.8)
            dens = compute_density(state, kernel)
            acc = compute_accelerations(state, dens, hydro_model(7.0, 1), kernel)
            total = state.masses @ acc
            scale = np.abs(state.masses[:, None] * acc).sum()
            assert np.abs(total).max() <= 1e-13 * max(scale, 1e-30)

    def test_theta0_gamma7_breaks_momentum_on_asymmetric_state(self):
        # documented asymmetric three-particle configuration
        state = ParticleState([0.2, 0.3, 0.5], [[0.0], [0.3], [1.0]], np.zeros((3, 1)))
        kernel = Gaussian1D(1.0)
        dens = compute_density(state, kernel)
        acc = compute_accelerations(state, dens, hydro_model(7.0, 0), kernel)
        assert np.abs(state.masses @ acc).max() > 1e-6

    def test_theta1_angular_momentum_closure(self, random_state_factory):
        for trial in range(10):
            state = random_state_factory(32, 2)
            kernel = WendlandCubic2D(0.9)
            dens = compute_density(state, kernel)
            fm = ForceModel(
                theta=1,
                eos=EosPolytropic(gamma=7.0),
                interaction=MorseInteraction(),
            )
            acc = compute_accelerations(state, dens, fm, kernel)
            x = state.positions
            torque = state.masses @ (x[:, 0] * acc[:, 1] - x[:, 1] * acc[:, 0])
            scale = (state.masses * np.linalg.norm(x, axis=1) * np.linalg.norm(acc, axis=1)).sum()
            assert abs(torque) <= 1e-12 * max(scale, 1e-30)

    @pytest.mark.parametrize("theta", [0, 1])
    def test_vectorized_path_matches_direct_loop_oracle(self, theta, random_state_factory):
        # plain double-loop evaluation of the full motion equation
        state = random_state_factory(20, 2)
        kernel = WendlandCubic2D(0.9)
        morse = MorseInteraction()
        from sphwass import QuadraticPotential
        from sphwass.forces import f_theta

        fm = ForceModel(
            theta=theta,
            eos=EosPolytropic(gamma=7.0, k_eos=1.3),
            v_ext=QuadraticPotential(k=0.5),
            eta=0.7,
            interaction=morse,
        )
        dens = compute_density(state, kernel)
        acc = compute_accelerations(state, dens, fm, kernel)

        x, v, masses = state.positions, state.velocities, state.masses
        n = state.n
        rho_oracle = np.array(
            [sum(masses[j] * kernel.value(x[i] - x[j]) for j in range(n)) for i in range(n)]
        )
        np.testing.assert_allclose(dens, rho_oracle, rtol=1e-12)
        F = [f_theta(fm.eos, theta, rho_oracle[i]) for i in range(n)]
        expected = np.zeros_like(x)
        for k in range(n):
            for i in range(n):
                grad = kernel.gradient(x[k] - x[i])
                expected[k] -= masses[i] * grad * (F[k] + theta * F[i])
                expected[k] += masses[i] * morse.force(x[k] - x[i])
            expected[k] -= 0.5 * x[k] + 0.7 * v[k]
        scale = np.abs(expected).max()
        np.testing.assert_allclose(acc, expected, atol=1e-12 * scale)

    def test_interaction_term_matches_direct_convolution(self, random_state_factory):
        state = random_state_factory(24, 2)
        kernel = WendlandCubic2D(1.0)
        morse = MorseInteraction()
        fm = ForceModel(theta=1, eos=None, interaction=morse)
        dens = compute_density(state, kernel)
        acc = compute_accelerations(state, dens, fm, kernel)
        # oracle: direct per-particle convolution sum
        expected = np.zeros_like(state.positions)
        for k in range(state.n):
            disp = state.positions[k] - state.positions
            expected[k] = state.masses @ morse.force(disp)
        np.testing.assert_allclose(acc, expected, atol=1e-14)


class TestConservedQuantities:
    def test_mirror_state_has_zero_momentum(self):
        state = ParticleState(
            [0.5, 0.5], [[-1.0, 0.0], [1.0, 0.0]], [[0.3, 0.1], [-0.3, -0.1]]
        )
        np.testing.assert_allclose(momentum(state), np.zeros(2), atol=1e-17)

    def test_single_particle_momentum(self):
        state = ParticleState([1.0], [[0.0, 0.0]], [[2.0, 0.0]])
        np.testing.assert_allclose(momentum(state), [2.0, 0.0])

    def test_angular_momentum_2d(self):
        state = ParticleState([2.0], [[1.0, 0.0]], [[0.0, 3.0]])
        assert angular_momentum(state) == pytest.approx(6.0)

    def test_angular_momentum_1d_is_zero(self):
        state = ParticleState([1.0], [[0.5]], [[1.0]])
        assert angular_momentum(state) == 0.0


class TestPairBlocks:
    def test_cells_cover_every_pair_within_cutoff(self, rng):
        # the sources against themselves and against other targets (a grid
        # reaching past the cloud, scattered points), in one to three
        # dimensions: each target in exactly one block, no source twice in
        # a block, and every pair within the cutoff found
        from sphwass.sph import _pair_blocks

        cutoff = 0.4
        for dim in (1, 2, 3):
            x = rng.random((200, dim)) * 3.0
            axes = np.meshgrid(*[np.linspace(-1.0, 4.0, 11)] * dim, indexing="ij")
            grid = np.stack([a.ravel() for a in axes], axis=1)
            for y in (x, grid, rng.random((50, dim)) * 5.0 - 1.0):
                found, targets = set(), []
                for rows, cols, r2 in _pair_blocks(y, x, cutoff):
                    rows = np.arange(len(y))[rows]
                    targets.extend(rows)
                    assert len(np.unique(cols)) == len(cols)
                    i, j = np.nonzero(r2 <= cutoff * cutoff)
                    found.update(zip(rows[i], cols[j]))
                assert sorted(targets) == list(range(len(y)))
                d = np.linalg.norm(y[:, None, :] - x[None, :, :], axis=-1)
                assert found == set(zip(*np.nonzero(d <= cutoff)))

    def test_strip_blocks_hold_at_most_block_targets(self, rng):
        # a 100x100 grid puts about 1700 targets in each strip of width 0.5
        from sphwass.sph import _BLOCK, _pair_blocks

        axes = np.meshgrid(*[np.linspace(0.0, 3.0, 100)] * 2, indexing="ij")
        grid = np.stack([a.ravel() for a in axes], axis=1)
        targets = []
        for rows, cols, r2 in _pair_blocks(grid, rng.random((200, 2)) * 3.0, 0.5):
            assert r2.shape[0] <= _BLOCK
            targets.extend(rows)
        assert sorted(targets) == list(range(len(grid)))

    def test_dense_blocks_tile_the_pair_matrix(self, rng):
        from sphwass.sph import _BLOCK, _pair_blocks

        y, x = rng.random((_BLOCK + 7, 2)), rng.random((9, 2))
        r2 = np.vstack([b for _, _, b in _pair_blocks(y, x)])
        np.testing.assert_allclose(
            r2, ((y[:, None, :] - x[None, :, :]) ** 2).sum(-1), atol=1e-15
        )


    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sq_dists_round_with_the_extent_not_the_position(self, dim, rng):
        # every n from 1 to 600 in steps of 7 meets each residue mod 8, where
        # BLAS kernels change, and n > 512 takes two blocks; in walk
        # coordinates a cloud 1e4 extents from the origin rounds as one at it
        for n in range(1, 601, 7):
            x = (rng.random((n, dim)) * 4.0 - 1.2) * rng.choice([1.0, 30.0])
            x += rng.choice([0.0, 1e4]) * np.ptp(x)
            ys, xs = sph._walk_coords(x, x, 1.0)
            r2 = np.vstack([b for _, _, b in sph._pair_blocks(ys, xs)])
            extent2 = (np.ptp(x, axis=0) ** 2).sum()
            error = np.abs(r2 - direct_sq_dists(x, x)).max()
            assert error <= 4.0 * np.finfo(float).eps * extent2


class TestBlockSlot:
    """compute_accelerations(state, None, ...) walks the pairs once for rho
    and keeps the blocks, with their g, in its own slot for the pressure sum
    when rho's cutoff is the acceleration's and the blocks fit."""

    @pytest.fixture(params=[1.0, 0.05], ids=["dense", "cells"])
    def setup(self, request, rng):
        n = 300
        state = ParticleState(normalized(rng.random(n) + 0.1), rng.random((n, 2)),
                              np.zeros((n, 2)))
        kernel = WendlandCubic2D(request.param)
        assert sph._use_cells(kernel, state.positions, None) == (request.param == 0.05)
        return state, kernel, hydro_model(7.0, 1)

    @staticmethod
    def count_block_passes(monkeypatch):
        calls = []
        engine = sph._pair_blocks

        def counted(y, x, cutoff=None):  # counts the passes that start
            calls.append(cutoff)
            yield from engine(y, x, cutoff)

        monkeypatch.setattr(sph, "_pair_blocks", counted)
        return calls

    @staticmethod
    def assert_is_the_reference(acc, state, fm, kernel):
        # rho supplied: the plain density and a fresh pressure walk
        ref = compute_accelerations(state, compute_density(state, kernel), fm, kernel)
        assert acc.tobytes() == ref.tobytes()

    def test_pressure_sum_reuses_and_releases_the_blocks(self, setup, monkeypatch):
        import gc
        import weakref

        state, kernel, fm = setup
        calls = self.count_block_passes(monkeypatch)
        kept = []
        shapes = WendlandCubic2D.shapes

        def watched(self, u2):
            w, g = shapes(self, u2)
            kept.append(weakref.ref(g))
            return w, g

        monkeypatch.setattr(WendlandCubic2D, "shapes", watched)
        acc = compute_accelerations(state, None, fm, kernel)
        assert len(calls) == 1 and kept
        gc.collect()
        assert all(ref() is None for ref in kept)  # nothing outlives the call
        monkeypatch.undo()
        self.assert_is_the_reference(acc, state, fm, kernel)

    def test_slot_hit_does_no_kernel_work(self, setup, monkeypatch):
        # one shape evaluation per block walked: the pressure sum takes g
        # from the walk's slot, and a supplied rho walks afresh for g
        state, kernel, fm = setup
        calls, blocks = [], []
        shapes, engine = WendlandCubic2D.shapes, sph._pair_blocks

        def counted_shapes(self, u2):
            calls.append(u2.shape)
            return shapes(self, u2)

        def counted_blocks(y, x, cutoff=None):
            for block in engine(y, x, cutoff):
                blocks.append(block[2].shape)
                yield block

        monkeypatch.setattr(WendlandCubic2D, "shapes", counted_shapes)
        monkeypatch.setattr(sph, "_pair_blocks", counted_blocks)
        acc = compute_accelerations(state, None, fm, kernel)
        walked = list(blocks)
        assert calls == walked and walked
        calls.clear(), blocks.clear()
        rho = compute_density(state, kernel)
        assert calls == blocks == walked  # the density walk alone
        calls.clear(), blocks.clear()
        assert compute_accelerations(state, rho, fm, kernel).tobytes() == acc.tobytes()
        assert calls == blocks == walked

    def test_interaction_cutoff_recomputes_the_blocks(self, setup, monkeypatch):
        # rho may run on strips while the Morse sum needs all pairs
        state, kernel, _ = setup
        fm = ForceModel(theta=1, eos=EosPolytropic(gamma=7.0), interaction=MorseInteraction())
        calls = self.count_block_passes(monkeypatch)
        acc = compute_accelerations(state, None, fm, kernel)
        on_strips = sph._use_cells(kernel, state.positions, None)
        width = kernel.support_radius / kernel.h  # the cutoff in walk coordinates
        assert calls == ([width, None] if on_strips else [None])
        self.assert_is_the_reference(acc, state, fm, kernel)

    def test_blocks_beyond_the_slot_size_are_not_kept(self, setup, monkeypatch):
        state, kernel, fm = setup
        calls = self.count_block_passes(monkeypatch)
        monkeypatch.setattr(sph, "_SLOT_ENTRIES", state.n)
        acc = compute_accelerations(state, None, fm, kernel)
        assert len(calls) == 2
        self.assert_is_the_reference(acc, state, fm, kernel)

    def test_morse_run_never_reads_or_writes_the_slot(self, rng, monkeypatch):
        # no pressure law: no density walk, one pair pass per evaluation
        from sphwass import IntegratorConfig, run

        def refuse(*args):
            raise AssertionError("density walked for a pressureless model")

        monkeypatch.setattr(sph, "_density_and_blocks", refuse)
        calls = self.count_block_passes(monkeypatch)
        n = 300
        state = ParticleState(normalized(np.ones(n)), rng.random((n, 2)), np.zeros((n, 2)))
        fm = ForceModel(theta=1, eos=None, eta=1.0, interaction=MorseInteraction())
        run(state, fm, WendlandCubic2D(0.05), IntegratorConfig(dt=1e-3, t_end=3e-3))
        assert calls == [None] * 4


def direct_sq_dists(y, x, *_):
    return ((y[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)


def random_cloud(n, h, extent, seed):
    """A 2D cloud with random masses, reaching both sides of 0, and its kernel."""
    rng = np.random.default_rng(seed)
    masses = normalized(rng.random(n) + 0.1)
    x = extent * (rng.random((n, 2)) - 0.3)
    return ParticleState(masses, x, np.zeros((n, 2))), WendlandCubic2D(h)


def folded_pair_terms(state, rho, fm, kernel):
    """Largest sum_i |w_ki| (|x_k| + |x_i|) over k.

    Each acceleration folds its pressure sum into
    sum_i w_ki x_i - x_k sum_i w_ki, so its rounding scales with those two
    terms, not with their difference.
    """
    from sphwass.forces import f_theta

    x, m = state.positions, state.masses
    F = f_theta(fm.eos, fm.theta, rho)
    g = kernel.grad_scale_from_sq(direct_sq_dists(x, x))
    w = np.abs(m[None, :] * (F[:, None] + fm.theta * F[None, :]) * g)
    size = np.abs(x).max(axis=1)
    return (w @ size + w.sum(axis=1) * size).max()


def assert_cell_path_matches_all_pairs(state, kernel, fm, monkeypatch):
    # the input picks the path; replacing _use_cells forces one
    def force_cells(use):
        monkeypatch.setattr(sph, "_use_cells", lambda kernel, x, interaction: use)

    force_cells(False)
    rho_ap = compute_density(state, kernel)
    a_ap = compute_accelerations(state, rho_ap, fm, kernel)
    force_cells(True)
    rho_cl = compute_density(state, kernel)
    a_cl = compute_accelerations(state, rho_ap, fm, kernel)
    np.testing.assert_allclose(rho_cl, rho_ap, rtol=1e-13)
    scale = np.abs(a_ap).max()
    assert np.abs(a_cl - a_ap).max() <= 1e-13 * scale


class TestCellListEquivalence:
    @pytest.mark.parametrize("theta", [0, 1])
    def test_density_and_accel_paths_agree(self, theta, rng, monkeypatch):
        # scaled-h regime: support covers a few cells only
        n = 512
        masses = normalized(np.ones(n))
        positions = rng.random((n, 2))
        state = ParticleState(masses, positions, np.zeros((n, 2)))
        assert_cell_path_matches_all_pairs(
            state, WendlandCubic2D(0.05), hydro_model(7.0, theta), monkeypatch
        )

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 400),
        h=st.floats(0.005, 0.5),
        extent=st.floats(0.1, 4.0),
        theta=st.sampled_from([0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_paths_agree_on_random_clouds(self, n, h, extent, theta, seed):
        # the product r2 = |y|^2 + |x|^2 - 2 y.x rounds with the BLAS kernel
        # that the block's shape selects, by up to about eps (extent/h)^2 in
        # walk coordinates on either path: beyond 1e-13 in rho for extent/h
        # near 800.  Direct differences of the factors' coordinates round the
        # same in any block, so only the blocks and the summation order are
        # compared.
        state, kernel = random_cloud(n, h, extent, seed)
        fm = hydro_model(7.0, theta)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(
                sph, "_sq_dists", lambda a, b: direct_sq_dists(-0.5 * a[:, 2:], b[2:].T)
            )
            rho, acc = {}, {}
            for cells in (False, True):
                monkeypatch.setattr(sph, "_use_cells", lambda kernel, x, interaction: cells)
                rho[cells] = compute_density(state, kernel)
                acc[cells] = compute_accelerations(state, rho[False], fm, kernel)
        np.testing.assert_allclose(rho[True], rho[False], rtol=1e-13)
        folded = folded_pair_terms(state, rho[False], fm, kernel)
        assert np.abs(acc[True] - acc[False]).max() <= 1e-13 * folded

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 400),
        h=st.floats(0.005, 0.5),
        extent=st.floats(0.1, 4.0),
        cells=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_theta1_momentum_closure_on_random_clouds(self, n, h, extent, cells, seed):
        # the pair terms of theta = 1 cancel in sum_k m_k a_k on either path,
        # with the engine's own squared distances
        state, kernel = random_cloud(n, h, extent, seed)
        fm = hydro_model(7.0, 1)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(sph, "_use_cells", lambda kernel, x, interaction: cells)
            rho = compute_density(state, kernel)
            acc = compute_accelerations(state, rho, fm, kernel)
        folded = folded_pair_terms(state, rho, fm, kernel)
        assert np.abs(state.masses @ acc).max() <= 1e-13 * folded

    def test_auto_dispatch_uses_cells_for_small_support(self, rng):
        from sphwass.sph import _use_cells

        x = rng.random((512, 2))
        assert _use_cells(WendlandCubic2D(0.05), x, None)
        assert not _use_cells(WendlandCubic2D(1.0), x, None)
        assert not _use_cells(Gaussian1D(1.0), x[:, :1], None)
        assert not _use_cells(WendlandCubic2D(0.05), x, MorseInteraction())

    def test_extent_is_measured_along_the_strip_axis(self, rng):
        # strips cut x_0 only: a cloud narrow in x_0 but long in x_1 would
        # fall into a single strip, so it takes the dense path
        x = rng.random((2048, 2)) * [0.3, 20.0]
        assert not sph._use_cells(WendlandCubic2D(0.5), x, None)
        assert sph._use_cells(WendlandCubic2D(0.5), x[:, ::-1], None)


class TestTranslationInvariance:
    @pytest.mark.parametrize("theta", [0, 1])
    @pytest.mark.parametrize("cells", [False, True], ids=["dense", "strips"])
    @pytest.mark.parametrize("h", [1.0, 0.2])
    def test_shifted_cloud_has_the_same_rho_and_accelerations(self, h, cells, theta, rng,
                                                              monkeypatch):
        # a dyadic grid shifted by a power of two moves exactly, so each walk
        # sees the same coordinates
        n = 300
        x = rng.integers(0, 3 * 2**20, size=(n, 2)) * 2.0**-20
        masses = normalized(rng.random(n) + 0.1)
        kernel, fm = WendlandCubic2D(h), hydro_model(7.0, theta)
        monkeypatch.setattr(sph, "_use_cells", lambda kernel, x, interaction: cells)
        results = []
        for shift in (0.0, 2.0**7, 2.0**13):
            state = ParticleState(masses, x + shift, np.zeros((n, 2)))
            results.append((compute_density(state, kernel),
                            compute_accelerations(state, None, fm, kernel)))
        (rho, acc), shifted = results[0], results[1:]
        for rho_s, acc_s in shifted:
            np.testing.assert_allclose(rho_s, rho, rtol=1e-13, atol=0.0)
            assert np.abs(acc_s - acc).max() <= 1e-13 * np.abs(acc).max()


class TestSupportDiagnostic:
    def test_bound_at_time_zero(self):
        diag = SupportDiagnostic(r0=1.5, v0_sup=0.3, m1=2.0)
        assert support_bound(diag, 0.0) == 1.5

    def test_gamma2_gaussian_constants(self):
        # M2 = sup F1 = k_eos; M1 = 2 * M2 * sup|W'| = 2 * 0.48394
        state = ParticleState([0.5, 0.5], [[0.2], [0.8]], np.zeros((2, 1)))
        kernel = Gaussian1D(1.0)
        diag = SupportDiagnostic.for_theta1(state, hydro_model(2.0, 1), kernel)
        assert diag.m2 == pytest.approx(1.0)
        assert diag.m1 == pytest.approx(2.0 * 0.48394, abs=1e-4)
        assert diag.m1 == pytest.approx(0.96788, abs=1e-4)
        # with v0 = 0 and no other forces, r(1) = r0 + 0.5 * M1
        assert support_bound(diag, 1.0) == pytest.approx(diag.r0 + 0.48394, abs=1e-4)

    def test_nondecreasing_in_time(self):
        diag = SupportDiagnostic(r0=1.0, v0_sup=0.1, m1=0.5, grad_v_sup=0.2, k_sup=0.3)
        ts = np.linspace(0, 10, 50)
        bounds = [support_bound(diag, t) for t in ts]
        assert np.all(np.diff(bounds) >= 0)

    def test_gamma_below_two_disables_with_warning(self):
        state = ParticleState([1.0], [[0.0]], [[0.0]])
        with pytest.warns(RuntimeWarning):
            diag = SupportDiagnostic.for_theta1(state, hydro_model(1.0, 1), Gaussian1D(1.0))
        assert diag is None

    def test_check_support(self):
        state = ParticleState([1.0], [[3.0, 4.0]], [[0.0, 0.0]])
        assert check_support(state, 5.0)
        assert not check_support(state, 4.999)


class TestParticleStateValidation:
    def test_rejects_nonpositive_masses(self):
        with pytest.raises(ValueError):
            ParticleState([0.0, 1.0], [[0.0], [1.0]], [[0.0], [0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_masses(self, bad):
        # masses <= 0 is False for NaN, and compute_density then returned NaN
        with pytest.raises(ValueError, match="finite"):
            ParticleState([bad, 1.0], [[0.0], [1.0]], [[0.0], [0.0]])

    def test_rejects_nonfinite_positions(self):
        with pytest.raises(ValueError):
            ParticleState([1.0], [[np.inf]], [[0.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ParticleState([1.0, 1.0], [[0.0]], [[0.0]])
