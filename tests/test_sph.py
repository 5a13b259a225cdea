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
    QuadraticPotential,
    WendlandCubic2D,
    angular_momentum,
    check_support,
    compute_accelerations,
    compute_density,
    equipartition,
    momentum,
    preset,
    support_radii,
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
        morse = MorseInteraction()
        fm = ForceModel(theta=1, eos=None, interaction=morse)
        for n in (16, 24, 300):  # one block, and three
            state = random_state_factory(n, 2)
            acc = compute_accelerations(state, None, fm, WendlandCubic2D(1.0))
            # the Morse sum runs in the particles' own units: no kernel enters
            for h in (0.3, 0.05):
                other = compute_accelerations(state, None, fm, WendlandCubic2D(h))
                assert other.tobytes() == acc.tobytes()
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


def sorted_along_x0(y):
    return y[np.argsort(y[:, 0], kind="stable")]


def pair_blocks(y, x, cutoff=None):
    """The ``(rows, cols, r2)`` blocks of a walk of targets y against sources x, or
    of x against itself if ``y is x``; sorted along x_0, as with a cutoff, they
    keep their order."""
    other = y is not x
    walk = sph._Walk(np.ones(len(x)), x.shape[1], cutoff=cutoff,
                     n_targets=len(y) if other else None)
    walk.place(x, y if other else None)
    for rows, cols, r2, _ in walk.blocks():
        yield rows, cols, r2


def summed_pairs(y, x, cutoff):
    """How often the walk sums each ordered pair (target k, source i), a tail
    for both orders, how often it visits each target, and the pairs within
    the cutoff by its own squared distances; checks each block's shape."""
    counts, visits, found = np.zeros((len(y), len(x)), int), np.zeros(len(y), int), set()
    for rows, cols, r2 in pair_blocks(y, x, cutoff):
        assert rows.stop - rows.start <= sph._BLOCK
        assert r2.shape == (rows.stop - rows.start, cols.stop - cols.start)
        visits[rows] += 1
        counts[rows, cols] += 1
        i, j = np.nonzero(r2 <= (np.inf if cutoff is None else cutoff * cutoff))
        pairs = set(zip(i + rows.start, j + cols.start))
        if y is x:
            assert cols.start == rows.start
            counts[rows.stop:cols.stop, rows] += 1
            pairs |= {(b, a) for a, b in pairs if b >= rows.stop}
        found |= pairs
    return counts, visits, found


class TestPairBlocks:
    def test_cells_cover_every_pair_within_cutoff(self, rng):
        # the sources against themselves and against other targets (a grid
        # reaching past the cloud, scattered points), in one to three
        # dimensions, all sorted along x_0: each target in exactly one block,
        # no pair summed twice, and every pair within the cutoff found
        cutoff = 0.4
        for dim in (1, 2, 3):
            x = sorted_along_x0(rng.random((200, dim)) * 3.0)
            axes = np.meshgrid(*[np.linspace(-1.0, 4.0, 11)] * dim, indexing="ij")
            grid = np.stack([a.ravel() for a in axes], axis=1)
            for y in (x, grid, sorted_along_x0(rng.random((50, dim)) * 5.0 - 1.0)):
                counts, visits, found = summed_pairs(y, x, cutoff)
                assert (visits == 1).all() and counts.max() <= 1
                near = np.linalg.norm(y[:, None, :] - x[None, :, :], axis=-1) <= cutoff
                assert (counts[near] == 1).all()
                assert found == set(zip(*np.nonzero(near)))

    def test_strip_blocks_hold_at_most_block_targets(self, rng):
        # a 100x100 grid against 200 sources with cutoff 0.5: blocks of at
        # most _BLOCK consecutive targets tile the grid, and every source
        # left out of a block is beyond the cutoff along x_0 of its targets
        from sphwass.sph import _BLOCK

        axes = np.meshgrid(*[np.linspace(0.0, 3.0, 100)] * 2, indexing="ij")
        grid = np.stack([a.ravel() for a in axes], axis=1)
        x = sorted_along_x0(rng.random((200, 2)) * 3.0)
        bounds = []
        for rows, cols, r2 in pair_blocks(grid, x, 0.5):
            assert r2.shape[0] <= _BLOCK
            bounds.append((rows.start, rows.stop))
            out = np.ones(len(x), bool)
            out[cols] = False
            gap = np.abs(grid[rows, :1] - x[out, 0])
            assert (gap > 0.5).all()
        bounds.sort()
        assert bounds[0][0] == 0 and bounds[-1][1] == len(grid)
        assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))

    def test_dense_blocks_tile_the_pair_matrix(self, rng):
        # without a cutoff: other targets meet every source, and the sources
        # against themselves the upper block triangle, from each block's first target
        from sphwass.sph import _BLOCK

        y, x = rng.random((_BLOCK + 7, 2)), rng.random((9, 2))
        r2 = np.empty((len(y), len(x)))
        for rows, cols, block in pair_blocks(y, x):
            assert cols == slice(0, len(x))
            r2[rows] = block
        np.testing.assert_allclose(r2, direct_sq_dists(y, x), atol=1e-15)
        for rows, cols, r2 in pair_blocks(y, y):
            assert cols == slice(rows.start, len(y))
            np.testing.assert_allclose(r2, direct_sq_dists(y[rows], y[cols]), atol=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sq_dists_round_with_the_extent_not_the_position(self, dim, rng):
        # every n from 1 to 600 in steps of 7 meets each residue mod 8, where
        # BLAS kernels change, and n > _BLOCK takes several blocks; in walk
        # coordinates a cloud 1e4 extents from the origin rounds as one at it
        for n in range(1, 601, 7):
            x = (rng.random((n, dim)) * 4.0 - 1.2) * rng.choice([1.0, 30.0])
            x += rng.choice([0.0, 1e4]) * np.ptp(x)
            direct = direct_sq_dists(x, x)
            extent2 = (np.ptp(x, axis=0) ** 2).sum()
            for rows, cols, r2 in pair_blocks(x, x):
                error = np.abs(r2 - direct[rows, cols]).max()
                assert error <= 4.0 * np.finfo(float).eps * extent2


class TestEachPairOnce:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blocks_and_tails_sum_each_pair_once(self, dim, rng):
        # a block's own targets meet each other both ways; its tail stands
        # for both orders of a pair, which no other block holds
        n = 3 * sph._BLOCK + 5
        x = sorted_along_x0(rng.random((n, dim)) * 3.0)
        for cutoff in (None, 0.4):
            counts, visits, _ = summed_pairs(x, x, cutoff)
            assert (visits == 1).all() and counts.max() <= 1
            near = direct_sq_dists(x, x) <= (np.inf if cutoff is None else cutoff**2)
            assert (counts[near] == 1).all()

    def test_an_evaluation_takes_the_shapes_of_each_pair_once(self, rng, monkeypatch):
        # every pair within the support: the one walk takes the shapes of
        # n^2 / 2 pairs plus half a block's square per block, where a walk of
        # every ordered pair takes n^2
        n = 3 * sph._BLOCK + 5
        state = ParticleState(normalized(rng.random(n) + 0.1), rng.random((n, 2)),
                              np.zeros((n, 2)))
        sizes, shapes = [], WendlandCubic2D.shapes

        def counted(self, u2, out=None):
            sizes.append(u2.size)
            return shapes(self, u2, out)

        monkeypatch.setattr(WendlandCubic2D, "shapes", counted)
        compute_accelerations(state, None, hydro_model(7.0, 1), WendlandCubic2D(1.0))
        assert 0 < sum(sizes) <= n * n / 2 + sph._BLOCK * n


class TestBlockSlot:
    """compute_accelerations(state, None, ...) walks the pairs once for rho
    and keeps the blocks' g in its own slot for the pressure sum when they fit;
    a Morse sum takes its own walk over all pairs."""

    # both banded: the support holds every pair ("dense") or a narrow band
    @pytest.fixture(params=[1.0, 0.05], ids=["dense", "cells"])
    def setup(self, request, rng):
        n = 300
        state = ParticleState(normalized(rng.random(n) + 0.1), rng.random((n, 2)),
                              np.zeros((n, 2)))
        return state, WendlandCubic2D(request.param), hydro_model(7.0, 1)

    @staticmethod
    def count_block_passes(monkeypatch):
        calls = []
        engine = sph._Walk.blocks

        def counted(walk):  # counts the passes that start
            calls.append(walk.cutoff)
            yield from engine(walk)

        monkeypatch.setattr(sph._Walk, "blocks", counted)
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

        def watched(self, u2, out=None):
            w, g = shapes(self, u2, out)
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
        shapes, engine = WendlandCubic2D.shapes, sph._Walk.blocks

        def counted_shapes(self, u2, out=None):
            calls.append(u2.shape)
            return shapes(self, u2, out)

        def counted_blocks(walk):
            for block in engine(walk):
                blocks.append(block[2].shape)
                yield block

        monkeypatch.setattr(WendlandCubic2D, "shapes", counted_shapes)
        monkeypatch.setattr(sph._Walk, "blocks", counted_blocks)
        acc = compute_accelerations(state, None, fm, kernel)
        walked = list(blocks)
        assert calls == walked and walked
        calls.clear(), blocks.clear()
        rho = compute_density(state, kernel)
        assert calls == blocks == walked  # the density walk alone
        calls.clear(), blocks.clear()
        assert compute_accelerations(state, rho, fm, kernel).tobytes() == acc.tobytes()
        assert calls == blocks == walked

    def test_morse_sum_walks_all_pairs_beside_the_kept_band(self, setup, monkeypatch):
        # rho walks the band and the pressure sum reads its g, while the Morse
        # sum walks all pairs on its own
        state, kernel, _ = setup
        fm = ForceModel(theta=1, eos=EosPolytropic(gamma=7.0), interaction=MorseInteraction())
        calls = self.count_block_passes(monkeypatch)
        shaped, shapes = [], WendlandCubic2D.shapes

        def counted(self, u2, out=None):
            shaped.append(len(calls))
            return shapes(self, u2, out)

        monkeypatch.setattr(WendlandCubic2D, "shapes", counted)
        acc = compute_accelerations(state, None, fm, kernel)
        width = kernel.support_radius / kernel.h  # the cutoff in walk coordinates
        assert calls == [width, None]
        assert shaped and set(shaped) == {1}  # shapes only on the density walk
        monkeypatch.undo()
        self.assert_is_the_reference(acc, state, fm, kernel)

    def test_kept_blocks_carry_g_only(self, setup, monkeypatch):
        # a slot of exactly the g entries one evaluation takes holds them all
        state, kernel, fm = setup
        sizes, shapes = [], WendlandCubic2D.shapes

        def counted(self, u2, out=None):
            sizes.append(u2.size)
            return shapes(self, u2, out)

        monkeypatch.setattr(WendlandCubic2D, "shapes", counted)
        compute_accelerations(state, None, fm, kernel)
        monkeypatch.setattr(WendlandCubic2D, "shapes", shapes)
        monkeypatch.setattr(sph, "_SLOT_ENTRIES", sum(sizes))
        calls = self.count_block_passes(monkeypatch)
        acc = compute_accelerations(state, None, fm, kernel)
        assert len(calls) == 1
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
    terms, not with their difference; an interaction adds its own w_ki.
    """
    from sphwass.forces import f_theta

    x, m = state.positions, state.masses
    r2 = direct_sq_dists(x, x)
    w = np.zeros_like(r2)
    if fm.eos is not None:
        F = f_theta(fm.eos, fm.theta, rho)
        w += np.abs(m[None, :] * (F[:, None] + fm.theta * F[None, :])
                    * kernel.grad_scale_from_sq(r2))
    if fm.interaction is not None:
        w += np.abs(m[None, :] * fm.interaction.force_scale(np.sqrt(r2)))
    size = np.abs(x).max(axis=1)
    return (w @ size + w.sum(axis=1) * size).max()


def force_band(monkeypatch, banded):
    # the input picks the band; replacing _band forces one on every walk, or none
    monkeypatch.setattr(
        sph, "_band", lambda kernel, n: kernel.support_radius / kernel.h if banded else None
    )


def force_direct_sq_dists(monkeypatch):
    # the product r2 = |y|^2 + |x|^2 - 2 y.x rounds with the BLAS kernel that
    # the block's shape selects, by up to about eps (extent/h)^2 in walk
    # coordinates: beyond 1e-13 in rho for extent/h near 800.  Direct
    # differences of the factors' coordinates round the same in any block.  They go
    # into the block's buffer, which the Morse sum's arena pass reads.
    def direct(a, b, out):
        out[...] = direct_sq_dists(-0.5 * a[:, 2:], b[2:].T)
        return out

    monkeypatch.setattr(sph, "_sq_dists", direct)


def assert_band_matches_all_pairs(state, kernel, fm, monkeypatch):
    force_band(monkeypatch, False)
    rho_ap = compute_density(state, kernel)
    a_ap = compute_accelerations(state, rho_ap, fm, kernel)
    force_band(monkeypatch, True)
    rho_cl = compute_density(state, kernel)
    a_cl = compute_accelerations(state, rho_ap, fm, kernel)
    np.testing.assert_allclose(rho_cl, rho_ap, rtol=1e-13)
    scale = np.abs(a_ap).max()
    assert np.abs(a_cl - a_ap).max() <= 1e-13 * scale


class TestCellListEquivalence:
    """The banded walk against the walk over all pairs."""

    @pytest.mark.parametrize("theta", [0, 1])
    def test_density_and_accel_paths_agree(self, theta, rng, monkeypatch):
        # scaled-h regime: the band holds a few support radii only
        n = 512
        masses = normalized(np.ones(n))
        positions = rng.random((n, 2))
        state = ParticleState(masses, positions, np.zeros((n, 2)))
        assert_band_matches_all_pairs(
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
        # only the blocks, the sort and the summation order are compared
        state, kernel = random_cloud(n, h, extent, seed)
        fm = hydro_model(7.0, theta)
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_direct_sq_dists(monkeypatch)
            rho, acc = {}, {}
            for banded in (False, True):
                force_band(monkeypatch, banded)
                rho[banded] = compute_density(state, kernel)
                acc[banded] = compute_accelerations(state, rho[False], fm, kernel)
        np.testing.assert_allclose(rho[True], rho[False], rtol=1e-13)
        folded = folded_pair_terms(state, rho[False], fm, kernel)
        assert np.abs(acc[True] - acc[False]).max() <= 1e-13 * folded

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 400),
        h=st.floats(0.005, 0.5),
        extent=st.floats(0.1, 4.0),
        banded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_theta1_momentum_closure_on_random_clouds(self, n, h, extent, banded, seed):
        # the pair terms of theta = 1 cancel in sum_k m_k a_k with or
        # without the band, with the engine's own squared distances
        state, kernel = random_cloud(n, h, extent, seed)
        fm = hydro_model(7.0, 1)
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_band(monkeypatch, banded)
            rho = compute_density(state, kernel)
            acc = compute_accelerations(state, rho, fm, kernel)
        folded = folded_pair_terms(state, rho, fm, kernel)
        assert np.abs(state.masses @ acc).max() <= 1e-13 * folded

    def test_unbounded_kernels_and_interactions_get_no_band(self, rng, monkeypatch):
        # the band needs a compact kernel and a walk of several blocks, and
        # the Morse sum walks all pairs whatever the kernel
        assert sph._band(Gaussian1D(1.0), 10**6) is None
        assert sph._band(WendlandCubic2D(0.05), sph._BLOCK) is None
        assert sph._band(WendlandCubic2D(0.05), sph._BLOCK + 1) == 2.0
        calls = TestBlockSlot.count_block_passes(monkeypatch)
        n = 2 * sph._BLOCK
        state = ParticleState(normalized(np.ones(n)), rng.random((n, 2)), np.zeros((n, 2)))
        for eos in (None, EosPolytropic(gamma=7.0)):
            fm = ForceModel(theta=1, eos=eos, interaction=MorseInteraction())
            compute_accelerations(state, None, fm, WendlandCubic2D(0.05))
        assert calls == [None, 2.0, None]


def direct_accelerations(state, rho, fm, kernel):
    """The pair sums of the accelerations by direct differences and plain sums."""
    from sphwass.forces import f_theta

    x, m = state.positions, state.masses
    dx = x[:, None, :] - x[None, :, :]
    r2 = (dx * dx).sum(axis=-1)
    acc = np.zeros_like(x)
    if fm.eos is not None:
        F = f_theta(fm.eos, fm.theta, rho)
        w = m[None, :] * kernel.grad_scale_from_sq(r2) * (F[:, None] + fm.theta * F[None, :])
        acc -= (w[:, :, None] * dx).sum(axis=1)
    if fm.interaction is not None:
        c = m[None, :] * fm.interaction.force_scale(np.sqrt(r2))
        acc += (c[:, :, None] * dx).sum(axis=1)
    return acc


class TestAllPairsReference:
    """The one walk against plain sums over every pair, without blocks."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 3 * sph._BLOCK + 5),
        h=st.floats(0.01, 0.5),
        extent=st.floats(0.1, 4.0),
        theta=st.sampled_from([0, 1]),
        morse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_walk_matches_direct_sums(self, n, h, extent, theta, morse, seed):
        # several blocks, bands pruned to a few support radii or holding all
        # pairs, pressure alone or with the Morse sum
        state, kernel = random_cloud(n, h, extent, seed)
        fm = ForceModel(theta=theta, eos=EosPolytropic(gamma=7.0),
                        interaction=MorseInteraction() if morse else None)
        rho_ref = kernel.value_from_sq(direct_sq_dists(state.positions, state.positions))
        rho_ref = (rho_ref * state.masses[None, :]).sum(axis=1)
        with pytest.MonkeyPatch.context() as monkeypatch:
            force_direct_sq_dists(monkeypatch)
            rho = compute_density(state, kernel)
            acc = compute_accelerations(state, None, fm, kernel)
        np.testing.assert_allclose(rho, rho_ref, rtol=1e-13)
        ref = direct_accelerations(state, rho_ref, fm, kernel)
        assert np.abs(acc - ref).max() <= 1e-13 * folded_pair_terms(state, rho_ref, fm, kernel)

    @pytest.mark.parametrize("h", [0.5, 0.05])
    def test_density_at_grid_targets_matches_direct_sums(self, h, rng, monkeypatch):
        # a grid reaching past the cloud, in the walk of density_profile
        from sphwass.experiments import density_profile

        state, kernel = random_cloud(3 * sph._BLOCK + 5, h, 2.0, 7)
        axes = np.meshgrid(*[np.linspace(-1.0, 2.0, 23)] * 2, indexing="ij")
        grid = np.stack([a.ravel() for a in axes], axis=1)[rng.permutation(23 * 23)]
        force_direct_sq_dists(monkeypatch)
        prof = density_profile(state, kernel, grid)
        ref = kernel.value_from_sq(direct_sq_dists(grid, state.positions))
        ref = (ref * state.masses[None, :]).sum(axis=1)
        assert np.abs(prof - ref).max() <= 1e-13 * ref.max()


class TestTranslationInvariance:
    @pytest.mark.parametrize("theta", [0, 1])
    @pytest.mark.parametrize("banded", [False, True], ids=["all", "band"])
    @pytest.mark.parametrize("h", [1.0, 0.2])
    def test_shifted_cloud_has_the_same_rho_and_accelerations(self, h, banded, theta, rng,
                                                              monkeypatch):
        # a dyadic grid shifted by a power of two moves exactly, so each walk
        # sees the same coordinates, sorted the same way
        n = 300
        x = rng.integers(0, 3 * 2**20, size=(n, 2)) * 2.0**-20
        masses = normalized(rng.random(n) + 0.1)
        kernel, fm = WendlandCubic2D(h), hydro_model(7.0, theta)
        force_band(monkeypatch, banded)
        results = []
        for shift in (0.0, 2.0**7, 2.0**13):
            state = ParticleState(masses, x + shift, np.zeros((n, 2)))
            results.append((compute_density(state, kernel),
                            compute_accelerations(state, None, fm, kernel)))
        (rho, acc), shifted = results[0], results[1:]
        for rho_s, acc_s in shifted:
            np.testing.assert_allclose(rho_s, rho, rtol=1e-13, atol=0.0)
            assert np.abs(acc_s - acc).max() <= 1e-13 * np.abs(acc).max()


class TestSupportRadii:
    def test_bound_at_time_zero(self):
        state = ParticleState([0.5, 0.5], [[0.9, 1.2], [0.0, 0.3]], [[0.3, 0.0], [0.0, 0.1]])
        radii = support_radii(state, hydro_model(2.0, 1), WendlandCubic2D(1.0), [0.0])
        assert radii == [1.5]

    def test_gamma2_gaussian_constants(self):
        # M2 = sup F1 = k_eos; M1 = 2 * M2 * sup|W'| = 2 * 0.48394; with v0 = 0
        # and no other forces, r(1) = r0 + 0.5 * M1
        state = ParticleState([0.5, 0.5], [[0.2], [0.8]], np.zeros((2, 1)))
        r0, r1 = support_radii(state, hydro_model(2.0, 1), Gaussian1D(1.0), [0.0, 1.0])
        assert r0 == 0.8
        assert r1 == pytest.approx(r0 + 0.48394, abs=1e-4)

    def test_nondecreasing_in_time(self, random_state_factory):
        state = random_state_factory(16, 2)
        fm = ForceModel(theta=1, eos=EosPolytropic(gamma=7.0), interaction=MorseInteraction())
        radii = support_radii(state, fm, WendlandCubic2D(0.5), np.linspace(0, 10, 50))
        assert np.all(np.diff(radii) > 0)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_morse_with_drag_radii_match_the_closed_form(self, n):
        state = equipartition(preset("morse_cloud_2d", n))
        morse = MorseInteraction(c_a=2.0, c_r=1.5, l_a=1.0, l_r=2.0, r_cut=0.1)
        fm = ForceModel(theta=1, eta=10.0, interaction=morse)
        times = np.linspace(0.0, 1.0, 11)
        r0 = float(np.linalg.norm(state.positions, axis=1).max())
        v0 = float(np.linalg.norm(state.velocities, axis=1).max())  # released at rest
        expected = [r0 + t * v0 + 0.5 * t * t * morse.sup_norm() for t in times]
        radii = support_radii(state, fm, WendlandCubic2D(1.0), times)
        assert np.array(radii).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("gamma", [2.0, 7.0])
    def test_theta1_radii_match_the_closed_form(self, gamma):
        state = equipartition(preset("rotating_square_2d", 64))
        kernel, kappa = WendlandCubic2D(0.7), 1.3
        times = np.linspace(0.0, 0.5, 6)
        r0 = float(np.linalg.norm(state.positions, axis=1).max())
        v0 = float(np.linalg.norm(state.velocities, axis=1).max())
        m1 = 2.0 * (kappa * kernel.peak_value() ** (gamma - 2.0)) * kernel.grad_sup_norm()
        expected = [r0 + t * v0 + 0.5 * t * t * m1 for t in times]
        radii = support_radii(state, hydro_model(gamma, 1, kappa), kernel, times)
        assert v0 > 0
        assert np.array(radii).tobytes() == np.array(expected).tobytes()

    def test_none_without_constants(self):
        # theta = 0, gamma < 2 (F1 unbounded near rho = 0) and a potential
        state = ParticleState([1.0], [[0.0]], [[0.0]])
        kernel, times = Gaussian1D(1.0), [0.0, 1.0]
        assert support_radii(state, hydro_model(2.0, 0), kernel, times) is None
        assert support_radii(state, hydro_model(1.0, 1), kernel, times) is None
        fm = ForceModel(theta=1, eos=EosPolytropic(gamma=2.0), v_ext=QuadraticPotential(k=0.5))
        assert support_radii(state, fm, kernel, times) is None

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
