import numpy as np
import pytest

from sphwass import (
    DiscreteMeasure,
    InitialSpec,
    PiecewiseConstantDensity1D,
    equipartition,
    preset,
    rotation_velocity,
    sample_iid,
    select_h,
    w1_1d_vs_density,
)


class TestEquipartition:
    def test_1d_two_particles(self):
        state = equipartition(InitialSpec(n=2))
        np.testing.assert_allclose(state.positions[:, 0], [0.25, 0.75])
        np.testing.assert_allclose(state.masses, [0.5, 0.5])

    def test_2d_four_particles(self):
        state = equipartition(InitialSpec(n=4, dim=2))
        expected = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
        got = {tuple(np.round(p, 12)) for p in state.positions}
        assert got == expected
        np.testing.assert_allclose(state.masses, 0.25)

    def test_rejects_non_power_counts_in_2d(self):
        with pytest.raises(ValueError):
            equipartition(InitialSpec(n=3, dim=2))
        with pytest.raises(ValueError):
            equipartition(InitialSpec(n=8, dim=2))

    def test_masses_sum_to_one_and_points_interior(self):
        for n in (2, 16, 243):
            state = equipartition(InitialSpec(n=n))
            assert abs(state.masses.sum() - 1.0) <= 1e-12
            assert state.positions.min() > 0.0
            assert state.positions.max() < 1.0
        state = equipartition(InitialSpec(n=16, dim=2))
        assert abs(state.masses.sum() - 1.0) <= 1e-12

    def test_cell_masses_equal_cell_integrals(self):
        # pushforward property: every point carries exactly its cell's measure
        dens = PiecewiseConstantDensity1D((0.0, 0.5, 1.0), (1.5, 0.5))
        spec = InitialSpec(n=4, density_axes=(dens,))
        state = equipartition(spec)
        # cells [0,.25),[.25,.5),[.5,.75),[.75,1): integrals .375,.375,.125,.125
        np.testing.assert_allclose(state.masses, [0.375, 0.375, 0.125, 0.125])
        np.testing.assert_allclose(state.positions[:, 0], [0.125, 0.375, 0.625, 0.875])

    def test_distance_to_uniform_is_quarter_over_n(self):
        # acceptance identity plus the coarser 1/(2n) a-priori bound
        for k in range(1, 11):
            n = 2**k
            state = equipartition(InitialSpec(n=n))
            mu = DiscreteMeasure.from_state(state)
            dist = w1_1d_vs_density(mu, [0.0, 1.0], [1.0])
            assert abs(dist - 1.0 / (4 * n)) <= 1e-12
            assert dist <= 1.0 / (2 * n)

    def test_2d_nonuniform_masses_renormalized(self):
        dens = PiecewiseConstantDensity1D((0.0, 0.5, 1.0), (1.5, 0.5))
        unif = PiecewiseConstantDensity1D.uniform()
        state = equipartition(InitialSpec(n=4, dim=2, density_axes=(dens, unif)))
        assert abs(state.masses.sum() - 1.0) <= 1e-12
        # left column carries 0.75 of the mass
        left = state.positions[:, 0] < 0.5
        assert state.masses[left].sum() == pytest.approx(0.75, abs=1e-12)


class TestSampleIid:
    def test_points_inside_domain(self):
        state = sample_iid(InitialSpec(n=500, dim=2), seed=7)
        assert np.all(state.positions >= 0.0)
        assert np.all(state.positions <= 1.0)
        np.testing.assert_allclose(state.masses, 1.0 / 500)

    def test_seed_determinism(self):
        a = sample_iid(InitialSpec(n=64), seed=123)
        b = sample_iid(InitialSpec(n=64), seed=123)
        np.testing.assert_array_equal(a.positions, b.positions)
        c = sample_iid(InitialSpec(n=64), seed=124)
        assert not np.array_equal(a.positions, c.positions)

    def test_distance_to_uniform_shrinks_with_n(self):
        # Monte-Carlo trend check: median distance at n=1024 below n=64
        def median_dist(n):
            dists = []
            for seed in range(20):
                state = sample_iid(InitialSpec(n=n), seed=seed)
                mu = DiscreteMeasure.from_state(state)
                dists.append(w1_1d_vs_density(mu, [0.0, 1.0], [1.0]))
            return np.median(dists)

        assert median_dist(1024) < median_dist(64)

    def test_nonuniform_inverse_cdf_sampling(self):
        dens = PiecewiseConstantDensity1D((0.0, 0.5, 1.0), (1.5, 0.5))
        state = sample_iid(InitialSpec(n=20000, density_axes=(dens,)), seed=11)
        frac_left = (state.positions[:, 0] < 0.5).mean()
        assert frac_left == pytest.approx(0.75, abs=0.02)


class TestSelectH:
    def test_fixed(self):
        assert select_h(InitialSpec(n=512), "fixed", 1.0) == 1.0

    def test_scaled_1d(self):
        h = select_h(InitialSpec(n=512), "scaled", 1.5)
        assert h == pytest.approx(1.5 / 512, rel=1e-15)
        assert h == pytest.approx(0.0029297, abs=5e-8)

    def test_scaled_2d(self):
        h = select_h(InitialSpec(n=1024, dim=2), "scaled", 1.5)
        assert h == pytest.approx(1.5 * (1.0 / 1024) ** 0.5, rel=1e-15)
        assert h == pytest.approx(0.046875, abs=1e-12)

    def test_warns_outside_customary_range(self):
        with pytest.warns(RuntimeWarning):
            select_h(InitialSpec(n=16), "scaled", 2.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            select_h(InitialSpec(n=16), "fixed", -1.0)
        with pytest.raises(ValueError):
            select_h(InitialSpec(n=16), "banana", 1.0)


class TestPresets:
    def test_rotation_field(self):
        pts = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
        np.testing.assert_allclose(
            rotation_velocity(pts), [[0.0, 1.0], [-2.0, 0.0], [-0.5, 0.5]]
        )

    def test_named_presets(self):
        s1 = preset("uniform_box_1d", 8)
        assert s1.dim == 1
        s2 = preset("rotating_square_2d", 16)
        state = equipartition(s2)
        np.testing.assert_allclose(
            state.velocities, rotation_velocity(state.positions)
        )
        s3 = preset("morse_cloud_2d", 16)
        assert np.all(equipartition(s3).velocities == 0.0)
        with pytest.raises(ValueError):
            preset("nope", 4)


class TestDensity1D:
    def test_validates_normalization(self):
        with pytest.raises(ValueError):
            PiecewiseConstantDensity1D((0.0, 1.0), (2.0,))

    @pytest.mark.parametrize(
        "breakpoints, values",
        [
            ((0.0, np.nan), (1.0,)),
            ((np.nan, 1.0), (1.0,)),
            ((0.0, np.inf), (0.0,)),
            ((0.0, 0.5, 1.0), (np.nan, 1.0)),
            ((0.0, 0.5, 1.0), (np.inf, 1.0)),
        ],
    )
    def test_rejects_nonfinite(self, breakpoints, values):
        with pytest.raises(ValueError, match="finite"):
            PiecewiseConstantDensity1D(breakpoints, values)

    def test_cdf_matches_integrate(self):
        dens = PiecewiseConstantDensity1D((0.0, 0.5, 1.0), (1.5, 0.5))
        xs = np.array([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
        np.testing.assert_array_equal(dens.cdf(xs), [dens.integrate(-5.0, x) for x in xs])
        np.testing.assert_allclose(dens.cdf(xs), [0.0, 0.0, 0.375, 0.75, 0.875, 1.0, 1.0])

    def test_integrate_and_inverse_cdf(self):
        dens = PiecewiseConstantDensity1D((0.0, 0.5, 1.0), (1.5, 0.5))
        assert dens.integrate(0.0, 0.5) == pytest.approx(0.75)
        assert dens.integrate(0.25, 0.75) == pytest.approx(0.375 + 0.125)
        assert dens.inverse_cdf(0.75) == pytest.approx(0.5)
        assert dens.inverse_cdf(0.0) == pytest.approx(0.0)
        assert dens.inverse_cdf(1.0) == pytest.approx(1.0)
