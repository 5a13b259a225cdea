import numpy as np
import pytest

from sphwass import (
    DiscreteMeasure,
    InitialSpec,
    equipartition,
    preset,
    rotation_velocity,
    sample_iid,
    select_h,
    w1_1d_vs_uniform,
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

    def test_distance_to_uniform_is_quarter_over_n(self):
        # acceptance identity plus the coarser 1/(2n) a-priori bound
        for k in range(1, 11):
            n = 2**k
            state = equipartition(InitialSpec(n=n))
            mu = DiscreteMeasure.from_state(state)
            dist = w1_1d_vs_uniform(mu)
            assert abs(dist - 1.0 / (4 * n)) <= 1e-12
            assert dist <= 1.0 / (2 * n)


# 1D n = 2^k and 243, 2D n = 4^k, the 2D ones with and without the rotation field
PIN_CASES = (
    [(2**k, 1, None) for k in range(1, 15)]
    + [(243, 1, None)]
    + [(4**k, 2, field) for k in range(1, 8) for field in (None, rotation_velocity)]
)


def assert_same_bits(state, masses, positions, field):
    velocities = np.zeros_like(positions) if field is None else rotation_velocity(positions)
    for got, want in zip(
        (state.masses, state.positions, state.velocities), (masses, positions, velocities)
    ):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestBits:
    """Each state equals the formula for the uniform law on the unit cube, bit for bit."""

    @pytest.mark.parametrize("n, dim, field", PIN_CASES)
    def test_equipartition(self, n, dim, field):
        side = round(n ** (1 / dim))
        centers = np.arange(1, side + 1) / side - 0.5 / side
        if dim == 1:
            positions = centers[:, None]
            masses = np.diff(np.arange(side + 1) / side)
        else:
            # the first coordinate varies slowest
            positions = np.column_stack([np.repeat(centers, side), np.tile(centers, side)])
            masses = np.full(n, 1.0 / n)
            masses = masses / masses.sum()
        state = equipartition(InitialSpec(n=n, dim=dim, velocity_field=field))
        assert_same_bits(state, masses, positions, field)

    @pytest.mark.parametrize("n, dim, field", PIN_CASES)
    def test_sample_iid(self, n, dim, field):
        positions = np.random.default_rng(n + 5).random((n, dim))
        state = sample_iid(InitialSpec(n=n, dim=dim, velocity_field=field), seed=n + 5)
        assert_same_bits(state, np.full(n, 1.0 / n), positions, field)


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
                dists.append(w1_1d_vs_uniform(mu))
            return np.median(dists)

        assert median_dist(1024) < median_dist(64)


class TestSpec:
    @pytest.mark.parametrize("n, dim", [(4, 0), (4, -1), (0, 1)])
    def test_rejects_empty_counts_and_dimensions(self, n, dim):
        with pytest.raises(ValueError):
            InitialSpec(n=n, dim=dim)


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
