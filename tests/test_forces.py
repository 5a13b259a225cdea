import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphwass import (
    EosPolytropic,
    ForceModel,
    MorseInteraction,
    ParticleState,
    QuadraticPotential,
    SingularDensityError,
    WendlandCubic2D,
    compute_accelerations,
    f_theta,
)

PAPER_MORSE = dict(c_a=2.0, c_r=1.5, l_a=1.0, l_r=2.0)


class TestFTheta:
    def test_gamma2_both_constant(self):
        eos = EosPolytropic(gamma=2.0, k_eos=1.0)
        for rho in (1e-6, 0.3, 1.0, 57.0):
            assert f_theta(eos, 0, rho) == 2.0
            assert f_theta(eos, 1, rho) == 1.0

    def test_gamma7_at_unit_density(self):
        eos = EosPolytropic(gamma=7.0, k_eos=1.0)
        assert f_theta(eos, 0, 1.0) == 7.0
        assert f_theta(eos, 1, 1.0) == 1.0

    def test_gamma1_coincide_in_value(self):
        # k*gamma*rho**(gamma-2) equals k*rho**(gamma-2) at gamma = 1; the
        # schemes still differ through the pairwise symmetrization
        eos = EosPolytropic(gamma=1.0, k_eos=1.0)
        assert f_theta(eos, 0, 0.5) == pytest.approx(2.0, rel=1e-15)
        assert f_theta(eos, 1, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_gamma_below_two_rejects_zero_density(self):
        eos = EosPolytropic(gamma=1.0)
        with pytest.raises(SingularDensityError):
            f_theta(eos, 1, 0.0)
        with pytest.raises(SingularDensityError):
            f_theta(eos, 0, np.array([0.5, 0.0]))

    def test_gamma2_symmetrized_bracket_equals_f0(self, rng):
        # the algebraic root of scheme coincidence at gamma = 2
        eos = EosPolytropic(gamma=2.0, k_eos=3.7)
        rho_k = rng.random(100) + 1e-3
        rho_i = rng.random(100) + 1e-3
        bracket = f_theta(eos, 1, rho_k) + f_theta(eos, 1, rho_i)
        np.testing.assert_array_equal(bracket, f_theta(eos, 0, rho_k))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EosPolytropic(gamma=0.0)
        with pytest.raises(ValueError):
            EosPolytropic(gamma=2.0, k_eos=-1.0)
        with pytest.raises(ValueError):
            f_theta(EosPolytropic(gamma=2.0), 2, 1.0)


class TestMorse:
    def test_zero_at_origin_exactly(self):
        m = MorseInteraction(**PAPER_MORSE)
        np.testing.assert_array_equal(m.force(np.zeros(2)), np.zeros(2))
        np.testing.assert_array_equal(m.force(np.zeros((5, 2))), np.zeros((5, 2)))

    def test_odd_by_construction(self, rng):
        m = MorseInteraction(**PAPER_MORSE)
        x = rng.uniform(-5, 5, size=(500, 2))
        np.testing.assert_array_equal(m.force(x), -m.force(-x))

    def test_magnitude_at_r3(self):
        # oracle: U'(3) = -(c_r/l_r) e^{-3/l_r} + (c_a/l_a) e^{-3/l_a}
        expected = abs(-(1.5 / 2.0) * np.exp(-1.5) + 2.0 * np.exp(-3.0))
        assert expected == pytest.approx(0.06777, abs=5e-6)
        m = MorseInteraction(**PAPER_MORSE, r_cut=0.1)
        force = m.force(np.array([3.0, 0.0]))
        assert np.linalg.norm(force) == pytest.approx(expected, rel=1e-12)

    def test_jacobian_continuous_across_taper_edge(self):
        # one-sided finite-difference Jacobians, extrapolated to the taper
        # edge from either side, agree: a derivative jump would survive the
        # extrapolation while the taper's curvature ramp cancels
        m = MorseInteraction(**PAPER_MORSE, r_cut=0.1)
        step = 1e-6

        def fd_jacobian(point):
            jac = np.zeros((2, 2))
            for axis in range(2):
                delta = np.zeros(2)
                delta[axis] = step
                jac[:, axis] = (m.force(point + delta) - m.force(point - delta)) / (
                    2 * step
                )
            return jac

        for direction in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            d1, d2 = 2e-6, 4e-6
            inner = 2 * fd_jacobian((m.r_cut - d1) * direction) - fd_jacobian(
                (m.r_cut - d2) * direction
            )
            outer = 2 * fd_jacobian((m.r_cut + d1) * direction) - fd_jacobian(
                (m.r_cut + d2) * direction
            )
            assert np.abs(inner - outer).max() <= 1e-4

    def test_jacobian_smooth_at_generic_points(self, rng):
        m = MorseInteraction(**PAPER_MORSE)
        step = 1e-6
        for _ in range(20):
            pt = rng.uniform(-4, 4, size=2)
            if np.linalg.norm(pt) < 0.02:
                continue
            for axis in range(2):
                delta = np.zeros(2)
                delta[axis] = step
                left = (m.force(pt) - m.force(pt - delta)) / step
                right = (m.force(pt + delta) - m.force(pt)) / step
                assert np.abs(left - right).max() <= 1e-4

    def test_globally_bounded(self, rng):
        m = MorseInteraction(**PAPER_MORSE)
        r = np.linspace(0, 100, 400001)
        pts = np.stack([r, np.zeros_like(r)], axis=1)
        norms = np.linalg.norm(m.force(pts), axis=1)
        assert np.isfinite(norms).all()
        argmax = np.argmax(norms)
        assert r[argmax] > 0.0
        # both sides are sampled sups of the same sharply peaked profile
        assert norms.max() == pytest.approx(m.sup_norm(), rel=1e-4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MorseInteraction(c_a=-1.0)
        with pytest.raises(ValueError):
            MorseInteraction(r_cut=0.0)


def smoothstep(u):
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def plain_force_scale(m, r):
    """c(r) from whole-array temporaries, in the operation order of
    ``MorseInteraction.force_scale``."""
    taper = np.where(r < m.r_cut, smoothstep(np.minimum(r / m.r_cut, 1.0)), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r > 0.0, -m.u_prime(r) * taper / np.where(r > 0, r, 1.0), 0.0)


def plain_sup_norm(m, r_max, n_samples):
    r = np.linspace(0.0, r_max, n_samples)
    taper = np.where(r < m.r_cut, smoothstep(r / m.r_cut), 1.0)
    return float(np.abs(m.u_prime(r) * taper).max())


@st.composite
def radii_and_interaction(draw):
    """A Morse interaction and radii in a (1, 1) or (m, n) array that mix
    0, r_cut, the double just below r_cut and large values."""
    m = MorseInteraction(**PAPER_MORSE, r_cut=draw(st.floats(1e-3, 2.0)))
    special = st.sampled_from([0.0, m.r_cut, np.nextafter(m.r_cut, 0.0), 1e3, 1e300])
    value = st.one_of(special, st.floats(0.0, 3.0 * m.r_cut), st.floats(0.0, 100.0))
    shape = draw(st.sampled_from([(1, 1), None]))
    if shape is None:
        shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    values = draw(st.lists(value, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return m, np.array(values).reshape(shape)


class TestMorseEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(radii_and_interaction())
    def test_force_scale_is_bitwise_the_plain_expression(self, case):
        m, r = case
        c = m.force_scale(r)
        assert c.shape == r.shape
        assert c.tobytes() == plain_force_scale(m, r).tobytes()  # signs of zero too

    # |K| rises all the way to r = 0.08 < r_cut, so there the max is the
    # last sample, in a partial chunk
    @pytest.mark.parametrize(
        "kwargs", [{}, {"n_samples": 3 * 4096 + 17}, {"r_max": 0.08, "n_samples": 3 * 4096 + 17}]
    )
    def test_sup_norm_is_bitwise_the_one_shot_grid(self, kwargs):
        m = MorseInteraction(**PAPER_MORSE)
        r_max = kwargs.get("r_max", 20.0 * max(m.l_a, m.l_r))
        expected = plain_sup_norm(m, r_max, kwargs.get("n_samples", 200001))
        assert m.sup_norm(**kwargs) == expected

    def test_sup_norm_keeps_its_temporaries_small(self):
        m = MorseInteraction(**PAPER_MORSE)
        MorseInteraction.sup_norm.cache_clear()  # measure a computation, not a lookup
        tracemalloc.start()
        try:
            m.sup_norm()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def external_accel(fm, y, u):
    """-grad V(y) - eta u: the accelerations with no pair terms (no
    pressure law, no interaction)."""
    state = ParticleState(np.ones(len(y)), y, u)
    return compute_accelerations(state, None, fm, WendlandCubic2D(1.0))


class TestExternalAccel:
    def test_pure_drag(self):
        fm = ForceModel(theta=1, eta=10.0)
        acc = external_accel(fm, np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(acc, [[-10.0, 0.0]])

    def test_quadratic_potential_gradient(self):
        fm = ForceModel(theta=1, v_ext=QuadraticPotential())
        acc = external_accel(fm, np.array([[1.0, 2.0]]), np.zeros((1, 2)))
        np.testing.assert_allclose(acc, [[-1.0, -2.0]])

    def test_zero_velocity_zero_potential(self):
        fm = ForceModel(theta=1, eta=0.1)
        acc = external_accel(fm, np.array([[0.3, -0.4]]), np.zeros((1, 2)))
        np.testing.assert_array_equal(acc, np.zeros((1, 2)))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ForceModel(theta=2)
        with pytest.raises(ValueError):
            ForceModel(theta=1, eta=-0.5)

    @pytest.mark.parametrize(
        "eta", [float("nan"), float("inf"), lambda y: np.ones(len(y))], ids=["nan", "inf", "field"]
    )
    def test_drag_is_a_finite_number(self, eta):
        with pytest.raises(ValueError, match="eta"):
            ForceModel(theta=1, eta=eta)
