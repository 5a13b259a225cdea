import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphwass import Gaussian1D, WendlandCubic2D

HS = [0.1, 1.0, 10.0]


def make_kernels(h):
    return [Gaussian1D(h), WendlandCubic2D(h)]


def random_points(rng, kernel, count, radius=None):
    if radius is None:
        radius = 3.0 * kernel.h if kernel.dim == 1 else 2.0 * kernel.h
    pts = rng.uniform(-radius, radius, size=(count, kernel.dim))
    return pts


def test_gaussian_peak_value():
    k = Gaussian1D(1.0)
    assert k.value(0.0) == pytest.approx(1.0 / np.sqrt(np.pi), abs=1e-15)
    assert k.value(0.0) == pytest.approx(0.5641895835, abs=1e-9)


def test_gaussian_nonpositive_h_rejected():
    with pytest.raises(ValueError):
        Gaussian1D(0.0)
    with pytest.raises(ValueError):
        Gaussian1D(-1.0)
    with pytest.raises(ValueError):
        WendlandCubic2D(-0.5)


@pytest.mark.parametrize("kernel", [Gaussian1D, WendlandCubic2D])
@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_nonfinite_h_rejected(kernel, h):
    # h <= 0 is False for NaN, so both kernels constructed with h = NaN
    with pytest.raises(ValueError, match="finite"):
        kernel(h)


def test_wendland_vanishes_at_support_edge():
    k = WendlandCubic2D(1.0)
    assert k.value(np.array([2.0, 0.0])) == 0.0
    assert k.value(np.array([0.0, 2.0 + 1e-12])) == 0.0
    # continuity approaching the edge from inside
    inside = k.value(np.array([2.0 - 1e-8, 0.0]))
    assert 0.0 < inside < 1e-20


def test_wendland_normalization_constant_from_quadrature():
    # independent oracle: 2D radial quadrature of the unnormalized shape
    # (1 + 3r/2h)(2 - r/h)^3 gives 6.4*pi*h^2, so the unit-integral
    # constant is 1/(6.4 pi h^2) and the peak is 8x that.
    for h in HS:
        r = np.linspace(0.0, 2.0 * h, 400001)
        shape = (1.0 + 1.5 * r / h) * (2.0 - r / h) ** 3
        shape_integral = np.trapezoid(2.0 * np.pi * r * shape, r)
        assert shape_integral == pytest.approx(6.4 * np.pi * h * h, rel=1e-10)
        k = WendlandCubic2D(h)
        assert k.norm_const == pytest.approx(1.0 / shape_integral, rel=1e-10)
    k1 = WendlandCubic2D(1.0)
    assert k1.value(np.zeros(2)) == pytest.approx(8.0 / (6.4 * np.pi), abs=1e-12)
    assert k1.value(np.zeros(2)) == pytest.approx(0.39789, abs=5e-6)


def test_wendland_bare_prefactor_is_not_normalized():
    # with the bare 1/8 prefactor the 2D integral is 0.8*pi*h^2, not 1
    k = WendlandCubic2D(1.0, norm_const=1.0 / 8.0)
    assert k.normalization_residual() == pytest.approx(0.8 * np.pi - 1.0, abs=1e-9)
    assert k.normalization_residual() == pytest.approx(1.513, abs=5e-4)


@pytest.mark.parametrize("h", HS)
def test_normalization_residuals(h):
    assert Gaussian1D(h).normalization_residual() <= 1e-10
    assert WendlandCubic2D(h).normalization_residual() <= 1e-6


@pytest.mark.parametrize("h", [0.5, 1.0, 3.0])
def test_evenness_exact(h, rng):
    for kernel in make_kernels(h):
        pts = random_points(rng, kernel, 10000)
        np.testing.assert_array_equal(kernel.value(pts), kernel.value(-pts))


@pytest.mark.parametrize("h", [0.5, 1.0, 3.0])
def test_gradient_odd_and_zero_at_origin(h, rng):
    for kernel in make_kernels(h):
        origin = np.zeros(kernel.dim)
        np.testing.assert_array_equal(kernel.gradient(origin), origin)
        pts = random_points(rng, kernel, 1000)
        np.testing.assert_array_equal(kernel.gradient(pts), -kernel.gradient(-pts))


@pytest.mark.parametrize("h", [0.5, 1.0, 3.0])
def test_gradient_matches_finite_differences(h, rng):
    for kernel in make_kernels(h):
        # stay inside the support and away from the non-smooth radius 2h edge
        radius = 2.5 * h if kernel.dim == 1 else 1.9 * h
        pts = rng.uniform(-radius / np.sqrt(kernel.dim), radius / np.sqrt(kernel.dim),
                          size=(1000, kernel.dim))
        grad = kernel.gradient(pts)
        step = 1e-6 * h
        for axis in range(kernel.dim):
            shift = np.zeros(kernel.dim)
            shift[axis] = step
            fd = (kernel.value(pts + shift) - kernel.value(pts - shift)) / (2 * step)
            scale = np.maximum(np.abs(grad[:, axis]), kernel.peak_value() / h)
            rel = np.abs(fd - grad[:, axis]) / scale
            assert rel.max() <= 1e-6


def test_gaussian_gradient_value():
    k = Gaussian1D(1.0)
    x = 0.5
    expected = -2.0 * x * k.value(x)
    assert k.gradient(np.array([x]))[0] == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(-0.43939, abs=5e-6)
    # central finite difference oracle
    step = 1e-6
    fd = (k.value(x + step) - k.value(x - step)) / (2 * step)
    assert k.gradient(np.array([x]))[0] == pytest.approx(fd, rel=1e-6)


def test_wendland_gradient_zero_at_and_outside_support(rng):
    k = WendlandCubic2D(1.0)
    edge = np.array([2.0, 0.0])
    np.testing.assert_array_equal(k.gradient(edge), np.zeros(2))
    outside = rng.uniform(2.0, 10.0, size=(500, 2))
    outside *= (np.linalg.norm(outside, axis=1) > 2.0)[:, None] + 0.0
    mask = np.linalg.norm(outside, axis=1) > 2.0
    assert np.all(k.value(outside[mask]) == 0.0)
    assert np.all(k.gradient(outside[mask]) == 0.0)


def test_gradient_sup_norm_matches_numeric_maximization():
    for h in HS:
        g = Gaussian1D(h)
        xs = np.linspace(0, 6 * h, 200001)
        numeric = np.abs(g.gradient(xs[:, None])[:, 0]).max()
        assert g.grad_sup_norm() == pytest.approx(numeric, rel=1e-8)
        w = WendlandCubic2D(h)
        r = np.linspace(0, 2 * h, 200001)
        pts = np.stack([r, np.zeros_like(r)], axis=1)
        numeric_w = np.linalg.norm(w.gradient(pts), axis=1).max()
        assert w.grad_sup_norm() == pytest.approx(numeric_w, rel=1e-8)


def test_gaussian_grad_sup_norm_reference_value():
    # max of |W'| at x = h/sqrt(2); for h = 1 this is 0.48394
    assert Gaussian1D(1.0).grad_sup_norm() == pytest.approx(0.48394, abs=5e-6)


def test_kernel_values_nonnegative(rng):
    for kernel in make_kernels(1.0):
        pts = random_points(rng, kernel, 5000, radius=5.0)
        assert np.all(kernel.value(pts) >= 0.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        WendlandCubic2D(1.0).value(np.zeros((4, 3)))


@settings(max_examples=200, deadline=None)
@given(
    h=st.floats(1e-3, 1e3),
    ulps=st.integers(1, 2**20),
    scale=st.floats(1.0, 1e6),
)
def test_exact_zeros_beyond_the_support(h, ulps, scale):
    # the pair sums apply no cutoff mask on the strip path: every pair
    # beyond support_radius must contribute an exact zero by itself
    kernel = WendlandCubic2D(h)
    edge = kernel.support_radius**2
    r2 = np.array([np.nextafter(edge, np.inf), edge + ulps * np.spacing(edge), edge * scale])
    r2 = r2[r2 > edge]
    assert np.all(kernel.value_from_sq(r2) == 0.0)
    assert np.all(kernel.grad_scale_from_sq(r2) == 0.0)


def plain_value_and_grad(kernel, r2):
    """Each kernel's W and g as plain numpy expressions, in their operation order."""
    hh = kernel.h * kernel.h
    if isinstance(kernel, Gaussian1D):
        w = kernel.norm_const * np.exp(-r2 / hh)
        return w, -2.0 * w / hh
    q = np.sqrt(r2) / kernel.h
    t = np.maximum(2.0 - q, 0.0)
    return kernel.norm_const * (1.0 + 1.5 * q) * t * t * t, -6.0 * kernel.norm_const * t * t / hh


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_within_ulps(a, b, ulps):
    assert a.shape == b.shape and np.all(np.abs(a - b) <= ulps * np.spacing(np.abs(b)))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([Gaussian1D, WendlandCubic2D]),
    h=st.floats(1e-3, 1e3),
    shape=st.sampled_from([(1, 1), (1, 9), (7, 13), (40, 3)]),
    data=st.data(),
)
def test_constants_times_shapes_are_the_kernel(kind, h, shape, data):
    # the pair sums apply norm_const and grad_const to their n-row results:
    # times the shapes at u^2 = r^2 / h^2 they must give W and g, at r = 0,
    # at the support edge 2h and beyond it, and leave u^2 alone for the
    # interaction sum, which reads it after the kernel
    kernel = kind(h)
    edge = (2.0 * h) ** 2
    special = st.sampled_from([0.0, edge, np.nextafter(edge, np.inf), 1e3 * edge])
    size = shape[0] * shape[1]
    values = data.draw(st.lists(st.one_of(special, st.floats(0.0, 4.0 * edge)),
                                min_size=size, max_size=size))
    r2 = np.array(values).reshape(shape)
    u2 = r2 / (h * h)
    before = u2.copy()
    w, g = kernel.shapes(u2)
    assert_same_bits(u2, before)
    w, g = kernel.norm_const * w, kernel.grad_const * g
    assert_within_ulps(w, kernel.value_from_sq(r2), 4)
    assert_within_ulps(g, kernel.grad_scale_from_sq(r2), 4)
    # the plain expressions take q = sqrt(r^2) / h, a last bit apart from
    # sqrt(u^2), which 2 - q magnifies near the support edge
    eps = np.finfo(float).eps
    plain_w, plain_g = plain_value_and_grad(kernel, r2)
    np.testing.assert_allclose(w, plain_w, rtol=8 * eps, atol=8 * eps * kernel.peak_value())
    np.testing.assert_allclose(g, plain_g, rtol=8 * eps, atol=32 * eps * abs(kernel.grad_const))
