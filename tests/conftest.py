import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def normalized(w):
    w = np.asarray(w, dtype=float)
    return w / w.sum()


def plain_value_and_grad(kernel, r2):
    """Each kernel's W and g, grad W(x) = g x, at squared radii r2 as plain numpy
    expressions, in their operation order."""
    hh = kernel.h * kernel.h
    if kernel.dim == 1:  # the Gaussian
        w = kernel.norm_const * np.exp(-r2 / hh)
        return w, -2.0 * w / hh
    q = np.sqrt(r2) / kernel.h
    t = np.maximum(2.0 - q, 0.0)
    return kernel.norm_const * (1.0 + 1.5 * q) * t * t * t, -6.0 * kernel.norm_const * t * t / hh


@pytest.fixture
def random_state_factory(rng):
    """Random ParticleState clouds with normalized masses."""
    from sphwass import ParticleState

    def make(n, dim, vel_scale=1.0, box=1.0):
        masses = normalized(rng.random(n) + 0.1)
        positions = box * rng.random((n, dim))
        velocities = vel_scale * rng.standard_normal((n, dim))
        return ParticleState(masses, positions, velocities)

    return make
