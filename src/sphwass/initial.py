"""Construction of initial particle states.

Every state approximates the uniform law on the unit cube [0, 1]^d, the
initial density of all three experiment families.  Two constructions:

* :func:`equipartition` -- deterministic: the cube is split into n equal
  cells, one particle sits at each cell center, and it carries exactly
  the measure of its cell (in 1D: points at i/n - 1/(2n), each with its
  cell's length as mass).  In 1D the distance to the continuum is
  exactly 1/(4n).
* :func:`sample_iid` -- probabilistic: n independent uniform draws, each
  with weight 1/n, reproducible per seed.

Smoothing lengths follow either a fixed value or the customary
resolution scaling ``h = epsilon * V0**(1/d)`` with the per-particle
volume ``V0 = 1/n``.
"""

from dataclasses import dataclass

import numpy as np

from .sph import ParticleState

__all__ = [
    "InitialSpec",
    "equipartition",
    "sample_iid",
    "select_h",
    "rotation_velocity",
    "preset",
]


@dataclass(frozen=True)
class InitialSpec:
    """What to construct: n particles for the uniform law on [0, 1]^dim.

    ``velocity_field`` maps positions (n, d) to velocities (n, d); None
    means starting at rest.  In dimension d the particle count must be a
    d-th power for the equipartition construction.
    """

    n: int
    dim: int = 1
    velocity_field: object = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")


def _side_count(n, dim):
    side = round(n ** (1.0 / dim))
    for cand in (side - 1, side, side + 1):
        if cand >= 1 and cand**dim == n:
            return cand
    raise ValueError(f"n = {n} is not a {dim}-th power of an integer")


def equipartition(spec):
    """Deterministic cell-center construction carrying exact cell masses."""
    side = _side_count(spec.n, spec.dim)
    centers = np.arange(1, side + 1) / side - 0.5 / side
    grids = np.meshgrid(*[centers] * spec.dim, indexing="ij")
    positions = np.stack([g.ravel() for g in grids], axis=1)
    if spec.dim == 1:
        masses = np.diff(np.arange(side + 1) / side)
    else:
        # divided by their sum, the bits the golden reports hold
        masses = np.full(spec.n, 1.0 / spec.n)
        masses = masses / masses.sum()
    velocities = _initial_velocities(spec, positions)
    return ParticleState(masses=masses, positions=positions, velocities=velocities)


def sample_iid(spec, seed):
    """n i.i.d. uniform draws on the cube, each with weight 1/n."""
    rng = np.random.default_rng(seed)
    positions = rng.random((spec.n, spec.dim))
    masses = np.full(spec.n, 1.0 / spec.n)
    velocities = _initial_velocities(spec, positions)
    return ParticleState(masses=masses, positions=positions, velocities=velocities)


def _initial_velocities(spec, positions):
    if spec.velocity_field is None:
        return np.zeros_like(positions)
    v = np.asarray(spec.velocity_field(positions), dtype=float)
    if v.shape != positions.shape:
        raise ValueError("velocity field must return one vector per particle")
    return v


def select_h(spec, mode, value):
    """Smoothing length: ``mode='fixed'`` takes ``value`` as h; ``mode='scaled'``
    returns ``value * (1/n)**(1/d)`` (``value`` is then the customary
    factor, usually between 1.2 and 1.5)."""
    if mode == "fixed":
        h = float(value)
    elif mode == "scaled":
        eps = float(value)
        if not 1.2 <= eps <= 1.5:
            import warnings

            warnings.warn(
                f"resolution-scaling factor {eps} lies outside the customary "
                "[1.2, 1.5] range",
                RuntimeWarning,
            )
        vol0 = 1.0 / spec.n
        h = eps * vol0 ** (1.0 / spec.dim)
    else:
        raise ValueError(f"unknown h mode {mode!r}")
    if h <= 0:
        raise ValueError(f"smoothing length must be positive, got {h}")
    return h


def rotation_velocity(positions):
    """Rigid rotation about the origin: (vx, vy) = (-y, x)."""
    x = np.asarray(positions, dtype=float)
    if x.shape[1] != 2:
        raise ValueError("rotation field is two-dimensional")
    return np.stack([-x[:, 1], x[:, 0]], axis=1)


def preset(name, n):
    """Named initial configurations used by the experiment drivers."""
    if name == "uniform_box_1d":
        return InitialSpec(n=n)
    if name == "rotating_square_2d":
        return InitialSpec(n=n, dim=2, velocity_field=rotation_velocity)
    if name == "morse_cloud_2d":
        return InitialSpec(n=n, dim=2)
    raise ValueError(f"unknown preset {name!r}")
