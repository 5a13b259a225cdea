"""Construction of initial particle states.

Two constructions approximate a density on an axis-aligned box:

* :func:`equipartition` -- deterministic: the box is split into n equal
  cells, one particle sits at each cell center, and it carries exactly
  the measure of its cell (in 1D: points at i/n - 1/(2n) with the cell
  integrals as masses).  For the uniform density on [0, 1] the distance
  to the continuum is exactly 1/(4n).
* :func:`sample_iid` -- probabilistic: n independent draws from the
  density, each with weight 1/n, reproducible per seed.

Smoothing lengths follow either a fixed value or the customary
resolution scaling ``h = epsilon * V0**(1/d)`` with the per-particle
volume ``V0 = |box| / n``.
"""

from dataclasses import dataclass, field

import numpy as np

from .sph import ParticleState

__all__ = [
    "Box",
    "PiecewiseConstantDensity1D",
    "InitialSpec",
    "equipartition",
    "sample_iid",
    "select_h",
    "rotation_velocity",
    "preset",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by per-axis lower and upper bounds."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same length")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent on every axis")

    @property
    def dim(self):
        return len(self.lo)

    @property
    def volume(self):
        return float(np.prod([h - l for l, h in zip(self.lo, self.hi)]))

    @classmethod
    def unit(cls, dim):
        return cls(lo=(0.0,) * dim, hi=(1.0,) * dim)


@dataclass(frozen=True)
class PiecewiseConstantDensity1D:
    """Normalized piecewise-constant density: ``values[i]`` on the cell
    ``[breakpoints[i], breakpoints[i+1]]``, zero outside."""

    breakpoints: tuple
    values: tuple
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or len(bp) != len(vals) + 1:
            raise ValueError("need m+1 breakpoints for m density values")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ValueError("breakpoints and density values must be finite")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(vals < 0):
            raise ValueError("density values must be nonnegative")
        cum = np.concatenate([[0.0], np.cumsum(vals * np.diff(bp))])
        if abs(cum[-1] - 1.0) > 1e-9:
            raise ValueError(f"density must integrate to 1, got {cum[-1]!r}")
        object.__setattr__(self, "breakpoints", tuple(bp.tolist()))
        object.__setattr__(self, "values", tuple(vals.tolist()))
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def uniform(cls, lo=0.0, hi=1.0):
        return cls(breakpoints=(lo, hi), values=(1.0 / (hi - lo),))

    def _cell(self, x, edges):
        """Index of the cell whose left ``edges`` entry is the last <= x."""
        idx = np.searchsorted(edges, x, side="right") - 1
        return np.clip(idx, 0, len(self.values) - 1)

    def pdf(self, x):
        bp = np.asarray(self.breakpoints)
        x = np.asarray(x, dtype=float)
        inside = (x >= bp[0]) & (x <= bp[-1])
        return np.where(inside, np.asarray(self.values)[self._cell(x, bp)], 0.0)

    def cdf(self, x):
        """Distribution function: 0 below the first breakpoint, 1 from the last."""
        bp = np.asarray(self.breakpoints)
        x = np.clip(np.asarray(x, dtype=float), bp[0], bp[-1])
        idx = self._cell(x, bp)
        return self._cum[idx] + np.asarray(self.values)[idx] * (x - bp[idx])

    def integrate(self, a, b):
        """Exact integral of the density over [a, b]."""
        return float(self.cdf(b) - self.cdf(a))

    def inverse_cdf(self, u):
        """Quantile function, used for inverse-transform sampling."""
        vals = np.asarray(self.values)
        u = np.asarray(u, dtype=float)
        idx = self._cell(u, self._cum)
        with np.errstate(divide="ignore", invalid="ignore"):
            offs = np.where(vals[idx] > 0, (u - self._cum[idx]) / vals[idx], 0.0)
        return np.asarray(self.breakpoints)[idx] + offs


@dataclass(frozen=True)
class InitialSpec:
    """What to construct: a box, a density on it, a count, and velocities.

    ``density_axes`` holds one 1D density per axis (a product density);
    None means uniform on the box.  ``velocity_field`` maps positions
    (n, d) to velocities (n, d); None means starting at rest.  In
    dimension d the particle count must be a d-th power for the
    equipartition construction.
    """

    n: int
    box: Box = None
    density_axes: tuple = None
    velocity_field: object = None
    dim: int = 1

    def __post_init__(self):
        if self.box is None:
            object.__setattr__(self, "box", Box.unit(self.dim))
        object.__setattr__(self, "dim", self.box.dim)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.density_axes is not None:
            if len(self.density_axes) != self.dim:
                raise ValueError("need one density per axis")

    def axis_density(self, axis):
        if self.density_axes is not None:
            return self.density_axes[axis]
        return PiecewiseConstantDensity1D.uniform(self.box.lo[axis], self.box.hi[axis])


def _side_count(n, dim):
    side = round(n ** (1.0 / dim))
    for cand in (side - 1, side, side + 1):
        if cand >= 1 and cand**dim == n:
            return cand
    raise ValueError(f"n = {n} is not a {dim}-th power of an integer")


def equipartition(spec):
    """Deterministic cell-center construction carrying exact cell masses."""
    dim = spec.dim
    side = _side_count(spec.n, dim)
    axis_pts, axis_masses, axis_pdfs = [], [], []
    for ax in range(dim):
        lo, hi = spec.box.lo[ax], spec.box.hi[ax]
        edges = lo + (hi - lo) * np.arange(side + 1) / side
        centers = lo + (hi - lo) * ((np.arange(1, side + 1) / side) - 0.5 / side)
        dens = spec.axis_density(ax)
        axis_pts.append(centers)
        axis_masses.append(np.diff(dens.cdf(edges)))
        axis_pdfs.append(dens.pdf(centers))
    grids = np.meshgrid(*axis_pts, indexing="ij")
    positions = np.stack([g.ravel() for g in grids], axis=1)
    if dim == 1:
        # exact per-cell measure
        masses = axis_masses[0]
    else:
        # density sampled at the cell center times the cell volume,
        # renormalized; identical to exact integrals for grid-aligned
        # piecewise-constant densities
        vol0 = spec.box.volume / spec.n
        pdf_grids = np.meshgrid(*axis_pdfs, indexing="ij")
        masses = vol0 * np.prod([g.ravel() for g in pdf_grids], axis=0)
        total = masses.sum()
        if total <= 0:
            raise ValueError("density vanishes at every cell center")
        masses = masses / total
    velocities = _initial_velocities(spec, positions)
    return ParticleState(masses=masses, positions=positions, velocities=velocities)


def sample_iid(spec, seed):
    """n i.i.d. draws from the product density, each with weight 1/n."""
    rng = np.random.default_rng(seed)
    u = rng.random((spec.n, spec.dim))
    cols = [spec.axis_density(ax).inverse_cdf(u[:, ax]) for ax in range(spec.dim)]
    positions = np.stack(cols, axis=1)
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
    returns ``value * (|box|/n)**(1/d)`` (``value`` is then the customary
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
        vol0 = spec.box.volume / spec.n
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
        return InitialSpec(n=n, box=Box.unit(1))
    if name == "rotating_square_2d":
        return InitialSpec(n=n, box=Box.unit(2), velocity_field=rotation_velocity)
    if name == "morse_cloud_2d":
        return InitialSpec(n=n, box=Box.unit(2))
    raise ValueError(f"unknown preset {name!r}")
