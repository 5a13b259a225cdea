"""Force ingredients: equation of state, external potential, drag, and
the regularized Morse interaction.

The pressure enters the particle equations through a pair of functions
derived from a polytropic equation of state ``P(rho) = k_eos * rho**gamma``
(internal energy satisfies ``de/drho = P / rho**2``):

* ``theta = 1`` uses ``F1(rho) = k_eos * rho**(gamma - 2)``, the bare
  derivative of the specific internal energy;
* ``theta = 0`` uses ``F0(rho) = (1/rho) d/drho(rho**2 F1(rho))
  = gamma * k_eos * rho**(gamma - 2)``, which folds the full pressure
  gradient into a single factor.

For ``gamma = 2`` both are constant (``F0 = 2 k_eos``, ``F1 = k_eos``) and
the two particle schemes coincide.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "EosPolytropic",
    "MorseInteraction",
    "QuadraticPotential",
    "ForceModel",
    "SingularDensityError",
    "f_theta",
]


class SingularDensityError(ValueError):
    """Raised when the pressure function is evaluated at rho = 0 with gamma < 2."""


@dataclass(frozen=True)
class EosPolytropic:
    """Polytropic equation of state P = k_eos * rho**gamma."""

    gamma: float
    k_eos: float = 1.0

    def __post_init__(self):
        for name in ("gamma", "k_eos"):
            if not 0 < (value := getattr(self, name)) < np.inf:  # also false for NaN
                raise ValueError(f"{name} must be positive and finite, got {value}")


def f_theta(eos, theta, rho):
    """Pressure function F_theta(rho) for the scheme switch theta in {0, 1}.

    theta=1 returns ``k_eos * rho**(gamma-2)``; theta=0 returns
    ``gamma * k_eos * rho**(gamma-2)``.  For gamma < 2 the exponent is
    negative and rho = 0 raises :class:`SingularDensityError`.
    """
    if theta not in (0, 1):
        raise ValueError(f"theta must be 0 or 1, got {theta}")
    rho = np.asarray(rho, dtype=float)
    expo = eos.gamma - 2.0
    if expo < 0 and np.any(rho <= 0.0):
        raise SingularDensityError(
            f"F_theta singular: rho = 0 encountered with gamma = {eos.gamma} < 2"
        )
    out = eos.k_eos * rho**expo
    if theta == 0:
        out = eos.gamma * out
    return out if out.ndim else float(out)


def _smoothstep(u):
    """Quintic smoothstep s(u) = u^3 (10 - 15 u + 6 u^2) on [0, 1], the polynomial in place."""
    p = 6.0 * u - 15.0
    p *= u
    p += 10.0
    return u * u * u * p


@dataclass(frozen=True)
class MorseInteraction:
    """Pairwise force from a Morse potential, tapered to zero at the origin.

    The potential is ``U(r) = c_r exp(-r/l_r) - c_a exp(-r/l_a)`` (repulsion
    positive) and the force on a particle at displacement ``x`` from the
    source is ``K(x) = -U'(|x|) (x/|x|) psi(|x|)``, where ``psi`` is a
    quintic smoothstep in ``r / r_cut`` below ``r_cut`` and one beyond.
    The taper gives a bounded, continuously differentiable force with
    ``K(0) = 0`` exactly, so self-interactions cancel.
    """

    c_a: float = 2.0
    c_r: float = 1.5
    l_a: float = 1.0
    l_r: float = 2.0
    r_cut: float = 0.1

    def __post_init__(self):
        for name in ("c_a", "c_r", "l_a", "l_r", "r_cut"):
            if not 0 < (value := getattr(self, name)) < np.inf:  # also false for NaN
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def u_prime(self, r):
        """Radial derivative of the (untapered) potential."""
        r = np.asarray(r, dtype=float)
        du = np.exp(r / -self.l_a) * (self.c_a / self.l_a)
        du -= np.exp(r / -self.l_r) * (self.c_r / self.l_r)
        return du

    def force_scale(self, r):
        """Scalar c(r) such that K(x) = c(|x|) * x, with c(0) = 0."""
        r = np.asarray(r, dtype=float)
        c = np.asarray(-self.u_prime(r))
        c *= _smoothstep(np.minimum(r, self.r_cut) / self.r_cut)  # s(1) == 1.0 exactly
        c /= np.maximum(r, 1e-300)  # c(0) = 0: the taper is 0 there
        return c

    def force(self, x):
        """Force vector(s) K(x) for displacement(s) x of shape (..., d)."""
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.einsum("...d,...d->...", x, x))
        c = self.force_scale(r)
        return np.asarray(c)[..., None] * x

    @lru_cache  # frozen and hashable: the rungs of a study share one computation
    def sup_norm(self, r_max=None, n_samples=200001):
        """Sampled sup of |K| over radii in [0, r_max] (dense grid), taken in
        chunks of 4096 samples to keep temporaries small; max is exact."""
        if r_max is None:
            r_max = 20.0 * max(self.l_a, self.l_r)
        r = np.linspace(0.0, r_max, n_samples)
        sups = []
        for rc in np.split(r, range(4096, n_samples, 4096)):
            taper = np.where(rc < self.r_cut, _smoothstep(rc / self.r_cut), 1.0)
            sups.append(np.abs(self.u_prime(rc) * taper).max())
        return float(np.max(sups))


@dataclass(frozen=True)
class QuadraticPotential:
    """External potential V(y) = 0.5 * k * |y - center|^2."""

    k: float = 1.0
    center: tuple = ()

    def _offset(self, y):
        if not self.center:
            return y
        return y - np.asarray(self.center, dtype=float)

    def value(self, y):
        d = self._offset(np.asarray(y, dtype=float))
        return 0.5 * self.k * np.einsum("...d,...d->...", d, d)

    def gradient(self, y):
        return self.k * self._offset(np.asarray(y, dtype=float))


@dataclass(frozen=True)
class ForceModel:
    """Everything the motion equation needs besides the kernel.

    Parameters
    ----------
    theta : int
        Scheme switch; 1 is the symmetrized pairwise pressure form, 0 the
        direct discretization of the continuum pressure gradient.
    eos : EosPolytropic or None
        Pressure law; None disables the pressure term entirely (pure
        interaction/drag problems).
    v_ext : object or None
        External potential exposing ``gradient(y)``; None means zero.
    eta : float
        Drag coefficient, a nonnegative finite number.
    interaction : MorseInteraction or None
        Pairwise interaction kernel; None disables it.
    """

    theta: int = 1
    eos: EosPolytropic | None = None
    v_ext: object = None
    eta: float = 0.0
    interaction: MorseInteraction | None = None

    def __post_init__(self):
        if self.theta not in (0, 1):
            raise ValueError(f"theta must be 0 or 1, got {self.theta}")
        if callable(self.eta) or not 0.0 <= self.eta < np.inf:  # also false for NaN
            raise ValueError(f"eta must be a nonnegative finite number, got {self.eta!r}")

