"""Smoothing kernels.

Two families are provided:

* :class:`Gaussian1D` -- the one-dimensional Gaussian

  .. math:: W_h(x) = \\frac{1}{h\\sqrt{\\pi}}\\, e^{-x^2/h^2},

  which is analytically normalized and has unbounded support.

* :class:`WendlandCubic2D` -- the two-dimensional cubic Wendland function

  .. math:: W_h(x) = \\sigma\\,(1 + 3|x|/2h)\\,(2 - |x|/h)^3
            \\quad\\text{for } |x| \\le 2h,

  and zero outside.  The shape integrates to ``6.4 pi h^2`` over the
  plane, so the unit-integral normalization constant is
  ``sigma = 1 / (6.4 pi h^2)``.  (A bare ``1/8`` prefactor, sometimes
  seen for this shape, does not normalize it in 2D; pass ``norm_const``
  explicitly to reproduce that convention.)

Both kernels are nonnegative, even, and integrate to one; gradients are
analytic and vanish at the origin.  ``shapes`` gives the unscaled value and
gradient shapes w and g at u^2 = r^2 / h^2 from one radial evaluation, with
W = norm_const w and grad W(x) = grad_const g x: the pair sums apply the
constants to their n-row results.  Instances are immutable and thread-safe.
"""

import numpy as np

__all__ = ["Gaussian1D", "WendlandCubic2D", "KERNEL_FOR_DIM"]

SQRT_PI = np.sqrt(np.pi)

# Shape integral of (1 + 3q/2)(2 - q)^3 * 2*pi*q over q in [0, 2] is 6.4*pi;
# dividing by it makes the 2D Wendland integrate to one.
_WENDLAND_SHAPE_INTEGRAL = 6.4 * np.pi


def _smoothing_length(h):
    if not 0 < h < np.inf:  # also false for NaN
        raise ValueError(f"smoothing length must be positive and finite, got h={h}")
    return float(h)


class _Radial:
    """Point evaluation shared by both kernels, from their functions of r^2."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.value_from_sq(_squared_radius(x, self.dim))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        r2 = _squared_radius(x, self.dim)
        g = self.grad_scale_from_sq(r2)
        return g * x if x.shape == r2.shape else g[..., None] * x


class Gaussian1D(_Radial):
    """Gaussian smoothing kernel on the real line, with full support.

    Parameters
    ----------
    h : float
        Smoothing length, must be positive.
    """

    dim = 1
    support_radius = np.inf

    def __init__(self, h):
        self.h = _smoothing_length(h)
        self.norm_const = 1.0 / (self.h * SQRT_PI)
        self.grad_const = -2.0 * self.norm_const / (self.h * self.h)

    def value_from_sq(self, r2):
        """Kernel value as a function of squared distance."""
        return self.norm_const * self.shapes(np.asarray(r2, dtype=float) / (self.h * self.h))[0]

    def grad_scale_from_sq(self, r2):
        """Scalar g(r^2) such that grad W(x) = g(|x|^2) * x."""
        return self.grad_const * self.shapes(np.asarray(r2, dtype=float) / (self.h * self.h))[1]

    def shapes(self, u2):
        """Value and gradient shapes at u^2 = r^2 / h^2: exp(-u^2), one array for both."""
        return (np.exp(-u2),) * 2

    def peak_value(self):
        """sup W = W(0)."""
        return self.norm_const

    def grad_sup_norm(self):
        """sup |W'|, attained at x = h/sqrt(2)."""
        return np.sqrt(2.0) * np.exp(-0.5) / (SQRT_PI * self.h * self.h)

    def normalization_residual(self, n_nodes=80):
        """|integral of W - 1| by Gauss-Hermite quadrature."""
        u, wts = np.polynomial.hermite.hermgauss(n_nodes)
        # substitute x = h*u: integral = sum w_i * exp(u^2) * W(h u) * h
        vals = np.exp(u * u) * self.value_from_sq((self.h * u) ** 2) * self.h
        return abs(float(wts @ vals) - 1.0)


class WendlandCubic2D(_Radial):
    """Compactly supported cubic Wendland kernel in the plane.

    Parameters
    ----------
    h : float
        Smoothing length; the support radius is ``2 h``.
    norm_const : float, optional
        Override the normalization prefactor.  The default,
        ``1 / (6.4 pi h^2)``, makes the kernel integrate to one.
    """

    dim = 2

    def __init__(self, h, norm_const=None):
        self.h = _smoothing_length(h)
        if norm_const is None:
            norm_const = 1.0 / (_WENDLAND_SHAPE_INTEGRAL * self.h * self.h)
        self.norm_const = float(norm_const)
        self.grad_const = -6.0 * self.norm_const / (self.h * self.h)

    @property
    def support_radius(self):
        return 2.0 * self.h

    def value_from_sq(self, r2):
        """Kernel value as a function of squared distance."""
        return self.norm_const * self.shapes(np.asarray(r2, dtype=float) / (self.h * self.h))[0]

    def grad_scale_from_sq(self, r2):
        """Scalar g(r^2) = -6 sigma (2 - r/h)^2 / h^2 such that grad W(x) = g(|x|^2) * x."""
        return self.grad_const * self.shapes(np.asarray(r2, dtype=float) / (self.h * self.h))[1]

    def shapes(self, u2):
        """Value and gradient shapes (1 + 1.5 q) t^3 and t^2 at u^2 = r^2 / h^2,
        with q = u and t = max(2 - q, 0), from one sqrt and worked in place."""
        q = np.sqrt(u2)
        t = np.maximum(2.0 - q, 0.0)
        q *= 1.5
        q += 1.0
        q *= t
        t *= t
        q *= t
        return q, t

    def peak_value(self):
        return 8.0 * self.norm_const

    def grad_sup_norm(self):
        """sup |grad W|; |dW/dr| = 6 sigma r (2 - r/h)^2 / h^2 peaks at r = 2h/3."""
        return 6.0 * self.norm_const * (32.0 / 27.0) / self.h

    def normalization_residual(self, n_nodes=64):
        """|integral of W - 1| by radial Gauss-Legendre quadrature."""
        nodes, wts = np.polynomial.legendre.leggauss(n_nodes)
        r = 0.5 * self.support_radius * (nodes + 1.0)
        scale = 0.5 * self.support_radius
        integrand = 2.0 * np.pi * r * self.value_from_sq(r * r)
        return abs(float(wts @ integrand) * scale - 1.0)


# The kernel sphwass uses for particles in each dimension.
KERNEL_FOR_DIM = {1: Gaussian1D, 2: WendlandCubic2D}


def _squared_radius(x, dim):
    """Squared norm along the last axis; 1D points may be plain scalars."""
    if x.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar point passed to a {dim}-dimensional kernel")
        return x * x
    if x.shape[-1] == dim:
        return np.einsum("...d,...d->...", x, x)
    if dim == 1:
        return x * x
    raise ValueError(
        f"point has trailing dimension {x.shape[-1]}, kernel expects {dim}"
    )
