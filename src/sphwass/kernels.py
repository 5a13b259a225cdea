"""Smoothing kernels.

Two families are provided:

* :class:`Gaussian1D` -- the one-dimensional Gaussian

  .. math:: W_h(x) = \\frac{1}{h\\sqrt{\\pi}}\\, e^{-x^2/h^2},

  which is analytically normalized and has unbounded support.

* :class:`WendlandCubic2D` -- the two-dimensional cubic Wendland function

  .. math:: W_h(x) = \\sigma\\,(1 + 3|x|/2h)\\,(2 - |x|/h)^3
            \\quad\\text{for } |x| \\le 2h,

  and zero outside.  The shape integrates to ``6.4 pi h^2`` over the
  plane, so ``sigma = 1 / (6.4 pi h^2)``; a bare ``1/8``, sometimes seen
  for this shape, does not normalize it in 2D.

Both kernels take ``h`` only, are nonnegative and even, and integrate to
one; gradients are analytic and vanish at the origin.  ``shapes`` gives
the unscaled value and gradient shapes w and g at u^2 = r^2 / h^2 from one
radial evaluation, with W = norm_const w and grad W(x) = grad_const g x:
the pair sums apply the constants to their n-row results.  Points go
through ``value_from_sq`` and ``grad_scale_from_sq``, W and g as functions
of r^2.  Instances are immutable and thread-safe.
"""

import numpy as np

from .params import ParameterError, positive

__all__ = ["Gaussian1D", "WendlandCubic2D", "KERNEL_FOR_DIM"]

SQRT_PI = np.sqrt(np.pi)

# Shape integral of (1 + 3q/2)(2 - q)^3 * 2*pi*q over q in [0, 2] is 6.4*pi;
# dividing by it makes the 2D Wendland integrate to one.
_WENDLAND_SHAPE_INTEGRAL = 6.4 * np.pi


def _smoothing_length(h):
    """h as a float.  Beyond 2^±255 the constants, of order h^-(dim + 2) at
    most, would overflow or divide by zero."""
    h = float(positive("h", h))
    if not 2.0**-255 <= h <= 2.0**255:
        raise ParameterError("h", f"h must lie within [2^-255, 2^255], got {h}")
    return h


class Gaussian1D:
    """Gaussian smoothing kernel on the real line, with full support, for the
    smoothing length ``h > 0``."""

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

    def shapes(self, u2, out=None):
        """Value and gradient shapes at u^2 = r^2 / h^2: exp(-u^2), one array for both,
        written into ``out[1]`` if an ``out`` pair is given."""
        g = None if out is None else out[1]
        return (np.exp(np.negative(u2, out=g), out=g),) * 2

    def peak_value(self):
        """sup W = W(0)."""
        return self.norm_const

    def grad_sup_norm(self):
        """sup |W'|, attained at x = h/sqrt(2)."""
        return np.sqrt(2.0) * np.exp(-0.5) / (SQRT_PI * self.h * self.h)

    def normalization_residual(self):
        """|integral of W - 1| by 80-node Gauss-Hermite quadrature."""
        u, wts = np.polynomial.hermite.hermgauss(80)
        # substitute x = h*u: integral = sum w_i * exp(u^2) * W(h u) * h
        vals = np.exp(u * u) * self.value_from_sq((self.h * u) ** 2) * self.h
        return abs(float(wts @ vals) - 1.0)


class WendlandCubic2D:
    """Compactly supported cubic Wendland kernel in the plane, for the
    smoothing length ``h > 0``; the support radius is ``2 h``."""

    dim = 2

    def __init__(self, h):
        self.h = _smoothing_length(h)
        self.norm_const = 1.0 / (_WENDLAND_SHAPE_INTEGRAL * self.h * self.h)
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

    def shapes(self, u2, out=None):
        """Value and gradient shapes (1 + 1.5 q) t^3 and t^2 at u^2 = r^2 / h^2,
        with q = u and t = max(2 - q, 0), from one sqrt and worked in place: in
        the ``out`` pair of arrays if given, whose first may be u2 itself."""
        q, t = (None, None) if out is None else out
        q = np.sqrt(u2, out=q)
        t = np.maximum(np.subtract(2.0, q, out=t), 0.0, out=t)
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

    def normalization_residual(self):
        """|integral of W - 1| by 64-node radial Gauss-Legendre quadrature."""
        nodes, wts = np.polynomial.legendre.leggauss(64)
        r = 0.5 * self.support_radius * (nodes + 1.0)
        scale = 0.5 * self.support_radius
        integrand = 2.0 * np.pi * r * self.value_from_sq(r * r)
        return abs(float(wts @ integrand) * scale - 1.0)


# The kernel sphwass uses for particles in each dimension.
KERNEL_FOR_DIM = {1: Gaussian1D, 2: WendlandCubic2D}
