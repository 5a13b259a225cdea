"""Smoothing kernels and the regularized density.

Walks through the two kernel families, checks their unit normalization,
and shows how a particle cloud turns into a smooth density field through
the kernel-weighted summation.

Run:  python demos/01_kernels_and_density.py
"""

import numpy as np

from sphwass import (
    Gaussian1D,
    InitialSpec,
    WendlandCubic2D,
    compute_density,
    density_profile,
    equipartition,
)

# --- the two kernel families ------------------------------------------------

gauss = Gaussian1D(h=1.0)
wend = WendlandCubic2D(h=1.0)

print("Gaussian (1D):  W(0) = %.6f,  support radius = %s" % (gauss.peak_value(), gauss.support_radius))
print("Wendland (2D):  W(0) = %.6f,  support radius = %.1f" % (wend.peak_value(), wend.support_radius))

# Both integrate to one; the residual is measured by quadrature.
for h in (0.1, 1.0, 10.0):
    print(
        "h = %5.1f   Gaussian residual %.2e   Wendland residual %.2e"
        % (h, Gaussian1D(h).normalization_residual(), WendlandCubic2D(h).normalization_residual())
    )

# The Wendland shape needs the 1/(6.4 pi h^2) prefactor; the bare 1/8 seen
# in some references integrates to 0.125 / norm_const = 0.8*pi instead of 1:
print("bare-1/8 Wendland integral deviates from 1 by %.4f" % abs(0.125 / wend.norm_const - 1))

# --- from particles to a density field ---------------------------------------

# 512 particles equipartitioning the unit interval, each carrying mass 1/512
state = equipartition(InitialSpec(n=512))
rho = compute_density(state, gauss)
print("\nper-particle density: min %.4f  max %.4f" % (rho.min(), rho.max()))

# evaluate the same field on a probe grid; with h = 1 the cloud looks like
# a smooth bump of total mass one
grid = np.linspace(-3.0, 4.0, 29)
prof = density_profile(state, gauss, grid)
mass = np.trapezoid(prof, grid)
print("profile mass by quadrature: %.5f" % mass)
peak = prof.max()
bar_scale = 48.0 / peak
for x, v in zip(grid, prof):
    print("x = %6.2f  rho = %.5f  %s" % (x, v, "#" * int(v * bar_scale)))
