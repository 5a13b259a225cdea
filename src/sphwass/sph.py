"""Summation density, the theta-parameterized particle accelerations,
the pair engine they share, and conservation/support diagnostics.

The acceleration of particle k is

    a_k = - sum_i m_i grad W_h(x_k - x_i) [F_theta(rho_k) + theta F_theta(rho_i)]
          - grad V(x_k) - eta v_k + sum_i m_i K(x_k - x_i),

with the regularized density rho_k = sum_j m_j W_h(x_k - x_j) (the j = k
self-term included).  The i = k pressure term vanishes because
grad W_h(0) = 0, and the i = k interaction term because K(0) = 0.

Both pair sums run on one walk, :func:`_pair_blocks`: ``_BLOCK`` consecutive
targets against the sources within the cutoff along x_0, the particles sorted
once along x_0 (the index-sort neighbor search of Ihmsen et al., Eurographics
STAR 2014, on one axis), or against all sources (:func:`_band`).  A block's
tail, the sources past its targets, gives the transposed sums too, so only
pairs within a block are evaluated twice.  Beyond the support both kernels
return exact zeros.  A walk runs in units of h relative to its first source,
so results are invariant under translation.  Squared distances are one matrix
product per block, and each pair sum one more, whose n rows take the kernel
constants and F(rho_k).  Blocks come in a fixed order, so results are bitwise
reproducible.  :func:`compute_accelerations` walks the pairs once for rho and
keeps the blocks with their gradient shapes for the pressure sum; the module
holds no state.  Importing it tunes glibc's allocator to reuse block temporaries.
"""

import ctypes
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .forces import f_theta

__all__ = [
    "ParticleState",
    "SupportDiagnostic",
    "compute_density",
    "compute_accelerations",
    "momentum",
    "angular_momentum",
    "support_bound",
    "check_support",
]

_BLOCK = 128  # most targets in one block: about _BLOCK * n doubles per temporary

_SLOT_ENTRIES = 2**22  # squared distances plus gradient shapes one evaluation keeps: 32 MB


def _keep_freed_blocks():
    """Keep freed pair blocks in the heap.  By default glibc hands each
    evaluation's ``_BLOCK`` x n temporaries back to the kernel, and the next one
    page-faults them in again: about 40k minor faults and 1.4-1.6x the time of a
    dense 256-particle study on a 2-vCPU Xeon.  Blocks up to 32 MB now come from
    the heap and up to 64 MB of freed heap stays mapped; peak memory is
    unchanged.  Without ``mallopt``, a no-op."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 * 2**20)  # M_TRIM_THRESHOLD


_keep_freed_blocks()


@dataclass
class ParticleState:
    """Masses, positions, and velocities of n numerical particles.

    Positions and velocities have shape (n, d); masses (n,) with all
    entries positive.  When the state stands in for a probability
    measure the masses sum to one.
    """

    masses: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        if self.positions.ndim == 1:
            self.positions = self.positions[:, None]
        if self.velocities.ndim == 1:
            self.velocities = self.velocities[:, None]
        if self.masses.ndim != 1:
            raise ValueError("masses must be a 1-d array")
        n = self.masses.shape[0]
        if self.positions.shape[0] != n or self.velocities.shape[0] != n:
            raise ValueError("masses, positions, velocities must share length")
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must share shape")
        if not np.all((self.masses > 0) & (self.masses < np.inf)):  # also false for NaN
            raise ValueError("all particle masses must be positive and finite")
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.velocities))):
            raise ValueError("positions and velocities must be finite")

    @property
    def n(self):
        return self.masses.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]

    def copy(self):
        return ParticleState(
            self.masses.copy(), self.positions.copy(), self.velocities.copy(), self.time
        )


def compute_density(state, kernel):
    """Summation density rho_i = sum_j m_j W_h(x_i - x_j), self-term included,
    as an (n,) array: the reference for the rho of :func:`compute_accelerations`."""
    if state.dim != kernel.dim:
        raise ValueError(f"state dimension {state.dim} != kernel dimension {kernel.dim}")
    return _density_at(state.positions, state, kernel)


def _density_at(y, state, kernel):
    """Regularized density sum_j m_j W_h(y_k - x_j) of ``state`` at points y."""
    band = _band(kernel, y.shape[0])
    ys, xs, order_y, order_x = _walk_coords(y, state.positions, kernel.h, band is not None)
    m = state.masses if order_x is None else state.masses[order_x]
    rho = _density_and_blocks(ys, xs, m, kernel, band)
    return rho if order_y is None else _unsorted(rho, order_y)


def _density_and_blocks(ys, xs, m, kernel, cutoff, slot=None):
    """rho at ``ys`` from the walk on ``cutoff``, in walk coordinates, keeping its blocks
    ``(rows, cols, u2, g)`` in ``slot``, if given, unless they pass ``_SLOT_ENTRIES``."""
    rho, size = np.empty(ys.shape[0]), 0
    for rows, cols, u2 in _pair_blocks(ys, xs, cutoff):
        w, g = kernel.shapes(u2)
        size += 2 * u2.size
        if slot is not None and size <= _SLOT_ENTRIES:
            slot.append((rows, cols, u2, g))
        elif slot:
            slot.clear()
        _sum_pairs(rho, w, m, rows, cols, ys is xs)
    rho *= kernel.norm_const
    return rho


def compute_accelerations(state, rho, fm, kernel, include_drag=True):
    """Per-particle accelerations of the theta-parameterized scheme, (n, d).

    ``rho`` is :func:`compute_density` of the same state, or None for a pressure
    law to compute it in one walk whose blocks its pressure sum reuses (without
    one, rho is not read).  ``include_drag=False`` leaves -eta v to the integrator.
    """
    if state.dim != kernel.dim:
        raise ValueError(f"state dimension {state.dim} != kernel dimension {kernel.dim}")
    x, v, m = state.positions, state.velocities, state.masses
    band = _band(kernel, state.n) if fm.eos is not None else None
    _, xs, _, order = _walk_coords(x, x, kernel.h, band is not None)
    m = m if order is None else m[order]
    cutoff = band if fm.interaction is None else None  # the interaction has no support
    slot, F = [], None
    if fm.eos is not None:
        if rho is None:
            rho = _density_and_blocks(xs, xs, m, kernel, band, slot if band == cutoff else None)
        elif order is not None:
            rho = rho[order]
        F = np.asarray(f_theta(fm.eos, fm.theta, rho), dtype=float)
    blocks = slot or _pair_blocks(xs, xs, cutoff)
    acc = _pair_accel(blocks, xs, m, F, fm.theta, kernel, fm.interaction)
    acc = acc if order is None else _unsorted(acc, order)
    if fm.v_ext is not None:
        acc -= fm.grad_v(x)
    if include_drag:
        acc -= fm.eta * v
    return acc


def _pair_accel(blocks, xs, m, F, theta, kernel, interaction):
    """Pressure and interaction pair sums over ``blocks`` of the walk
    coordinates ``xs``.  sum_i w_ki c_i (x_k - x_i) = x_k (w @ c)_k - (w @ c x)_k,
    so a block makes one product with the columns [m, m x], plus [m F, m F x]
    for the theta = 1 pressure weights g_ki (F_k + F_i), and its tail one more."""
    n, d = xs.shape
    both = F is not None and theta  # [m F, m F x] too
    src = np.empty((n, (d + 1) * (2 if both else 1)))  # [m, m x, m F, m F x]
    src[:, 0] = m
    np.multiply(m[:, None], xs, out=src[:, 1:d + 1])
    if both:
        np.multiply(src[:, :d + 1], F[:, None], out=src[:, d + 1:])
    press, inter, src_inter = np.empty(src.shape), np.empty((n, d + 1)), src[:, :d + 1]
    for rows, cols, u2, *kept_g in blocks:  # the slot's blocks carry g
        if F is not None:
            _sum_pairs(press, kept_g[0] if kept_g else kernel.shapes(u2)[1], src, rows, cols)
        if interaction is not None:
            r = np.sqrt(u2, out=u2)  # the block is not read again
            r *= kernel.h
            _sum_pairs(inter, interaction.force_scale(r), src_inter, rows, cols)
    acc = np.zeros_like(xs)
    if F is not None:
        acc = (xs * press[:, :1] - press[:, 1:d + 1]) * F[:, None]
        if theta:
            acc += xs * press[:, d + 1:d + 2] - press[:, d + 2:]
        acc *= -kernel.h * kernel.grad_const
    if interaction is not None:
        acc += kernel.h * (xs * inter[:, :1] - inter[:, 1:])
    return acc


def momentum(state):
    """Total linear momentum sum m_i v_i."""
    return state.masses @ state.velocities


def angular_momentum(state):
    """Total angular momentum about the origin (scalar in 2D, zero in 1D)."""
    if state.dim == 1:
        return 0.0
    if state.dim != 2:
        raise ValueError("angular momentum implemented for d in {1, 2}")
    x, v = state.positions, state.velocities
    return float(state.masses @ (x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0]))


# ---------------------------------------------------------------------------
# pair engine


def _pair_blocks(y, x, cutoff=None):
    """Yield ``(rows, cols, u2)``, last block first: slices of the targets ``y``
    and sources ``x``, each target in one block of at most ``_BLOCK``, and u2 =
    [|y|^2, 1, -2 y] @ [1, |x|^2, x]^T, which rounds with eps times the squared
    extent.  The sources lie within the cutoff along x_0 of the block's targets
    (``y`` and ``x`` sorted along x_0), or are all; if ``y is x``, from its first
    target on (see :func:`_sum_pairs`)."""
    d, n = x.shape[1], x.shape[0]
    b = np.empty((d + 2, n))
    b[0], b[2:] = 1.0, x.T
    np.einsum("id,id->i", x, x, out=b[1])
    a = np.empty((y.shape[0], d + 2))
    a[:, 0] = b[1] if y is x else np.einsum("id,id->i", y, y)
    a[:, 1] = 1.0
    np.multiply(y, -2.0, out=a[:, 2:])
    for s in reversed(range(0, len(y), _BLOCK)):  # a row's tail sums come after its own
        e = len(y) if s + _BLOCK > len(y) else s + _BLOCK
        lo, hi = (s if y is x else 0), n
        if cutoff is not None:  # the band along x_0
            if y is not x:
                lo = int(np.searchsorted(x[:, 0], y[s, 0] - cutoff))
            hi = int(np.searchsorted(x[:, 0], y[e - 1, 0] + cutoff, "right"))
        yield slice(s, e), slice(lo, hi), _sq_dists(a[s:e], b if hi - lo == n else b[:, lo:hi])


def _sum_pairs(out, w, c, rows, cols, tail=True):
    """out[rows] = w @ c[cols]; with ``tail``, the block's sources past its
    targets also get the transposed sums w[:, k:]^T @ c[rows], k targets."""
    out[rows] = w @ c[cols]
    if tail and cols.stop > rows.stop:
        out[rows.stop:cols.stop] += w[:, rows.stop - rows.start:].T @ c[rows]


def _walk_coords(y, x, h, sort=False):
    """``(ys, xs, order_y, order_x)``: y and x relative to the first source in units
    of h, and if ``sort``, each sorted stably along x_0 by its order (else None)."""
    xs = (x - x[:1]) / h
    ys = xs if y is x else (y - x[:1]) / h
    if not sort:
        return ys, xs, None, None
    order_x = np.argsort(xs[:, 0], kind="stable")
    order_y = order_x if y is x else np.argsort(ys[:, 0], kind="stable")
    xs = xs[order_x]
    return (xs if y is x else ys[order_y]), xs, order_y, order_x


def _unsorted(a, order):
    """``a``, sorted by ``order``, back in the particles' order."""
    out = np.empty_like(a)
    out[order] = a
    return out


def _sq_dists(a, b):
    """A block's squared distances from the factors of :func:`_pair_blocks`."""
    r2 = a @ b
    return np.maximum(r2, 0.0, out=r2)  # clip the cancellation noise


def _band(kernel, n):
    """The cutoff in walk coordinates of a walk over n targets, or None (all
    sources, no sort) for an unbounded kernel or a walk of one block."""
    bounded = n > _BLOCK and np.isfinite(kernel.support_radius)
    return kernel.support_radius / kernel.h if bounded else None


# ---------------------------------------------------------------------------
# support diagnostics


@dataclass(frozen=True)
class SupportDiagnostic:
    """Constants of the a-priori support bound

        r(t) = r0 + t * v0_sup + 0.5 t^2 (M1 + grad_v_sup + k_sup).

    For theta = 1 the constants follow from the kernel and the pressure
    function: M2 = sup |F1| on [0, sup W], M1 = 2 M2 sup |grad W|.  For
    theta = 0 the driving bound M1 must be supplied by the caller.
    """

    r0: float
    v0_sup: float
    m1: float
    m2: float | None = None
    grad_v_sup: float = 0.0
    k_sup: float = 0.0

    @classmethod
    def for_theta1(cls, state, fm, kernel):
        """Derive the constants for the symmetrized scheme (theta = 1).

        Requires gamma >= 2 so that F1 is bounded on [0, sup W]; below
        that the constants do not exist and the diagnostic is disabled.
        """
        if fm.eos is None:
            m2 = 0.0
        elif fm.eos.gamma >= 2.0:
            m2 = fm.eos.k_eos * kernel.peak_value() ** (fm.eos.gamma - 2.0)
        else:
            warnings.warn(
                "support diagnostic disabled: F1 is unbounded near rho = 0 "
                f"for gamma = {fm.eos.gamma} < 2",
                RuntimeWarning,
            )
            return None
        m1 = 2.0 * m2 * kernel.grad_sup_norm()
        grad_v_sup = 0.0
        if fm.v_ext is not None:
            raise ValueError("supply grad_v_sup explicitly for nonzero potentials")
        k_sup = fm.interaction.sup_norm() if fm.interaction is not None else 0.0
        r0 = float(np.linalg.norm(state.positions, axis=1).max())
        v0_sup = float(np.linalg.norm(state.velocities, axis=1).max())
        return cls(r0=r0, v0_sup=v0_sup, m1=m1, m2=m2, grad_v_sup=grad_v_sup, k_sup=k_sup)


def support_bound(diag, t):
    """Radius r(t) outside of which no particle may travel."""
    return diag.r0 + t * diag.v0_sup + 0.5 * t * t * (diag.m1 + diag.grad_v_sup + diag.k_sup)


def check_support(state, bound):
    """True when every particle satisfies |x_i| <= bound."""
    return bool(np.linalg.norm(state.positions, axis=1).max() <= bound)
