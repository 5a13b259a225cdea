"""Summation density, the theta-parameterized particle accelerations,
the pair engine they share, and conservation/support diagnostics.

The acceleration of particle k is

    a_k = - sum_i m_i grad W_h(x_k - x_i) [F_theta(rho_k) + theta F_theta(rho_i)]
          - grad V(x_k) - eta v_k + sum_i m_i K(x_k - x_i),

with the regularized density rho_k = sum_j m_j W_h(x_k - x_j) (the j = k
self-term included).  The i = k pressure term vanishes because
grad W_h(0) = 0, and the i = k interaction term because K(0) = 0.

Both pair sums run on one engine, :func:`_pair_blocks`, which yields
squared distances block by block, at most ``_BLOCK`` targets each: dense
row blocks against every particle, or the targets of each strip of width
cutoff along x_0 against its neighbor strips.  The input alone picks
between the two: :func:`_use_cells` takes strips when the kernel's
support is small against the cloud's extent along x_0.  Pairs beyond the
support need no mask, since both kernels return exact zeros there.
A walk runs in units of h relative to its first source, so results are
invariant under translation.  A block's squared distances are one matrix
product, and each pair sum one more, whose n rows take the kernel constants
and F(rho_k).  Blocks come in a fixed order, so results are bitwise
reproducible.  :func:`compute_accelerations` walks the pairs once for rho
and keeps the blocks with their gradient shapes for the pressure sum; the
module holds no state.  Importing it tunes glibc's allocator so that block
temporaries are reused (:func:`_keep_freed_blocks`).
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

# Most targets in one dense or strip block: bounds peak memory at roughly
# _BLOCK * n doubles per intermediate matrix.
_BLOCK = 512

_SLOT_ENTRIES = 2**22  # squared distances plus gradient shapes one evaluation keeps: 32 MB

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_blocks():
    """Keep freed pair blocks in the heap instead of handing them back.

    By default glibc returns each evaluation's ``_BLOCK`` x n temporaries to
    the kernel (its trim threshold is only twice the largest block it has
    mapped), and the next evaluation page-faults them in again: 146k minor
    faults and half the run time of a dense 256-particle study on a 2-vCPU
    Xeon.  Here blocks up to 32 MB come from the heap and up to 64 MB of freed
    heap stays mapped; peak memory is unchanged.  Without ``mallopt``, a no-op.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
    mallopt(_M_TRIM_THRESHOLD, 64 * 2**20)


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
    x = state.positions
    cutoff = kernel.support_radius / kernel.h if _use_cells(kernel, x, None) else None
    return _density_and_blocks(*_walk_coords(y, x, kernel.h), state.masses, kernel, cutoff)


def _density_and_blocks(ys, xs, m, kernel, cutoff, slot=None):
    """rho at ``ys`` from the walk on ``cutoff``, in walk coordinates, keeping its blocks
    ``(rows, cols, u2, g)`` in ``slot``, if given, unless they pass ``_SLOT_ENTRIES``."""
    rho, size = np.zeros(ys.shape[0]), 0
    for rows, cols, u2 in _pair_blocks(ys, xs, cutoff):
        w, g = kernel.shapes(u2)
        size += 2 * u2.size
        if slot is not None and size <= _SLOT_ENTRIES:
            slot.append((rows, cols, u2, g))
        elif slot:
            slot.clear()
        rho[rows] = w @ m[cols]
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
    xs = _walk_coords(x, x, kernel.h)[1]
    cutoff = kernel.support_radius / kernel.h if _use_cells(kernel, x, fm.interaction) else None
    slot, F = [], None
    if fm.eos is not None:
        if rho is None:
            own = kernel.support_radius / kernel.h if _use_cells(kernel, x, None) else None
            rho = _density_and_blocks(xs, xs, m, kernel, own, slot if own == cutoff else None)
        F = np.asarray(f_theta(fm.eos, fm.theta, rho), dtype=float)
    blocks = slot or _pair_blocks(xs, xs, cutoff)
    acc = _pair_accel(blocks, xs, m, F, fm.theta, kernel, fm.interaction)

    if fm.v_ext is not None:
        acc -= fm.grad_v(x)
    if include_drag:
        acc -= fm.eta * v
    return acc


def _pair_accel(blocks, xs, m, F, theta, kernel, interaction):
    """Pressure and interaction pair sums over ``blocks`` of the walk
    coordinates ``xs``.  sum_i w_ki c_i (x_k - x_i) = x_k (w @ c)_k - (w @ c x)_k,
    so a block makes one product with the columns [m, m x], plus [m F, m F x]
    for the theta = 1 pressure weights g_ki (F_k + F_i)."""
    n, d = xs.shape
    src = np.empty((n, 2 * d + 2))  # [m, m x, m F, m F x]
    src[:, 0] = m
    np.multiply(m[:, None], xs, out=src[:, 1:d + 1])
    press, inter = np.empty((n, (d + 1) * (2 if theta else 1))), np.empty((n, d + 1))
    if F is not None:
        np.multiply(src[:, :d + 1], F[:, None], out=src[:, d + 1:])
    for rows, cols, u2, *kept_g in blocks:  # the slot's blocks carry g
        if F is not None:
            g = kept_g[0] if kept_g else kernel.shapes(u2)[1]
            press[rows] = g @ src[cols, :press.shape[1]]
        if interaction is not None:
            r = np.sqrt(u2, out=u2)  # the block is not read again
            r *= kernel.h
            inter[rows] = interaction.force_scale(r) @ src[cols, :d + 1]
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
    """Yield ``(rows, cols, r2)``: squared distances from the targets
    ``y[rows]`` to the sources ``x[cols]``, each target in exactly one block.

    A block is the product of a = [|y|^2, 1, -2 y] and b = [1, |x|^2, x]^T,
    built once per walk (:func:`_sq_dists`); in walk coordinates it rounds
    with about eps times the cloud's squared extent.

    Without a cutoff the blocks are ``_BLOCK`` targets against all sources.
    With one, the sources are sorted stably by their strip floor(x_0 / cutoff)
    and the targets of strip s, ``_BLOCK`` at a time, meet strips s-1..s+1,
    one contiguous range of that order, pairs beyond the cutoff included: the
    index-sort neighbor search of Ihmsen et al. (Eurographics STAR 2014)
    along one axis.
    """
    d = x.shape[1]
    b = np.empty((d + 2, x.shape[0]))
    b[0], b[2:] = 1.0, x.T
    np.einsum("id,id->i", x, x, out=b[1])
    a = np.empty((y.shape[0], d + 2))
    a[:, 0] = b[1] if y is x else np.einsum("id,id->i", y, y)
    a[:, 1] = 1.0
    np.multiply(y, -2.0, out=a[:, 2:])
    if cutoff is None:
        for s in range(0, y.shape[0], _BLOCK):
            rows = slice(s, s + _BLOCK)
            yield rows, slice(None), _sq_dists(a[rows], b)
        return
    strip_x, strip_y = np.floor(x[:, 0] / cutoff), np.floor(y[:, 0] / cutoff)
    sources, targets = np.argsort(strip_x, kind="stable"), np.argsort(strip_y, kind="stable")
    strip_x, strip_y = strip_x[sources], strip_y[targets]
    for s in np.unique(strip_y):
        strip = targets[np.searchsorted(strip_y, s):np.searchsorted(strip_y, s, "right")]
        cols = sources[np.searchsorted(strip_x, s - 1.0):np.searchsorted(strip_x, s + 1.0, "right")]
        b_cols = b[:, cols]
        for k in range(0, len(strip), _BLOCK):
            rows = strip[k:k + _BLOCK]
            yield rows, cols, _sq_dists(a[rows], b_cols)


def _walk_coords(y, x, h):
    """``y`` and ``x`` relative to the first source, in units of h: the coordinates of a walk."""
    xs = (x - x[:1]) / h
    return (xs if y is x else (y - x[:1]) / h), xs


def _sq_dists(a, b):
    """A block's squared distances from the factors of :func:`_pair_blocks`."""
    r2 = a @ b
    return np.maximum(r2, 0.0, out=r2)  # clip the cancellation noise


def _use_cells(kernel, x, interaction):
    """Whether the pair sums over the sources ``x`` run on strips, which need a
    compact kernel and no interaction, whose support is unbounded."""
    if interaction is not None or not np.isfinite(kernel.support_radius):
        return False
    # strips only pay off once several strips span the cloud along x_0
    return x.shape[0] >= 256 and np.ptp(x[:, 0]) > 4.0 * kernel.support_radius


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
