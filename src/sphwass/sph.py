"""Summation density, the theta-parameterized particle accelerations,
the pair engine they share, and conservation/support diagnostics.

The acceleration of particle k is

    a_k = - sum_i m_i grad W_h(x_k - x_i) [F_theta(rho_k) + theta F_theta(rho_i)]
          - grad V(x_k) - eta v_k + sum_i m_i K(x_k - x_i),

with rho_k = sum_j m_j W_h(x_k - x_j), the j = k self-term included.  The i = k
terms vanish, since grad W_h(0) = 0 and K(0) = 0.

:func:`compute_accelerations` adds the terms, each pair sum on its own walk
(:class:`_Walk`): ``_BLOCK`` consecutive targets against the sources within the
cutoff along x_0, the particles sorted along x_0 at each placement (the index-sort
neighbor search of Ihmsen et al., Eurographics STAR 2014, on one axis), or against
all sources (:func:`_band`; always for K, which has no support).  A block's tail,
the sources past its targets, gives the transposed sums too, so only pairs within a
block are evaluated twice; pairs beyond the support give exact zeros.  A walk runs
relative to its first source, in units of h for W_h, so results are invariant
under translation.  Squared distances are one matrix product per block, side by side
with the next blocks' in passes, so the clip and the radial function (the kernel's
shapes, or K's force scale) take one call per pass; each pair sum is one more
product per block, whose n rows take the kernel constants and F(rho_k).  Blocks
come in a fixed order, so results are bitwise reproducible.  The pressure sum
reuses the gradient shapes of rho's walk.  Each walk owns the buffers its
evaluations write, and a run keeps its walks in one :class:`_Engine`, so its steps
leave no block temporaries to the allocator.  An engine serves a batch of states
(a study's rungs) advanced together: a pressure walk per state, and one interaction
walk whose blocks stay within a state.  The module holds no state.
"""

from dataclasses import dataclass

import numpy as np

from .forces import f_theta

__all__ = [
    "ParticleState",
    "compute_density",
    "compute_accelerations",
    "momentum",
    "angular_momentum",
    "support_radii",
    "check_support",
]

_BLOCK = 128  # most targets in one block

_SLOT_ENTRIES = 2**22  # most gradient shapes one evaluation keeps for its pressure sum: 32 MB

_PASS_ENTRIES = 2**16  # most pairs of a walk's pass, unless one block holds more


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
    return _density_at(state.positions, state, kernel)


def _density_at(y, state, kernel):
    """Regularized density sum_j m_j W_h(y_k - x_j) of ``state`` at points y."""
    if state.dim != kernel.dim:
        raise ValueError(f"state dimension {state.dim} != kernel dimension {kernel.dim}")
    x, other = state.positions, y is not state.positions
    walk = _Walk(state.masses, x.shape[1], kernel.h, _band(kernel, y.shape[0]),
                 n_targets=y.shape[0] if other else None)
    walk.place(x, y if other else None)
    rho = _density_and_blocks(walk, kernel)
    if walk.order_y is not None:
        rho[walk.order_y] = rho.copy()  # back in the particles' order
    return rho


def _density_and_blocks(walk, kernel, slot=None):
    """rho at the placed walk's targets, in its order, with one ``shapes`` call per
    pass, keeping the blocks ``(rows, cols, g)`` in ``slot``, if given."""
    rho, tail = walk.rho, (walk.tail if walk.same else None)
    if slot is not None and walk.kept.size < walk.entries:
        walk.kept = np.empty(walk.entries)
    used = 0
    for u2, work, blocks in walk.passes():
        g = work[0]
        if slot is not None:
            g = walk.kept[used:used + u2.size].reshape(u2.shape)
            used += u2.size
        w, g = kernel.shapes(u2, (u2, g))
        for rows, cols, at, shape in blocks:
            w_b, g_b = (w, g) if at is None else (w[at].reshape(shape), g[at].reshape(shape))
            if slot is not None:
                slot.append((rows, cols, g_b))
            _sum_pairs(rho, w_b, walk.m, rows, cols, tail)
    rho *= kernel.norm_const
    return rho


def compute_accelerations(state, rho, fm, kernel, include_drag=True, engine=None):
    """Per-particle accelerations of the theta-parameterized scheme, (n, d).

    ``rho`` is :func:`compute_density` of the same state, or None for a pressure
    law to compute it in one walk whose blocks its pressure sum reuses (without
    one, rho is not read).  ``include_drag=False`` leaves -eta v to the integrator.

    ``engine`` is the handle of a run: ``_Engine(states0, fm, kernels)``, built once
    for a batch of states with the masses of states0, one kernel each, whose walks
    and buffers every evaluation reuses.  ``state`` then holds the batch's particles
    one rung after another (and ``rho`` the same way), and the kernel is not read.
    The result is the engine's own array, which its next evaluation overwrites.
    Without one, the evaluation builds a throwaway engine, so both take the same
    walks and give the same bits."""
    if engine is None:
        engine = _Engine([state], fm, [kernel])
    return engine.accelerations(state, rho, include_drag)


class _Engine:
    """The force evaluations of a run over a batch of states: a walk per pair term and
    state, built from the masses, the force model and the state's kernel, and the
    acceleration they fill, whose ``rows`` hold each state's particles in turn."""

    def __init__(self, states, fm, kernels):
        for state, kernel in zip(states, kernels):
            if state.dim != kernel.dim:
                raise ValueError(f"state dimension {state.dim} != kernel dimension {kernel.dim}")
        d, ns = states[0].dim, [s.n for s in states]
        ends = np.cumsum(ns).tolist()
        self.rows = [slice(e - n, e) for n, e in zip(ns, ends)]
        self.fm, self.kernels = fm, kernels
        self.acc = np.empty((ends[-1], d))
        self.pressure = self.interaction = None
        if fm.eos is not None:
            sums = 2 if fm.theta else 1  # c = m(, m F)
            self.pressure = [_Walk(s.masses, d, k.h, _band(k, s.n), sums * (d + 1))
                             for s, k in zip(states, kernels)]
        if fm.interaction is not None:
            masses = np.concatenate([s.masses for s in states])
            self.interaction = _Walk(masses, d, width=d + 1, work=4, ends=ends)

    def accelerations(self, state, rho, include_drag):
        """:func:`compute_accelerations` at the state, in the engine's array."""
        fm, acc, x = self.fm, self.acc, state.positions
        if self.pressure is not None:
            for walk, kernel, rows in zip(self.pressure, self.kernels, self.rows):
                _pressure_accel(walk, x[rows], None if rho is None else rho[rows], fm, kernel,
                                acc[rows])
        if self.interaction is not None:
            k = _interaction_accel(self.interaction, x, fm.interaction)
            np.add(0.0 if self.pressure is None else acc, k, out=acc)  # 0 + K, -0.0 as 0.0
        elif self.pressure is None:
            acc.fill(0.0)
        if fm.v_ext is not None:
            acc -= fm.v_ext.gradient(x)
        if include_drag:
            acc -= fm.eta * state.velocities
        return acc


def _pressure_accel(walk, x, rho, fm, kernel, acc):
    """The pressure term at x into ``acc``, from the g kept by the walk for rho, or
    a fresh pass for g when rho is supplied or the blocks pass ``_SLOT_ENTRIES``."""
    walk.place(x)
    slot = []
    if rho is None:
        rho = _density_and_blocks(walk, kernel, slot if walk.entries <= _SLOT_ENTRIES else None)
    elif walk.order is not None:
        rho = rho[walk.order]
    F = f_theta(fm.eos, fm.theta, rho)
    blocks = slot or _radial_blocks(walk, lambda u2, work: kernel.shapes(u2, (u2, work[0]))[1])
    sums = _pair_sums(blocks, walk, F if fm.theta else None)
    out = acc if walk.order is None else sums[:, 0]
    np.multiply(sums[:, 0], F[:, None], out=out)
    if fm.theta:  # the F_i term
        out += sums[:, 1]
    out *= -kernel.h * kernel.grad_const
    if walk.order is not None:
        acc[walk.order] = out


def _interaction_accel(walk, x, interaction):
    """The interaction term at x, on the walk over all pairs relative to x_0."""
    walk.place(x)
    blocks = _radial_blocks(walk, lambda r, work: interaction.force_scale(np.sqrt(r, out=r), work))
    return _pair_sums(blocks, walk)[:, 0]


def _radial_blocks(walk, radial):
    """``(rows, cols, c)`` of each block of the placed walk, with c = ``radial(r2,
    work)`` of its pass: one call per pass."""
    for r2, work, blocks in walk.passes():
        c = radial(r2, work)
        for rows, cols, at, shape in blocks:
            yield rows, cols, c if at is None else c[at].reshape(shape)


def _pair_sums(blocks, walk, F=None):
    """sum_i w_ki c_i (x_k - x_i) = x_k (w @ c)_k - (w @ c x)_k over the ``(rows, cols,
    w)`` blocks, for c = m and, with F, c = m F: one product per block and tail.  An
    (n, 1 or 2, d) array of the walk's."""
    src, out = walk.src, walk.out
    np.multiply(walk.m_col, walk.xs, out=walk.src_mx)
    if F is not None:
        np.multiply(walk.src_c, F[:, None], out=walk.src_cF)
    for rows, cols, w in blocks:
        _sum_pairs(out, w, src, rows, cols, walk.tail)
    xs, wc, wcx = walk.fold
    return np.subtract(np.multiply(xs, wc, out=walk.sums), wcx, out=walk.sums)


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


class _Walk:
    """One pair walk's buffers, which every evaluation of a run reuses: sources and
    targets in walk coordinates, the factors [|y|^2, 1, -2 y] and [1, |x|^2, x]^T
    of the blocks' squared distances, with their constant rows set once, the
    sums' sources [m, m x, ...] of ``width`` columns, and the buffers of the
    passes: r2 and ``work`` scratch arrays.

    Sources at x, and targets at y, are placed relative to x_0 in units of
    ``unit``.  With a ``cutoff`` both are sorted stably along x_0 at each
    placement, and a block meets the sources within the cutoff along x_0 of its
    targets; without one, all sources.  The targets are the sources themselves,
    met from each block's first target on (see :func:`_sum_pairs`), unless the
    walk is built for ``n_targets`` other points.  Unsorted sources against
    themselves may come in independent sets, rows up to each of ``ends``, each
    relative to its first source and met by its own blocks only.

    The blocks come in passes: runs of consecutive blocks whose r2 lie side by
    side in the buffers, up to ``_PASS_ENTRIES`` pairs or one block if larger,
    so that a pass's radial function takes one call."""

    def __init__(self, masses, dim, unit=1.0, cutoff=None, width=0, work=1, n_targets=None,
                 ends=None):
        n = masses.shape[0]
        self.same = n_targets is None
        nt = n if self.same else n_targets
        self.masses, self.unit, self.cutoff = masses, unit, cutoff
        self.order = self.order_y = None
        sort = cutoff is not None
        self.x_rel = np.empty((n, dim))
        self.xs = np.empty((n, dim)) if sort else self.x_rel
        self.y_rel = None if self.same else np.empty((nt, dim))
        self.ys = self.xs if self.same else (np.empty((nt, dim)) if sort else self.y_rel)
        self.m = np.empty(n) if sort else masses
        self.b = np.empty((dim + 2, n))
        self.a = np.empty((nt, dim + 2))
        self.b[0], self.a[:, 1] = 1.0, 1.0
        self.b_sq, self.b_x = self.b[1], self.b[2:]
        self.a_sq, self.a_y = self.a[:, 0], self.a[:, 2:]
        self.rho = np.empty(nt)
        self.tail = np.empty(n * max(width, 1))
        ends = [nt] if ends is None else ends
        firsts = [0] + ends[:-1]  # each set's sources are relative to its first one
        self.origin = slice(0, 1) if len(ends) == 1 else np.repeat(firsts, np.diff([0] + ends))
        self.starts = np.concatenate([np.arange(first, end, _BLOCK)[::-1]  # a row's tail sums
                                      for first, end in zip(firsts, ends)])  # come after its own
        tops = np.asarray(ends)[np.searchsorted(ends, self.starts, "right")]  # each block's set
        self.lasts = np.minimum(self.starts + _BLOCK, tops) - 1
        sizes = (self.lasts + 1 - self.starts) * (tops - self.starts if self.same else n)
        size = max(min(int(sizes.sum()), _PASS_ENTRIES), int(sizes.max(initial=0)))
        buf = np.empty((1 + work) * size)
        self.r2, self.work = buf[:size], buf[size:].reshape(work, size)
        self.kept = np.empty(0)  # the g of a pressure sum, grown to the blocks' size
        self.src = np.empty((n, width))
        self.out = np.empty((nt, width))
        if width:  # views of the pair sums, which run on sources as targets
            d1 = dim + 1
            self.src[:, 0] = masses
            self.m_col, self.src_mx = self.m[:, None], self.src[:, 1:d1]
            self.src_c, self.src_cF = self.src[:, :d1], self.src[:, d1:]
            self.sums = np.empty((n, width // d1, dim))
            out = self.out.reshape(n, -1, d1)
            self.fold = (self.xs[:, None], out[:, :, :1], out[:, :, 1:])
        if not sort:
            self._set_bounds(self.starts if self.same else 0 * self.starts,
                             tops if self.same else [n] * len(self.starts))

    def place(self, x, y=None):
        """Put the sources at x, and the targets at y if the walk has other targets:
        their walk coordinates and sort, the factors and the blocks' bounds."""
        x_rel = np.subtract(x, x[self.origin], out=self.x_rel)
        if self.unit != 1.0:
            x_rel /= self.unit
        if y is not None:
            y_rel = np.subtract(y, x[:1], out=self.y_rel)
            if self.unit != 1.0:
                y_rel /= self.unit
        if self.cutoff is not None:
            self.order = np.argsort(x_rel[:, 0], kind="stable")
            np.take(x_rel, self.order, axis=0, out=self.xs)
            np.take(self.masses, self.order, out=self.m)
            if self.src.shape[1]:
                self.src[:, 0] = self.m
            self.order_y = self.order
            if y is not None:
                self.order_y = np.argsort(y_rel[:, 0], kind="stable")
                np.take(y_rel, self.order_y, axis=0, out=self.ys)
        xs, ys = self.xs, self.ys
        self.b_x[...] = xs.T
        np.einsum("id,id->i", xs, xs, out=self.b_sq)
        self.a_sq[...] = self.b_sq if self.same else np.einsum("id,id->i", ys, ys)
        np.multiply(ys, -2.0, out=self.a_y)
        if self.cutoff is not None:  # the band along x_0
            x0, y0 = xs[:, 0], ys[:, 0]
            his = np.searchsorted(x0, y0[self.lasts] + self.cutoff, "right")
            los = self.starts if self.same else np.searchsorted(x0, y0[self.starts] - self.cutoff)
            self._set_bounds(los, his)

    def _set_bounds(self, los, his):
        """Each block's slices and factors, from its first and last source, and its
        place ``at`` in its pass, after the previous block: the walk's ``layout`` of
        (products, r2, scratch, blocks) per pass, and its ``entries``.  A pass of one
        block holds that block's own views, and its ``at`` is None."""
        n, layout = self.b.shape[1], []
        for s, e, lo, hi in zip(self.starts.tolist(), self.lasts.tolist(),
                                np.asarray(los).tolist(), np.asarray(his).tolist()):
            k, c = e + 1 - s, hi - lo
            if not layout or layout[-1][0] + k * c > _PASS_ENTRIES:
                layout.append((0, [], []))
            end, products, blocks = layout[-1]
            rows, cols, at = slice(s, e + 1), slice(lo, hi), slice(end, end + k * c)
            products.append((self.a[rows], self.b if c == n else self.b[:, cols],
                             self.r2[at].reshape(k, c)))
            blocks.append((rows, cols, at, (k, c)))
            layout[-1] = (at.stop, products, blocks)
        self.entries, self.layout = sum(end for end, _, _ in layout), []
        for end, products, blocks in layout:
            r2, work = self.r2[:end], self.work[:, :end]
            if len(blocks) == 1:
                r2, work = products[0][2], work.reshape(len(work), *blocks[0][3])
                blocks = [blocks[0][:2] + (None, blocks[0][3])]
            self.layout.append((products, r2, tuple(work), blocks))

    def passes(self):
        """Yield ``(r2, work, blocks)`` per pass, last block first: the pass's r2 =
        [|y|^2, 1, -2 y] @ [1, |x|^2, x]^T of each block, side by side in the walk's
        buffer, which rounds with eps times the squared extent, clipped at 0; the
        pass's scratch; and ``(rows, cols, at, shape)`` of each block, slices of the
        placed targets and sources and its place in the pass (None: the whole pass)."""
        for products, r2, work, blocks in self.layout:
            for a, b, out in products:
                _sq_dists(a, b, out)
            yield np.maximum(r2, 0.0, out=r2), work, blocks


def _sum_pairs(out, w, c, rows, cols, tail=None):
    """out[rows] = w @ c[cols]; with a ``tail`` buffer, the block's sources past
    its targets also get the transposed sums w[:, k:]^T @ c[rows], k targets."""
    np.matmul(w, c[cols], out=out[rows])
    if tail is not None and cols.stop > rows.stop:
        shape = (cols.stop - rows.stop,) + c.shape[1:]
        t = np.matmul(w[:, rows.stop - rows.start:].T, c[rows],
                      out=tail[:shape[0] * c[0].size].reshape(shape))
        out[rows.stop:cols.stop] += t


def _sq_dists(a, b, out):
    """A block's squared distances from the factors of :class:`_Walk`, into ``out``."""
    return np.matmul(a, b, out=out)


def _band(kernel, n):
    """The cutoff in walk coordinates of a walk over n targets, or None (all
    sources, no sort) for an unbounded kernel or a walk of one block."""
    bounded = n > _BLOCK and np.isfinite(kernel.support_radius)
    return kernel.support_radius / kernel.h if bounded else None


# ---------------------------------------------------------------------------
# support bound


def support_radii(state0, fm, kernel, times):
    """The a-priori support bound r(t) = r0 + t sup|v0| + t^2/2 (M1 + sup|K|) of the
    run from state0 at each time, radii that no particle may pass, or None where its
    constants do not exist.  They exist for theta = 1 without external potential and,
    with pressure, for gamma >= 2, where M2 = sup F1 on [0, sup W] is finite and
    M1 = 2 M2 sup|grad W|."""
    if fm.theta != 1 or fm.v_ext is not None:
        return None
    m1 = 0.0
    if fm.eos is not None:
        if fm.eos.gamma < 2.0:
            return None
        m2 = fm.eos.k_eos * kernel.peak_value() ** (fm.eos.gamma - 2.0)
        m1 = 2.0 * m2 * kernel.grad_sup_norm()
    drive = m1 + (fm.interaction.sup_norm() if fm.interaction is not None else 0.0)
    r0 = float(np.linalg.norm(state0.positions, axis=1).max())
    v0_sup = float(np.linalg.norm(state0.velocities, axis=1).max())
    return [r0 + t * v0_sup + 0.5 * t * t * drive for t in times]


def check_support(state, bound):
    """True when every particle satisfies |x_i| <= bound."""
    return bool(np.linalg.norm(state.positions, axis=1).max() <= bound)
