"""Wasserstein-1 distances between discrete measures and convergence-rate
estimation.

Three exact solvers are provided.  Between two discrete measures,
:func:`wasserstein1` is the one entry point: it applies the 1D sweep in
one dimension and :func:`w1_lp` in any other, whose path
:func:`w1_solver` names.

* :func:`w1_1d_discrete` -- exact in one dimension, via the identity
  W1 = integral |F_mu - F_nu| dx over the merged support;
* :func:`w1_lp` -- exact in any dimension.  When both measures carry
  uniform weights and one size divides the other by at most 16 (every
  equal-mass resolution ladder), copying each atom of the smaller
  measure turns the transportation problem into a square assignment
  problem, solved by Jonker-Volgenant; integrality of the
  transportation polytope makes its optimum the exact distance.  Any
  other input goes to the transportation linear program (dual simplex),
  whose flows are then re-solved on the optimal support forest so that
  plan marginals hold to machine precision;
* :func:`w1_1d_vs_uniform` -- exact semi-discrete distance in 1D to the
  uniform law on [0, 1], the law every initial state approximates, in
  closed form per atom over its quantile interval.

:func:`write_csv` is the one CSV row writer of the package.

:func:`dual_certificate` bounds the optimality gap of any feasible plan
through a 1-Lipschitz potential built by shortest-path relaxation, using
nothing from the solver's internals.

scipy is loaded at the first assignment or LP solve, through the
module-level :func:`linear_sum_assignment` and :func:`linprog`.  Only the
LP path imports ``scipy.optimize``; the assignment loads scipy's compiled
Jonker-Volgenant solver from its own file.
"""

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "TransportPlan",
    "RateTable",
    "TransportBudgetError",
    "w1_1d_discrete",
    "w1_lp",
    "w1_solver",
    "w1_1d_vs_uniform",
    "wasserstein1",
    "sup_wasserstein_over_time",
    "convergence_rates",
    "dual_certificate",
]

# Cost matrices are dense; refuse products beyond this many entries.
DEFAULT_PAIR_BUDGET = 2**24

_WEIGHT_TOL = 1e-12

# 17 significant digits read every double back exactly, so rates can be
# recomputed from the CSV files alone; integral values print as integers.
FLOAT_FMT = "%.17g"

# Copies per atom beyond which the assignment loses to the LP: the square
# matrix grows with the ratio while the LP shrinks.  One core of a 2-vCPU
# Xeon, 2048 target atoms: ratio 16 took 1.8 s against the LP's 7.8 s,
# ratio 64 4.6 s against 1.9 s.
_MAX_COPIES = 16


class TransportBudgetError(RuntimeError):
    """Problem size exceeds the configured memory budget."""


_lsap = None  # scipy's assignment solver, loaded by the first call


def _lsap_file():
    """The file of scipy's compiled assignment solver, or None."""
    from importlib.machinery import EXTENSION_SUFFIXES

    import scipy

    base = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_lsap")
    return next((base + s for s in EXTENSION_SUFFIXES if os.path.isfile(base + s)), None)


def _load_lsap(path):
    """The function ``scipy.optimize`` exports as ``linear_sum_assignment``,
    from its extension module at ``path``, without importing ``scipy.optimize``
    (and with it ``scipy.linalg``, ``scipy.sparse`` and ``scipy.special``); from
    ``scipy.optimize`` if ``path`` is None or will not load.  The interpreter
    registers the module, so a later ``import scipy.optimize`` reuses it."""
    if path is not None:
        from importlib.util import module_from_spec, spec_from_file_location

        try:
            spec = spec_from_file_location("scipy.optimize._lsap", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.linear_sum_assignment
        except (ImportError, OSError, AttributeError):
            pass
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment


def linear_sum_assignment(cost):
    """scipy's ``linear_sum_assignment``, loaded on the first call."""
    global _lsap
    if _lsap is None:
        _lsap = _load_lsap(_lsap_file())
    return _lsap(cost)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def write_csv(fname, header, rows, fmt=FLOAT_FMT):
    """Write the 2D array ``rows`` under a ``header`` line, comma separated.

    ``fmt`` is one format for every column, a list with one per column,
    or a whole-row format (``np.savetxt``'s convention).
    """
    np.savetxt(fname, rows, fmt=fmt, delimiter=",", header=header, comments="")


@dataclass
class DiscreteMeasure:
    """Weighted point cloud: locations (n, d) and probability weights (n,)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.ndim == 1:
            self.points = self.points[:, None]
        if self.points.ndim != 2 or self.weights.ndim != 1:
            raise ValueError("points must be (n, d), weights (n,)")
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points and weights must share length")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(
                f"weights must sum to 1 within {_WEIGHT_TOL}, got {self.weights.sum()!r}"
            )

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @classmethod
    def from_state(cls, state):
        """View a particle state as the measure sum m_i delta_{x_i}."""
        return cls(points=state.positions, weights=state.masses)


@dataclass
class TransportPlan:
    """Sparse coupling: mass[k] flows from source i[k] to target j[k]."""

    i: np.ndarray
    j: np.ndarray
    mass: np.ndarray
    cost: float

    def row_marginal(self, n_source):
        out = np.zeros(n_source)
        np.add.at(out, self.i, self.mass)
        return out

    def col_marginal(self, n_target):
        out = np.zeros(n_target)
        np.add.at(out, self.j, self.mass)
        return out

    def to_csv(self, path):
        """Write (i, j, mass) triples for audit."""
        write_csv(path, "i,j,mass", np.column_stack([self.i, self.j, self.mass]))


@dataclass
class RateTable:
    """Pairwise distances across a resolution ladder and the derived rates.

    ``distances[p]`` is the distance between the runs at ``resolutions[p]``
    and ``resolutions[p+1]``.  ``rates[q]`` is ``(1/dim) * log2`` of the
    ratio of consecutive distances, labeled by the middle resolution
    ``rate_labels[q] = resolutions[q+1]``; undefined ratios (a vanishing
    distance) are NaN and flagged.
    """

    resolutions: list
    distances: np.ndarray
    rates: np.ndarray
    rate_labels: list
    dim: int
    undefined: list


def _check_same_dim(mu, nu):
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")


def w1_1d_discrete(mu, nu):
    """Exact 1D Wasserstein-1 distance between two discrete measures.

    Merges the supports, accumulates the signed CDF difference, and
    integrates |F_mu - F_nu| over the gaps (equivalently, the integral of
    |F_mu^{-1} - F_nu^{-1}| over quantiles).  Ties contribute zero-width
    segments, so any tie-break yields the same cost.
    """
    _check_same_dim(mu, nu)
    if mu.dim != 1:
        raise ValueError("w1_1d_discrete requires one-dimensional measures")
    pts = np.concatenate([mu.points[:, 0], nu.points[:, 0]])
    signed = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    cdf_diff = np.cumsum(signed[order])[:-1]
    return float(np.abs(cdf_diff) @ np.diff(pts))


def w1_lp(mu, nu, budget=DEFAULT_PAIR_BUDGET):
    """Exact Wasserstein-1 distance in any dimension, with the optimal plan.

    Minimizes sum pi_ij |x_i - y_j| over couplings.  If both weight
    vectors are exactly uniform and one size divides the other by a small
    ratio, this is an assignment problem (:func:`_assignment_applies`,
    :func:`_solve_assignment`).  Otherwise the
    HiGHS dual simplex solves the transportation LP, and the flows are
    recomputed on the optimal support forest by leaf elimination so that
    the returned plan satisfies both marginals to machine precision.
    Returns ``(distance, TransportPlan)``.
    """
    _check_same_dim(mu, nu)
    _check_budget(mu.n, nu.n, budget)
    cost = _cost_matrix(mu, nu)
    if _assignment_applies(mu, nu, budget):
        ii, jj, mass = _solve_assignment(mu.weights, nu.weights, cost)
    else:
        x = _solve_transport_lp(mu.weights, nu.weights, cost)
        arcs = _polish_plan(mu.weights, nu.weights, x)
        if arcs is None:
            # degenerate support (cycle after thresholding): keep raw flows
            ii, jj = np.nonzero(x > 0)
            arcs = ii, jj, x[ii, jj]
        ii, jj, mass = arcs
    total = float(np.sum(mass * cost[ii, jj]))
    return total, TransportPlan(i=ii, j=jj, mass=mass, cost=total)


def _cost_matrix(mu, nu):
    """Euclidean distances |x_i - y_j| between the atoms, as an (n_s, n_t) array."""
    return np.linalg.norm(mu.points[:, None, :] - nu.points[None, :, :], axis=-1)


def _check_budget(n_s, n_t, budget):
    """Raise :class:`TransportBudgetError` if an n_s x n_t cost matrix exceeds the budget."""
    if n_s * n_t > budget:
        raise TransportBudgetError(
            f"cost matrix {n_s} x {n_t} = {n_s * n_t} entries exceeds the "
            f"budget of {budget}; subsample the measures or raise the budget"
        )


def _assignment_applies(mu, nu, budget):
    """Whether :func:`w1_lp` solves this pair as an assignment problem.

    Both weight vectors must be exactly uniform and one size must divide
    the other by at most ``_MAX_COPIES``, and the square matrix of
    ``max(n_s, n_t)**2`` entries must fit the budget.
    """
    n_small, n_large = sorted((mu.n, nu.n))
    return (
        _is_uniform(mu.weights)
        and _is_uniform(nu.weights)
        and n_large % n_small == 0
        and n_large // n_small <= _MAX_COPIES
        and n_large**2 <= budget
    )


def _is_uniform(w):
    return bool(np.all(w == w[0]))


def _solve_assignment(a, b, cost):
    """Optimal plan between uniform measures whose sizes divide one another.

    Each atom of the smaller measure is copied r = n_large / n_small times
    so that both sides hold n_large atoms of equal mass; an optimal
    permutation of the square cost matrix is then an optimal coupling
    (the assignment polytope's vertices are permutations).  Every arc
    carries the mass of one atom of the larger measure.  Returns the arcs
    ``(i, j, mass)``.
    """
    n_s, n_t = cost.shape
    if n_s <= n_t:
        r, mass = n_t // n_s, b[0]
        rows, jj = linear_sum_assignment(np.repeat(cost, r, axis=0))
        ii = rows // r
    else:
        r, mass = n_s // n_t, a[0]
        ii, cols = linear_sum_assignment(np.repeat(cost, r, axis=1))
        jj = cols // r
    return ii, jj, np.full(len(ii), mass)


def _solve_transport_lp(a, b, cost):
    """Transportation LP by HiGHS dual simplex; returns the dense plan."""
    from scipy import sparse
    n_s, n_t = cost.shape
    rows = np.concatenate(
        [np.repeat(np.arange(n_s), n_t), n_s + np.tile(np.arange(n_t), n_s)]
    )
    cols = np.concatenate([np.arange(n_s * n_t)] * 2)
    eq = sparse.csr_matrix(
        (np.ones(2 * n_s * n_t), (rows, cols)), shape=(n_s + n_t, n_s * n_t)
    )
    rhs = np.concatenate([a, b])
    # one constraint is redundant (both sides sum to 1); drop it to keep
    # the basis nondegenerate for the simplex
    res = linprog(
        cost.ravel(),
        A_eq=eq[:-1],
        b_eq=rhs[:-1],
        bounds=(0, None),
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return res.x.reshape(n_s, n_t)


def _polish_plan(a, b, x, support_tol=1e-14):
    """Re-solve the flows on the support forest by leaf elimination.

    A vertex of the transportation polytope has forest support, on which
    the flows are uniquely determined by the marginals.  Returns the arcs
    ``(i, j, mass)``, or None if the thresholded support contains a cycle
    or the recomputation is inconsistent (then the raw solver plan should
    be used).
    """
    n_s, n_t = x.shape
    ii, jj = np.nonzero(x > support_tol)
    n_arcs = len(ii)
    deg = np.zeros(n_s + n_t, dtype=int)
    np.add.at(deg, ii, 1)
    np.add.at(deg, n_s + jj, 1)
    rem = np.concatenate([a, b])
    adjacency = [[] for _ in range(n_s + n_t)]
    for e in range(n_arcs):
        adjacency[ii[e]].append(e)
        adjacency[n_s + jj[e]].append(e)
    alive = np.ones(n_arcs, dtype=bool)
    flow = np.zeros(n_arcs)
    stack = [node for node in range(n_s + n_t) if deg[node] == 1]
    while stack:
        node = stack.pop()
        if deg[node] != 1:
            continue
        arc = next((e for e in adjacency[node] if alive[e]), None)
        if arc is None:
            continue
        src, snk = ii[arc], n_s + jj[arc]
        other = snk if node == src else src
        flow[arc] = rem[node]
        rem[other] -= rem[node]
        rem[node] = 0.0
        alive[arc] = False
        deg[src] -= 1
        deg[snk] -= 1
        if deg[other] == 1:
            stack.append(other)
    if alive.any() or np.abs(rem).max() > 1e-9 or flow.min() < -1e-9:
        return None
    return ii, jj, np.maximum(flow, 0.0)


def dual_certificate(mu, nu, plan):
    """Optimality certificate for a transport plan via LP duality.

    Builds a feasible dual (a 1-Lipschitz potential on the support
    points) by Bellman-Ford relaxation over the plan's residual graph:
    forward arcs constrain ``v_j <= u_i + c_ij`` for every pair, and the
    plan's arcs force equality.  Returns ``(gap, feasibility_violation)``
    where ``gap = plan.cost - dual objective >= 0`` bounds the
    suboptimality of the plan.
    """
    _check_same_dim(mu, nu)
    cost = _cost_matrix(mu, nu)
    n_s, n_t = cost.shape
    pi_s = np.zeros(n_s)
    pi_t = np.zeros(n_t)
    arc_cost = cost[plan.i, plan.j]
    converged = False
    for _ in range(n_s + n_t + 1):
        changed = False
        relaxed_t = (pi_s[:, None] + cost).min(axis=0)
        if np.any(relaxed_t < pi_t - 1e-15):
            pi_t = np.minimum(pi_t, relaxed_t)
            changed = True
        relaxed_s = pi_s.copy()
        np.minimum.at(relaxed_s, plan.i, pi_t[plan.j] - arc_cost)
        if np.any(relaxed_s < pi_s - 1e-15):
            pi_s = relaxed_s
            changed = True
        if not changed:
            converged = True
            break
    u, v = -pi_s, pi_t
    feas_violation = max(0.0, float((u[:, None] + v[None, :] - cost).max()))
    if not converged:
        # a negative residual cycle: no potential honors the plan's arcs,
        # so the plan cannot be optimal
        return np.inf, feas_violation
    dual_obj = float(mu.weights @ u + nu.weights @ v)
    return plan.cost - dual_obj, feas_violation


def w1_1d_vs_uniform(mu):
    """Exact 1D distance between a discrete measure and the uniform law on [0, 1]:
    the integral over quantiles q of |F_mu^{-1}(q) - q|.  The atom at x holds the
    quantiles [a, b] between its neighbours' cumulative weights, over which |x - q|
    integrates to ((c - a)^2 + (b - c)^2) / 2 + |x - c| (b - a), c = clip(x, a, b).
    """
    if mu.dim != 1:
        raise ValueError("w1_1d_vs_uniform requires a one-dimensional measure")
    order = np.argsort(mu.points[:, 0], kind="stable")
    x = mu.points[order, 0]
    b = np.cumsum(mu.weights[order])
    a = np.concatenate([[0.0], b[:-1]])
    c = np.clip(x, a, b)
    return float(0.5 * np.sum((c - a) ** 2 + (b - c) ** 2) + np.abs(x - c) @ (b - a))


def w1_solver(mu, nu, budget=DEFAULT_PAIR_BUDGET):
    """Name of the solver :func:`wasserstein1` applies to this pair.

    The 1D CDF sweep when d = 1; otherwise the path :func:`w1_lp` takes,
    ``"assignment"`` or ``"transportation LP"``.
    """
    _check_same_dim(mu, nu)
    if mu.dim == 1:
        return "exact 1D CDF sweep"
    return "assignment" if _assignment_applies(mu, nu, budget) else "transportation LP"


def wasserstein1(mu, nu, budget=DEFAULT_PAIR_BUDGET):
    """Exact W1 distance: :func:`w1_1d_discrete` when d = 1, :func:`w1_lp` otherwise."""
    if mu.dim == 1:
        return w1_1d_discrete(mu, nu)
    distance, _ = w1_lp(mu, nu, budget=budget)
    return distance


def sup_wasserstein_over_time(snaps_a, snaps_b, budget=DEFAULT_PAIR_BUDGET):
    """Max over shared sample times of the distance between two trajectories.

    ``snaps_a`` and ``snaps_b`` are sequences of ``(time, DiscreteMeasure)``
    sampled on the same grid.  Returns ``(max_distance, argmax_time,
    distances)``.
    """
    times_a = np.asarray([t for t, _ in snaps_a], dtype=float)
    times_b = np.asarray([t for t, _ in snaps_b], dtype=float)
    if times_a.shape != times_b.shape or np.any(
        np.abs(times_a - times_b) > 1e-9 * max(1.0, float(np.abs(times_a).max(initial=0.0)))
    ):
        raise ValueError("trajectories are sampled on different time grids")
    distances = np.array(
        [wasserstein1(ma, mb, budget=budget) for (_, ma), (_, mb) in zip(snaps_a, snaps_b)]
    )
    k = int(np.argmax(distances))
    return float(distances[k]), float(times_a[k]), distances


def convergence_rates(distances, dim, resolutions=None):
    """Rates (1/dim) log2 |W_{k+1,k+2} / W_{k,k+1}| from consecutive distances.

    ``resolutions`` labels the ladder (defaults to 1..m); each rate is
    attached to the middle resolution of the three runs it involves.
    """
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 1 or len(distances) < 2:
        raise ValueError("need at least two consecutive distances")
    if np.any(distances < 0):
        raise ValueError("distances must be nonnegative")
    if resolutions is None:
        resolutions = list(range(1, len(distances) + 2))
    if len(resolutions) != len(distances) + 1:
        raise ValueError("need one more resolution than distances")
    rates = np.full(len(distances) - 1, np.nan)
    undefined = []
    for q in range(len(rates)):
        if distances[q] > 0 and distances[q + 1] > 0:
            rates[q] = np.log2(distances[q + 1] / distances[q]) / dim
        else:
            undefined.append(resolutions[q + 1])
    return RateTable(
        resolutions=list(resolutions),
        distances=distances,
        rates=rates,
        rate_labels=list(resolutions[1:-1]),
        dim=dim,
        undefined=undefined,
    )
