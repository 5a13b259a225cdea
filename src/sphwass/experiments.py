"""Experiment drivers: the three built-in families and the convergence
study that compares particle solutions across a resolution ladder.

Families
--------
``expansion_1d``
    Spontaneous expansion of a gas initially uniform on [0, 1], Gaussian
    kernel, polytropic pressure, no other forces; n = 2**k particles.
``rotating_square_2d``
    Expansion of an initially uniform square [0, 1]^2 with rigid initial
    rotation (vx, vy) = (-y, x), Wendland kernel; n = 4**k particles.
``morse_2d``
    Pure interaction/drag problem: regularized Morse forces plus linear
    drag, no pressure; n = 4**k particles released at rest.

A study runs every resolution of the ladder from an independently
constructed initial state, evaluates the Wasserstein-1 distance between
consecutive runs on a shared snapshot grid, takes the max over the grid,
and converts consecutive maxima into convergence rates.

A single-worker Morse study integrates its rungs as one batch, in lockstep;
otherwise each rung is a batch of its own, run by the same routine, so the
bits agree.  Only a study with ``workers > 1`` imports ``concurrent.futures``.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .forces import EosPolytropic, ForceModel, MorseInteraction
from .initial import equipartition, preset, sample_iid, select_h
from .integrator import IntegratorConfig, SimulationDivergedError, run
from .kernels import KERNEL_FOR_DIM
from .params import ParameterError
from .sph import check_support, compute_density, support_radii
from .sph import _density_at
from .transport import (
    DEFAULT_PAIR_BUDGET,
    FLOAT_FMT,
    DiscreteMeasure,
    _check_budget,
    convergence_rates,
    sup_wasserstein_over_time,
    write_csv,
)

__all__ = [
    "ExperimentPlan",
    "RunRecord",
    "StudyResult",
    "StudyDivergedError",
    "run_convergence_study",
    "density_profile",
    "emit_report",
    "FAMILIES",
]

FAMILIES = {
    "expansion_1d": {"dim": 1, "preset": "uniform_box_1d", "pressure": True},
    "rotating_square_2d": {"dim": 2, "preset": "rotating_square_2d", "pressure": True},
    "morse_2d": {"dim": 2, "preset": "morse_cloud_2d", "pressure": False},
}


class StudyDivergedError(RuntimeError):
    """A simulation in the study diverged; carries the offending run."""

    def __init__(self, family, k, step_index):
        self.family = family
        self.k = k
        self.step_index = step_index
        super().__init__(
            f"simulation diverged in family {family!r} at resolution k={k} "
            f"(step {step_index})"
        )

    def __reduce__(self):  # rebuilt from its fields when a worker process raises it
        return type(self), (self.family, self.k, self.step_index)


@dataclass(frozen=True)
class ExperimentPlan:
    """Full description of one convergence study.

    ``resolutions`` is the ladder of exponents k; the particle count is
    2**k in one dimension and 4**k in two.  ``h_mode`` is ``'fixed'``
    (h = h_value for every resolution) or ``'scaled'``
    (h = h_value * V0**(1/d)).
    """

    family: str
    resolutions: tuple
    gamma: float = 2.0
    kappa: float = 1.0
    theta: int = 1
    h_mode: str = "fixed"
    h_value: float = 1.0
    dt: float = 1e-3
    t_end: float = 1.0
    n_snapshots: int = 10
    eta: float = 0.0
    morse: MorseInteraction | None = None
    init_mode: str = "equipartition"
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError("family", f"unknown family {self.family!r}")
        ks = tuple(int(k) for k in self.resolutions)
        # A rate compares two consecutive distances, so three rungs.  A rung's
        # particle count is an int64 index, and is computed below.
        if len(ks) < 3 or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ParameterError("resolutions", "need three or more increasing resolutions >= 1")
        if ks[-1] * self.dim > 62:
            raise ParameterError("resolutions", f"k = {ks[-1]} makes more than 2^62 particles")
        object.__setattr__(self, "resolutions", ks)
        if self.n_snapshots < 2:
            raise ParameterError("n_snapshots", "need at least two snapshot times")
        if self.h_mode not in ("fixed", "scaled"):
            raise ParameterError("h_mode", "h_mode must be 'fixed' or 'scaled'")
        if self.init_mode not in ("equipartition", "iid"):
            raise ParameterError("init_mode", "init_mode must be 'equipartition' or 'iid'")
        # Each number's range is its constructor's.  The snapshot grid lies in
        # [0, t_end], and for a huge n_snapshots it would take long to build.
        EosPolytropic(self.gamma, self.kappa)  # checked for every family
        self.force_model()
        IntegratorConfig(self.dt, self.t_end)
        if not self.t_end > 0:  # IntegratorConfig allows t_end = 0
            raise ParameterError("t_end", f"t_end must be positive, got {self.t_end}")
        # Beyond one time per step, requested times collapse onto the same steps.
        n_steps = round(self.t_end / self.dt)
        if self.n_snapshots > n_steps + 1:
            raise ParameterError(
                "n_snapshots", f"at most {n_steps + 1} snapshot times fit {n_steps} steps"
            )
        # The kernel at every rung's h.  select_h's note on the customary range
        # is the run's to give.
        import warnings

        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "resolution-scaling factor", RuntimeWarning)
            for k in ks:
                spec = preset(FAMILIES[self.family]["preset"], self.particles_at(k))
                self.kernel(select_h(spec, self.h_mode, self.h_value))

    @property
    def dim(self):
        return FAMILIES[self.family]["dim"]

    def kernel(self, h):
        return KERNEL_FOR_DIM[self.dim](h)

    def particles_at(self, k):
        return (2**k) ** self.dim

    def snapshot_times(self):
        nr = self.n_snapshots
        return tuple(j * self.t_end / (nr - 1) for j in range(nr))

    def force_model(self):
        fam = FAMILIES[self.family]
        if fam["pressure"]:
            eos = EosPolytropic(gamma=self.gamma, k_eos=self.kappa)
            return ForceModel(theta=self.theta, eos=eos, eta=self.eta)
        morse = self.morse if self.morse is not None else MorseInteraction()
        return ForceModel(theta=self.theta, eos=None, eta=self.eta, interaction=morse)


@dataclass
class RunRecord:
    """One resolution of a study: its setup and snapshot trajectory."""

    k: int
    n: int
    h: float
    trajectory: object
    support_ok: list | None
    support_radii: list | None
    final_max_speed: float


@dataclass
class StudyResult:
    plan: ExperimentPlan
    runs: list
    snapshot_times: np.ndarray
    pair_distances: list
    sup_distances: np.ndarray
    argmax_times: np.ndarray
    rate_table: object


def _run_rungs(plan, ks):
    """The runs of the plan's rungs ks, integrated as one batch, or the
    :class:`StudyDivergedError` that ended it."""
    fam, fm = FAMILIES[plan.family], plan.force_model()
    specs = [preset(fam["preset"], plan.particles_at(k)) for k in ks]
    if plan.init_mode == "equipartition":
        states0 = [equipartition(spec) for spec in specs]
    else:
        states0 = [sample_iid(spec, seed=plan.seed + k) for spec, k in zip(specs, ks)]
    hs = [select_h(spec, plan.h_mode, plan.h_value) for spec in specs]
    kernels = [plan.kernel(h) for h in hs]
    cfg = IntegratorConfig(dt=plan.dt, t_end=plan.t_end, snapshot_times=plan.snapshot_times())
    try:
        trajs = run(states0, fm, kernels, cfg)
    except SimulationDivergedError as err:
        return StudyDivergedError(plan.family, ks[err.run_index], err.step_index)

    runs = []
    for k, state0, h, kernel, traj in zip(ks, states0, hs, kernels, trajs):
        radii = support_radii(state0, fm, kernel, traj.times)
        support_ok = None if radii is None else list(map(check_support, traj.states, radii))
        vmax = float(np.linalg.norm(traj.states[-1].velocities, axis=1).max())
        runs.append(RunRecord(k, state0.n, h, traj, support_ok, radii, vmax))
    return runs


def run_convergence_study(plan, workers=1, budget=None):
    """Run every resolution of the plan and assemble distances and rates.

    In two dimensions, a W1 cost matrix of the ladder's top pair beyond
    ``budget`` (None: the transport default) raises a
    :class:`~sphwass.transport.TransportBudgetError` before the first rung.
    Resolutions are independent.  With one worker, a ladder whose force model
    has an interaction integrates as one batch, whose rungs share the radial pass;
    a pressure study shares no more than its kicks, and runs rung by rung.
    ``workers > 1`` runs each rung in a process of its own, in a pool of at most
    one process per rung.  A diverging simulation aborts the study with a
    :class:`StudyDivergedError` naming the family and the resolution that
    diverged at the earliest step (on a tie, the lowest k).
    """
    ks = list(plan.resolutions)
    budget = DEFAULT_PAIR_BUDGET if budget is None else budget
    if plan.dim >= 2:  # the top pair is the largest; 1D distances take no cost matrix
        _check_budget(plan.particles_at(ks[-2]), plan.particles_at(ks[-1]), budget)
    shared = workers == 1 and plan.force_model().interaction is not None
    batches = [ks] if shared else [[k] for k in ks]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(ks))) as pool:
            outcomes = list(pool.map(_run_rungs, [plan] * len(batches), batches))
    else:
        outcomes = [_run_rungs(plan, batch) for batch in batches]
    diverged = [err for err in outcomes if isinstance(err, StudyDivergedError)]
    if diverged:
        raise min(diverged, key=lambda err: (err.step_index, err.k))
    runs = [rec for batch in outcomes for rec in batch]

    times = np.asarray(runs[0].trajectory.times)
    snaps = [
        list(zip(r.trajectory.times, map(DiscreteMeasure.from_state, r.trajectory.states)))
        for r in runs
    ]
    pair_distances, sups, argmaxes = [], [], []
    for snaps_lo, snaps_hi in zip(snaps, snaps[1:]):
        sup, argmax_t, dists = sup_wasserstein_over_time(snaps_lo, snaps_hi, budget)
        pair_distances.append(dists)
        sups.append(sup)
        argmaxes.append(argmax_t)

    table = convergence_rates(sups, plan.dim, resolutions=ks)
    return StudyResult(
        plan=plan,
        runs=runs,
        snapshot_times=times,
        pair_distances=pair_distances,
        sup_distances=np.asarray(sups),
        argmax_times=np.asarray(argmaxes),
        rate_table=table,
    )


def density_profile(state, kernel, grid):
    """Kernel-regularized density rho(xi) = sum_j m_j W_h(xi - x_j) at the
    (m,) or (m, d) grid points; returns an (m,) array."""
    grid = np.asarray(grid, dtype=float)
    pts = grid[:, None] if grid.ndim == 1 else grid
    if pts.shape[1] != state.dim:
        raise ValueError("grid dimension does not match the state")
    return _density_at(pts, state, kernel)


def emit_report(result, outdir, config=None):
    """Write rate tables, per-time distances, snapshots, and a manifest.

    Layout under ``outdir``:

    * ``rates.csv`` -- header ``family,k,n,W_k_kplus1,C_rate``; one row per
      consecutive resolution pair, the rate attached to the row of the
      pair whose ratio defines it (blank for the first pair).
    * ``distances.csv`` -- per-snapshot-time distances for every pair.
    * ``snapshots_k<k>.csv`` -- ``t,id,x0..,v0..,rho`` per run.
    * ``cloud_final_k<k>.csv`` -- ``id,x0..,mass`` point cloud at the
      final snapshot (the format read back by the distance command).
    * ``manifest.json`` -- the resolved configuration, re-runnable as is.

    rho is recomputed here rather than stored with the snapshot: the
    pressureless family never computes it while integrating.
    """
    os.makedirs(outdir, exist_ok=True)
    plan = result.plan
    table = result.rate_table
    k_lo, k_hi = table.resolutions[:-1], table.resolutions[1:]
    rates = [""] + [FLOAT_FMT % r if np.isfinite(r) else "" for r in table.rates]
    rows = [
        [plan.family, k, plan.particles_at(k), w, r]
        for k, w, r in zip(k_lo, result.sup_distances, rates)
    ]
    write_csv(
        os.path.join(outdir, "rates.csv"), "family,k,n,W_k_kplus1,C_rate",
        np.array(rows, dtype=object), fmt=["%s", "%d", "%d", FLOAT_FMT, "%s"],
    )
    nt = len(result.snapshot_times)
    write_csv(
        os.path.join(outdir, "distances.csv"), "family,k,k_next,t,W",
        np.column_stack([
            np.repeat(k_lo, nt), np.repeat(k_hi, nt),
            np.tile(result.snapshot_times, len(k_lo)), np.concatenate(result.pair_distances),
        ]),
        fmt=plan.family + ",%d,%d," + ",".join([FLOAT_FMT] * 2),
    )

    xcols = ",".join(f"x{i}" for i in range(plan.dim))
    vcols = xcols.replace("x", "v")
    for rec in result.runs:
        kernel = plan.kernel(rec.h)
        states = rec.trajectory.states
        write_csv(
            os.path.join(outdir, f"snapshots_k{rec.k}.csv"), f"t,id,{xcols},{vcols},rho",
            np.column_stack([
                np.repeat(rec.trajectory.times, rec.n), np.tile(np.arange(rec.n), len(states)),
                np.concatenate([s.positions for s in states]),
                np.concatenate([s.velocities for s in states]),
                np.concatenate([compute_density(s, kernel) for s in states]),
            ]),
        )
        write_csv(
            os.path.join(outdir, f"cloud_final_k{rec.k}.csv"), f"id,{xcols},mass",
            np.column_stack([np.arange(rec.n), states[-1].positions, states[-1].masses]),
        )

    if config is not None:
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")
