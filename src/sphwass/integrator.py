"""Fixed-step leapfrog (kick-drift-kick) time integration.

Linear drag receives special treatment so that the pure-drag subproblem
is integrated by the trapezoidal closed form: the first half-kick applies
drag explicitly,

    v <- v (1 - dt/2 eta) + dt/2 a(x),

and the second half-kick implicitly,

    v <- (v + dt/2 a(x')) / (1 + dt/2 eta),

where a(x) collects pressure, external-potential, and interaction terms
(everything except drag).  With all non-drag forces zero the velocity is
multiplied per step by (1 - dt eta/2)/(1 + dt eta/2), the exact
trapezoidal factor: second-order accurate against exp(-eta t) and
contractive for every dt * eta.  With eta = 0 the scheme is the plain
symplectic leapfrog.  :func:`run` also advances a batch of states (a study's
rungs) in lockstep, each with the bits it gets alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterError, positive
# compute_density is not called here: perfbench/tracing.py wraps it under this module
from .sph import ParticleState, _Engine, compute_accelerations, compute_density

__all__ = ["IntegratorConfig", "Trajectory", "SimulationDivergedError", "run"]


class SimulationDivergedError(RuntimeError):
    """Raised when positions or velocities become non-finite mid-run; ``run_index``
    is the state of a batch that diverged."""

    def __init__(self, step_index, message=None, run_index=0):
        self.step_index, self.run_index = step_index, run_index
        super().__init__(message or f"simulation diverged at step {step_index}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Time step, final time, and requested output times.

    Snapshot times are realized at the nearest step multiple of ``dt``
    (requested grids need not divide ``dt`` exactly).
    """

    dt: float
    t_end: float
    snapshot_times: tuple = ()

    def __post_init__(self):
        positive("dt", self.dt)
        positive("t_end", self.t_end, zero_ok=True)
        if not self.t_end / self.dt < math.inf:  # the step count must be a number
            raise ParameterError("dt", f"dt = {self.dt} is too small for t_end = {self.t_end}")
        snaps = tuple(float(t) for t in self.snapshot_times)
        if any(t < 0 or t > self.t_end + 0.5 * self.dt for t in snaps):
            raise ValueError("snapshot times must lie within [0, t_end]")
        object.__setattr__(self, "snapshot_times", snaps)

    def snapshot_steps(self):
        """Snapshot step indices, deduplicated and sorted.

        An empty request means a single snapshot of the final state.
        """
        n_steps = int(round(self.t_end / self.dt))
        if not self.snapshot_times:
            return [n_steps], n_steps
        idx = {min(int(round(t / self.dt)), n_steps) for t in self.snapshot_times}
        return sorted(idx), n_steps


@dataclass
class Trajectory:
    """Snapshots of a single run: realized times and matching states."""

    times: list
    states: list

    def __len__(self):
        return len(self.times)


def run(state0, fm, kernel, cfg):
    """Integrate from ``state0`` and collect snapshots at the configured times.

    ``state0`` and ``kernel`` may also be lists, one kernel per state, sharing the
    dimension and start time: a batch, run in lockstep on one x and one v whose
    rows hold each state in turn, with one force engine, so each kick, drift and
    finiteness check is one call per step.  It returns a :class:`Trajectory` per
    state, with the bits of the state's own run; snapshots copy x and v.  Raises
    :class:`SimulationDivergedError` (naming the step, and the first state that
    diverged in it) if a state leaves the realm of finite floats."""
    single = isinstance(state0, ParticleState)
    states0, kernels = ([state0], [kernel]) if single else (list(state0), list(kernel))
    if len(kernels) != len(states0) or len({(s.dim, s.time) for s in states0}) != 1:
        raise ValueError("a batch needs one kernel per state, and one dimension and start time")
    snap_steps, n_steps = cfg.snapshot_steps()
    want = set(snap_steps)
    times, snapshots = [], [[] for _ in states0]

    probe = ParticleState(*(np.concatenate([getattr(s, name) for s in states0])
                            for name in ("masses", "positions", "velocities")))
    x, v, dx = probe.positions, probe.velocities, np.empty_like(probe.positions)
    engine = _Engine(states0, fm, kernels)
    dt, t0 = cfg.dt, states0[0].time
    half = 0.5 * dt  # carried in the acceleration: a holds dt/2 a(x)
    explicit, implicit = 1.0 - 0.5 * dt * fm.eta, 1.0 + 0.5 * dt * fm.eta

    def accelerate():
        a = compute_accelerations(probe, None, fm, kernels, include_drag=False, engine=engine)
        a *= half
        return a

    a = accelerate()
    for k in range(n_steps + 1):
        if k > 0:  # kick, drift, kick
            v *= explicit
            v += a
            x += np.multiply(v, dt, out=dx)  # finite x, 0 < dt < inf: finite exactly when v is
            if not np.isfinite(x).all():
                with np.errstate(all="ignore"):  # an earlier state may diverge in this step too
                    v += accelerate()
                raise _diverged(k, engine.rows, x, v)
            a = accelerate()
            v += a
            v /= implicit
            if not np.isfinite(v).all():
                raise _diverged(k, engine.rows, x, v)
        if k in want:
            t = t0 + k * dt
            times.append(t)
            for snaps, rows in zip(snapshots, engine.rows):
                snaps.append(ParticleState(probe.masses[rows], x[rows].copy(), v[rows].copy(), t))
    trajectories = [Trajectory(times=list(times), states=snaps) for snaps in snapshots]
    return trajectories[0] if single else trajectories


def _diverged(step, rows, x, v):
    """The error naming the first state of the batch whose x or v is not finite."""
    bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(v).all(axis=1))
    return SimulationDivergedError(step, run_index=[bad[r].any() for r in rows].index(True))
