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
symplectic leapfrog.
"""

import math
from dataclasses import dataclass

import numpy as np

from .params import ParameterError, positive
# compute_density is not called here: perfbench/tracing.py wraps it under this module
from .sph import ParticleState, _Engine, compute_accelerations, compute_density

__all__ = ["IntegratorConfig", "Trajectory", "SimulationDivergedError", "run"]


class SimulationDivergedError(RuntimeError):
    """Raised when positions or velocities become non-finite mid-run."""

    def __init__(self, step_index, message=None):
        self.step_index = step_index
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

    The run builds one force engine for its evaluations, and advances its own
    copies of x and v in place; each snapshot copies them.  Raises
    :class:`SimulationDivergedError` (naming the step) if the state leaves the
    realm of finite floats.
    """
    snap_steps, n_steps = cfg.snapshot_steps()
    want = set(snap_steps)
    times, states = [], []

    probe = state0.copy()
    x, v, dx = probe.positions, probe.velocities, np.empty_like(probe.positions)
    engine = _Engine(probe, fm, kernel)
    dt, t0 = cfg.dt, state0.time
    half = 0.5 * dt  # carried in the acceleration: a holds dt/2 a(x)
    explicit, implicit = 1.0 - 0.5 * dt * fm.eta, 1.0 + 0.5 * dt * fm.eta

    a = compute_accelerations(probe, None, fm, kernel, include_drag=False, engine=engine)
    a *= half
    for k in range(n_steps + 1):
        if k > 0:  # kick, drift, kick
            v *= explicit
            v += a
            x += np.multiply(v, dt, out=dx)  # finite x, 0 < dt < inf: finite exactly when v is
            if not np.isfinite(x).all():
                raise SimulationDivergedError(k)
            a = compute_accelerations(probe, None, fm, kernel, include_drag=False, engine=engine)
            a *= half
            v += a
            v /= implicit
            if not np.isfinite(v).all():
                raise SimulationDivergedError(k)
        if k in want:
            t = t0 + k * dt
            times.append(t)
            states.append(ParticleState(probe.masses, x.copy(), v.copy(), t))
    return Trajectory(times=times, states=states)
