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

from dataclasses import dataclass

import numpy as np

# compute_density is not called here: perfbench/tracing.py wraps it under this module
from .sph import ParticleState, compute_accelerations, compute_density

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
        if not 0 < self.dt < np.inf:  # also false for NaN
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_end < np.inf:
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
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


def _kick_drift_kick(probe, a, fm, kernel, dt, k):
    """Step ``k`` from the probe's (x, v), given the drag-free acceleration
    ``a`` at x.

    Rebinds the probe's positions and velocities to the new arrays instead
    of building a validated state per step; the arrays it held before are
    left untouched.  Returns the acceleration at the new positions, which
    the next step starts from.
    """
    x, v = probe.positions, probe.velocities
    v = v * (1.0 - 0.5 * dt * fm.eta) + 0.5 * dt * a
    x = x + dt * v
    if not (np.isfinite(x).all() and np.isfinite(v).all()):
        raise SimulationDivergedError(k)
    probe.positions, probe.velocities = x, v
    a = compute_accelerations(probe, None, fm, kernel, include_drag=False)
    v = (v + 0.5 * dt * a) / (1.0 + 0.5 * dt * fm.eta)
    if not np.isfinite(v).all():
        raise SimulationDivergedError(k)
    probe.velocities = v
    return a


def run(state0, fm, kernel, cfg):
    """Integrate from ``state0`` and collect snapshots at the configured times.

    Raises :class:`SimulationDivergedError` (naming the step) if the state
    leaves the realm of finite floats.
    """
    snap_steps, n_steps = cfg.snapshot_steps()
    want = set(snap_steps)
    times, states = [], []

    probe = state0.copy()
    t0 = state0.time

    a = compute_accelerations(probe, None, fm, kernel, include_drag=False)
    for k in range(n_steps + 1):
        if k > 0:
            a = _kick_drift_kick(probe, a, fm, kernel, cfg.dt, k)
        if k in want:
            t = t0 + k * cfg.dt
            times.append(t)
            states.append(ParticleState(probe.masses, probe.positions, probe.velocities, t))
    return Trajectory(times=times, states=states)
