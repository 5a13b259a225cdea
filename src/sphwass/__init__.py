"""sphwass: SPH particle schemes with a Wasserstein convergence harness.

The package simulates a compressible medium (or an interacting swarm)
with two closely related smoothed-particle schemes, selected by a switch
``theta``: the symmetrized pairwise pressure form that conserves linear
and angular momentum exactly (``theta = 1``), and the direct
discretization of the continuum pressure gradient (``theta = 0``).
Particle solutions at increasing resolution are compared in the
Wasserstein-1 distance to estimate convergence rates.
"""

__version__ = "0.1.0"

from .forces import (
    EosPolytropic,
    ForceModel,
    MorseInteraction,
    QuadraticPotential,
    SingularDensityError,
    f_theta,
)
from .initial import (
    InitialSpec,
    equipartition,
    preset,
    rotation_velocity,
    sample_iid,
    select_h,
)
from .integrator import (
    IntegratorConfig,
    SimulationDivergedError,
    Trajectory,
    run,
)
from .kernels import Gaussian1D, WendlandCubic2D
from .sph import (
    ParticleState,
    angular_momentum,
    check_support,
    compute_accelerations,
    compute_density,
    momentum,
    support_radii,
)
from .transport import (
    DiscreteMeasure,
    RateTable,
    TransportBudgetError,
    TransportPlan,
    convergence_rates,
    dual_certificate,
    sup_wasserstein_over_time,
    w1_1d_discrete,
    w1_1d_vs_uniform,
    w1_lp,
    w1_solver,
    wasserstein1,
)
from .experiments import (
    ExperimentPlan,
    StudyDivergedError,
    StudyResult,
    density_profile,
    emit_report,
    run_convergence_study,
)
