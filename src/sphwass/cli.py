"""Command-line entry point.

Subcommands::

    sphwass run CONFIG.json        # execute a convergence study
    sphwass distance A.csv B.csv   # Wasserstein-1 between two point clouds
    sphwass verify                 # fast self-checks, pass/fail table
    sphwass profile CLOUD.csv ...  # kernel density on a grid, as CSV

Point-cloud CSVs carry a header ``id,x0[,x1,...],mass``; the study runner
writes them as ``cloud_final_k<k>.csv``.  ``distance`` has no solver
option: it prints the solver that :func:`sphwass.transport.w1_solver`
picks from the two clouds.  Exit codes: 0 success, 1 runtime or
verification failure, 2 usage/configuration error.  Numeric output is
printed with 17 significant digits so downstream rate computations are
reproducible from files alone.
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, load_config, plan_from_config
from .experiments import (
    density_profile,
    emit_report,
    run_convergence_study,
)
from .forces import EosPolytropic, ForceModel
from .initial import InitialSpec, equipartition
from .integrator import IntegratorConfig, run
from .kernels import KERNEL_FOR_DIM
from .sph import ParticleState, compute_accelerations, compute_density, momentum
from .transport import (
    FLOAT_FMT,
    DiscreteMeasure,
    w1_1d_discrete,
    w1_1d_vs_uniform,
    w1_lp,
    w1_solver,
    wasserstein1,
    write_csv,
)

__all__ = ["main", "run_verification_checks"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad command-line input (arguments or files read); exit code 2."""


# ---------------------------------------------------------------------------
# run


def cmd_run(args):
    cfg = load_config(args.config)
    if args.output_dir is not None:
        cfg["output_dir"] = args.output_dir
    _check_output_dir(cfg["output_dir"])
    plan = plan_from_config(cfg)
    if cfg["verbosity"] >= 1:
        ns = ", ".join(str(plan.particles_at(k)) for k in plan.resolutions)
        print(f"{plan.family}: resolutions k={list(plan.resolutions)} (n={ns})")
    result = run_convergence_study(plan, workers=cfg["workers"], budget=cfg["lp_budget"])
    emit_report(result, cfg["output_dir"], config=cfg)
    if cfg["verbosity"] >= 1:
        table = result.rate_table
        for p in range(len(result.sup_distances)):
            k_lo, k_hi = table.resolutions[p], table.resolutions[p + 1]
            line = f"W_{k_lo},{k_hi} = {FLOAT_FMT % result.sup_distances[p]}"
            if p >= 1 and np.isfinite(table.rates[p - 1]):
                line += f"   C_{k_lo} = {FLOAT_FMT % table.rates[p - 1]}"
            print(line)
        # every rung shares the force model: all runs have radii or none has
        if result.runs[0].support_radii is None:
            print(
                "note: no a-priori support bound for these runs; it needs theta = 1, "
                "gamma >= 2 with pressure, and no external potential "
                "(rates are still reported)"
            )
        print(f"report written to {cfg['output_dir']}")
    return EXIT_OK


def _check_output_dir(path):
    """A ConfigError unless ``path`` is nonempty and its nearest existing ancestor is a
    writable directory, so the report can be written once the study is done; writes
    nothing.  ``--output-dir`` comes after the config's own check."""
    if not path:
        raise ConfigError("output_dir", "must be a nonempty string")
    ancestor = os.path.abspath(path)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ConfigError("output_dir", f"cannot create {path}: {ancestor} is not a writable "
                          "directory")


# ---------------------------------------------------------------------------
# distance


def _read_cloud(path):
    """The point cloud of a CSV file as a probability measure (masses
    normalized); a file that cannot be read as one raises UsageError."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            if not header:
                raise ValueError(f"{path}: empty file")
            if "mass" not in header:
                raise ValueError(f"{path}: missing 'mass' column")
            mcol = header.index("mass")
            xcols = [i for i, name in enumerate(header) if name.startswith("x")]
            if not xcols:
                raise ValueError(f"{path}: no coordinate columns (x0, x1, ...)")
            pts, wts = [], []
            for row in filter(None, reader):
                try:
                    if len(row) != len(header):
                        raise ValueError
                    pts.append([float(row[i]) for i in xcols])
                    wts.append(float(row[mcol]))
                except ValueError:
                    raise ValueError(
                        f"{path}, line {reader.line_num}: expected one number in each "
                        f"column of {','.join(header)}, got {','.join(row)!r}"
                    ) from None
        weights = np.asarray(wts)
        total = weights.sum()
        if not 0 < total < np.inf:  # also false for NaN
            raise ValueError(f"{path}: masses must have a finite positive total")
        return DiscreteMeasure(points=np.asarray(pts), weights=weights / total)
    except (OSError, ValueError) as err:
        raise UsageError(err) from None


def cmd_distance(args):
    mu, nu = _read_cloud(args.file_a), _read_cloud(args.file_b)
    if mu.dim != nu.dim:
        raise UsageError(
            f"dimension mismatch: {args.file_a} is {mu.dim}-d, {args.file_b} is {nu.dim}-d"
        )
    dist = wasserstein1(mu, nu)
    print(f"W1 = {FLOAT_FMT % dist}   (solver: {w1_solver(mu, nu)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# profile


def cmd_profile(args):
    mu = _read_cloud(args.cloud)
    try:
        lo, hi, count = args.grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if count < 2 or not -np.inf < lo < hi < np.inf:
            raise ValueError
    except ValueError:
        raise UsageError("--grid must be LO:HI:COUNT with finite HI > LO, COUNT >= 2") from None
    if mu.dim not in KERNEL_FOR_DIM:
        raise UsageError(f"{args.cloud}: no smoothing kernel for {mu.dim}-d points")
    try:
        kernel = KERNEL_FOR_DIM[mu.dim](args.h)
    except ValueError as err:
        raise UsageError(f"--h: smoothing length {err}") from None

    axes = np.meshgrid(*[np.linspace(lo, hi, count)] * mu.dim, indexing="ij")
    grid = np.stack([a.ravel() for a in axes], axis=1)
    state = ParticleState(mu.weights, mu.points, np.zeros_like(mu.points))
    rho = density_profile(state, kernel, grid)
    cols = ",".join(f"x{i}" for i in range(mu.dim))
    out = sys.stdout if args.out is None else args.out
    write_csv(out, f"{cols},rho", np.column_stack([grid, rho]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def run_verification_checks(rng_seed=2024):
    """Fast end-to-end self-checks; returns a list of (name, ok, detail)."""
    rng = np.random.default_rng(rng_seed)
    checks = []

    # scheme coincidence at gamma = 2: theta plays no role
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(4, 65))
        masses = rng.random(n) + 0.1
        masses /= masses.sum()
        state = ParticleState(masses, rng.random((n, dim)), rng.standard_normal((n, dim)))
        kernel = KERNEL_FOR_DIM[dim](1.0)
        rho = compute_density(state, kernel)
        accs = {}
        for theta in (0, 1):
            fm = ForceModel(theta=theta, eos=EosPolytropic(gamma=2.0))
            accs[theta] = compute_accelerations(state, rho, fm, kernel)
        scale = np.abs(accs[1]).max()
        if scale > 0:
            worst = max(worst, np.abs(accs[0] - accs[1]).max() / scale)
    checks.append(("scheme coincidence (gamma=2)", worst <= 1e-10, f"max rel dev {worst:.3e}"))

    # cross-solver agreement on random 1D instances
    worst = 0.0
    for _ in range(25):
        nm, nn = rng.integers(2, 33, 2)
        mu = DiscreteMeasure(rng.random(int(nm)), _norm(rng.random(int(nm))))
        nu = DiscreteMeasure(rng.random(int(nn)), _norm(rng.random(int(nn))))
        lp, _ = w1_lp(mu, nu)
        worst = max(worst, abs(lp - w1_1d_discrete(mu, nu)))
    checks.append(("OT cross-solver agreement (1D)", worst <= 1e-9, f"max |lp-cdf| {worst:.3e}"))

    # deterministic construction hits the exact 1/(4n) distance to uniform
    worst = 0.0
    for n in (2, 8, 32, 128, 512):
        state = equipartition(InitialSpec(n=n))
        mu = DiscreteMeasure.from_state(state)
        d = w1_1d_vs_uniform(mu)
        worst = max(worst, abs(d - 1.0 / (4 * n)))
    checks.append(("equipartition 1/(4n) identity", worst <= 1e-12, f"max dev {worst:.3e}"))

    # momentum conservation over a short symmetrized run
    n = 16
    masses = _norm(rng.random(n) + 0.5)
    state = ParticleState(masses, rng.random((n, 2)), 0.2 * rng.standard_normal((n, 2)) + 0.3)
    fm = ForceModel(theta=1, eos=EosPolytropic(gamma=7.0))
    kernel = KERNEL_FOR_DIM[2](1.0)
    p0 = momentum(state)
    traj = run(state, fm, kernel, IntegratorConfig(dt=1e-3, t_end=0.2))
    p1 = momentum(traj.states[-1])
    drift = np.abs(p1 - p0).max() / max(np.abs(p0).max(), 1e-30)
    checks.append(("momentum conservation (theta=1)", drift <= 1e-12, f"rel drift {drift:.3e}"))
    return checks


def _norm(w):
    return w / w.sum()


def cmd_verify(args):
    t0 = time.time()
    checks = run_verification_checks()
    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{name:<{width}}  {status}  {detail}")
    print(f"{len(checks)} checks in {time.time() - t0:.1f}s")
    return EXIT_OK if all_ok else EXIT_RUNTIME


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphwass",
        description="Dual-scheme SPH simulations with Wasserstein convergence measurement",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a convergence study from a JSON config")
    p_run.add_argument("config", help="path to the configuration file")
    p_run.add_argument("--output-dir", help="override the configured output directory")
    p_run.set_defaults(func=cmd_run)

    p_dist = sub.add_parser("distance", help="Wasserstein-1 distance between two clouds")
    p_dist.add_argument("file_a")
    p_dist.add_argument("file_b")
    p_dist.set_defaults(func=cmd_distance)

    p_ver = sub.add_parser("verify", help="run the fast self-check suite")
    p_ver.set_defaults(func=cmd_verify)

    p_prof = sub.add_parser("profile", help="export the kernel density on a grid")
    p_prof.add_argument("cloud", help="id,x0[,x1],mass CSV; its dimension picks the kernel")
    p_prof.add_argument("--h", type=float, required=True, help="smoothing length")
    p_prof.add_argument("--grid", required=True, help="LO:HI:COUNT per axis")
    p_prof.add_argument("--out", help="output CSV path (default: stdout)")
    p_prof.set_defaults(func=cmd_profile)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # runtime failures map to exit 1
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
