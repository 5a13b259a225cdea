"""Output checks run on every timed study.

Each check returns a list of problems; an empty list means the study's
outputs are correct.  No check raises on a wrong result, so a failure is
counted and the run goes on.
"""

import csv
from pathlib import Path

import numpy as np

from sphwass import dual_certificate, momentum

# Relative tolerance against the stored reference: the LP/CDF tolerance of
# acceptance criterion 6.
REFERENCE_RTOL = 1e-9
CERT_GAP_MAX = 1e-9
MOMENTUM_DRIFT_MAX = 1e-12


def _close(values, expected, rtol=REFERENCE_RTOL):
    values, expected = np.asarray(values, float), np.asarray(expected, float)
    return values.shape == expected.shape and bool(
        np.all(np.abs(values - expected) <= rtol * np.abs(expected))
    )


def check_study(workload, result, outdir, reference):
    """Acceptance checks on one study, its report files and the reference.

    ``reference`` holds the ``sup_distances`` and ``rates`` the reference commit
    produced for this workload.
    """
    problems = []
    sups, rates = result.sup_distances, result.rate_table.rates
    if reference is None:
        problems.append("no stored reference for this workload")
    else:
        if not _close(sups, reference["sup_distances"]):
            problems.append(f"sup distances {list(sups)} != reference {reference['sup_distances']}")
        if not _close(rates, reference["rates"]):
            problems.append(f"rates {list(rates)} != reference {reference['rates']}")
    if workload.rate_band is not None:
        off = np.abs(rates + 0.5)
        if not np.all(off <= workload.rate_band):
            problems.append(f"rates {list(rates)} leave -0.5 +/- {workload.rate_band}")
    if workload.max_final_speed is not None:
        vmax = max(rec.final_max_speed for rec in result.runs)
        if not vmax < workload.max_final_speed:
            problems.append(f"terminal speed {vmax:.3e} >= {workload.max_final_speed}")
    if result.plan.theta == 1:
        for rec in result.runs:
            if rec.support_ok is None or not all(rec.support_ok):
                problems.append(f"support bound not confirmed at k={rec.k}: {rec.support_ok}")
    problems += _check_report(result, Path(outdir))
    return problems


def _check_report(result, outdir):
    """rates.csv and distances.csv must carry the study's numbers exactly."""
    try:
        with open(outdir / "rates.csv") as fh:
            rates_rows = list(csv.DictReader(fh))
        with open(outdir / "distances.csv") as fh:
            dist_rows = list(csv.DictReader(fh))
        written_sups = [float(r["W_k_kplus1"]) for r in rates_rows]
        written_w = [float(r["W"]) for r in dist_rows]
    except (OSError, KeyError, ValueError) as err:
        return [f"report unreadable: {err!r}"]
    problems = []
    if written_sups != list(result.sup_distances):
        problems.append("rates.csv does not match the study's sup distances")
    if written_w != [float(w) for d in result.pair_distances for w in d]:
        problems.append("distances.csv does not match the study's distances")
    return problems


def certificate_gap(lp_solves):
    """Largest duality gap over the LP plans; every plan must be certified."""
    gaps = [dual_certificate(mu, nu, plan)[0] for mu, nu, plan in lp_solves]
    return max(gaps, default=0.0)


def momentum_drift(result):
    """Largest |P(t) - P(0)| over every run's snapshots."""
    drift = 0.0
    for rec in result.runs:
        p0 = momentum(rec.trajectory.states[0])
        for state in rec.trajectory.states[1:]:
            drift = max(drift, float(np.abs(momentum(state) - p0).max()))
    return drift


def check_invariants(result, gap, drift):
    """Trace-run checks: LP optimality and theta=1 momentum conservation."""
    problems = []
    if not gap <= CERT_GAP_MAX:
        problems.append(f"LP certificate gap {gap:.3e} > {CERT_GAP_MAX}")
    if result.plan.theta == 1 and not drift <= MOMENTUM_DRIFT_MAX:
        problems.append(f"theta=1 momentum drift {drift:.3e} > {MOMENTUM_DRIFT_MAX}")
    return problems
