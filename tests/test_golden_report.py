"""Frozen ``emit_report`` output of two tiny studies, compared byte for byte.

Every CSV the report writes (``rates.csv``, ``distances.csv``,
``snapshots_k*.csv``, ``cloud_final_k*.csv``) is stored under
``tests/data/golden_reports/<study>/``.  A change to the row writer, the
density recomputed for the snapshots or the study itself shows up as a
differing file.  Regenerate (only on a commit whose output is known to be
right) with

    PYTHONPATH=src python tests/test_golden_report.py
"""

import shutil
from pathlib import Path

import pytest

from sphwass import ExperimentPlan, emit_report, run_convergence_study

from test_golden_studies import PLANS as STUDY_PLANS

GOLDEN = Path(__file__).with_name("data") / "golden_reports"

PLANS = {
    # Gaussian kernel, pressure, support diagnostic on
    "expansion_1d": dict(
        family="expansion_1d", resolutions=(1, 2, 3), gamma=2.0, theta=1,
        h_mode="fixed", h_value=1.0, dt=1e-3, t_end=0.1, n_snapshots=3,
    ),
    # no pressure law: rho in the snapshots comes from the report alone
    "morse_drag": STUDY_PLANS["morse_drag"],
}


def write_report(name, outdir):
    emit_report(run_convergence_study(ExperimentPlan(**PLANS[name])), outdir)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_report_matches_frozen_bytes(name, tmp_path):
    write_report(name, tmp_path)
    want = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for fname in want:
        got = (tmp_path / fname).read_bytes()
        assert got == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} differs"


if __name__ == "__main__":
    for name in PLANS:
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        write_report(name, GOLDEN / name)
        print(f"wrote {GOLDEN / name}")
