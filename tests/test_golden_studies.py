"""Frozen outputs of three tiny convergence studies.

The stored values are the sup-over-time distances and the final snapshot
of every rung.  They pin the whole pipeline -- density and acceleration
sums on both sides of the dense/cell-list choice, the leapfrog with and
without drag, and the W1 sweep -- so a refactor that claims to keep the
arithmetic has to reproduce them.  Regenerate (only on a commit whose
output is known to be right) with

    PYTHONPATH=src python tests/test_golden_studies.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sphwass import ExperimentPlan, MorseInteraction, emit_report, run_convergence_study

GOLDEN = Path(__file__).with_name("data") / "golden_studies.json"

PLANS = {
    # dense pairs, every particle its own F_0
    "square_theta0_gamma7": dict(
        family="rotating_square_2d", resolutions=(1, 2, 3), gamma=7.0, theta=0,
        h_mode="fixed", h_value=1.0, dt=1e-3, t_end=0.05, n_snapshots=2,
    ),
    # scaled h: the n=256 rung runs on cell lists, the lower rungs dense
    "square_cells": dict(
        family="rotating_square_2d", resolutions=(2, 3, 4), gamma=7.0, theta=1,
        h_mode="scaled", h_value=1.5, dt=1e-3, t_end=0.01, n_snapshots=2,
    ),
    # no pressure law: Morse interaction plus drag
    "morse_drag": dict(
        family="morse_2d", resolutions=(1, 2, 3), theta=1, eta=10.0,
        morse=MorseInteraction(c_a=2.0, c_r=1.5, l_a=1.0, l_r=2.0, r_cut=0.1),
        dt=1e-2, t_end=0.5, n_snapshots=2,
    ),
}


def study_outputs(name):
    return outputs_of(run_convergence_study(ExperimentPlan(**PLANS[name])))


def outputs_of(result):
    final = {
        str(rec.k): {
            "positions": rec.trajectory.states[-1].positions.tolist(),
            "velocities": rec.trajectory.states[-1].velocities.tolist(),
        }
        for rec in result.runs
    }
    return {"sup_distances": result.sup_distances.tolist(), "final": final}


def assert_matches_golden(name, got):
    want = json.loads(GOLDEN.read_text())[name]
    np.testing.assert_allclose(got["sup_distances"], want["sup_distances"], rtol=1e-12)
    assert got["final"].keys() == want["final"].keys()
    for k, snap in want["final"].items():
        for field in ("positions", "velocities"):
            expected = np.asarray(snap[field])
            # entries that vanish by symmetry are defined only to rounding
            atol = 1e-12 * np.abs(expected).max()
            np.testing.assert_allclose(
                got["final"][k][field], expected, rtol=1e-12, atol=atol,
                err_msg=f"{name} k={k} {field}",
            )


@pytest.mark.parametrize("name", sorted(PLANS))
def test_study_matches_frozen_outputs(name):
    assert_matches_golden(name, study_outputs(name))


def test_morse_family_never_computes_density(monkeypatch, tmp_path):
    # no pressure law reads rho, so integrating must not compute it; the
    # report still writes its rho column
    import sphwass.experiments
    import sphwass.sph

    integrate = sphwass.experiments.run

    def refuse(*args):
        raise AssertionError("density computed for a pressureless model")

    def run_refusing_density(*args):
        with monkeypatch.context() as patch:
            patch.setattr(sphwass.sph, "_density_and_blocks", refuse)
            patch.setattr(sphwass.sph, "_density_at", refuse)
            return integrate(*args)

    monkeypatch.setattr(sphwass.experiments, "run", run_refusing_density)
    result = run_convergence_study(ExperimentPlan(**PLANS["morse_drag"]))
    assert_matches_golden("morse_drag", outputs_of(result))
    emit_report(result, tmp_path)
    rho = np.loadtxt(tmp_path / "snapshots_k3.csv", delimiter=",", skiprows=1)[:, -1]
    assert rho.shape == (2 * 64,) and (rho > 0).all()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: study_outputs(name) for name in PLANS}
    GOLDEN.write_text(json.dumps(data, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
