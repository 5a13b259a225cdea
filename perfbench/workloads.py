"""Benchmark workloads and the in-process ``sphwass run`` pipeline they time.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
refuses any other copy of sphwass, so the benchmark always measures the
sources next to it.  It also asks for one BLAS thread unless the caller set
a count (see ``THREAD_VARS``).
"""

import copy
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

# A study is single-worker.  On a 2-vCPU host a second OpenBLAS thread
# spin-waits: a dense n=1024 force evaluation took 164-259 ms of CPU with two
# threads against 83-96 ms with one.  Must be set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import sphwass  # noqa: E402
from sphwass import config, experiments  # noqa: E402

if Path(sphwass.__file__).resolve().parent != SRC / "sphwass":
    raise ImportError(f"sphwass imported from {sphwass.__file__}, not from {SRC}")

# The Morse constants of demos/configs/morse_2d.json and the acceptance study.
_MORSE = {"c_a": 2.0, "c_r": 1.5, "l_a": 1.0, "l_r": 2.0, "r_cut": 0.1}


@dataclass(frozen=True)
class Workload:
    """One study config plus the acceptance checks its outputs must pass.

    ``rate_band`` is the largest allowed |rate + 0.5| (None: no band applies);
    ``max_final_speed`` bounds the terminal particle speed (None: unchecked).
    """

    name: str
    study: dict
    rate_band: float | None = None
    max_final_speed: float | None = None

    def config(self, seed, output_dir):
        """The full run config for ``seed``: single worker, silent.

        ``seed`` fills the config's ``seed`` field; none of the four
        workloads draws from it (see README.md, "Seeds").
        """
        cfg = copy.deepcopy(self.study)
        cfg.update(seed=seed, workers=1, verbosity=0, output_dir=str(output_dir))
        return cfg


def _square(gamma, theta, h_mode, init, t_end):
    # Rungs k=2,3,4 (n=16/64/256) keep one study under 1.5 s, so a timed run
    # holds many studies and reports their mean (see README.md, "Noise").
    return {
        "family": "rotating_square_2d",
        "gamma": gamma,
        "kappa": 1.0,
        "theta": theta,
        "h_mode": h_mode,
        "resolutions": [2, 3, 4],
        "dt": 1e-3,
        "t_end": t_end,
        "n_snapshots": 2,
        "init": init,
    }


_FIXED_H = {"mode": "fixed", "value": 1.0}
_EQUI = {"mode": "equipartition"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "square-dense",
            _square(7.0, 0, _FIXED_H, _EQUI, 0.15),
            rate_band=0.07,
        ),
        Workload(
            "square-w1",
            # A fixed iid seed: LP time depends on the cloud (about 2x between
            # clouds on rungs 3,4,5), and the stored reference covers this one.
            _square(2.0, 1, _FIXED_H, {"mode": "iid", "seed": 0}, 0.02),
        ),
        Workload(
            "square-cells",
            # With scaled h on these rungs, C_3 drifts from -0.5 as t_end grows;
            # 0.06 is the longest t_end inside the band (README.md, "Workloads").
            _square(2.0, 1, {"mode": "scaled", "epsilon": 1.5}, _EQUI, 0.06),
            rate_band=0.05,
        ),
        Workload(
            "morse-swarm",
            {
                "family": "morse_2d",
                "theta": 1,
                "h_mode": _FIXED_H,
                "resolutions": [1, 2, 3],
                "dt": 1e-2,
                "t_end": 20.0,  # terminal speed 2.5e-4; 6.8e-3 at t_end=10
                "n_snapshots": 10,
                "eta": 10.0,
                "morse": _MORSE,
                "init": _EQUI,
            },
            rate_band=0.1,
            max_final_speed=1e-3,
        ),
    )
}


def write_config(cfg, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def run_study(config_path):
    """``sphwass run`` in process: load, plan, study, report.

    Each stage is looked up on its module at call time, so a tracer that
    wraps those module attributes sees every call.
    """
    cfg = config.load_config(config_path)
    plan = config.plan_from_config(cfg)
    result = experiments.run_convergence_study(
        plan, workers=cfg["workers"], budget=cfg["lp_budget"]
    )
    experiments.emit_report(result, cfg["output_dir"], config=cfg)
    return result
