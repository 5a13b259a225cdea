"""What a fresh interpreter imports: numpy and the standard library, until
a 2D distance needs scipy; ``scipy.optimize`` only for the LP.

Each probe runs in its own interpreter, because the test process itself
has scipy loaded long before these tests run.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphwass
from sphwass import DiscreteMeasure, wasserstein1
from sphwass.transport import FLOAT_FMT

SRC = Path(sphwass.__file__).resolve().parents[1]
CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
LAZY = ("scipy", "scipy.optimize", "scipy.linalg", "scipy.sparse", "concurrent.futures")

_PROBE = """\
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
out = io.StringIO()
with contextlib.redirect_stdout(out):
{body}
print(json.dumps({{"loaded": [m for m in {lazy!r} if m in sys.modules],
                  "out": out.getvalue()}}))
"""


def fresh_interpreter(body):
    """Run ``body`` in a new interpreter; returns (lazily imported modules
    it loaded, what it printed)."""
    code = _PROBE.format(
        src=str(SRC), lazy=LAZY, body="\n".join("    " + line for line in body.splitlines())
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["loaded"], result["out"]


def cli(*argv):
    return (
        "from sphwass.cli import main\n"
        "try:\n"
        f"    main({list(argv)!r})\n"
        "except SystemExit:\n"
        "    pass"
    )


def write_cloud(path, points, masses=None):
    """``masses`` (uniform by default) on ``points``, in the CSV layout the CLI reads."""
    points = np.atleast_2d(points)
    masses = np.full(len(points), 1.0 / len(points)) if masses is None else masses
    header = "id," + ",".join(f"x{i}" for i in range(points.shape[1])) + ",mass"
    rows = [np.arange(len(points)), *points.T, masses]
    np.savetxt(path, np.column_stack(rows), fmt=FLOAT_FMT, delimiter=",",
               header=header, comments="")
    return path


@pytest.fixture
def clouds_1d(tmp_path):
    rng = np.random.default_rng(3)
    return (write_cloud(tmp_path / "a.csv", rng.random((5, 1))),
            write_cloud(tmp_path / "b.csv", rng.random((7, 1))))


def test_import_and_config_planning_load_no_scipy():
    body = (
        "import sphwass\n"
        "from sphwass.config import load_config, plan_from_config\n"
        f"for path in {sorted(str(p) for p in CONFIGS.glob('*.json'))!r}:\n"
        "    plan_from_config(load_config(path))"
    )
    assert fresh_interpreter(body)[0] == []


def test_version_loads_no_scipy():
    loaded, out = fresh_interpreter(cli("--version"))
    assert loaded == []
    assert out.strip() == f"sphwass {sphwass.__version__}"


def test_profile_loads_no_scipy(clouds_1d, tmp_path):
    out_file = tmp_path / "profile.csv"
    loaded, _ = fresh_interpreter(
        cli("profile", str(clouds_1d[0]), "--h", "0.5", "--grid", "0:1:5", "--out", str(out_file))
    )
    assert loaded == []
    assert out_file.read_text().splitlines()[0] == "x0,rho"


def test_1d_distance_loads_no_scipy(clouds_1d):
    loaded, out = fresh_interpreter(cli("distance", *map(str, clouds_1d)))
    assert loaded == []
    assert "CDF" in out


def test_1d_study_loads_no_scipy(tmp_path):
    loaded, _ = fresh_interpreter(
        cli("run", str(CONFIGS / "expansion_1d.json"), "--output-dir", str(tmp_path / "out"))
    )
    assert loaded == []
    assert (tmp_path / "out" / "rates.csv").exists()


def distance_of(tmp_path, pts_a, pts_b, masses_a, masses_b):
    """What a fresh ``sphwass distance`` loads and prints on two clouds, and
    the distance computed in this process."""
    a = write_cloud(tmp_path / "a.csv", pts_a, masses_a)
    b = write_cloud(tmp_path / "b.csv", pts_b, masses_b)
    loaded, out = fresh_interpreter(cli("distance", str(a), str(b)))
    return loaded, out, wasserstein1(
        DiscreteMeasure(pts_a, masses_a), DiscreteMeasure(pts_b, masses_b)
    )


def test_uniform_2d_distance_loads_only_the_assignment_solver(tmp_path):
    rng = np.random.default_rng(4)
    loaded, out, expected = distance_of(
        tmp_path, rng.random((4, 2)), rng.random((16, 2)), np.full(4, 0.25), np.full(16, 1 / 16)
    )
    assert loaded == ["scipy"]
    assert f"W1 = {FLOAT_FMT % expected} " in out
    assert "(solver: assignment)" in out


def test_nonuniform_2d_distance_loads_scipy_optimize_and_prints_the_library_value(tmp_path):
    rng = np.random.default_rng(4)
    masses_a = np.array([0.125, 0.25, 0.25, 0.375])
    loaded, out, expected = distance_of(
        tmp_path, rng.random((4, 2)), rng.random((16, 2)), masses_a, np.full(16, 1 / 16)
    )
    assert {"scipy", "scipy.optimize", "scipy.sparse"} <= set(loaded)
    assert f"W1 = {FLOAT_FMT % expected} " in out
    assert "(solver: transportation LP)" in out


def test_2d_study_loads_only_the_assignment_solver(tmp_path):
    cfg = {"family": "morse_2d", "resolutions": [1, 2, 3], "dt": 0.01, "t_end": 0.05,
           "n_snapshots": 2, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "morse.json"
    path.write_text(json.dumps(cfg))
    loaded, _ = fresh_interpreter(cli("run", str(path)))
    assert loaded == ["scipy"]
    assert (tmp_path / "out" / "rates.csv").exists()


def test_scipy_optimize_hands_back_the_loaded_solver():
    loaded, out = fresh_interpreter(
        "import numpy as np\n"
        "from sphwass import transport\n"
        "transport.linear_sum_assignment(np.eye(3))\n"
        "import scipy.optimize\n"
        "print(transport._lsap is scipy.optimize.linear_sum_assignment)"
    )
    assert "scipy.optimize" in loaded
    assert out.strip() == "True"
