import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphwass.cli import main, run_verification_checks


def write_config(path, **overrides):
    cfg = {
        "family": "expansion_1d",
        "gamma": 2.0,
        "theta": 1,
        "resolutions": [1, 2, 3],
        "dt": 1e-2,
        "t_end": 0.2,
        "n_snapshots": 3,
        "output_dir": str(path.parent / "out"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def write_cloud(path, points, masses):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dim = points.shape[1]
    header = "id," + ",".join(f"x{i}" for i in range(dim)) + ",mass"
    rows = [header]
    for pid, (pt, m) in enumerate(zip(points, masses)):
        coords = ",".join(f"{float(v)!r}" for v in pt)
        rows.append(f"{pid},{coords},{float(m)!r}")
    path.write_text("\n".join(rows) + "\n")


class TestRunCommand:
    def test_minimal_config_succeeds(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert main(["run", str(cfg_path)]) == 0
        out_dir = tmp_path / "out"
        rates = (out_dir / "rates.csv").read_text().splitlines()
        assert rates[0] == "family,k,n,W_k_kplus1,C_rate"
        assert (out_dir / "manifest.json").exists()

    def test_gamma_zero_rejected_naming_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, gamma=0.0)
        assert main(["run", str(cfg_path)]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_theta_two_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, theta=2)
        assert main(["run", str(cfg_path)]) == 2
        assert "theta" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, viscosity=0.5)
        assert main(["run", str(cfg_path)]) == 2
        assert "viscosity" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["run", str(cfg_path)]) == 2

    def test_emitted_clouds_feed_the_distance_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert main(["run", str(cfg_path)]) == 0
        capsys.readouterr()
        a = tmp_path / "out" / "cloud_final_k1.csv"
        b = tmp_path / "out" / "cloud_final_k2.csv"
        assert main(["distance", str(a), str(b)]) == 0
        printed = float(capsys.readouterr().out.split("=")[1].split()[0])
        assert printed > 0.0

    def test_manifest_round_trip_reproduces_outputs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, output_dir=str(tmp_path / "out1"))
        assert main(["run", str(cfg_path)]) == 0
        manifest = tmp_path / "out1" / "manifest.json"
        assert main(["run", str(manifest), "--output-dir", str(tmp_path / "out2")]) == 0
        for name in ("rates.csv", "distances.csv", "snapshots_k1.csv", "snapshots_k3.csv"):
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b, name


class TestDistanceCommand:
    def test_file_vs_itself(self, tmp_path, capsys):
        cloud = tmp_path / "a.csv"
        write_cloud(cloud, [[0.1], [0.7], [0.3]], [0.2, 0.5, 0.3])
        assert main(["distance", str(cloud), str(cloud)]) == 0
        out = capsys.readouterr().out
        assert "W1 = 0" in out
        assert "CDF" in out

    def test_two_single_point_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cloud(a, [[0.0]], [1.0])
        write_cloud(b, [[1.0]], [1.0])
        assert main(["distance", str(a), str(b)]) == 0
        assert "W1 = 1 " in capsys.readouterr().out

    def test_matches_library_solver(self, tmp_path, capsys, rng):
        from sphwass import DiscreteMeasure, w1_1d_discrete

        pts_a, w_a = rng.random((7, 1)), rng.random(7) + 0.1
        pts_b, w_b = rng.random((5, 1)), rng.random(5) + 0.1
        w_a, w_b = w_a / w_a.sum(), w_b / w_b.sum()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cloud(a, pts_a, w_a)
        write_cloud(b, pts_b, w_b)
        assert main(["distance", str(a), str(b)]) == 0
        printed = float(capsys.readouterr().out.split("=")[1].split()[0])
        expected = w1_1d_discrete(
            DiscreteMeasure(pts_a, w_a), DiscreteMeasure(pts_b, w_b)
        )
        assert printed == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cloud(a, [[0.0]], [1.0])
        write_cloud(b, [[1.0, 1.0]], [1.0])
        assert main(["distance", str(a), str(b)]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_lp_solver_on_2d_clouds(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cloud(a, [[0.0, 0.0]], [1.0])
        write_cloud(b, [[3.0, 4.0]], [1.0])
        assert main(["distance", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "W1 = 5 " in out
        assert "(solver: assignment)" in out

    def test_lp_label_for_unequal_masses(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cloud(a, [[0.0, 0.0], [0.0, 1.0]], [1.0, 3.0])
        write_cloud(b, [[3.0, 4.0]], [1.0])
        assert main(["distance", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "(solver: transportation LP)" in out

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_mass_exits_2(self, tmp_path, capsys, dim, bad):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cloud(a, np.zeros((2, dim)), [1.0, float(bad)])
        write_cloud(b, np.ones((1, dim)), [1.0])
        assert main(["distance", str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert "W1" not in captured.out

    def test_full_precision_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cloud(a, [[1.0 / 3.0]], [1.0])
        write_cloud(b, [[0.0]], [1.0])
        assert main(["distance", str(a), str(b)]) == 0
        printed = capsys.readouterr().out.split("=")[1].split()[0]
        assert float(printed) == 1.0 / 3.0


class TestVerifyCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_injected_gradient_asymmetry_fails_momentum_check(self, monkeypatch, capsys):
        # mutation harness: flip the sign of the gradient shape for half of
        # the pair evaluations, destroying the pairwise antisymmetry.  The
        # pressure sum takes its gradient shapes from the density pass, so
        # the mutation goes into the one shape evaluation.
        from sphwass.kernels import WendlandCubic2D

        original = WendlandCubic2D.shapes

        def corrupted(self, u2):
            w, g = original(self, u2)
            g = np.atleast_2d(np.asarray(g, dtype=float).copy())
            g[:, ::2] *= -1.0
            return w, g

        monkeypatch.setattr(WendlandCubic2D, "shapes", corrupted)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        momentum_line = [l for l in out.splitlines() if "momentum" in l][0]
        assert "FAIL" in momentum_line

    def test_checks_are_fast(self):
        import time

        t0 = time.time()
        checks = run_verification_checks()
        assert time.time() - t0 <= 60.0
        assert all(ok for _, ok, _ in checks)


class TestProfileCommand:
    def test_1d_profile_csv(self, tmp_path, capsys):
        cloud = tmp_path / "a.csv"
        write_cloud(cloud, [[0.0]], [1.0])
        out_file = tmp_path / "prof.csv"
        code = main(
            ["profile", str(cloud), "--h", "1.0",
             "--grid", "0:1:3", "--out", str(out_file)]
        )
        assert code == 0
        rows = out_file.read_text().splitlines()
        assert rows[0] == "x0,rho"
        first = rows[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-12)

    def test_2d_profile_grid_size(self, tmp_path, capsys):
        cloud = tmp_path / "a.csv"
        write_cloud(cloud, [[0.5, 0.5]], [1.0])
        assert main(
            ["profile", str(cloud), "--h", "1.0",
             "--grid", "0:1:5"]
        ) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "x0,x1,rho"
        assert len(rows) == 1 + 25

    def test_bad_grid_spec(self, tmp_path, capsys):
        cloud = tmp_path / "a.csv"
        write_cloud(cloud, [[0.0]], [1.0])
        assert main(
            ["profile", str(cloud), "--h", "1.0",
             "--grid", "nope"]
        ) == 2

    @pytest.mark.parametrize("h", ["nan", "inf", "0", "-1"])
    def test_bad_smoothing_length_exits_2(self, tmp_path, capsys, h):
        # NaN slipped through the h <= 0 check; --h 0 ended as a runtime error
        cloud = tmp_path / "a.csv"
        write_cloud(cloud, [[0.0]], [1.0])
        assert main(
            ["profile", str(cloud), f"--h={h}", "--grid", "0:1:3"]
        ) == 2
        captured = capsys.readouterr()
        assert "smoothing length" in captured.err
        assert captured.out == ""

    def test_cloud_dimension_without_a_kernel_exits_2(self, tmp_path, capsys):
        cloud = tmp_path / "a.csv"
        write_cloud(cloud, [[0.5, 0.5, 0.5]], [1.0])
        assert main(["profile", str(cloud), "--h", "1.0", "--grid", "0:1:3"]) == 2
        captured = capsys.readouterr()
        assert "3-d" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("grid", ["nan:1:3", "0:nan:3", "-inf:0:3", "0:inf:3"])
    def test_nonfinite_grid_exits_2(self, tmp_path, capsys, grid):
        cloud = tmp_path / "a.csv"
        write_cloud(cloud, [[0.5, 0.5]], [1.0])
        assert main(
            ["profile", str(cloud), "--h", "1.0", f"--grid={grid}"]
        ) == 2
        captured = capsys.readouterr()
        assert "--grid" in captured.err
        assert captured.out == ""


class TestMalformedCloud:
    def test_short_row_exits_2_naming_file_and_line(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_cloud(a, [[0.0], [1.0]], [0.5, 0.5])
        a.write_text(a.read_text() + "2,0.5\n")
        write_cloud(b, [[1.0]], [1.0])
        assert main(["distance", str(a), str(b)]) == 2
        assert f"{a}, line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [",oops", ",1", ","])
    def test_long_row_exits_2_naming_file_and_line(self, tmp_path, capsys, extra):
        # "0,0.25,1,oops" under "id,x0,mass" was read as x0 = 0.25, mass 1
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("id,x0,mass\n0,0.25,1" + extra + "\n")
        write_cloud(b, [[0.0]], [1.0])
        for argv in (["distance", str(a), str(b)], ["profile", str(a), "--h", "1", "--grid", "0:1:3"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert f"{a}, line 2" in captured.err
            assert captured.out == ""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated_or_garbled_rows_exit_2(self, data):
        dim = data.draw(st.sampled_from([1, 2]), label="dim")
        n = data.draw(st.integers(1, 5), label="n")
        row = data.draw(st.integers(1, n), label="row")  # line row + 1 of the file
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            write_cloud(a, np.linspace(0.0, 1.0, n * dim).reshape(n, dim), np.ones(n))
            lines = a.read_text().splitlines()
            fields = lines[row].split(",")  # id, x0.., mass
            if data.draw(st.booleans(), label="truncate"):
                # the mass, the last field, is always cut
                fields = fields[: data.draw(st.integers(1, len(fields) - 1), label="keep")]
            else:
                # no digits and no letters of inf/nan: float() cannot read it;
                # the id (field 0) is never read
                junk = st.text(alphabet="abcxyz+-._ eE", max_size=4)
                fields[data.draw(st.integers(1, len(fields) - 1), label="col")] = data.draw(junk)
            lines[row] = ",".join(fields)
            a.write_text("\n".join(lines) + "\n")
            write_cloud(b, np.zeros((1, dim)), [1.0])
            for argv in (
                ["distance", str(a), str(b)],
                ["profile", str(a), "--h", "1.0", "--grid", "0:1:3"],
            ):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    assert main(argv) == 2
                assert f"{a}, line {row + 1}" in err.getvalue()
