import numpy as np
import pytest

from sphwass import (
    ExperimentPlan,
    Gaussian1D,
    InitialSpec,
    StudyDivergedError,
    TransportBudgetError,
    WendlandCubic2D,
    density_profile,
    emit_report,
    equipartition,
    run_convergence_study,
    support_radii,
)
from sphwass.params import ParameterError


def tiny_plan(**overrides):
    base = dict(
        family="expansion_1d",
        resolutions=(1, 2, 3),
        gamma=2.0,
        theta=1,
        dt=1e-2,
        t_end=0.2,
        n_snapshots=3,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestPlanValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            tiny_plan(family="warp_drive")

    def test_resolutions_must_increase(self):
        with pytest.raises(ValueError):
            tiny_plan(resolutions=(3, 2))
        with pytest.raises(ValueError):
            tiny_plan(resolutions=(2,))

    def test_bad_theta_and_gamma(self):
        with pytest.raises(ValueError):
            tiny_plan(theta=2)
        with pytest.raises(ValueError):
            tiny_plan(gamma=0.0)

    def test_snapshot_count(self):
        with pytest.raises(ValueError):
            tiny_plan(n_snapshots=1)

    def test_at_most_one_snapshot_time_per_step(self):
        # t_end / dt = 20 steps give 21 distinct step indices
        assert tiny_plan(n_snapshots=21).n_snapshots == 21
        with pytest.raises(ParameterError) as err:
            tiny_plan(n_snapshots=22)
        assert err.value.name == "n_snapshots"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field, extra, named",
        [
            ("dt", {}, "dt"),
            ("t_end", {}, "t_end"),
            ("gamma", {}, "gamma"),
            ("kappa", {}, "k_eos"),
            ("eta", {}, "eta"),
            ("h_value", {}, "h must"),
            ("h_value", {"h_mode": "scaled"}, "h must"),
        ],
        ids=["dt", "t_end", "gamma", "kappa", "eta", "h_fixed", "h_scaled"],
    )
    def test_nonfinite_number_fails_at_construction(self, field, extra, named, bad):
        # NaN fails no `<= 0` test; each number goes through its constructor, so
        # the plan fails here and not at its first rung (in a worker if workers > 1)
        with pytest.raises(ValueError, match=named):
            tiny_plan(**extra, **{field: bad})

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"kappa": -1.0}, "k_eos"),
            ({"h_value": -1.0}, "h must"),
            ({"family": "morse_2d", "gamma": np.nan}, "gamma"),
            ({"family": "morse_2d", "kappa": -1.0}, "k_eos"),
        ],
        ids=["kappa", "h_value", "morse_gamma", "morse_kappa"],
    )
    def test_negative_number_fails_at_construction(self, overrides, named):
        # the equation of state is checked for every family, as the config does
        with pytest.raises(ValueError, match=named):
            tiny_plan(**overrides)

    def test_particle_counts_per_dimension(self):
        assert tiny_plan().particles_at(3) == 8
        plan2d = tiny_plan(family="rotating_square_2d", dt=1e-2)
        assert plan2d.particles_at(3) == 64

    def test_coverage_flag(self):
        # the support bound's constants exist for gamma >= 2 and for the swarm
        def radii(plan):
            state0 = equipartition(InitialSpec(n=plan.particles_at(1), dim=plan.dim))
            kernel = plan.kernel(plan.h_value)
            return support_radii(state0, plan.force_model(), kernel, plan.snapshot_times())

        assert radii(tiny_plan(gamma=1.0)) is None
        assert radii(tiny_plan(gamma=2.0)) is not None
        assert radii(tiny_plan(family="morse_2d", eta=10.0)) is not None


class TestStudy:
    def test_distances_shrink_and_table_consistent(self):
        result = run_convergence_study(tiny_plan(resolutions=(1, 2, 3, 4)))
        assert len(result.sup_distances) == 3
        assert np.all(np.diff(result.sup_distances) < 0)
        assert result.rate_table.rate_labels == [2, 3]
        assert len(result.snapshot_times) == 3

    def test_gamma2_theta_runs_coincide(self):
        # full-trajectory scheme coincidence on a small ladder
        r0 = run_convergence_study(tiny_plan(theta=0))
        r1 = run_convergence_study(tiny_plan(theta=1))
        for rec0, rec1 in zip(r0.runs, r1.runs):
            for s0, s1 in zip(rec0.trajectory.states, rec1.trajectory.states):
                scale = max(np.abs(s1.positions).max(), 1.0)
                assert np.abs(s0.positions - s1.positions).max() <= 1e-10 * scale

    def test_support_diagnostic_recorded_and_satisfied(self):
        result = run_convergence_study(tiny_plan())
        for rec in result.runs:
            assert rec.support_ok is not None
            assert all(rec.support_ok)
            assert all(np.diff(rec.support_radii) >= 0)

    def test_morse_sup_norm_is_computed_once_per_study(self):
        # each rung's support diagnostic needs sup |K| of the same interaction
        from sphwass import MorseInteraction

        MorseInteraction.sup_norm.cache_clear()
        result = run_convergence_study(tiny_plan(family="morse_2d", eta=10.0))
        assert all(rec.support_ok is not None for rec in result.runs)
        info = MorseInteraction.sup_norm.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_theta0_has_no_diagnostic(self):
        result = run_convergence_study(tiny_plan(theta=0))
        assert all(rec.support_ok is None for rec in result.runs)

    def test_workers_give_identical_results(self):
        serial = run_convergence_study(tiny_plan())
        parallel = run_convergence_study(tiny_plan(), workers=2)
        np.testing.assert_array_equal(serial.sup_distances, parallel.sup_distances)
        for a, b in zip(serial.runs, parallel.runs):
            np.testing.assert_array_equal(
                a.trajectory.states[-1].positions, b.trajectory.states[-1].positions
            )

    def test_divergence_names_family_and_resolution(self, monkeypatch):
        from sphwass import experiments as exp
        from sphwass.integrator import SimulationDivergedError

        def explode(*args, **kwargs):
            raise SimulationDivergedError(41)

        monkeypatch.setattr(exp, "run", explode)
        with pytest.raises(StudyDivergedError) as exc_info:
            run_convergence_study(tiny_plan())
        assert exc_info.value.family == "expansion_1d"
        assert exc_info.value.k == 1
        assert "k=1" in str(exc_info.value)

    def test_two_rung_plan_fails_before_any_rung(self):
        # two rungs give one distance and no rate: no such plan can be built
        with pytest.raises(ParameterError) as err:
            tiny_plan(resolutions=(1, 2))
        assert err.value.name == "resolutions"

    def test_top_pair_over_the_w1_budget_fails_before_any_rung(self, monkeypatch):
        # the 16 x 64 cost matrix of k = 2, 3 exceeds 1000 entries; 4 x 16 does not
        from sphwass import experiments as exp

        def refuse(*args):
            raise AssertionError("a rung ran for a ladder over the W1 budget")

        monkeypatch.setattr(exp, "_run_rungs", refuse)
        plan = tiny_plan(family="rotating_square_2d", resolutions=(1, 2, 3))
        with pytest.raises(TransportBudgetError, match="16 x 64"):
            run_convergence_study(plan, budget=1000)
        with pytest.raises(TransportBudgetError):
            run_convergence_study(plan, budget=16 * 64 - 1)

    def test_top_pair_at_the_w1_budget_runs(self):
        plan = tiny_plan(family="rotating_square_2d", resolutions=(1, 2, 3), t_end=0.02)
        result = run_convergence_study(plan, budget=16 * 64)
        assert np.all(np.isfinite(result.sup_distances))

    def test_1d_ladder_takes_no_budget(self):
        result = run_convergence_study(tiny_plan(), budget=1)
        assert np.all(result.sup_distances > 0)

    def test_iid_mode_runs(self):
        result = run_convergence_study(tiny_plan(init_mode="iid", seed=3))
        assert np.all(result.sup_distances > 0)

    def test_gamma1_permitted_outside_coverage(self):
        # the limit case runs fine (density never vanishes: self-term floor)
        result = run_convergence_study(tiny_plan(gamma=1.0))
        assert np.all(np.isfinite(result.sup_distances))
        assert all(rec.support_radii is None for rec in result.runs)
        assert all(rec.support_ok is None for rec in result.runs)


class TestWorkers:
    """One batch for a single-worker Morse study, a rung per process otherwise."""

    @staticmethod
    def recording_pool(monkeypatch):
        # a stand-in pool that records its size and runs the rungs in this process,
        # starting no process at all
        import concurrent.futures

        sizes = []

        class Recording:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        return sizes

    def test_pool_is_capped_at_the_rung_count(self, monkeypatch):
        sizes = self.recording_pool(monkeypatch)
        serial = run_convergence_study(tiny_plan())
        for workers in (2, 3, 100000):
            result = run_convergence_study(tiny_plan(), workers=workers)
            np.testing.assert_array_equal(result.sup_distances, serial.sup_distances)
        assert sizes == [2, 3, 3]

    def test_one_worker_batches_a_morse_ladder_only(self, monkeypatch):
        from sphwass import experiments as exp

        batches, run = [], exp.run

        def recorded(states0, fm, kernels, cfg):
            batches.append([s.n for s in states0])
            return run(states0, fm, kernels, cfg)

        monkeypatch.setattr(exp, "run", recorded)
        run_convergence_study(tiny_plan(family="morse_2d", eta=10.0))
        run_convergence_study(tiny_plan())
        self.recording_pool(monkeypatch)
        run_convergence_study(tiny_plan(family="morse_2d", eta=10.0), workers=2)
        assert batches == [[4, 16, 64], [2], [4], [8], [4], [16], [64]]

    def test_reports_of_one_and_two_workers_are_identical(self, tmp_path):
        # the n = 256 rung walks two blocks, beside three rungs of one block
        plan = tiny_plan(family="morse_2d", resolutions=(1, 2, 3, 4), eta=10.0, dt=1e-2,
                         t_end=0.05, n_snapshots=3)
        for workers in (1, 2):
            emit_report(run_convergence_study(plan, workers=workers), tmp_path / str(workers))
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
        assert "snapshots_k4.csv" in names
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_earliest_step_names_the_rung(self, workers, monkeypatch):
        # rung k diverges at step steps[k] (None: it does not); the earliest step
        # wins, and on a tie the lowest k
        from sphwass import experiments as exp
        from sphwass.integrator import SimulationDivergedError

        self.recording_pool(monkeypatch)
        run = exp.run

        def diverging(steps):
            def fake(states0, fm, kernels, cfg):
                ks = [int(np.log2(s.n)) for s in states0]
                hits = [(steps[k], i) for i, k in enumerate(ks) if steps[k] is not None]
                if hits:
                    step, index = min(hits)
                    raise SimulationDivergedError(step, run_index=index)
                return run(states0, fm, kernels, cfg)
            return fake

        for steps, k in (({1: 50, 2: 10, 3: None}, 2), ({1: None, 2: 7, 3: 7}, 2),
                         ({1: 9, 2: None, 3: 3}, 3)):
            monkeypatch.setattr(exp, "run", diverging(steps))
            with pytest.raises(StudyDivergedError) as err:
                run_convergence_study(tiny_plan(), workers=workers)
            assert (err.value.k, err.value.step_index) == (k, steps[k])

    def test_a_batch_names_the_rung_that_diverged(self, monkeypatch):
        from sphwass import experiments as exp
        from sphwass.integrator import SimulationDivergedError

        def explode(*args, **kwargs):
            raise SimulationDivergedError(41, run_index=2)

        monkeypatch.setattr(exp, "run", explode)
        with pytest.raises(StudyDivergedError) as err:
            run_convergence_study(tiny_plan(family="morse_2d", resolutions=(1, 2, 3), eta=10.0))
        assert (err.value.k, err.value.step_index) == (3, 41)

    def test_divergence_survives_the_trip_from_a_worker(self):
        import pickle

        err = pickle.loads(pickle.dumps(StudyDivergedError("morse_2d", 3, 41)))
        assert (err.family, err.k, err.step_index) == ("morse_2d", 3, 41)
        assert "k=3" in str(err)


class TestDensityProfile:
    def test_single_particle_peak(self):
        from sphwass import ParticleState

        state = ParticleState([1.0], [[0.0]], [[0.0]])
        prof = density_profile(state, Gaussian1D(1.0), np.array([0.0]))
        assert prof[0] == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-14)

    def test_golden_equipartition_profile(self):
        # frozen from the first verified build; the plateau sits near
        # erf-smoothed 0.52 at the center, as the continuum limit predicts
        state = equipartition(InitialSpec(n=512))
        grid = np.array([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
        prof = density_profile(state, Gaussian1D(1.0), grid)
        golden = np.array(
            [
                0.076310676624894838,
                0.42135046245443186,
                0.49374113067546799,
                0.52050001749185348,
                0.49374113067546799,
                0.42135046245443192,
                0.076310676624894824,
            ]
        )
        np.testing.assert_allclose(prof, golden, rtol=1e-12)

    def test_total_mass_recovered_by_quadrature(self):
        state = equipartition(InitialSpec(n=128))
        grid = np.linspace(-8.0, 9.0, 4001)
        prof = density_profile(state, Gaussian1D(1.0), grid)
        assert np.trapezoid(prof, grid) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "dim,kernel",
        [(1, Gaussian1D(0.3)), (2, WendlandCubic2D(0.05))],
        ids=["gaussian-dense", "wendland-cells"],
    )
    def test_at_particles_equals_compute_density(self, dim, kernel, rng):
        from sphwass import ParticleState, compute_density

        n = 600
        state = ParticleState(rng.random(n) + 0.1, rng.random((n, dim)), np.zeros((n, dim)))
        prof = density_profile(state, kernel, state.positions.copy())
        rho = compute_density(state, kernel)
        np.testing.assert_allclose(prof, rho, rtol=1e-14)

    def test_empty_grid_on_the_cell_path(self, rng):
        from sphwass import ParticleState

        n = 600
        state = ParticleState(np.full(n, 1.0 / n), rng.random((n, 2)), np.zeros((n, 2)))
        prof = density_profile(state, WendlandCubic2D(0.05), np.zeros((0, 2)))
        assert prof.shape == (0,)

    def test_grid_dimension_checked(self):
        state = equipartition(InitialSpec(n=4, dim=2))
        with pytest.raises(ValueError):
            density_profile(state, Gaussian1D(1.0), np.zeros((5, 1)))

    def test_kernel_dimension_checked(self):
        # the grid matches the state, so only the kernel's dimension can refuse it
        state = equipartition(InitialSpec(n=4, dim=2))
        with pytest.raises(ValueError, match="kernel dimension"):
            density_profile(state, Gaussian1D(1.0), np.array([[0.5, 0.0]]))


class TestEmitReport:
    def test_report_files_and_schemas(self, tmp_path):
        result = run_convergence_study(tiny_plan())
        emit_report(result, tmp_path, config={"family": "expansion_1d"})
        rates = (tmp_path / "rates.csv").read_text().splitlines()
        assert rates[0] == "family,k,n,W_k_kplus1,C_rate"
        assert len(rates) == 3  # two pairs
        first = rates[1].split(",")
        assert first[0] == "expansion_1d" and first[1] == "1" and first[2] == "2"
        assert first[4] == ""  # no rate for the first pair
        assert float(rates[2].split(",")[4]) < 0

        dists = (tmp_path / "distances.csv").read_text().splitlines()
        assert dists[0] == "family,k,k_next,t,W"
        assert len(dists) == 1 + 2 * 3  # two pairs x three snapshot times

        snaps = (tmp_path / "snapshots_k1.csv").read_text().splitlines()
        assert snaps[0] == "t,id,x0,v0,rho"
        assert len(snaps) == 1 + 3 * 2  # three times x two particles

        cloud = (tmp_path / "cloud_final_k1.csv").read_text().splitlines()
        assert cloud[0] == "id,x0,mass"

        import json

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["family"] == "expansion_1d"

    def test_full_precision_round_trip(self, tmp_path):
        result = run_convergence_study(tiny_plan())
        emit_report(result, tmp_path)
        rows = (tmp_path / "rates.csv").read_text().splitlines()[1:]
        for p, row in enumerate(rows):
            assert float(row.split(",")[3]) == result.sup_distances[p]
