from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphwass.transport as transport
from sphwass import (
    DiscreteMeasure,
    TransportBudgetError,
    convergence_rates,
    dual_certificate,
    sup_wasserstein_over_time,
    w1_1d_discrete,
    w1_1d_vs_uniform,
    w1_lp,
    w1_solver,
    wasserstein1,
)

from conftest import normalized


def random_measure(rng, n, dim=1, grid=None):
    pts = rng.random((n, dim)) if grid is None else grid
    return DiscreteMeasure(points=pts, weights=normalized(rng.random(n) + 0.05))


class TestW1OneDimensional:
    def test_two_diracs(self):
        for a, b in ((0.0, 1.0), (-2.0, 3.5), (1.0, 1.0)):
            mu = DiscreteMeasure([[a]], [1.0])
            nu = DiscreteMeasure([[b]], [1.0])
            assert w1_1d_discrete(mu, nu) == pytest.approx(abs(a - b), abs=1e-15)

    def test_split_mass_against_unique_coupling(self):
        # only one coupling exists: both half-masses travel distance 1
        mu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[1.0]], [1.0])
        assert w1_1d_discrete(mu, nu) == pytest.approx(1.0, abs=1e-15)

    def test_identity(self, rng):
        mu = random_measure(rng, 13)
        assert w1_1d_discrete(mu, mu) == 0.0

    def test_requires_one_dimension(self, rng):
        mu = random_measure(rng, 4, dim=2)
        with pytest.raises(ValueError):
            w1_1d_discrete(mu, mu)

    def test_matches_quantile_formulation(self, rng):
        # independent oracle: integrate |F_mu^{-1} - F_nu^{-1}| over (0, 1)
        for _ in range(20):
            mu = random_measure(rng, int(rng.integers(2, 12)))
            nu = random_measure(rng, int(rng.integers(2, 12)))
            xs_mu = np.sort(mu.points[:, 0])
            xs_nu = np.sort(nu.points[:, 0])
            cum_mu = np.cumsum(mu.weights[np.argsort(mu.points[:, 0], kind="stable")])
            cum_nu = np.cumsum(nu.weights[np.argsort(nu.points[:, 0], kind="stable")])
            qs = np.unique(np.concatenate([[0.0], cum_mu, cum_nu]))
            total = 0.0
            for q0, q1 in zip(qs, qs[1:]):
                mid = 0.5 * (q0 + q1)
                x = xs_mu[min(np.searchsorted(cum_mu, mid), len(xs_mu) - 1)]
                y = xs_nu[min(np.searchsorted(cum_nu, mid), len(xs_nu) - 1)]
                total += abs(x - y) * (q1 - q0)
            assert w1_1d_discrete(mu, nu) == pytest.approx(total, abs=1e-12)


class TestW1LP:
    def test_two_diracs_euclidean(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
        nu = DiscreteMeasure([[3.0, 4.0]], [1.0])
        dist, plan = w1_lp(mu, nu)
        assert dist == pytest.approx(5.0, abs=1e-12)
        assert plan.mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_four_corners_to_center(self):
        corners = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        mu = DiscreteMeasure(corners, [0.25] * 4)
        nu = DiscreteMeasure([[0.5, 0.5]], [1.0])
        dist, plan = w1_lp(mu, nu)
        # symmetry forces every corner to ship its quarter to the center
        assert dist == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)
        assert dist == pytest.approx(0.70711, abs=5e-6)

    def test_agrees_with_1d_solver_on_100_instances(self, rng):
        worst = 0.0
        for _ in range(100):
            mu = random_measure(rng, int(rng.integers(2, 33)))
            nu = random_measure(rng, int(rng.integers(2, 33)))
            lp, _ = w1_lp(mu, nu)
            worst = max(worst, abs(lp - w1_1d_discrete(mu, nu)))
        assert worst <= 1e-9

    def test_tied_support_points_agree_with_lp(self, rng):
        # duplicated locations exercise the tie handling of the CDF sweep;
        # any tie-break must reproduce the LP optimum
        for _ in range(20):
            base = rng.random(4)
            pts = np.concatenate([base, base[:2], rng.random(3)])[:, None]
            mu = DiscreteMeasure(pts, normalized(rng.random(len(pts)) + 0.05))
            nu_pts = np.concatenate([base[1:3], rng.random(4)])[:, None]
            nu = DiscreteMeasure(nu_pts, normalized(rng.random(len(nu_pts)) + 0.05))
            lp, _ = w1_lp(mu, nu)
            assert abs(lp - w1_1d_discrete(mu, nu)) <= 1e-12

    def test_plan_marginals_machine_exact(self, rng):
        for _ in range(10):
            mu = random_measure(rng, 17, dim=2)
            nu = random_measure(rng, 23, dim=2)
            _, plan = w1_lp(mu, nu)
            np.testing.assert_allclose(plan.row_marginal(mu.n), mu.weights, atol=1e-9)
            np.testing.assert_allclose(plan.col_marginal(nu.n), nu.weights, atol=1e-9)
            assert plan.mass.min() >= 0.0

    def test_budget_exceeded(self, rng):
        mu = random_measure(rng, 8, dim=2)
        nu = random_measure(rng, 8, dim=2)
        with pytest.raises(TransportBudgetError, match="subsample"):
            w1_lp(mu, nu, budget=16)

    def test_dimension_mismatch(self, rng):
        a, b = random_measure(rng, 3, dim=1), random_measure(rng, 3, dim=2)
        for solve in (w1_lp, wasserstein1):
            for mu, nu in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    solve(mu, nu)


def lp_reference(mu, nu):
    """The HiGHS + leaf-elimination distance, bypassing the dispatch."""
    cost = np.linalg.norm(mu.points[:, None, :] - nu.points[None, :, :], axis=-1)
    x = transport._solve_transport_lp(mu.weights, nu.weights, cost)
    arcs = transport._polish_plan(mu.weights, nu.weights, x)
    if arcs is None:
        return float(np.sum(x * cost))
    ii, jj, mass = arcs
    return float(np.sum(mass * cost[ii, jj]))


@st.composite
def uniform_pairs(draw):
    """Uniform clouds in 1D or 2D whose sizes differ by 1, 2 or 4, either way
    round; on a coarse lattice, points tie and optimal plans are degenerate."""
    dim = draw(st.sampled_from([1, 2]))
    small = draw(st.integers(1, 12))
    large = small * draw(st.sampled_from([1, 2, 4]))
    n_s, n_t = (large, small) if draw(st.booleans()) else (small, large)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())

    def points(n):
        return rng.integers(0, 4, (n, dim)) / 4.0 if lattice else rng.random((n, dim))

    mu = DiscreteMeasure(points(n_s), np.full(n_s, 1.0 / n_s))
    nu = DiscreteMeasure(points(n_t), np.full(n_t, 1.0 / n_t))
    return mu, nu


class TestAssignmentDispatch:
    @settings(max_examples=60, deadline=None)
    @given(uniform_pairs())
    def test_matches_lp_reference(self, pair):
        mu, nu = pair
        dist, plan = w1_lp(mu, nu)
        assert abs(dist - lp_reference(mu, nu)) <= 1e-9
        assert plan.cost == dist
        np.testing.assert_allclose(plan.row_marginal(mu.n), mu.weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(plan.col_marginal(nu.n), nu.weights, rtol=0, atol=1e-12)
        gap, violation = dual_certificate(mu, nu, plan)
        assert abs(gap) <= 1e-9
        assert violation <= 1e-9

    @pytest.fixture
    def linprog_calls(self, monkeypatch):
        calls, linprog = [], transport.linprog

        def spy(*args, **kwargs):
            calls.append(args)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(transport, "linprog", spy)
        return calls

    @pytest.mark.parametrize(
        "n_s, n_t, uniform, lp_calls",
        [
            (16, 64, True, 0),
            (64, 16, True, 0),
            (4, 1, True, 0),
            (16, 64, False, 1),
            (3, 5, True, 1),
            (6, 4, True, 1),
        ],
    )
    def test_linprog_only_off_the_assignment_path(
        self, rng, linprog_calls, n_s, n_t, uniform, lp_calls
    ):
        if uniform:
            mu = DiscreteMeasure(rng.random((n_s, 2)), np.full(n_s, 1.0 / n_s))
            nu = DiscreteMeasure(rng.random((n_t, 2)), np.full(n_t, 1.0 / n_t))
        else:
            mu, nu = random_measure(rng, n_s, dim=2), random_measure(rng, n_t, dim=2)
        _, plan = w1_lp(mu, nu)
        assert len(linprog_calls) == lp_calls
        assert w1_solver(mu, nu) == ("transportation LP" if lp_calls else "assignment")
        gap, _ = dual_certificate(mu, nu, plan)
        assert abs(gap) <= 1e-9


    @pytest.mark.parametrize("n_s, n_t", [(1, 200), (200, 1), (4, 200)])
    def test_skewed_ratios_take_the_lp(self, rng, linprog_calls, monkeypatch, n_s, n_t):
        # 1 and 4 against 200 atoms: the copied matrix would hold 200 x 200
        # entries, 200 and 50 times the n_s x n_t the LP needs
        def no_assignment(cost):
            raise AssertionError(f"assignment on a {cost.shape} matrix")

        monkeypatch.setattr(transport, "linear_sum_assignment", no_assignment)
        mu = DiscreteMeasure(rng.random((n_s, 2)), np.full(n_s, 1.0 / n_s))
        nu = DiscreteMeasure(rng.random((n_t, 2)), np.full(n_t, 1.0 / n_t))
        dist, plan = w1_lp(mu, nu)
        assert len(linprog_calls) == 1
        assert abs(dist - lp_reference(mu, nu)) <= 1e-12
        gap, _ = dual_certificate(mu, nu, plan)
        assert abs(gap) <= 1e-9

    def test_assignment_matrix_must_fit_the_budget(self, rng, linprog_calls):
        # 16 x 64 = 1024 entries fit a budget of 1024, the 64 x 64 copy does not
        mu = DiscreteMeasure(rng.random((16, 2)), np.full(16, 1.0 / 16))
        nu = DiscreteMeasure(rng.random((64, 2)), np.full(64, 1.0 / 64))
        assert w1_solver(mu, nu, budget=1024) == "transportation LP"
        assert w1_solver(mu, nu, budget=4096) == "assignment"
        w1_lp(mu, nu, budget=1024)
        assert len(linprog_calls) == 1

    def test_one_dimension_takes_the_cdf_sweep(self, rng, linprog_calls, monkeypatch):
        # uniform 4 vs 16 would qualify for the assignment; in 1D the sweep wins
        def no_assignment(cost):
            raise AssertionError("assignment in 1D")

        monkeypatch.setattr(transport, "linear_sum_assignment", no_assignment)
        mu = DiscreteMeasure(rng.random((4, 1)), np.full(4, 0.25))
        nu = DiscreteMeasure(rng.random((16, 1)), np.full(16, 1.0 / 16))
        assert w1_solver(mu, nu) == "exact 1D CDF sweep"
        assert wasserstein1(mu, nu) == w1_1d_discrete(mu, nu)
        assert not linprog_calls

    @pytest.mark.parametrize("n_s, n_t", [(16, 64), (3, 5)], ids=["assignment", "lp"])
    def test_path_chosen_once_per_distance(self, rng, monkeypatch, n_s, n_t):
        calls = []
        applies = transport._assignment_applies

        def counting(*args):
            calls.append(args)
            return applies(*args)

        monkeypatch.setattr(transport, "_assignment_applies", counting)
        mu = DiscreteMeasure(rng.random((n_s, 2)), np.full(n_s, 1.0 / n_s))
        nu = DiscreteMeasure(rng.random((n_t, 2)), np.full(n_t, 1.0 / n_t))
        distance = wasserstein1(mu, nu)
        assert len(calls) == 1
        assert distance == w1_lp(mu, nu)[0]


def lsap_inputs():
    rng = np.random.default_rng(11)
    return {
        "square": rng.random((7, 7)),
        "wide": rng.random((5, 9)),
        "tall": rng.random((9, 5)),
        # every row copied 4 times, as the assignment path copies atoms: ties
        "copied_rows": np.repeat(rng.random((4, 16)), 4, axis=0),
        "integers": rng.integers(0, 3, (12, 12)),
    }


class TestAssignmentSolver:
    """The solver loaded from scipy's extension file is scipy's own."""

    @pytest.fixture(scope="class")
    def library(self):
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment

    @pytest.mark.parametrize("name", sorted(lsap_inputs()))
    def test_loaded_solver_matches_the_library(self, library, name):
        cost = lsap_inputs()[name]
        solver = transport._load_lsap(transport._lsap_file())
        for got, want in zip(solver(cost), library(cost)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_loaded_solver_is_the_library_function(self, library):
        assert transport._lsap_file() is not None
        assert transport._load_lsap(transport._lsap_file()) is library

    @pytest.mark.parametrize("kind", ["junk", "missing", "none"])
    def test_a_file_that_will_not_load_falls_back(
        self, library, monkeypatch, tmp_path, kind
    ):
        path = tmp_path / ("_lsap" + EXTENSION_SUFFIXES[0])
        if kind == "junk":
            path.write_bytes(b"not a shared object")
        monkeypatch.setattr(transport, "_lsap", None)
        monkeypatch.setattr(transport, "_lsap_file", lambda: None if kind == "none" else path)
        for cost in lsap_inputs().values():
            for got, want in zip(transport.linear_sum_assignment(cost), library(cost)):
                np.testing.assert_array_equal(got, want)
        assert transport._lsap is library


class TestMetricAxioms:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_axioms_random_measures(self, rng, dim):
        def dist(mu, nu):
            return wasserstein1(mu, nu)

        for _ in range(15):
            mu = random_measure(rng, int(rng.integers(2, 17)), dim=dim)
            nu = random_measure(rng, int(rng.integers(2, 17)), dim=dim)
            rho = random_measure(rng, int(rng.integers(2, 17)), dim=dim)
            d_mn = dist(mu, nu)
            assert d_mn >= 0.0
            assert dist(mu, mu) <= 1e-12
            assert abs(d_mn - dist(nu, mu)) <= 1e-12
            assert d_mn <= dist(mu, rho) + dist(rho, nu) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        solver=st.sampled_from(["exact 1D CDF sweep", "assignment", "transportation LP"]),
        sizes=st.lists(st.sampled_from([2, 4, 8, 16]), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_axioms_on_each_solver(self, solver, sizes, seed):
        # 1D clouds take the CDF sweep; in 2D, uniform clouds whose sizes
        # divide take the assignment and random weights the LP
        rng = np.random.default_rng(seed)
        dim = 1 if solver == "exact 1D CDF sweep" else 2

        def measure(n):
            if solver == "assignment":
                return DiscreteMeasure(rng.random((n, dim)), np.full(n, 1.0 / n))
            return random_measure(rng, n, dim=dim)

        mu, nu, rho = (measure(n) for n in sizes)
        for a, b in ((mu, nu), (nu, mu), (mu, rho), (rho, nu), (mu, mu)):
            assert w1_solver(a, b) == solver
        d_mn = wasserstein1(mu, nu)
        assert d_mn >= 0.0
        assert wasserstein1(mu, mu) <= 1e-12
        assert abs(d_mn - wasserstein1(nu, mu)) <= 1e-12
        assert d_mn <= wasserstein1(mu, rho) + wasserstein1(rho, nu) + 1e-9

    @pytest.mark.parametrize("dim", [1, 2])
    def test_translation_equivariance(self, rng, dim):
        shift = np.full(dim, 0.37)
        for _ in range(10):
            mu = random_measure(rng, 9, dim=dim)
            nu = random_measure(rng, 7, dim=dim)
            base = wasserstein1(mu, nu)
            mu_s = DiscreteMeasure(mu.points + shift, mu.weights)
            nu_s = DiscreteMeasure(nu.points + shift, nu.weights)
            assert abs(wasserstein1(mu_s, nu_s) - base) <= 1e-12
            # translating one argument moves the distance by at most |c|
            assert abs(wasserstein1(mu_s, nu) - base) <= np.linalg.norm(shift) + 1e-12


class TestDualCertificate:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_gap_and_feasibility_small(self, rng, dim):
        for _ in range(10):
            mu = random_measure(rng, int(rng.integers(2, 65)), dim=dim)
            nu = random_measure(rng, int(rng.integers(2, 65)), dim=dim)
            _, plan = w1_lp(mu, nu)
            gap, violation = dual_certificate(mu, nu, plan)
            assert abs(gap) <= 1e-7
            assert violation <= 1e-7

    def test_suboptimal_plan_yields_positive_gap(self):
        # ship the mass the long way around: certificate must notice
        from sphwass.transport import TransportPlan

        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        nu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        bad = TransportPlan(
            i=np.array([0, 1]), j=np.array([1, 0]), mass=np.array([0.5, 0.5]), cost=1.0
        )
        gap, violation = dual_certificate(mu, nu, bad)
        # certification must fail: the residual graph has a negative cycle
        assert gap == np.inf


def segment_loop_w1(mu, breakpoints, values):
    """The distance to a piecewise-constant density by a Python loop over the
    merged grid of breakpoints and atoms, kept as an oracle for the closed form."""
    order = np.argsort(mu.points[:, 0], kind="stable")
    pts_sorted = mu.points[order, 0]
    grid = np.unique(np.concatenate([breakpoints, pts_sorted]))
    f_mu = np.concatenate([[0.0], np.cumsum(mu.weights[order])])
    mu_cdf_left = f_mu[np.searchsorted(pts_sorted, grid[:-1], side="right")]
    cum = np.concatenate([[0.0], np.cumsum(values * np.diff(breakpoints))])
    idx = np.clip(np.searchsorted(breakpoints, grid, side="right") - 1, 0, len(values) - 1)
    inside = cum[idx] + values[idx] * (grid - breakpoints[idx])
    rho_cdf = np.where(
        grid < breakpoints[0], 0.0, np.where(grid >= breakpoints[-1], cum[-1], inside)
    )
    acc = 0.0
    for seg in range(len(grid) - 1):
        width = grid[seg + 1] - grid[seg]
        c0 = rho_cdf[seg] - mu_cdf_left[seg]
        c1 = rho_cdf[seg + 1] - mu_cdf_left[seg]
        if c0 * c1 >= 0:
            acc += 0.5 * abs(c0 + c1) * width
        else:  # sign change: two triangles
            t_cross = c0 / (c0 - c1) * width
            acc += 0.5 * (abs(c0) * t_cross + abs(c1) * (width - t_cross))
    return acc


class TestSemiDiscrete:
    def test_midpoint_construction_exact_quarter_n(self):
        for n in [1, 3] + [2**e for e in range(1, 15)]:
            pts = (np.arange(1, n + 1) / n - 0.5 / n)[:, None]
            mu = DiscreteMeasure(pts, np.full(n, 1.0 / n))
            assert w1_1d_vs_uniform(mu) == pytest.approx(1.0 / (4 * n), abs=1e-15)

    def test_matches_dense_grid_oracle(self, rng):
        # numeric oracle: trapezoid integration of |F_mu - F_uniform| on a fine grid
        mu = DiscreteMeasure(rng.uniform(-0.5, 1.5, (9, 1)), normalized(rng.random(9) + 0.05))
        exact = w1_1d_vs_uniform(mu)
        xs = np.linspace(-0.7, 1.7, 800001)
        order = np.argsort(mu.points[:, 0])
        cum = np.concatenate([[0.0], np.cumsum(mu.weights[order])])
        f_mu = cum[np.searchsorted(mu.points[order, 0], xs, side="right")]
        oracle = np.trapezoid(np.abs(f_mu - np.clip(xs, 0.0, 1.0)), xs)
        # the oracle quantizes atom locations to its grid (spacing 3e-6)
        assert exact == pytest.approx(oracle, abs=5e-6)

    def test_n4_reference_value(self):
        pts = (np.arange(1, 5) / 4 - 0.125)[:, None]
        mu = DiscreteMeasure(pts, np.full(4, 0.25))
        assert w1_1d_vs_uniform(mu) == pytest.approx(0.0625, abs=1e-15)

    def test_single_atom_vs_uniform(self):
        mu = DiscreteMeasure([[0.5]], [1.0])
        assert w1_1d_vs_uniform(mu) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("x", [2.0, -1.0])
    def test_single_atom_outside_the_unit_interval(self, x):
        # all the mass moves from x to [0, 1]: 1 to the near end plus 1/2 on average
        assert w1_1d_vs_uniform(DiscreteMeasure([[x]], [1.0])) == 1.5

    def test_rejects_two_dimensional_measure(self):
        with pytest.raises(ValueError):
            w1_1d_vs_uniform(DiscreteMeasure([[0.5, 0.5]], [1.0]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_segment_loop(self, data):
        n = data.draw(st.integers(1, 8), label="atoms")
        # a coarse lattice makes atoms tie with each other and with 0 and 1
        lattice = st.integers(-4, 12).map(lambda i: i / 8)
        pts = np.array(data.draw(st.lists(lattice, min_size=n, max_size=n), label="pts"))
        w = np.array(data.draw(
            st.lists(st.integers(1, 9), min_size=n, max_size=n), label="w"
        ), dtype=float)
        mu = DiscreteMeasure(pts[:, None], w / w.sum())
        oracle = segment_loop_w1(mu, np.array([0.0, 1.0]), np.array([1.0]))
        assert w1_1d_vs_uniform(mu) == pytest.approx(oracle, abs=1e-14)


class TestSupOverTime:
    def snaps(self, rng, offset=0.0, n=6, times=(0.0, 0.5, 1.0)):
        pts = rng.random((n, 2))
        w = normalized(np.ones(n))
        return [(t, DiscreteMeasure(pts + offset, w)) for t in times]

    def test_identical_trajectories(self, rng):
        a = self.snaps(rng)
        sup, argmax_t, dists = sup_wasserstein_over_time(a, a)
        assert sup == 0.0
        assert argmax_t == 0.0
        np.testing.assert_array_equal(dists, np.zeros(3))

    def test_constant_offset_clouds(self, rng):
        pts = rng.random((5, 2))
        w = normalized(np.ones(5))
        times = (0.0, 1.0)
        a = [(t, DiscreteMeasure(pts, w)) for t in times]
        b = [(t, DiscreteMeasure(pts + [0.3, 0.4], w)) for t in times]
        sup, _, dists = sup_wasserstein_over_time(a, b)
        np.testing.assert_allclose(dists, 0.5, atol=1e-9)
        assert sup == pytest.approx(0.5, abs=1e-9)

    def test_mismatched_grids_rejected(self, rng):
        a = self.snaps(rng, times=(0.0, 0.5, 1.0))
        b = self.snaps(rng, times=(0.0, 0.6, 1.0))
        with pytest.raises(ValueError):
            sup_wasserstein_over_time(a, b)


class TestConvergenceRates:
    def test_exact_halving_1d(self):
        table = convergence_rates([0.04, 0.02], dim=1)
        assert table.rates[0] == pytest.approx(-1.0, abs=1e-14)

    def test_exact_halving_2d(self):
        table = convergence_rates([0.04, 0.02], dim=2)
        assert table.rates[0] == pytest.approx(-0.5, abs=1e-14)

    def test_reference_value_2d(self):
        table = convergence_rates([0.0400, 0.0201], dim=2)
        assert table.rates[0] == pytest.approx(0.5 * np.log2(0.0201 / 0.04), abs=1e-15)
        assert table.rates[0] == pytest.approx(-0.4964, abs=5e-5)

    def test_zero_distance_flagged(self):
        table = convergence_rates([0.04, 0.0, 0.01], dim=1, resolutions=[1, 2, 3, 4])
        assert np.isnan(table.rates).all()
        assert table.undefined == [2, 3]

    def test_labels_are_middle_resolutions(self):
        table = convergence_rates([0.4, 0.2, 0.1], dim=1, resolutions=[3, 4, 5, 6])
        assert table.rate_labels == [4, 5]

    def test_requires_two_distances(self):
        with pytest.raises(ValueError):
            convergence_rates([0.1], dim=1)


class TestDiscreteMeasureValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0]], [0.5])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0], [1.0]], [1.5, -0.5])

    def test_rejects_nonfinite_points(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[np.nan]], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_weights(self, bad):
        # NaN passes both the sign and the sum check, so it needs its own
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure([[0.0], [1.0]], [1.0, bad])


def test_plan_csv_export(tmp_path, rng):
    mu = random_measure(rng, 5, dim=2)
    nu = random_measure(rng, 4, dim=2)
    _, plan = w1_lp(mu, nu)
    path = tmp_path / "plan.csv"
    plan.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "i,j,mass"
    masses = [float(r.split(",")[2]) for r in rows[1:]]
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)
