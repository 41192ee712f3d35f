"""Chart extraction, tilted fields, hinge mass, and the Dirichlet comparison."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from nformpde.auxiliary import (
    build_chart,
    check_comparison,
    comparison_scale,
    hinge_mass,
    run_localization,
    smooth_hinge,
    solve_dirichlet_ma,
    tight_comparison_fixture,
    tilted_potential,
)
from nformpde.errors import (
    ChartFailureError,
    InconsistentInputError,
    MetricDegeneracyError,
)
from nformpde.grid import TorusGrid, identity_metric
from nformpde.manufactured import radial_field, radial_profile
from nformpde.solver import PrimaryProblem, solve_primary
from nformpde.symfun import monge_ampere

CENTER = (12, 3, 7, 9)


def flat_chart(N=16, center=CENTER):
    grid = TorusGrid(n=2, N=N, L=1.0)
    g = identity_metric(grid)
    phi = 0.01 * grid.distance_sq(center)
    return build_chart(phi, g, g, grid), grid


def test_chart_flat_identity_values():
    chart, grid = flat_chart()
    assert chart.center_index == CENTER
    assert chart.r0 == pytest.approx(0.25, abs=1e-15)
    assert chart.radius == pytest.approx(0.5, abs=1e-15)
    # identity pair: lam_min / trace = 1/2, so the fraction is (n-1)/8
    assert chart.positivity_fraction == pytest.approx(0.125, abs=1e-14)
    assert chart.depth_cap == pytest.approx(0.03125, abs=1e-14)
    assert chart.metric_margin == pytest.approx(0.5, abs=1e-14)
    assert chart.estimate_trivial
    assert chart.num_interior == 20161
    assert np.all(chart.dist_sq[chart.mask] < chart.radius**2)
    assert chart.ring.sum() > 0
    assert np.all(chart.mask[chart.ring])
    # every ring point touches the exterior through one axis shift
    assert np.all(chart.dist_sq[chart.ring] >= (chart.radius - 2 * grid.h) ** 2)


def test_chart_center_tie_takes_lowest_flat_index():
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    chart = build_chart(np.zeros(grid.shape), g, g, grid)
    assert chart.center_index == (0, 0, 0, 0)


def test_chart_failure_on_rough_metric():
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = 2.5 * identity_metric(grid)
    with pytest.raises(ChartFailureError):
        build_chart(np.zeros(grid.shape), g, g, grid)


def test_chart_failure_on_coarse_grid():
    # N = 12 cannot host the minimum of four grid spacings at radius L/4
    grid = TorusGrid(n=2, N=12, L=1.0)
    g = identity_metric(grid)
    with pytest.raises(ChartFailureError):
        build_chart(np.zeros(grid.shape), g, g, grid)


def test_chart_degenerate_reference_rejected():
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    g_h = identity_metric(grid)
    g_h[..., 1, 1] = 0.0
    with pytest.raises(MetricDegeneracyError):
        build_chart(np.zeros(grid.shape), g, g_h, grid)


def test_chart_trivial_flag_tracks_depth():
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    phi = grid.distance_sq(CENTER) - 3.0
    chart = build_chart(phi, g, g, grid)
    assert not chart.estimate_trivial


def test_tilted_potential_structure():
    chart, grid = flat_chart()
    phi = 0.01 * grid.distance_sq(CENTER)
    s = 0.5 * chart.depth_cap
    w, sublevel = tilted_potential(phi, chart, s)
    assert w[chart.center_index] == pytest.approx(-s, abs=1e-15)
    assert sublevel.sum() > 0
    assert np.all(chart.mask[sublevel])
    # sublevel set stays away from the chart boundary ring
    assert not np.any(sublevel & chart.ring)
    # rigorous ring bound: ring points sit at distance >= radius - 2h and
    # the total quadratic weight here is the chart fraction plus the 0.01
    # curvature of phi itself
    q = chart.positivity_fraction + 0.01
    bound = q * (chart.radius - 2.0 * grid.h) ** 2 - s
    assert w[chart.ring].min() >= bound - 1e-12
    for bad in (0.0, -1.0, chart.depth_cap, 2.0 * chart.depth_cap):
        with pytest.raises(ValueError):
            tilted_potential(phi, chart, bad)


def test_smooth_hinge_frozen_values():
    assert smooth_hinge(0.5, 10) == pytest.approx(0.6, abs=1e-15)
    assert smooth_hinge(-1.0, 10) == pytest.approx(0.05, abs=1e-15)
    assert smooth_hinge(-0.05, 10) == pytest.approx(0.0625, abs=1e-15)
    assert smooth_hinge(0.0, 10) == pytest.approx(0.1, abs=1e-15)
    assert smooth_hinge(-0.1, 10) == pytest.approx(0.05, abs=1e-15)


def test_smooth_hinge_bracket_and_monotone():
    x = np.linspace(-1.0, 1.0, 2001)
    for k in (1, 10, 100):
        tau = smooth_hinge(x, k)
        lower = np.maximum(x, 0.0) + 1.0 / (2.0 * k)
        upper = np.maximum(x, 0.0) + 1.0 / k
        assert np.all(tau >= lower - 1e-15)
        assert np.all(tau <= upper + 1e-15)
        assert np.all(np.diff(tau) >= -1e-15)


def test_smooth_hinge_joints_are_c1():
    k = 10
    eps = 1e-7
    for joint in (0.0, -1.0 / k):
        left = (smooth_hinge(joint, k) - smooth_hinge(joint - eps, k)) / eps
        right = (smooth_hinge(joint + eps, k) - smooth_hinge(joint, k)) / eps
        assert smooth_hinge(joint + eps, k) - smooth_hinge(joint - eps, k) <= 2 * eps
        assert abs(left - right) <= 1e-5


def test_smooth_hinge_rejects_bad_index():
    with pytest.raises(ValueError):
        smooth_hinge(0.1, 0)
    with pytest.raises(ValueError):
        smooth_hinge(0.1, 2.5)


def test_hinge_mass_bracket():
    chart, grid = flat_chart()
    s = 0.5 * chart.depth_cap
    w = chart.positivity_fraction * chart.dist_sq - s
    F = np.zeros(grid.shape)
    k = 10
    mass = hinge_mass(w, F, k, chart)
    neg_part = np.maximum(-w[chart.mask], 0.0)
    base = float(np.sum(neg_part) * grid.cell_volume)
    vol = chart.num_interior * grid.cell_volume
    assert base + vol / (2.0 * k) <= mass <= base + vol / k
    # smoothing tail shrinks with k, the limit is the sharp negative part
    gaps = [hinge_mass(w, F, kk, chart) - base for kk in (10, 40, 160)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_hinge_mass_radial_bucket_reassembly():
    # the integrand is radial: regrouping the sum by distance shells must
    # reproduce the mass to roundoff
    chart, grid = flat_chart()
    s = 0.75 * chart.depth_cap
    w = chart.positivity_fraction * chart.dist_sq - s
    k = 10
    mass = hinge_mass(w, np.zeros(grid.shape), k, chart)
    t = chart.dist_sq[chart.mask]
    shells, counts = np.unique(np.round(t / grid.h**2).astype(np.int64), return_counts=True)
    tau = smooth_hinge(-(chart.positivity_fraction * shells * grid.h**2 - s), k)
    regrouped = float(np.sum(counts * tau) * grid.cell_volume)
    assert abs(regrouped - mass) <= 1e-10 * mass


def test_hinge_mass_matches_continuum_quadrature():
    chart, grid = flat_chart()
    s = 0.5 * chart.depth_cap
    pf = chart.positivity_fraction
    w = pf * chart.dist_sq - s
    k = 10
    mass = hinge_mass(w, np.zeros(grid.shape), k, chart)
    R = chart.radius
    # 4d radial volume element: 2 pi^2 r^3 dr
    integrand = lambda r: 2.0 * math.pi**2 * r**3 * smooth_hinge(s - pf * r * r, k)
    continuum, _ = quad(integrand, 0.0, R, limit=200)
    assert abs(mass - continuum) <= 20.0 * grid.h**2


def test_dirichlet_solve_constant_rhs_closed_form():
    chart, grid = flat_chart()
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (chart.num_interior * grid.cell_volume)
    sol = solve_dirichlet_ma(chart, rhs)
    R = chart.radius
    a = math.sqrt(rhs[chart.mask][0])
    exact = a * (chart.dist_sq - R * R)
    err = np.abs(sol.psi - exact)[chart.mask].max()
    assert err <= 10.0 * grid.h**2
    assert sol.residual_sup <= 1e-10
    assert abs(sol.mass - 1.0) <= 1e-8
    assert sol.min_eigenvalue > 0.0
    assert sol.iterations <= 10
    # solution is a nonpositive potential vanishing toward the boundary
    assert sol.psi[chart.mask].max() <= 1e-12
    assert sol.psi[chart.center_index] == pytest.approx(-a * R * R, abs=10.0 * grid.h**2)
    assert np.abs(sol.psi[chart.ring]).max() <= 3.0 * a * R * grid.h


def test_dirichlet_solve_radial_oracle():
    chart, grid = flat_chart()
    R = chart.radius
    T = R * R

    def raw(t):
        return 1.0 + 4.0 * np.asarray(t)

    raw_field = np.zeros(grid.shape)
    raw_field[chart.mask] = raw(chart.dist_sq[chart.mask])
    norm = float(np.sum(raw_field[chart.mask]) * grid.cell_volume)
    rhs = raw_field / norm
    t_nodes, v, _ = radial_profile(lambda t: raw(t) / norm, T, grid.n)
    oracle = radial_field(grid, chart.center_index, t_nodes, v)
    sol = solve_dirichlet_ma(chart, rhs)
    err = np.abs(sol.psi - oracle)[chart.mask].max()
    assert err <= 10.0 * grid.h**2


def test_dirichlet_solve_input_validation():
    chart, grid = flat_chart()
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (chart.num_interior * grid.cell_volume)
    bad = rhs.copy()
    bad[chart.center_index] = -bad[chart.center_index]
    with pytest.raises(InconsistentInputError):
        solve_dirichlet_ma(chart, bad)
    with pytest.raises(InconsistentInputError):
        solve_dirichlet_ma(chart, 1.5 * rhs)
    with pytest.raises(InconsistentInputError):
        solve_dirichlet_ma(chart, np.ones((4, 4)))


def test_comparison_scale_frozen_values():
    assert comparison_scale(1.0, 1.0, 2) == pytest.approx((9.0 / 16.0) ** (1.0 / 3.0), rel=1e-14)
    assert comparison_scale(1.0, 0.25, 2) == pytest.approx((9.0 / 4.0) ** (1.0 / 3.0), rel=1e-14)
    # homogeneity degree 1/(n+1) in the mass
    for n in (2, 3, 4):
        one = comparison_scale(1.0, 0.3, n)
        two = comparison_scale(2.0, 0.3, n)
        assert two / one == pytest.approx(2.0 ** (1.0 / (n + 1.0)), rel=1e-13)


def test_comparison_scale_inversion():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        gamma = float(rng.uniform(0.01, 1.0))
        eps = float(rng.uniform(0.1, 10.0))
        mass = eps ** (n + 1.0) * gamma * float(n) ** (2 * n) / (n + 1.0) ** n
        assert comparison_scale(mass, gamma, n) == pytest.approx(eps, rel=1e-12)


def test_comparison_scale_rejects_bad_arguments():
    with pytest.raises(ValueError):
        comparison_scale(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        comparison_scale(1.0, -1.0, 2)
    with pytest.raises(ValueError):
        comparison_scale(1.0, 1.0, 1)


def test_check_comparison_sign_structure():
    chart, grid = flat_chart()
    w = chart.positivity_fraction * chart.dist_sq + 0.01
    psi = -(chart.radius**2 - chart.dist_sq)
    report = check_comparison(w, psi, 0.5, chart, sublevel=np.zeros(grid.shape, bool))
    # nonnegative w makes the test function nonpositive everywhere
    assert report.max_phi <= 0.0
    assert report.passed
    assert chart.mask[report.location]
    assert report.argmax_in_sublevel is False
    assert set(report.quantiles) == {"min", "q25", "median", "q75", "max"}
    assert report.quantiles["min"] <= report.quantiles["median"] <= report.max_phi
    payload = report.to_dict()
    assert payload["pass"] is True
    assert payload["residuals"]["solver_sup"] is None


def test_tight_fixture_margins():
    grid = TorusGrid(n=2, N=16, L=1.0)
    fixture = tight_comparison_fixture(monge_ampere(2), grid, k=10, tightness=0.9)
    assert fixture.alpha == pytest.approx(0.5003, abs=2e-3)
    assert fixture.epsilon == pytest.approx(0.5445, abs=2e-3)
    assert fixture.epsilon > fixture.alpha
    full = check_comparison(fixture.w, fixture.psi, fixture.epsilon, fixture.chart)
    assert full.passed
    assert full.max_phi <= 0.0
    halved = check_comparison(fixture.w, fixture.psi, 0.5 * fixture.epsilon, fixture.chart)
    assert not halved.passed
    assert halved.max_phi > 0.1


def test_run_localization_trivial_instance():
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    problem = PrimaryProblem(
        spec=monge_ampere(2), g=g, g_h=g, F=np.zeros(grid.shape), grid=grid
    )
    solution = solve_primary(problem)
    report = run_localization(solution, problem, s_fractions=(0.5,), k_list=(10,))
    assert report.depth == 0.0
    assert report.estimate_trivial
    assert report.all_passed
    assert len(report.reports) == 1
    cell = report.reports[0]
    assert cell.passed and cell.error is None
    assert cell.mass_error <= 1e-8
    assert abs(cell.epsilon - comparison_scale(cell.mass, 0.25, 2)) <= 1e-13
    payload = report.to_dict()
    assert payload["depth"] == 0.0
    assert len(payload["reports"]) == 1
    assert payload["all_passed"] is True


def test_run_localization_captures_cell_errors():
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    problem = PrimaryProblem(
        spec=monge_ampere(2), g=g, g_h=g, F=np.zeros(grid.shape), grid=grid
    )
    solution = solve_primary(problem)
    report = run_localization(solution, problem, s_fractions=(0.5,), k_list=(7.5,))
    assert not report.all_passed
    cell = report.reports[0]
    assert not cell.passed
    assert "smoothing index" in cell.error


def test_dirichlet_solve_checks_the_last_allowed_step():
    # the flat constant-rhs solve converges in three steps, so a budget of
    # three steps must return it rather than report non-convergence
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    chart = build_chart(np.zeros(grid.shape), g, g, grid)
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (chart.num_interior * grid.cell_volume)
    sol = solve_dirichlet_ma(chart, rhs, max_iterations=3)
    assert sol.iterations == 3
    assert sol.residual_sup <= 1e-10
    assert len(sol.residual_history) == len(sol.clamp_history) == 4
