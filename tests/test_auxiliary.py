"""Chart extraction, tilted fields, hinge mass, and the Dirichlet comparison."""

import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nformpde import auxiliary, schemas
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
from nformpde.grid import (
    HermitianPlanes,
    TorusGrid,
    complex_hessian,
    hermitian_trace,
    identity_metric,
    stencil_offsets,
)
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


@pytest.mark.parametrize("center", [CENTER, (0, 0, 0, 0)])
def test_chart_stencil_geometry(center):
    # the ghost set is the ball's stencil dilation minus the ball
    chart, grid = flat_chart(center=center)
    assert chart.center_index == center
    dilated = chart.mask.copy()
    for off in stencil_offsets(grid.n):
        dilated |= np.roll(chart.mask, off, axis=tuple(range(2 * grid.n)))
    ghost = np.flatnonzero(dilated & ~chart.mask)
    assert chart.ghost_flat.dtype == ghost.dtype and np.array_equal(chart.ghost_flat, ghost)
    # the ball's Hessian read through its tap table is the grid Hessian
    # restricted to the ball; centred at index 0 the ball wraps the torus
    field = np.random.default_rng(7).normal(size=grid.shape)
    at_ball = complex_hessian(field, grid, chart.taps)
    restricted = [p[chart.mask] for p in complex_hessian(field, grid)]
    for p, q in zip(at_ball, restricted):
        assert np.array_equal(p.view(np.uint8), q.view(np.uint8))


# no shrinking: the fields are drawn from the seed, and a seed does not shrink
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), center=st.tuples(*[st.integers(0, 15)] * 4))
# both eigenvalues clamped at a point: einsum's inv_10 is conj(inv_01) only to
# 1e8 * eps, and that defect times a large |H_01| exceeded 1e-14 of the scale
@example(seed=133066385, center=(14, 2, 15, 8))
def test_chart_matvec_on_planes_matches_the_complex_einsum(seed, center):
    # a chart Newton step's operator, tr(inv H(d)) on planes with the step's
    # clamped inverse, against the complex einsum statement of the same
    # trace, to 1e-14 of sum |inv_ij H_ji| at each ball point
    chart, grid = flat_chart(center=center)
    rng = np.random.default_rng(seed)
    noise = 10.0 ** rng.uniform(-4.0, 0.0)
    psi = grid.distance_sq(center) + noise * rng.normal(size=grid.shape)
    H = complex_hessian(psi, grid, chart.taps)
    eigs, frames = np.linalg.eigh(H.matrix())
    inv = auxiliary._clamped_inverse(eigs, frames)
    assert isinstance(inv, HermitianPlanes)
    assert all(p.flags.c_contiguous and p.shape == (chart.num_interior,) for p in inv)
    reference = np.einsum("pik,pk,pjk->pij", frames,
                          1.0 / np.maximum(eigs, auxiliary.EIG_FLOOR), frames.conj())
    # the planes hold the upper entry: the Hermitian field they are is the
    # reference with inv_10 = conj(inv_01), not einsum's rounded inv_10
    reference[:, 1, 0] = reference[:, 0, 1].conj()
    dH = complex_hessian(rng.normal(size=grid.shape), grid, chart.taps)
    value = hermitian_trace(inv, dH)
    expected = np.einsum("pij,pji->p", reference, dH.matrix()).real
    scale = np.abs(np.einsum("pij,pji->pij", reference, dH.matrix())).sum(axis=(-2, -1))
    assert np.all(np.abs(value - expected) <= 1e-14 * scale)


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
    w = tilted_potential(phi, chart, s)
    sublevel = chart.mask & (w < 0.0)
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


@pytest.mark.parametrize("N", [16, 20])
def test_dirichlet_solve_flat_chart_matvec_budget(N):
    # the flat chart's inverse Hessian is nearly a multiple of the identity,
    # so the trace-scaled FFT preconditioner is exact up to the ball
    # boundary here: 21 and 38 matvecs, against 77 and 213 with Jacobi
    chart, grid = flat_chart(N)
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (chart.num_interior * grid.cell_volume)
    sol = solve_dirichlet_ma(chart, rhs)
    assert sol.residual_sup <= 1e-10
    # the Newton record of solver.damped_newton
    assert sol.iterations == len(sol.residual_history) - 1
    assert sol.residual_sup == sol.residual_history[-1]
    assert len(sol.krylov_iterations) == sol.iterations
    assert min(sol.krylov_iterations) >= 1
    assert sum(sol.krylov_iterations) <= 40


def test_dirichlet_solve_reports_its_trials_and_residual_evaluations(monkeypatch):
    # every residual evaluation takes one eigendecomposition of the ball Hessian
    chart, grid = flat_chart()
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (chart.num_interior * grid.cell_volume)
    eigh = np.linalg.eigh
    calls = []

    def counting(a):
        calls.append(1)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    sol = solve_dirichlet_ma(chart, rhs)
    assert sol.residual_evaluations == len(calls)
    assert len(sol.line_search_trials) == sol.iterations
    assert sol.residual_evaluations == 1 + sum(sol.line_search_trials)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dirichlet_solve_refuses_a_density_that_is_not_finite(bad):
    # NaN <= 0 and a NaN mass defect > MASS_TOL are both False: unrefused, a
    # NaN density came back as a converged solve with NaN mass
    chart, grid = flat_chart()
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (chart.num_interior * grid.cell_volume)
    rhs[chart.center_index] = bad
    with pytest.raises(InconsistentInputError, match="must be finite and positive"):
        solve_dirichlet_ma(chart, rhs)


def test_hinge_mass_that_overflows_is_refused():
    # exp(n F) overflows at F = 400, n = 2; the mass would be infinite and
    # the normalized density NaN
    chart, grid = flat_chart()
    with pytest.raises(InconsistentInputError, match="hinge mass is not finite"):
        hinge_mass(np.zeros(grid.shape), np.full(grid.shape, 400.0), 10, chart)


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
    verdict = check_comparison(w, psi, 0.5, chart, 10.0)
    # nonnegative w makes the test function nonpositive everywhere
    assert verdict["max_phi"] <= 0.0
    assert verdict["pass"] is True
    assert chart.mask[tuple(verdict["location"])]
    assert verdict["argmax_in_sublevel"] is False
    assert set(verdict["quantiles"]) == {"min", "q25", "median", "q75", "max"}
    assert verdict["quantiles"]["min"] <= verdict["quantiles"]["median"] <= verdict["max_phi"]
    # the verdict keys of a localization.json cell, and only those
    assert set(verdict) == {"epsilon", "max_phi", "location", "tolerance", "pass",
                            "argmax_in_sublevel", "quantiles"}


def test_check_comparison_reads_the_sublevel_from_w():
    chart, grid = flat_chart()
    w = tilted_potential(np.zeros(grid.shape), chart, 0.5 * chart.depth_cap)
    psi = -(chart.radius**2 - chart.dist_sq)
    verdict = check_comparison(w, psi, 0.0, chart, 10.0)
    # at eps = 0 the test function is -w, largest at the center, where w = -s < 0
    assert tuple(verdict["location"]) == chart.center_index
    assert w[chart.center_index] < 0.0
    assert verdict["argmax_in_sublevel"] is True


def test_tight_fixture_margins():
    grid = TorusGrid(n=2, N=16, L=1.0)
    fixture = tight_comparison_fixture(monge_ampere(2), grid)
    assert fixture.alpha == pytest.approx(0.5003, abs=2e-3)
    assert fixture.epsilon == pytest.approx(0.5445, abs=2e-3)
    assert fixture.epsilon > fixture.alpha
    full = check_comparison(fixture.w, fixture.psi, fixture.epsilon, fixture.chart, 10.0)
    assert full["pass"]
    assert full["max_phi"] <= 0.0
    halved = check_comparison(fixture.w, fixture.psi, 0.5 * fixture.epsilon, fixture.chart, 10.0)
    assert not halved["pass"]
    assert halved["max_phi"] > 0.1


def test_n2_fixture_never_reaches_the_general_path(monkeypatch):
    # the fixture's identity metric enters as planes, so its chart and volume
    # density run the closed forms; the only np.linalg kernel left is the
    # chart residual's eigh, one per residual evaluation
    calls = []
    for name in ("eigvalsh", "eigh", "inv", "det", "cholesky"):
        def counting(*args, _name=name, _kernel=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    solutions = []

    def solving(*args):
        solutions.append(solve_dirichlet_ma(*args))
        return solutions[-1]

    monkeypatch.setattr(auxiliary, "solve_dirichlet_ma", solving)
    fixture = tight_comparison_fixture(monge_ampere(2), TorusGrid(n=2, N=16, L=1.0))
    assert fixture.chart.num_interior > 0 and len(solutions) == 1
    assert calls == ["eigh"] * solutions[0].residual_evaluations


def test_run_localization_trivial_instance():
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    problem = PrimaryProblem(
        spec=monge_ampere(2), g=g, g_h=g, F=np.zeros(grid.shape), grid=grid
    )
    solution = solve_primary(problem)
    payload = run_localization(solution, problem, s_fractions=(0.5,), k_list=(10,), c_disc=10.0,
                               entropy_exponent=3)
    schemas.validate(payload, schemas.LOCALIZATION_REPORT_SCHEMA)
    assert payload["depth"] == 0.0
    assert payload["estimate_trivial"]
    assert payload["all_passed"] is True
    assert len(payload["reports"]) == 1
    cell = payload["reports"][0]
    assert cell["pass"] and cell["error"] is None
    assert cell["mass_error"] <= 1e-8
    assert abs(cell["epsilon"] - comparison_scale(cell["mass"], 0.25, 2)) <= 1e-13


def test_run_localization_captures_cell_errors():
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    problem = PrimaryProblem(
        spec=monge_ampere(2), g=g, g_h=g, F=np.zeros(grid.shape), grid=grid
    )
    solution = solve_primary(problem)
    payload = run_localization(solution, problem, s_fractions=(0.5,), k_list=(7.5,), c_disc=10.0,
                               entropy_exponent=3)
    assert not payload["all_passed"]
    cell = payload["reports"][0]
    assert cell["pass"] is False
    assert "smoothing index" in cell["error"]
    assert cell["k"] == 7.5 and cell["max_phi"] is None
    assert cell["line_search_trials"] is None and cell["clamp_history"] is None
    assert cell["residuals"] == {"solver_sup": None, "iterations": None,
                                 "krylov_iterations": None}


def test_dirichlet_solve_checks_the_last_allowed_step(monkeypatch):
    # the flat constant-rhs solve converges in three steps, so a budget of
    # three steps must return it rather than report non-convergence
    monkeypatch.setattr(auxiliary, "MAX_ITERATIONS", 3)
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    chart = build_chart(np.zeros(grid.shape), g, g, grid)
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (chart.num_interior * grid.cell_volume)
    sol = solve_dirichlet_ma(chart, rhs)
    assert sol.iterations == 3
    assert sol.residual_sup <= 1e-10
    assert len(sol.residual_history) == len(sol.clamp_history) == 4
