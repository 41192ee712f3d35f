"""Damped Newton solver for the periodic potential-and-constant problem."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nformpde.errors import InfeasibleStartError, NonConvergenceError
from nformpde.grid import (
    TorusGrid,
    complex_hessian,
    identity_metric,
    normalize_sup,
    twisted_metric,
)
from nformpde.manufactured import forcing_from_hessian, trig_hessian, trig_potential
from nformpde.solver import (
    MIN_STEP,
    PrimaryProblem,
    _newton_step,
    apply_trace_reversed_hessian,
    damped_newton,
    l1_bound_check,
    residual,
    solve_primary,
)
from nformpde.symfun import combine, hessian, monge_ampere


def manufactured_problem(grid, spec=None, b_true=0.3):
    spec = spec or monge_ampere(grid.n)
    g = identity_metric(grid)
    g_h = identity_metric(grid)
    phi_h = trig_hessian(grid)
    F = forcing_from_hessian(spec, g, g_h, phi_h, b=b_true)
    return PrimaryProblem(spec=spec, g=g, g_h=g_h, F=F, grid=grid), b_true


def test_zero_forcing_gives_flat_solution():
    grid = TorusGrid(n=2, N=12, L=1.0)
    g = identity_metric(grid)
    problem = PrimaryProblem(
        spec=monge_ampere(2), g=g, g_h=g, F=np.zeros(grid.shape), grid=grid
    )
    sol = solve_primary(problem)
    assert np.abs(sol.phi).max() <= 1e-12
    assert abs(sol.b) <= 1e-12
    assert sol.residual_sup <= problem.tolerance


def test_discrete_forcing_consistency():
    # forcing built from the discrete Hessian makes recovery exact
    grid = TorusGrid(n=2, N=12, L=1.0)
    spec = monge_ampere(2)
    g = identity_metric(grid)
    phi_star = normalize_sup(trig_potential(grid))
    F = forcing_from_hessian(spec, g, g, complex_hessian(phi_star, grid), b=0.3)
    problem = PrimaryProblem(spec=spec, g=g, g_h=g, F=F, grid=grid)
    r = residual(problem, phi_star, 0.3)
    assert np.abs(r).max() <= 1e-13
    sol = solve_primary(problem)
    assert np.abs(sol.phi - phi_star).max() <= 1e-10
    assert abs(sol.b - 0.3) <= 1e-10


def test_manufactured_recovery():
    # analytic-Hessian forcing: error against the closed-form potential
    # is pure discretization, O(h^2); bounds measured at N = 12
    grid = TorusGrid(n=2, N=12, L=1.0)
    problem, b_true = manufactured_problem(grid)
    sol = solve_primary(problem)
    phi_star = normalize_sup(trig_potential(grid))
    assert np.abs(sol.phi - phi_star).max() <= 3e-4
    assert abs(sol.b - b_true) <= 5e-6
    assert sol.residual_sup <= 1e-9
    assert sol.phi.max() == 0.0
    assert len(sol.residual_history) == sol.iterations + 1


def test_hessian_family_and_combination_backgrounds():
    grid = TorusGrid(n=2, N=12, L=1.0)
    k = 2.0 * math.pi / grid.L
    x = [grid.axis_coordinates(a) for a in range(4)]
    bump = 0.2 * np.cos(k * x[0]) * np.cos(k * x[1])
    g = identity_metric(grid) * (1.0 + bump)[..., None, None]
    g_h = identity_metric(grid)
    g_h[..., 0, 1] += 0.1 * (np.cos(k * x[0]) + 1j * np.sin(k * x[1]))
    g_h[..., 1, 0] = np.conj(g_h[..., 0, 1])
    for spec in (hessian(2, 1), combine([monge_ampere(2), hessian(2, 1)], [1.0, 1.0])):
        problem = PrimaryProblem(
            spec=spec, g=g, g_h=g_h, F=np.zeros(grid.shape), grid=grid
        )
        sol = solve_primary(problem)
        assert sol.residual_sup <= problem.tolerance
        assert np.abs(residual(problem, sol.phi, sol.b)).max() <= problem.tolerance
        report = l1_bound_check(sol.phi, g, g_h, grid)
        assert report.passed


def test_solution_satisfies_equation_pointwise():
    grid = TorusGrid(n=2, N=12, L=1.0)
    problem, _ = manufactured_problem(grid)
    sol = solve_primary(problem)
    r = residual(problem, sol.phi, sol.b)
    assert np.abs(r).max() == pytest.approx(sol.residual_sup, rel=1e-12)


def test_infeasible_initial_guess_rejected():
    grid = TorusGrid(n=2, N=12, L=1.0)
    problem, _ = manufactured_problem(grid)
    bad = 5.0 * trig_potential(grid, a=1.0, c=0.0, d=0.0)
    with pytest.raises(InfeasibleStartError):
        solve_primary(problem, initial=bad)


def test_l1_bound_report_flat_case():
    grid = TorusGrid(n=2, N=10, L=1.0)
    g = identity_metric(grid)
    report = l1_bound_check(np.zeros(grid.shape), g, g, grid)
    assert report.c_prime == pytest.approx(2.0, abs=1e-13)
    assert report.laplacian_margin == pytest.approx(2.0, abs=1e-12)
    assert report.rescaled_trace_min == pytest.approx(2.0, abs=1e-12)
    assert report.l1 == pytest.approx(0.0, abs=1e-14)
    assert report.passed


def test_l1_bound_tracks_solution_norm():
    grid = TorusGrid(n=2, N=12, L=1.0)
    problem, _ = manufactured_problem(grid)
    sol = solve_primary(problem)
    report = l1_bound_check(sol.phi, problem.g, problem.g_h, grid)
    assert report.passed
    assert 0.0 < report.l1 <= np.abs(sol.phi).max()


def test_problem_validation():
    grid = TorusGrid(n=2, N=10, L=1.0)
    g = identity_metric(grid)
    with pytest.raises(ValueError):
        PrimaryProblem(spec=monge_ampere(3), g=g, g_h=g, F=np.zeros(grid.shape), grid=grid)
    with pytest.raises(ValueError):
        PrimaryProblem(
            spec=monge_ampere(2), g=g, g_h=g, F=np.full(grid.shape, np.nan), grid=grid
        )


# toy problem for damped_newton: residual r(x) = x, and a Krylov "solve" that
# returns half the Newton direction, so every full step halves the residual
def toy_evaluate(x, direction, t):
    trial = x + t * direction
    return trial, trial, float(np.max(np.abs(trial))), None


def toy_step(state, r, rtol):
    return -0.5 * r, 0


def test_damped_newton_converges_on_last_allowed_step():
    start = toy_evaluate(np.array([1.0]), np.zeros(1), 0.0)
    x, sup, _, iterations, history = damped_newton(
        start, toy_evaluate, toy_step, tolerance=0.125, max_iterations=3)
    assert iterations == 3
    assert sup == 0.125 and x[0] == 0.125
    assert history == [1.0, 0.5, 0.25, 0.125]


def test_damped_newton_budget_error_carries_full_history():
    start = toy_evaluate(np.array([1.0]), np.zeros(1), 0.0)
    with pytest.raises(NonConvergenceError, match="no convergence in 2 iterations") as err:
        damped_newton(start, toy_evaluate, toy_step, tolerance=0.125, max_iterations=2)
    assert err.value.history == [1.0, 0.5, 0.25]


@pytest.mark.parametrize("x0, expected", [
    (0.4, [1e-2, 1e-2, 0.05 * 0.1]),
    (1e-12, [1e-10, 1e-10, 1e-10]),
])
def test_damped_newton_forcing_term_and_krylov_failure(x0, expected):
    rtols = []

    def step(state, r, rtol):
        rtols.append(rtol)
        return -0.5 * r, 0 if len(rtols) < 3 else 7

    start = toy_evaluate(np.array([x0]), np.zeros(1), 0.0)
    with pytest.raises(NonConvergenceError, match="info=7") as err:
        damped_newton(start, toy_evaluate, step, tolerance=1e-15, max_iterations=10)
    assert rtols == expected
    assert err.value.history == [x0, x0 / 2, x0 / 4]


@pytest.mark.parametrize("trial_sup", [None, 1.0])
def test_damped_newton_line_search_stalls_below_min_step(trial_sup):
    # an always infeasible trial, or one whose residual never decreases
    steps = []

    def evaluate(x, direction, t):
        steps.append(t)
        return None if trial_sup is None else (x, x, trial_sup, None)

    start = toy_evaluate(np.array([1.0]), np.zeros(1), 0.0)
    with pytest.raises(NonConvergenceError, match="line search stalled") as err:
        damped_newton(start, evaluate, toy_step, tolerance=1e-9, max_iterations=5)
    assert steps == [2.0**-j for j in range(21)]
    assert steps[-1] == MIN_STEP
    assert err.value.history == [1.0]


# the bordered Newton system on a small grid, with coefficient fields built
# from a hypothesis-drawn seed
STEP_GRID = TorusGrid(n=2, N=8, L=1.0)


def step_problem():
    g = identity_metric(STEP_GRID)
    return PrimaryProblem(spec=monge_ampere(2), g=g, g_h=g, F=np.zeros(STEP_GRID.shape),
                          grid=STEP_GRID)


def random_hermitian(shape, rng):
    A = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    return 0.5 * (A + np.conj(np.swapaxes(A, -1, -2)))


def bordered_residual(coeff, r, step):
    dphi, db = step
    top = apply_trace_reversed_hessian(coeff, dphi, STEP_GRID) - db + r
    residual = np.concatenate([top.reshape(-1), [dphi.mean()]])
    return float(np.linalg.norm(residual) / np.linalg.norm(r))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rtol=st.sampled_from([1e-10, 1e-6, 1e-2]))
def test_newton_step_constant_coefficients_is_one_preconditioner_solve(seed, rtol):
    # the preconditioner is the exact inverse of a constant-coefficient system
    rng = np.random.default_rng(seed)
    T = random_hermitian((), rng)
    T = T @ T + 0.1 * np.eye(2)
    coeff = np.broadcast_to(T, STEP_GRID.shape + (2, 2))
    r = rng.normal(size=STEP_GRID.shape)
    step, info, matvecs = _newton_step(step_problem(), coeff, r, rtol)
    assert info == 0 and matvecs <= 2
    assert bordered_residual(coeff, r, step) <= 1e-11
    assert step[0].mean() == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 0.5),
       rtol=st.sampled_from([1e-10, 1e-6, 1e-2]))
def test_newton_step_meets_rtol_on_perturbed_coefficients(seed, amplitude, rtol):
    rng = np.random.default_rng(seed)
    T = random_hermitian((), rng)
    T = T @ T + 0.1 * np.eye(2)
    P = random_hermitian(STEP_GRID.shape, rng)
    # a perturbation below the smallest eigenvalue of T keeps the field positive definite
    P *= amplitude * np.linalg.eigvalsh(T)[0] / np.linalg.norm(P, ord=2, axis=(-2, -1)).max()
    coeff = T + P
    r = rng.normal(size=STEP_GRID.shape)
    step, info, matvecs = _newton_step(step_problem(), coeff, r, rtol)
    assert info == 0 and matvecs >= 1
    assert bordered_residual(coeff, r, step) <= rtol
