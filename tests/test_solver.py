"""Damped Newton solver for the periodic potential-and-constant problem."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nformpde import grid as gridmod
from nformpde import hermlin, solver
from nformpde.auxiliary import build_chart
from nformpde.descriptors import ExperimentDescriptor
from nformpde.errors import InfeasibleStartError, MetricDegeneracyError, NonConvergenceError
from nformpde.grid import (
    HermitianPlanes,
    TorusGrid,
    complex_hessian,
    hermitian_planes,
    hermitian_trace,
    identity_metric,
    normalize_sup,
    twisted_metric,
)
from nformpde.manufactured import forcing_from_hessian, trig_hessian, trig_potential
from nformpde.solver import (
    MIN_STEP,
    NewtonRecord,
    PrimaryProblem,
    _newton_step,
    damped_newton,
    l1_bound_check,
    residual,
    solve_primary,
)
from nformpde.symfun import combine, hessian, monge_ampere
from test_grid import differing_bytes
from test_hermlin import full_planes


def manufactured_problem(grid, spec=None, b_true=0.3):
    spec = spec or monge_ampere(grid.n)
    g = identity_metric(grid)
    g_h = identity_metric(grid)
    phi_h = trig_hessian(grid)
    F = forcing_from_hessian(spec, g, g_h, phi_h, b=b_true)
    return PrimaryProblem(spec=spec, g=g, g_h=g_h, F=F, grid=grid), b_true


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field", ["metric", "reference metric", "complex Hessian"])
def test_forcing_checks_each_field_hermitian(n, field):
    # at every n, each field is checked where it enters; one point of one
    # field off by 0.01 in its [1, 0] entry is refused
    spec = monge_ampere(n)
    parts = {"metric": np.eye(n, dtype=complex) * np.ones((5, 1, 1)),
             "reference metric": np.eye(n, dtype=complex) * np.ones((5, 1, 1)),
             "complex Hessian": np.zeros((5, n, n), dtype=complex)}
    assert np.all(np.isfinite(forcing_from_hessian(spec, *parts.values())))
    parts[field][3, 1, 0] += 0.01
    if field == "complex Hessian":
        error, message = ValueError, "complex Hessian must be Hermitian"
    else:
        error, message = MetricDegeneracyError, f"^{field} is not Hermitian"
    with pytest.raises(error, match=message):
        forcing_from_hessian(spec, *parts.values())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_forcing_refuses_a_hessian_that_is_not_finite(n, value):
    # finiteness is checked before the Hermitian test, whose subtraction
    # would warn on inf and whose comparison fails on nan
    spec = monge_ampere(n)
    g = np.eye(n, dtype=complex) * np.ones((5, 1, 1))
    phi_h = np.zeros((5, n, n), dtype=complex)
    phi_h[3, 1, 0] = value
    with pytest.raises(ValueError, match="complex Hessian is not finite"):
        forcing_from_hessian(spec, g, g, phi_h)


def test_forcing_takes_hessian_planes_at_n2():
    # planes are Hermitian by construction: no Hermitian test, the same
    # forcing as the complex field they are the planes of, and finiteness
    # still checked
    grid = TorusGrid(n=2, N=8, L=1.0)
    spec = monge_ampere(2)
    g = identity_metric(grid)
    H = complex_hessian(0.01 * normalize_sup(trig_potential(grid)), grid)
    assert isinstance(H, HermitianPlanes)
    F = forcing_from_hessian(spec, g, g, H)
    assert np.array_equal(F, forcing_from_hessian(spec, g, g, H.matrix()))
    H.h11[1, 2, 3, 4] = np.inf
    with pytest.raises(ValueError, match="complex Hessian is not finite"):
        forcing_from_hessian(spec, g, g, H)


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
    # the Newton record of damped_newton
    assert sol.iterations == len(sol.residual_history) - 1
    assert sol.residual_sup == sol.residual_history[-1]
    assert len(sol.krylov_iterations) == sol.iterations


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


def test_built_problem_solves_with_no_hermitian_check(monkeypatch):
    # g and g_h are checked once, when the problem is built; the n = 2 solve
    # and its L1 check then run on planes that are Hermitian by construction
    grid = TorusGrid(n=2, N=12, L=1.0)
    k = 2.0 * math.pi / grid.L
    g = identity_metric(grid)
    g_h = identity_metric(grid)
    g_h[..., 0, 1] += 0.1 * (np.cos(k * grid.axis_coordinates(0))
                             + 1j * np.sin(k * grid.axis_coordinates(1)))
    g_h[..., 1, 0] = np.conj(g_h[..., 0, 1])
    problem = PrimaryProblem(spec=monge_ampere(2), g=g, g_h=g_h, F=np.zeros(grid.shape),
                             grid=grid)
    checks = []
    is_hermitian = hermlin.is_hermitian

    def counting(a, tol=1e-12):
        checks.append(np.shape(a))
        return is_hermitian(a, tol)

    monkeypatch.setattr(hermlin, "is_hermitian", counting)
    sol = solve_primary(problem)
    report = l1_bound_check(sol.phi, problem.metric, problem.reference_metric, grid,
                            g_inv=problem.g_inv)
    assert sol.iterations > 0 and report.passed
    assert checks == []


def test_n2_run_never_reaches_the_general_path(monkeypatch):
    # a complex n = 2 field is read as planes where it enters, so building
    # the problem, the forcing, the solve, the L1 check given the complex
    # problem.g (as the benchmark calls it) and a chart on the problem's
    # fields (N = 16 hosts one) run no np.linalg kernel; every Hessian is
    # planes, and no complex field is written back from planes but the
    # frozen 2 x 2 mean of the Newton coefficients
    grid = TorusGrid(n=2, N=16, L=1.0)
    k = 2.0 * math.pi / grid.L
    bump = 0.2 * np.cos(k * grid.axis_coordinates(0)) * np.cos(k * grid.axis_coordinates(1))
    g = identity_metric(grid) * (1.0 + bump)[..., None, None]
    calls = []
    for name in ("eigvalsh", "eigh", "inv", "det", "cholesky"):
        def counting(*args, _name=name, _kernel=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    written = []
    matrix = HermitianPlanes.matrix

    def writing(planes):
        written.append(np.shape(planes.h00))
        return matrix(planes)

    monkeypatch.setattr(HermitianPlanes, "matrix", writing)
    hessians = []
    hessian = gridmod.complex_hessian

    def typed(*args, **kwargs):
        H = hessian(*args, **kwargs)
        hessians.append(type(H))
        return H

    monkeypatch.setattr(gridmod, "complex_hessian", typed)
    problem = PrimaryProblem(spec=monge_ampere(2), g=g, g_h=g, F=np.zeros(grid.shape),
                             grid=grid)
    problem.F = forcing_from_hessian(problem.spec, problem.g, problem.g_h, trig_hessian(grid))
    sol = solve_primary(problem)
    report = l1_bound_check(sol.phi, problem.g, problem.g_h, grid)
    chart = build_chart(sol.phi, problem.metric, problem.reference_metric, grid)
    assert sol.iterations > 0 and report.passed and chart.num_interior > 0
    assert calls == []
    assert hessians and set(hessians) == {HermitianPlanes}
    assert written and set(written) == {()}


def test_identity_metric_problem_holds_four_numbers():
    # a constant metric enters as 0-d planes, and g^-1 as four numbers, so no
    # Newton step streams a constant field
    grid = TorusGrid(n=2, N=8, L=1.0)
    for shared in (True, False):
        g = identity_metric(grid)
        problem = PrimaryProblem(spec=monge_ampere(2), g=g, g_h=g if shared else g.copy(),
                                 F=np.zeros(grid.shape), grid=grid)
        for field in (problem.metric, problem.reference_metric, problem.g_inv):
            assert isinstance(field, HermitianPlanes)
            assert [np.ndim(p) for p in field] == [0, 0, 0, 0]
        assert [float(p) for p in problem.g_inv] == [1.0, 1.0, 0.0, 0.0]


def test_constant_metric_solve_and_chart_match_full_planes():
    # the solve and the chart on a constant non-identity metric's 0-d planes
    # against the same problem with the planes written out at every point
    grid = TorusGrid(n=2, N=16, L=1.0)
    spec = monge_ampere(2)
    ones = np.ones(grid.shape + (1, 1))
    g = ones * np.array([[1.2, 0.1 + 0.2j], [0.1 - 0.2j, 0.9]])
    g_h = ones * np.array([[1.0, -0.05j], [0.05j, 1.1]])
    F = forcing_from_hessian(spec, g, g_h, trig_hessian(grid), b=0.1)
    constant = PrimaryProblem(spec=spec, g=g, g_h=g_h, F=F, grid=grid)
    full = PrimaryProblem(spec=spec, g=g, g_h=g_h, F=F, grid=grid)
    for name in ("metric", "reference_metric", "g_inv"):
        assert all(np.ndim(p) == 0 for p in getattr(constant, name))
        setattr(full, name, full_planes(getattr(full, name), grid.shape))
    sol, ref = solve_primary(constant), solve_primary(full)
    assert sol.iterations > 0
    assert differing_bytes(sol.phi, ref.phi) == 0 and sol.b == ref.b
    assert NewtonRecord(sol.residual_history, sol.line_search_trials, sol.krylov_iterations) \
        == NewtonRecord(ref.residual_history, ref.line_search_trials, ref.krylov_iterations)
    chart = build_chart(sol.phi, constant.metric, constant.reference_metric, grid)
    ref_chart = build_chart(ref.phi, full.metric, full.reference_metric, grid)
    assert chart.num_interior > 0
    for item in dataclasses.fields(chart):
        a, b = getattr(chart, item.name), getattr(ref_chart, item.name)
        if item.name == "taps":
            assert a.keys() == b.keys()
            assert all(differing_bytes(a[k], b[k]) == 0 for k in a)
        elif item.name == "extend":
            assert all(differing_bytes(getattr(a, k), getattr(b, k)) == 0
                       for k in ("data", "indices", "indptr"))
        elif isinstance(a, np.ndarray):
            assert differing_bytes(a, b) == 0, item.name
        else:
            assert a == b, item.name


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


def test_l1_bound_check_reads_complex_metrics_through_checked_metric():
    # at n = 2 a complex g and g_h enter through checked_metric: the report is
    # the one on the checked planes with their g^-1, field for field, for the
    # identity (0-d planes) and for a banded g_h (full planes)
    desc = ExperimentDescriptor(grid={"N": 10},
                                background_gh={"name": "banded", "params": {"amplitude": 0.3}})
    grid = desc.make_grid()
    g, banded = desc.make_backgrounds(grid)
    phi = trig_potential(grid)
    for g_h in (g, banded):
        metric = hermlin.checked_metric(g)
        reference = metric if g_h is g else hermlin.checked_metric(g_h, "reference metric")
        expected = l1_bound_check(phi, metric, reference, grid,
                                  g_inv=gridmod.hermitian_inverse(metric))
        assert l1_bound_check(phi, g, g_h, grid) == expected


@pytest.mark.parametrize("defect", ["indefinite", "singular", "non-hermitian", "nan"])
def test_l1_bound_check_refuses_a_bad_complex_metric(defect):
    # the L1 premises read traces only: diag(1, -1) passes them with c' = 2,
    # and one NaN makes every figure NaN; so a complex metric is refused where
    # it enters, with checked_metric's message, as g (g_h the same field) and
    # as g_h
    grid = TorusGrid(n=2, N=8, L=1.0)
    bad = identity_metric(grid)
    if defect == "indefinite":
        bad[...] = np.diag([1.0, -1.0])
    elif defect == "singular":
        bad[1, 2, 3, 4] = np.diag([1.0, 0.0])
    elif defect == "non-hermitian":
        bad[1, 2, 3, 4, 0, 1] = 0.5
    else:
        bad[1, 2, 3, 4, 1, 1] = np.nan
    phi = np.zeros(grid.shape)
    for g, g_h, name in ((bad, bad, "metric"),
                         (identity_metric(grid), bad, "reference metric")):
        with pytest.raises(MetricDegeneracyError) as expected:
            hermlin.checked_metric(bad, name)
        with pytest.raises(MetricDegeneracyError, match="^%s$" % re.escape(str(expected.value))):
            l1_bound_check(phi, g, g_h, grid)


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


def _spoil(a, defect):
    """Make one point of a non-Hermitian, indefinite, exactly singular, inf
    or nan."""
    n = a.shape[-1]
    point = a.reshape(-1, n, n)[5]
    if defect == "non-hermitian":
        point[n - 1, 0] += 0.01
    elif defect == "indefinite":
        point[n - 1, n - 1] = -0.5
    elif defect == "singular":
        point[n - 1, n - 1] = 0.0
    else:
        point[0, 0] = {"inf": np.inf, "nan": np.nan}[defect]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field", ["metric", "reference metric"])
@pytest.mark.parametrize("defect, message", [
    ("non-hermitian", "not Hermitian"),
    ("indefinite", "not positive definite"),
    ("singular", "not positive definite"),
    ("inf", "not finite"),
    ("nan", "not finite"),
])
def test_problem_validation_checks_each_metric(n, field, defect, message):
    # n = 2 decides by the closed-form Schur test, n = 3 by LAPACK; either
    # way the error names the field, and a non-finite entry warns nothing
    grid = TorusGrid(n=n, N=8, L=1.0)
    parts = {"metric": identity_metric(grid), "reference metric": identity_metric(grid)}
    _spoil(parts[field], defect)
    with pytest.raises(MetricDegeneracyError, match=f"^{field} is {message}$"):
        PrimaryProblem(spec=monge_ampere(n), g=parts["metric"], g_h=parts["reference metric"],
                       F=np.zeros(grid.shape), grid=grid)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("shared", [True, False])
def test_problem_validation_checks_a_shared_metric_once(monkeypatch, n, shared):
    grid = TorusGrid(n=n, N=8, L=1.0)
    g = identity_metric(grid)
    g_h = g if shared else identity_metric(grid)
    checks = []
    is_hermitian = hermlin.is_hermitian

    def counting(a, tol=1e-12):
        checks.append(np.shape(a))
        return is_hermitian(a, tol)

    monkeypatch.setattr(hermlin, "is_hermitian", counting)
    problem = PrimaryProblem(spec=monge_ampere(n), g=g, g_h=g_h, F=np.zeros(grid.shape),
                             grid=grid)
    assert len(checks) == (1 if shared else 2)
    assert (problem.reference_metric is problem.metric) == shared


@pytest.mark.parametrize("limit, value", [
    ("max_iterations", -1), ("max_iterations", 2.5),
    ("tolerance", np.inf), ("tolerance", np.nan), ("tolerance", 0.0),
])
def test_problem_validation_rejects_bad_limits(limit, value):
    grid = TorusGrid(n=2, N=8, L=1.0)
    g = identity_metric(grid)
    with pytest.raises(ValueError, match=f"^{limit} must be"):
        PrimaryProblem(spec=monge_ampere(2), g=g, g_h=g, F=np.zeros(grid.shape), grid=grid,
                       **{limit: value})


# toy problem for damped_newton: residual r(x) = x, and a Krylov "solve" that
# returns half the Newton direction in 1 / sup(r) operator applications, so
# every full step halves the residual and doubles the step's matvecs
def toy_evaluate(x, direction, t):
    trial = x + t * direction
    return trial, trial, None


def toy_step(state, r, rtol):
    return -0.5 * r, 0, round(1.0 / np.max(np.abs(r)))


def test_damped_newton_converges_on_last_allowed_step():
    start = toy_evaluate(np.array([1.0]), np.zeros(1), 0.0)
    x, state, record = damped_newton(
        start, toy_evaluate, toy_step, tolerance=0.125, max_iterations=3)
    assert x[0] == 0.125 and state is None
    assert record == NewtonRecord([1.0, 0.5, 0.25, 0.125], [1, 1, 1], [1, 2, 4])
    assert record.iterations == 3 and record.residual_sup == 0.125
    assert record.residual_evaluations == 4
    # a start already within tolerance takes no step
    x, _, record = damped_newton(start, toy_evaluate, toy_step, tolerance=1.0,
                                 max_iterations=0)
    assert x[0] == 1.0 and record == NewtonRecord([1.0], [], [])
    assert record.iterations == 0 and record.residual_sup == 1.0


def test_damped_newton_budget_error_carries_full_history():
    start = toy_evaluate(np.array([1.0]), np.zeros(1), 0.0)
    with pytest.raises(NonConvergenceError, match="no convergence in 2 iterations") as err:
        damped_newton(start, toy_evaluate, toy_step, tolerance=0.125, max_iterations=2)
    assert err.value.history == [1.0, 0.5, 0.25]


def test_damped_newton_forcing_term_and_krylov_failure():
    # scripted sups of the quadratic Newton map x -> 1e-3 x^2, so each branch
    # of the forcing term binds once: the 1e-2 cap on the first step, the
    # ratio term 0.9 (sup / sup_prev)^2, the 1e-10 floor, and the
    # 0.1 tolerance / sup guard against over-solving the last step
    sups = [1.0, 1e-3, 1e-9, 1e-21]
    rtols = []

    def evaluate(k, direction, t):
        return k + 1, np.array([-sups[k + 1]]), None

    def step(state, r, rtol):
        rtols.append(rtol)
        return None, 0 if len(rtols) < 4 else 7, 1

    with pytest.raises(NonConvergenceError, match="info=7") as err:
        damped_newton((0, np.array([sups[0]]), None), evaluate, step, tolerance=1e-24,
                      max_iterations=10)
    assert rtols == pytest.approx([1e-2, 0.9e-6, 1e-10, 1e-4], rel=1e-12)
    assert rtols[0] == 1e-2 and rtols[2] == 1e-10
    assert err.value.history == sups


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_damped_newton_refuses_a_start_that_is_not_finite(bad):
    # a NaN sup is not above the tolerance, so without the check a NaN start
    # came back converged after no step
    start = toy_evaluate(np.array([1.0, bad]), np.zeros(2), 0.0)
    with pytest.raises(NonConvergenceError, match="start residual is not finite") as err:
        damped_newton(start, toy_evaluate, toy_step, tolerance=1e-9, max_iterations=5)
    assert np.array_equal(err.value.history, [bad], equal_nan=True)


@pytest.mark.parametrize("trial_sup", [None, 1.0])
def test_damped_newton_line_search_stalls_below_min_step(trial_sup):
    # an always infeasible trial, or one whose residual never decreases
    steps = []

    def evaluate(x, direction, t):
        steps.append(t)
        return None if trial_sup is None else (x, np.array([trial_sup]), None)

    start = toy_evaluate(np.array([1.0]), np.zeros(1), 0.0)
    with pytest.raises(NonConvergenceError, match="line search stalled") as err:
        damped_newton(start, evaluate, toy_step, tolerance=1e-9, max_iterations=5)
    assert steps == [2.0**-j for j in range(21)]
    assert steps[-1] == MIN_STEP
    assert err.value.history == [1.0]


# the bordered Newton system on a small grid, with coefficient fields built
# from a hypothesis-drawn seed
STEP_GRID = TorusGrid(n=2, N=8, L=1.0)


def step_problem(grid=STEP_GRID):
    g = identity_metric(grid)
    return PrimaryProblem(spec=monge_ampere(grid.n), g=g, g_h=g, F=np.zeros(grid.shape),
                          grid=grid)


def random_hermitian(shape, rng):
    A = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    return 0.5 * (A + np.conj(np.swapaxes(A, -1, -2)))


def scalar_multiple_coefficients(grid, rng):
    """c(x) T0: c = exp(0.5 normal) and T0 random positive definite, a complex field."""
    n = grid.n
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    T0 = A @ A.conj().T + 0.1 * np.eye(n)
    return np.exp(0.5 * rng.normal(size=grid.shape))[..., None, None] * T0


def bordered_residual(coeff, r, step, grid=STEP_GRID):
    dphi, db = step
    top = hermitian_trace(coeff, complex_hessian(dphi, grid)) - db + r
    residual = np.concatenate([top.reshape(-1), [dphi.mean()]])
    return float(np.linalg.norm(residual) / np.linalg.norm(r))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rtol=st.sampled_from([1e-10, 1e-6, 1e-2]))
def test_newton_step_constant_coefficients_is_one_preconditioner_solve(seed, rtol):
    # the preconditioner is the exact inverse of a constant-coefficient system
    rng = np.random.default_rng(seed)
    T = random_hermitian((), rng)
    T = T @ T + 0.1 * np.eye(2)
    coeff = hermitian_planes(np.broadcast_to(T, STEP_GRID.shape + (2, 2)))
    r = rng.normal(size=STEP_GRID.shape)
    step, info, matvecs = _newton_step(step_problem(), coeff, r, rtol)
    assert info == 0 and matvecs <= 2
    assert bordered_residual(coeff, r, step) <= 1e-11
    assert step[0].mean() == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rtol=st.sampled_from([1e-10, 1e-6, 1e-2]))
def test_newton_step_scalar_multiple_coefficients_is_one_preconditioner_solve(seed, rtol):
    # tr(c T0 H(u)) = c tr(T0 H(u)): the trace-scaled preconditioner is its
    # exact inverse, however much the scalar c varies
    rng = np.random.default_rng(seed)
    coeff = hermitian_planes(scalar_multiple_coefficients(STEP_GRID, rng))
    r = rng.normal(size=STEP_GRID.shape)
    step, info, matvecs = _newton_step(step_problem(), coeff, r, rtol)
    assert info == 0 and matvecs <= 2
    assert bordered_residual(coeff, r, step) <= 1e-11
    assert step[0].mean() == pytest.approx(0.0, abs=1e-15)


def test_newton_step_scalar_multiple_coefficients_is_exact_at_n3():
    # the complex-field path: t is the real trace of the (..., 3, 3) coefficient
    grid = TorusGrid(n=3, N=8, L=1.0)
    rng = np.random.default_rng(3)
    coeff = scalar_multiple_coefficients(grid, rng)
    r = rng.normal(size=grid.shape)
    step, info, matvecs = _newton_step(step_problem(grid), coeff, r, 1e-6)
    assert info == 0 and matvecs <= 2
    assert bordered_residual(coeff, r, step, grid) <= 1e-11


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
    coeff = hermitian_planes(T + P)
    r = rng.normal(size=STEP_GRID.shape)
    step, info, matvecs = _newton_step(step_problem(), coeff, r, rtol)
    assert info == 0 and matvecs >= 1
    assert bordered_residual(coeff, r, step) <= rtol


def test_line_search_rejects_trials_that_leave_the_cone(monkeypatch):
    # a deep gaussian well sends full Newton steps out of the cone: the line
    # search must reject those trials, halve the step and still converge
    desc = ExperimentDescriptor(
        grid={"N": 12}, forcing={"name": "gaussian", "params": {"amplitude": -3.0, "sigma": 0.1}})
    grid = desc.make_grid()
    g, g_h = desc.make_backgrounds(grid)
    problem = PrimaryProblem(spec=desc.make_operator(), g=g, g_h=g_h,
                             F=desc.make_forcing(grid), grid=grid)
    outside = []
    evaluate_iterate = solver._evaluate_iterate

    def counting(problem, phi):
        log_f, margin = evaluate_iterate(problem, phi)
        outside.append(log_f is None)
        return log_f, margin

    monkeypatch.setattr(solver, "_evaluate_iterate", counting)
    sol = solve_primary(problem)
    assert sum(outside) == 3
    assert sol.iterations == 6
    assert sol.residual_sup <= problem.tolerance
    # one evaluation starts the iteration, each other one is a line-search trial
    assert len(sol.line_search_trials) == sol.iterations
    assert sum(sol.line_search_trials) == len(outside) - 1
    assert sol.residual_evaluations == len(outside)
