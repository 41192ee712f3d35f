"""Acceptance gate: one numbered check per criterion, one printed line each.

Each test computes its verdict first, prints a single summary line that
survives output capture, then asserts.  Expensive solves are shared through
module-scoped fixtures and re-checked once more at the end by the bound
monitor.
"""

import json
import math
import time

import numpy as np
import pytest

from nformpde.auxiliary import (
    build_chart,
    check_comparison,
    comparison_scale,
    run_localization,
    solve_dirichlet_ma,
    tight_comparison_fixture,
)
from nformpde.cli import EXIT_PASS, cmd_sweep
from nformpde.descriptors import ExperimentDescriptor
from nformpde.grid import (
    TorusGrid,
    complex_hessian,
    identity_metric,
    laplacian,
    normalize_sup,
)
from nformpde.hermlin import (
    checked_metric,
    random_admissible_parts,
    verify_trace_reversal_identities,
)
from nformpde.manufactured import (
    forcing_from_hessian,
    radial_field,
    radial_profile,
    trig_hessian,
    trig_potential,
)
from nformpde.solver import PrimaryProblem, l1_bound_check, solve_primary
from nformpde.symfun import (
    combine,
    evaluate,
    gradient,
    hessian,
    monge_ampere,
    p_monge_ampere,
    sample_cone,
)

SAMPLES = 10**4


def report_line(capsys, index, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print("acceptance %02d %s: %s (%s)" % (index, name, status, detail), flush=True)


def solve_manufactured(N, b_true=0.3):
    grid = TorusGrid(n=2, N=N, L=1.0)
    spec = monge_ampere(2)
    g = identity_metric(grid)
    F = forcing_from_hessian(spec, g, g, trig_hessian(grid), b=b_true)
    problem = PrimaryProblem(spec=spec, g=g, g_h=g, F=F, grid=grid)
    start = time.monotonic()
    solution = solve_primary(problem)
    elapsed = time.monotonic() - start
    return problem, solution, elapsed


@pytest.fixture(scope="module")
def solved_12():
    return solve_manufactured(12)


@pytest.fixture(scope="module")
def solved_24():
    return solve_manufactured(24)


@pytest.fixture(scope="module")
def solved_16():
    return solve_manufactured(16)


def sweep_descriptor(seed=3):
    return ExperimentDescriptor(
        grid={"n": 2, "N": 12, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.18}},
        concentrations=[0.18, 0.16, 0.14, 0.12, 0.10],
        seed=seed,
    )


@pytest.fixture(scope="module")
def sweep_artifacts(tmp_path_factory):
    outputs = []
    for label in ("first", "second"):
        out = tmp_path_factory.mktemp("sweep_" + label)
        code = cmd_sweep(sweep_descriptor(), str(out))
        with open(out / "sweep.json", "rb") as handle:
            raw = handle.read()
        outputs.append((code, raw))
    payload = json.loads(outputs[0][1])
    return {
        "codes": [c for c, _ in outputs],
        "identical": outputs[0][1] == outputs[1][1],
        "payload": payload,
    }


def test_criterion_01_euler_and_homogeneity(capsys):
    specs = [
        monge_ampere(2),
        hessian(3, 1),
        hessian(3, 2),
        p_monge_ampere(3, 2),
        combine([monge_ampere(2), hessian(2, 1)], [1.0, 1.0]),
    ]
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_euler = 0.0
    worst_homog = 0.0
    for spec in specs:
        lam = sample_cone(spec.cone, spec.dim, SAMPLES, rng)
        f = evaluate(spec, lam)
        grad = gradient(spec, lam)
        scale = np.abs(f)
        euler = np.abs(np.sum(lam * grad, axis=-1) - f) / scale
        t = rng.uniform(0.5, 2.0, size=SAMPLES)
        homog = np.abs(evaluate(spec, t[:, None] * lam) - t * f) / (t * scale)
        worst_euler = max(worst_euler, float(euler.max()))
        worst_homog = max(worst_homog, float(homog.max()))
    elapsed = time.monotonic() - start
    ok = worst_euler <= 1e-10 and worst_homog <= 1e-10 and elapsed < 10.0
    report_line(
        capsys, 1, "euler-homogeneity", ok,
        "euler %.2e, homogeneity %.2e, %.1f s" % (worst_euler, worst_homog, elapsed),
    )
    assert worst_euler <= 1e-10
    assert worst_homog <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_structural_constant(capsys):
    rng = np.random.default_rng(102)
    exact = True
    floor_margin = np.inf
    for n in (2, 3):
        spec = monge_ampere(n)
        exact = exact and spec.gamma == float(n) ** (-n) and spec.gamma_certified
        lam = sample_cone(spec.cone, n, SAMPLES, rng)
        product = np.prod(gradient(spec, lam), axis=-1)
        floor_margin = min(floor_margin, float(product.min() / spec.gamma))
    ok = exact and monge_ampere(2).gamma == 0.25 and floor_margin >= 1.0 - 1e-9
    report_line(
        capsys, 2, "structural-constant", ok,
        "gamma(2)=%.3f exact, sampled product floor ratio %.12f" % (monge_ampere(2).gamma, floor_margin),
    )
    assert monge_ampere(2).gamma == 0.25
    assert exact
    assert floor_margin >= 1.0 - 1e-9


def test_criterion_03_pointwise_identity_suite(capsys):
    rng = np.random.default_rng(103)
    start = time.monotonic()
    worst_a = 0.0
    worst_slack = np.inf
    worst_trace = 0.0
    for n in (2, 3):
        spec = monge_ampere(n)
        g, g_h, phi_h = random_admissible_parts(spec, SAMPLES, rng)
        report = verify_trace_reversal_identities(spec, g, g_h, phi_h)
        worst_a = max(worst_a, report["identity_residual"])
        worst_slack = min(worst_slack, report["det_slack"])
        worst_trace = max(worst_trace, report["trace_residual"])
    elapsed = time.monotonic() - start
    ok = (
        worst_a <= 1e-9
        and worst_slack >= -1e-12
        and worst_trace <= 1e-10
        and elapsed < 30.0
    )
    report_line(
        capsys, 3, "pointwise-identities", ok,
        "identity %.2e, det slack %.2e, trace %.2e, %.1f s"
        % (worst_a, worst_slack, worst_trace, elapsed),
    )
    assert worst_a <= 1e-9
    assert worst_slack >= -1e-12
    assert worst_trace <= 1e-10
    assert elapsed < 30.0


def test_criterion_04_discretization_order(capsys):
    k = 2.0 * math.pi
    hess_errs = []
    lap_errs = []
    for N in (16, 32):
        grid = TorusGrid(n=2, N=N, L=1.0)
        x = [grid.axis_coordinates(a) for a in range(4)]
        phi = np.sin(k * x[0]) * np.sin(k * x[1]) * np.cos(k * x[2])
        H = complex_hessian(phi, grid)
        exact00 = -0.5 * k * k * phi
        hess_errs.append(float(np.abs(H.h00 - exact00).max()))
        # the metric enters through checked_metric, as planes at n = 2
        g = checked_metric(identity_metric(grid))
        lap = laplacian(phi, g, grid)
        lap_errs.append(float(np.abs(lap - (-0.75 * k * k * phi)).max()))
    hess_ratio = hess_errs[0] / hess_errs[1]
    lap_ratio = lap_errs[0] / lap_errs[1]
    ok = 3.5 <= hess_ratio <= 4.5 and 3.5 <= lap_ratio <= 4.5
    report_line(
        capsys, 4, "discretization-order", ok,
        "hessian ratio %.2f, laplacian ratio %.2f" % (hess_ratio, lap_ratio),
    )
    assert 3.5 <= hess_ratio <= 4.5
    assert 3.5 <= lap_ratio <= 4.5


def test_criterion_05_manufactured_solve(capsys, solved_12, solved_24):
    errors = {}
    for N, bundle in ((12, solved_12), (24, solved_24)):
        problem, solution, elapsed = bundle
        phi_star = normalize_sup(trig_potential(problem.grid))
        errors[N] = float(np.abs(solution.phi - phi_star).max())
        assert solution.residual_sup <= 1e-8
        assert elapsed < 300.0
    ratio = errors[12] / errors[24]
    b_err = abs(solved_24[1].b - 0.3)
    ok = (
        3.0 <= ratio <= 5.0
        and solved_12[1].residual_sup <= 1e-8
        and solved_24[1].residual_sup <= 1e-8
        and solved_12[2] < 300.0
        and solved_24[2] < 300.0
    )
    report_line(
        capsys, 5, "manufactured-solve", ok,
        "sup-error ratio %.2f, residuals %.1e/%.1e, times %.1f s/%.1f s"
        % (ratio, solved_12[1].residual_sup, solved_24[1].residual_sup,
           solved_12[2], solved_24[2]),
    )
    assert 3.0 <= ratio <= 5.0
    # the constant recovers the manufactured value at second order as well
    assert b_err <= 2e-6


def test_criterion_06_constant_rhs_fixture(capsys):
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    chart = build_chart(np.zeros(grid.shape), g, g, grid)
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (chart.num_interior * grid.cell_volume)
    sol = solve_dirichlet_ma(chart, rhs)
    R = chart.radius
    c_root = math.sqrt(rhs[chart.mask][0])
    exact = c_root * (chart.dist_sq - R * R)
    err = float(np.abs(sol.psi - exact)[chart.mask].max())
    gate = 10.0 * grid.h**2
    ok = err <= gate and 0.98 <= sol.mass <= 1.02
    report_line(
        capsys, 6, "auxiliary-constant-rhs", ok,
        "sup error %.3e vs gate %.3e, discrete mass %.6f" % (err, gate, sol.mass),
    )
    assert err <= gate
    assert 0.98 <= sol.mass <= 1.02


def test_criterion_07_radial_oracle(capsys):
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    chart = build_chart(np.zeros(grid.shape), g, g, grid)
    T = chart.radius**2

    def raw(t):
        return 1.0 + 4.0 * np.asarray(t)

    raw_field = np.zeros(grid.shape)
    raw_field[chart.mask] = raw(chart.dist_sq[chart.mask])
    norm = float(np.sum(raw_field[chart.mask]) * grid.cell_volume)
    rhs = raw_field / norm
    t_nodes, v, _ = radial_profile(lambda t: raw(t) / norm, T, grid.n)
    oracle = radial_field(grid, chart.center_index, t_nodes, v)
    sol = solve_dirichlet_ma(chart, rhs)
    err = float(np.abs(sol.psi - oracle)[chart.mask].max())
    gate = 10.0 * grid.h**2
    ok = err <= gate
    report_line(
        capsys, 7, "radial-oracle", ok,
        "sup difference %.3e vs gate %.3e" % (err, gate),
    )
    assert err <= gate


def test_criterion_08_comparison_and_sharpness(capsys, solved_16):
    problem, solution, _ = solved_16
    grid = problem.grid
    localization = run_localization(
        solution, problem, s_fractions=(0.25, 0.5, 0.75), k_list=(10, 100), c_disc=10.0,
        entropy_exponent=3
    )
    cells_ok = localization["all_passed"] and len(localization["reports"]) == 6
    worst = max(cell["max_phi"] for cell in localization["reports"])
    # the manufactured instance sits deep inside the bound, so the halved
    # scale is probed on a fixture tuned to a thin margin instead
    fixture = tight_comparison_fixture(monge_ampere(2), grid)
    full = check_comparison(fixture.w, fixture.psi, fixture.epsilon, fixture.chart, 10.0)
    halved = check_comparison(fixture.w, fixture.psi, 0.5 * fixture.epsilon, fixture.chart, 10.0)
    sharp_ok = full["pass"] and not halved["pass"]
    ok = cells_ok and sharp_ok
    report_line(
        capsys, 8, "comparison-check", ok,
        "6 cells max Phi %.3e (gate %.3e); sharpness margin %.3e -> violation %.3e"
        % (worst, 10.0 * grid.h**2, full["max_phi"], halved["max_phi"]),
    )
    assert cells_ok
    for cell in localization["reports"]:
        assert cell["max_phi"] <= 10.0 * grid.h**2
    assert full["pass"]
    assert not halved["pass"]


def test_criterion_09_epsilon_arithmetic(capsys):
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        gamma = float(rng.uniform(0.01, 1.0))
        eps = float(rng.uniform(0.05, 20.0))
        mass = eps ** (n + 1.0) * gamma * float(n) ** (2 * n) / (n + 1.0) ** n
        worst = max(worst, abs(comparison_scale(mass, gamma, n) - eps) / eps)
    ok = worst <= 1e-12
    report_line(
        capsys, 9, "epsilon-arithmetic", ok,
        "worst relative inversion defect %.2e over 100 triples" % worst,
    )
    assert worst <= 1e-12


def test_criterion_10_uniformity_sweep(capsys, sweep_artifacts):
    payload = sweep_artifacts["payload"]
    rows = payload["rows"]
    sups = [row["sup_norm"] for row in rows]
    ratio = payload["max_over_min"]
    consecutive = max(
        max(a, b) / min(a, b) for a, b in zip(sups, sups[1:])
    )
    ok = (
        sweep_artifacts["codes"] == [EXIT_PASS, EXIT_PASS]
        and payload["all_converged"]
        and len(rows) == 5
        and ratio <= 3.0
        and consecutive <= 2.0
        and sweep_artifacts["identical"]
    )
    report_line(
        capsys, 10, "uniformity-sweep", ok,
        "max/min %.2f (band %.1f), worst step %.2f, reruns identical %s"
        % (ratio, payload["band"], consecutive, sweep_artifacts["identical"]),
    )
    assert payload["all_converged"]
    assert len(rows) == 5
    assert ratio <= 3.0
    # no monotone divergence: neighboring levels stay within a factor two
    assert consecutive <= 2.0
    assert sweep_artifacts["identical"]


def test_criterion_11_l1_bound_monitor(capsys, solved_12, solved_24, solved_16, sweep_artifacts):
    margins = []
    for problem, solution, _ in (solved_12, solved_24, solved_16):
        report = l1_bound_check(solution.phi, problem.g, problem.g_h, problem.grid)
        assert report.passed
        margins.append(report.laplacian_margin)
    for row in sweep_artifacts["payload"]["rows"]:
        assert row["laplacian_margin"] >= -1e-9
        margins.append(row["laplacian_margin"])
    worst = min(margins)
    ok = worst >= -1e-9
    report_line(
        capsys, 11, "l1-bound-monitor", ok,
        "8 solved instances, worst laplacian margin %.3e" % worst,
    )
    assert ok
