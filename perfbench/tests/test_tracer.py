"""The tracer sees every call, restores every binding and changes no result."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from nformpde import auxiliary, cli, grid, hermlin, manufactured, solver
from nformpde.descriptors import ExperimentDescriptor
from nformpde.symfun import monge_ampere

import tracer as tracing

ORIGINALS = [
    (grid, "complex_hessian"), (auxiliary, "complex_hessian"),
    (hermlin, "endomorphism_eigs"), (auxiliary, "endomorphism_eigs"),
    (solver, "lgmres"), (auxiliary, "lgmres"),
    (cli, "solve_primary"), (cli, "l1_bound_check"), (cli, "run_localization"),
    (cli, "entropy_norm"), (np.linalg, "eigh"),
    (ExperimentDescriptor, "make_forcing"),
]


def small_problem(N=8):
    torus = grid.TorusGrid(n=2, N=N, L=1.0)
    spec = monge_ampere(2)
    g = grid.identity_metric(torus)
    # through the module, so a traced forcing_from_hessian is seen
    F = manufactured.forcing_from_hessian(spec, g, g, manufactured.trig_hessian(torus), b=0.3)
    return solver.PrimaryProblem(spec=spec, g=g, g_h=g, F=F, grid=torus)


def test_install_wraps_every_import_site_and_restore_undoes_it():
    before = [getattr(owner, attr) for owner, attr in ORIGINALS]
    tracer = tracing.Tracer().install()
    try:
        for (owner, attr), original in zip(ORIGINALS, before):
            assert getattr(owner, attr) is not original, (owner, attr)
            assert getattr(owner, attr).__wrapped__ is original, (owner, attr)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    assert [getattr(owner, attr) for owner, attr in ORIGINALS] == before
    assert solver.lgmres is spla.lgmres


def test_traced_solve_matches_untraced_and_counts_add_up():
    problem = small_problem()
    plain = solver.solve_primary(problem)
    with tracing.Tracer() as tracer:
        tracer.phase = "run"
        traced = solver.solve_primary(problem)
        solver.l1_bound_check(traced.phi, problem.g, problem.g_h, problem.grid)
    assert np.array_equal(plain.phi, traced.phi) and plain.b == traced.b
    assert tracer.invariants() == []
    metrics = tracing.layer_metrics(tracer, wall_s=1.0)
    steps = metrics["solver.newton_steps"]
    assert steps == traced.iterations > 0
    # no halving here: each step evaluates one coefficient field and one trial
    assert metrics["solver.line_search.trials"] == steps
    assert metrics["solver.line_search.accept_frac"] == 1.0
    assert metrics["hermlin.endomorphism_eigs.calls"] == 1 + 2 * steps
    assert metrics["grid.complex_hessian.calls"] == (
        metrics["solver.krylov.matvecs"] + metrics["grid.twisted_metric.calls"] + 1)
    assert metrics["auxiliary.krylov.matvecs"] == 0


def test_auxiliary_counts_match_the_solution():
    torus = grid.TorusGrid(n=2, N=16, L=1.0)
    g = grid.identity_metric(torus)
    with tracing.Tracer() as tracer:
        tracer.phase = "run"
        chart = auxiliary.build_chart(np.zeros(torus.shape), g, g, torus)
        rhs = np.zeros(torus.shape)
        rhs[chart.mask] = 1.0 / (chart.num_interior * torus.cell_volume)
        solution = auxiliary.solve_dirichlet_ma(chart, rhs)
    assert tracer.invariants() == []
    metrics = tracing.layer_metrics(tracer, wall_s=1.0)
    assert metrics["auxiliary.newton_steps"] == solution.iterations > 0
    assert metrics["auxiliary.residual_evals"] >= solution.iterations + 1
    assert metrics["auxiliary.hessian_useful_frac"] == chart.num_interior / torus.num_points
    assert metrics["grid.complex_hessian.calls"] == (
        metrics["auxiliary.krylov.matvecs"] + metrics["auxiliary.residual_evals"])


def test_invariants_report_a_call_the_tracer_missed():
    problem = small_problem()
    with tracing.Tracer() as tracer:
        tracer.phase = "run"
        solver.solve_primary(problem)
        # a Hessian no counted caller explains
        grid.complex_hessian(np.zeros(problem.grid.shape), problem.grid)
    assert any("complex_hessian" in failure for failure in tracer.invariants())


def test_setup_phase_calls_stay_out_of_layer_counts():
    with tracing.Tracer() as tracer:
        small_problem()
        tracer.phase = "run"
    metrics = tracing.layer_metrics(tracer, wall_s=1.0)
    assert metrics["hermlin.endomorphism_eigs.calls"] == 0
    assert metrics["manufactured.forcing_from_hessian.s"] > 0.0
