"""Chart extraction, tilted fields, hinge mass, and the Dirichlet comparison."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.sparse import csr_matrix

from nformpde import auxiliary, schemas
from nformpde.auxiliary import (
    build_chart,
    check_comparison,
    comparison_scale,
    hinge_mass,
    run_localization,
    smooth_hinge,
    solve_dirichlet_ma,
    tilted_potential,
)
from nformpde.errors import (
    ChartFailureError,
    InconsistentInputError,
    MetricDegeneracyError,
    NonConvergenceError,
    UnsupportedDimensionError,
)
from nformpde.grid import (
    HermitianPlanes,
    TorusGrid,
    complex_hessian,
    hermitian_planes,
    hermitian_trace,
    identity_metric,
    stencil_offsets,
)
from nformpde.hermlin import checked_metric, hermitian_part
from nformpde.manufactured import radial_field, radial_profile
from nformpde.solver import PrimaryProblem, solve_primary
from nformpde.symfun import monge_ampere

from tight_fixture import tight_comparison_fixture

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


def corner_tensor_extend(chart):
    """The ghost interpolation map built as (ghosts, 2^m, m) arrays, the
    reference for _chart_geometry's one corner at a time."""
    grid = chart.grid
    m, N, R = 2 * grid.n, grid.N, chart.radius
    inverse = np.full(grid.num_points, -1, dtype=np.int64)
    inverse[chart.mask_flat] = np.arange(chart.mask_flat.size)
    center = np.array(chart.center_index, dtype=np.int64)
    idx = np.array(np.unravel_index(chart.ghost_flat, grid.shape)).T
    offset = (idx - center + N // 2) % N - N // 2
    rp = grid.h * np.sqrt(np.sum(offset.astype(float) ** 2, axis=1))
    rq = R - auxiliary.PULLBACK * grid.h
    u = center + offset.astype(float) * (rq / rp)[:, None]
    base = np.floor(u).astype(np.int64)
    frac = u - base
    bits = np.array(list(itertools.product((0, 1), repeat=m)), dtype=np.int64)
    corners = (base[:, None, :] + bits[None, :, :]) % N
    weights = np.prod(np.where(bits[None, :, :] == 1, frac[:, None, :], 1.0 - frac[:, None, :]),
                      axis=2)
    corner_flat = np.ravel_multi_index(tuple(corners[:, :, a] for a in range(m)), grid.shape)
    cols = inverse[corner_flat]
    factor = (R * R - rp * rp) / (R * R - rq * rq)
    rows = np.repeat(np.arange(chart.ghost_flat.size), bits.shape[0])
    data = (weights * factor[:, None]).ravel()
    return csr_matrix((data, (rows, cols.ravel())),
                      shape=(chart.ghost_flat.size, chart.mask_flat.size))


@pytest.mark.parametrize("center", [CENTER, (0, 0, 0, 0)])
def test_chart_extend_matches_the_corner_tensor_construction(center):
    # centred at index 0 some corners wrap the torus and sort before the rest
    chart, _ = flat_chart(center=center)
    reference = corner_tensor_extend(chart)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(chart.extend, part), getattr(reference, part)), part


def test_build_chart_allocates_at_most_20_mb_at_N16():
    # the ghost interpolation is built one corner at a time; the (ghosts,
    # 16, 4) temporaries of the corner tensors took the peak to 29.4 MB
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = checked_metric(identity_metric(grid))
    phi = np.zeros(grid.shape)
    tracemalloc.start()
    try:
        build_chart(phi, g, g, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


# no shrinking: the fields are drawn from the seed, and a seed does not shrink
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), center=st.tuples(*[st.integers(0, 15)] * 4))
# both eigenvalues clamped at a point: the sum over both eigen-pairs gave
# inv_01 = 1e8 * eps where the planes hold 0, and that times a large |dH_01|
# exceeded 1e-14 of the scale
@example(seed=133066385, center=(14, 2, 15, 8))
@example(seed=153565316, center=(7, 9, 3, 1))
def test_chart_matvec_on_planes_matches_the_complex_einsum(seed, center):
    # a chart Newton step's operator, tr(inv H(d)) on planes with the step's
    # clamped inverse, against the complex einsum statement of the same trace
    # over the same eigen-pairs, to 1e-14 of sum |inv_ij H_ji| at each ball
    # point: the real frames R of the planes' decomposition and its phase make
    # the complex eigenvectors D R of H, D = diag(1, e^(-i theta)); the inverse
    # is stated as f_1 I + (f_0 - f_1) v_0 v_0^H, exact where both are clamped
    chart, grid = flat_chart(center=center)
    rng = np.random.default_rng(seed)
    noise = 10.0 ** rng.uniform(-4.0, 0.0)
    psi = grid.distance_sq(center) + noise * rng.normal(size=grid.shape)
    H = complex_hessian(psi, grid, chart.taps)
    eigs, frames, (cos, sin) = auxiliary._chart_eigh(H)
    inv = auxiliary._clamped_inverse(eigs, frames, (cos, sin))
    assert isinstance(inv, HermitianPlanes)
    assert all(p.flags.c_contiguous and p.shape == (chart.num_interior,) for p in inv)
    frames = frames.astype(complex)
    frames[:, 1, :] *= (cos - 1j * sin)[:, None]
    f = 1.0 / np.maximum(eigs, auxiliary.EIG_FLOOR)
    reference = (f[:, 1, None, None] * np.eye(2)
                 + np.einsum("p,pi,pj->pij", f[:, 0] - f[:, 1], frames[:, :, 0],
                             frames[:, :, 0].conj()))
    dH = complex_hessian(rng.normal(size=grid.shape), grid, chart.taps)
    value = hermitian_trace(inv, dH)
    expected = np.einsum("pij,pji->p", reference, dH.matrix()).real
    scale = np.abs(np.einsum("pij,pji->pij", reference, dH.matrix())).sum(axis=(-2, -1))
    assert np.all(np.abs(value - expected) <= 1e-14 * scale)


@st.composite
def hermitian_point(draw):
    """The planes of one Hermitian 2x2 matrix from its eigenvalues, of either
    sign, at most a factor 100 apart at magnitudes from 1e-10 to 1 (so some
    fall below EIG_FLOOR), in the frame diag(1, e^(i theta)) times a rotation."""
    scale = 10.0 ** draw(st.floats(-10.0, 0.0))
    lam0, lam1 = (draw(st.sampled_from([-1.0, 1.0])) * scale * 100.0 ** draw(st.floats(0.0, 1.0))
                  for _ in range(2))
    alpha, theta = draw(st.floats(0.0, math.pi)), draw(st.floats(-math.pi, math.pi))
    c, s = math.cos(alpha), math.sin(alpha)
    upper = c * s * (lam0 - lam1)
    return (c * c * lam0 + s * s * lam1, s * s * lam0 + c * c * lam1,
            upper * math.cos(theta), upper * math.sin(theta))


@settings(max_examples=200, deadline=None)
@given(points=st.lists(hermitian_point(), min_size=1, max_size=6))
# H_01 = 0, with theta = 0 taken there (and one -0.0)
@example(points=[(2.0, 0.5, 0.0, 0.0), (0.5, 2.0, 0.0, -0.0)])
# merged eigenvalues, H = c I
@example(points=[(1.5, 1.5, 0.0, 0.0)])
# eigenvalues below EIG_FLOOR: one of them, both, and one far below zero
@example(points=[(5e-8, 5e-8, 3e-8, 4e-8), (1e-9, 2e-9, 0.0, 5e-10), (-1.0, 2e-8, 1e-9, 0.0)])
# |H_01|^2 overflows and underflows: hypot keeps z, and the squares would not
@example(points=[(6e154, 5e154, 2e154, 2e154), (1.0, 1.0, 1e154, -1e154),
                 (3e-160, 3e-160, 1e-160, 1e-160)])
def test_chart_eigh_on_planes_matches_the_complex_eigh(points):
    # the n = 2 real decomposition of the ball Hessian planes and its clamped
    # inverse, against np.linalg.eigh of the complex field and the einsum:
    # eigenvalues to 1e-14 of the largest magnitude, the inverse to 1e-12 of
    # its largest entry, at each point
    H = HermitianPlanes(*(np.array(plane) for plane in zip(*points)))
    eigs, frames, phase = auxiliary._chart_eigh(H)
    assert eigs.dtype == frames.dtype == float and frames.shape == (len(points), 2, 2)
    inv = auxiliary._clamped_inverse(eigs, frames, phase)
    assert all(p.flags.c_contiguous for p in inv)
    ref_eigs, ref_frames = np.linalg.eigh(H.matrix())
    top = np.abs(ref_eigs).max(axis=-1, keepdims=True)
    assert np.all(np.abs(eigs - ref_eigs) <= 1e-14 * top)
    reference = np.einsum("pik,pk,pjk->pij", ref_frames,
                          1.0 / np.maximum(ref_eigs, auxiliary.EIG_FLOOR), ref_frames.conj())
    size = np.abs(reference).max(axis=(-2, -1))
    assert np.all(np.abs(inv.matrix() - reference).max(axis=(-2, -1)) <= 1e-12 * size)


def test_chart_failure_on_rough_metric():
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = 2.5 * identity_metric(grid)
    with pytest.raises(ChartFailureError):
        build_chart(np.zeros(grid.shape), g, g, grid)


def test_chart_failure_on_coarse_grid():
    # N = 12 cannot host the minimum of four grid spacings at radius L/4,
    # whatever the background: the message blames the grid
    grid = TorusGrid(n=2, N=12, L=1.0)
    g = identity_metric(grid)
    with pytest.raises(ChartFailureError, match=r"grid too coarse .* needs N >= 16, got N = 12"):
        build_chart(np.zeros(grid.shape), g, g, grid)


def test_build_chart_refuses_n3_before_reading_its_inputs():
    # the chart runs at n = 2 only; the refusal comes before phi or a metric
    # is read, so none is realized here
    grid = TorusGrid(n=3, N=16, L=1.0)
    with pytest.raises(UnsupportedDimensionError, match="n = 2 only, got n = 3"):
        build_chart(None, None, None, grid)


def test_chart_degenerate_reference_rejected():
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    g_h = identity_metric(grid)
    g_h[..., 1, 1] = 0.0
    with pytest.raises(MetricDegeneracyError, match="^reference metric is not positive definite$"):
        build_chart(np.zeros(grid.shape), g, g_h, grid)
    # g_h enters through checked_metric on the whole grid, so a degenerate
    # point far outside the chart ball is refused too
    g_h = identity_metric(grid)
    g_h[12, 12, 12, 12, 1, 1] = 0.0
    with pytest.raises(MetricDegeneracyError, match="^reference metric is not positive definite$"):
        build_chart(grid.distance_sq((4, 4, 4, 4)), g, g_h, grid)


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
    # the ball Hessian of the solution is positive definite
    ball_hessian = complex_hessian(sol.psi, grid, chart.taps).matrix()
    assert np.linalg.eigvalsh(ball_hessian).min() > 0.0
    assert sol.iterations <= 10
    # solution is a nonpositive potential vanishing toward the boundary
    assert sol.psi[chart.mask].max() <= 1e-12
    assert sol.psi[chart.center_index] == pytest.approx(-a * R * R, abs=10.0 * grid.h**2)
    assert np.abs(sol.psi[chart.ring]).max() <= 3.0 * a * R * grid.h


def test_dirichlet_solve_starts_from_initial():
    # started from its own solution, the solve is done before its first step
    chart, grid = flat_chart()
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (chart.num_interior * grid.cell_volume)
    cold = solve_dirichlet_ma(chart, rhs)
    warm = solve_dirichlet_ma(chart, rhs, initial=cold.psi)
    assert cold.iterations > 0 and warm.iterations == 0
    assert warm.residual_history == [cold.residual_sup]
    assert warm.psi.tobytes() == cold.psi.tobytes()


def flat_instance():
    """The solved primary instance on the flat N = 16 torus with F = 0."""
    grid = TorusGrid(n=2, N=16, L=1.0)
    g = identity_metric(grid)
    problem = PrimaryProblem(
        spec=monge_ampere(2), g=g, g_h=g, F=np.zeros(grid.shape), grid=grid
    )
    return problem, solve_primary(problem)


def test_run_localization_warm_starts_each_k_from_its_last_cell(monkeypatch):
    # each k's cells form a chain in s-major order, (s0, 5), (s1, 5), (s2, 5)
    # and (s0, 10), (s1, 10), (s2, 10); each starts from the psi of the cell
    # before it in its chain, and a failed cell leaves the next one cold.  The
    # chains may run on different threads, so each start is kept by its (s, k),
    # read from the tilt and the hinge density that the chain's thread ran last
    problem, solution = flat_instance()
    depth_cap = build_chart(solution.phi, problem.metric, problem.reference_metric,
                            problem.grid).depth_cap
    s0, s1, s2 = (fraction * depth_cap for fraction in (0.2, 0.4, 0.6))
    real_tilt, real_density = auxiliary.tilted_potential, auxiliary._hinge_density
    real_solve, current, starts, psis = auxiliary.solve_dirichlet_ma, threading.local(), {}, {}

    def tilt(phi, chart, s):
        current.s = s
        return real_tilt(phi, chart, s)

    def density(w, F, k, chart):
        current.k = k
        return real_density(w, F, k, chart)

    def solve(chart, rhs, initial=None):
        cell = (current.s, current.k)
        starts[cell] = initial
        if cell == (s1, 5):
            raise NonConvergenceError("scripted failure", [1.0])
        aux = real_solve(chart, rhs, initial=initial)
        psis[cell] = aux.psi
        return aux

    monkeypatch.setattr(auxiliary, "tilted_potential", tilt)
    monkeypatch.setattr(auxiliary, "_hinge_density", density)
    monkeypatch.setattr(auxiliary, "solve_dirichlet_ma", solve)
    payload = run_localization(solution, problem, s_fractions=(0.2, 0.4, 0.6), k_list=(5, 10),
                               c_disc=10.0, entropy_exponent=3)
    assert [(cell["s"], cell["k"], cell["error"] is None) for cell in payload["reports"]] == [
        (s0, 5, True), (s0, 10, True), (s1, 5, False), (s1, 10, True), (s2, 5, True),
        (s2, 10, True)]
    assert len(starts) == 6
    assert starts[(s0, 5)] is None and starts[(s0, 10)] is None and starts[(s2, 5)] is None
    assert starts[(s1, 5)] is psis[(s0, 5)] and starts[(s1, 10)] is psis[(s0, 10)]
    assert starts[(s2, 10)] is psis[(s1, 10)]


@pytest.mark.parametrize("k_list", [(5, 10), (5, 5)])
def test_run_localization_chains_on_threads_match_one_cpu(monkeypatch, k_list):
    # two CPUs give two distinct k a lane each, and a repeated k is one
    # chain; either way the payload is the one of a single CPU, bit for bit
    problem, solution = flat_instance()
    real_solve, threads = auxiliary.solve_dirichlet_ma, set()

    def solve(chart, rhs, initial=None):
        threads.add(threading.get_ident())
        return real_solve(chart, rhs, initial=initial)

    monkeypatch.setattr(auxiliary, "solve_dirichlet_ma", solve)
    payloads = []
    for cpus in (2, 1):
        monkeypatch.setattr(auxiliary, "available_cpus", lambda: cpus)
        threads.clear()
        payloads.append(run_localization(solution, problem, s_fractions=(0.3, 0.6),
                                         k_list=k_list, c_disc=10.0, entropy_exponent=3))
    # one CPU runs every chain on the calling thread
    assert threads == {threading.get_ident()}
    threaded, serial = payloads
    assert threaded.keys() == serial.keys()
    for key in serial:
        assert threaded[key] == serial[key], key
    assert all(cell["error"] is None for cell in serial["reports"])


def test_run_localization_runs_at_most_two_chains_at_once(monkeypatch):
    # the grid budget is rated for two chains, so three distinct k on a host
    # with eight CPUs still share two lanes
    problem, solution = flat_instance()
    real_map, real_solve = auxiliary.map_chains, auxiliary.solve_dirichlet_ma
    lanes, threads = [], set()

    def spy(step, chains, count):
        lanes.append(count)
        return real_map(step, chains, count)

    def solve(chart, rhs, initial=None):
        threads.add(threading.get_ident())
        return real_solve(chart, rhs, initial=initial)

    monkeypatch.setattr(auxiliary, "map_chains", spy)
    monkeypatch.setattr(auxiliary, "solve_dirichlet_ma", solve)
    monkeypatch.setattr(auxiliary, "available_cpus", lambda: 8)
    payload = run_localization(solution, problem, s_fractions=(0.5,), k_list=(5, 10, 20),
                               c_disc=10.0, entropy_exponent=3)
    assert auxiliary.CHAIN_LANES == 2 and lanes == [2]
    assert len(threads) <= 2 and len(payload["reports"]) == 3


def test_run_localization_cells_keep_the_callers_errstate(monkeypatch):
    # numpy's errstate is a context variable and a new thread starts with the
    # default context; every chain runs in a copy of the caller's
    problem, solution = flat_instance()
    real_solve, seen = auxiliary.solve_dirichlet_ma, []

    def solve(chart, rhs, initial=None):
        seen.append(np.geterr()["under"])
        return real_solve(chart, rhs, initial=initial)

    monkeypatch.setattr(auxiliary, "solve_dirichlet_ma", solve)
    monkeypatch.setattr(auxiliary, "available_cpus", lambda: 2)
    with np.errstate(under="raise"):
        run_localization(solution, problem, s_fractions=(0.5,), k_list=(5, 10), c_disc=10.0,
                         entropy_exponent=3)
    assert seen == ["raise", "raise"]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_clamped_inverse_is_the_inverse_of_the_clamped_matrix(seed):
    # Hermitian 2x2 fields whose spectra span at most a factor 100 at scales
    # from 1e-10 to 1, so that some fall below EIG_FLOOR: those are raised
    # to it, and the result is np.linalg.inv of the matrix with its spectrum
    # so clamped (its condition number stays below 100)
    rng = np.random.default_rng(seed)
    count = 40
    scale = np.logspace(-10.0, 0.0, count)[:, None]
    spectrum = scale * np.exp(rng.uniform(0.0, np.log(100.0), size=(count, 2)))
    a = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    frames = np.linalg.qr(a)[0]
    field = hermitian_part(np.einsum("pik,pk,pjk->pij", frames, spectrum, frames.conj()))
    eigs, frames = np.linalg.eigh(field)
    assert np.any(eigs < auxiliary.EIG_FLOOR) and np.any(eigs > auxiliary.EIG_FLOOR)
    clamped = np.einsum("pik,pk,pjk->pij", frames, np.maximum(eigs, auxiliary.EIG_FLOOR),
                        frames.conj())
    reference = np.linalg.inv(clamped)
    # the chart decomposes the planes in real arithmetic
    inv = auxiliary._clamped_inverse(*auxiliary._chart_eigh(hermitian_planes(field)))
    assert isinstance(inv, HermitianPlanes)
    assert all(p.flags.c_contiguous for p in inv)
    size = np.abs(reference).max(axis=(-2, -1))
    assert np.all(np.abs(inv.matrix() - reference).max(axis=(-2, -1)) <= 1e-12 * size)


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
    # chart residual's eigh, one per residual evaluation, on a real field
    calls, dtypes = [], []
    for name in ("eigvalsh", "eigh", "inv", "det", "cholesky"):
        def counting(*args, _name=name, _kernel=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            dtypes.append(np.asarray(args[0]).dtype)
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
    assert dtypes == [np.float64] * len(calls)


def test_run_localization_trivial_instance():
    problem, solution = flat_instance()
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
    problem, solution = flat_instance()
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
