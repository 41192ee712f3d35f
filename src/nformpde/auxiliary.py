"""Local chart machinery and the auxiliary Dirichlet Monge-Ampere comparison.

Around the minimum point of a solved potential we cut a coordinate ball on
which the background metric is uniformly comparable to the identity, tilt the
potential by a small quadratic, smooth its negative part, and solve a Dirichlet
Monge-Ampere problem whose right hand side is the normalized smoothed mass.
The solution, rescaled by a power of that mass, must dominate the tilted
potential; ``check_comparison`` measures the worst violation of that bound on
the grid and ``run_localization`` drives the whole loop over tilt depths and
smoothing indices.
"""

import itertools
import time
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import (
    ChartFailureError,
    DegeneracyError,
    InconsistentInputError,
    MetricDegeneracyError,
    NonConvergenceError,
)
from .grid import (
    HermitianPlanes,
    complex_hessian,
    entropy_norm,
    frozen_hessian_inverse,
    hermitian_inverse,
    hermitian_planes,
    hermitian_trace,
    neighbour_table,
    trace_scaling,
    volume_density,
)
from .hermlin import _eigs_2x2, checked_metric, endomorphism_eigs
from .solver import NewtonRecord, damped_newton
from .symfun import plane_sum

# Metric comparability band required on the chart ball, with rounding slack.
METRIC_LOWER = 0.5
METRIC_UPPER = 2.0
METRIC_SLACK = 1e-12

# Smallest chart radius, in grid spacings.
MIN_RADIUS_STEPS = 4

# Eigenvalue floor for the positivity safeguard inside the Newton solve.
EIG_FLOOR = 1e-8

# Ghost values are extrapolated from the sphere of radius R - PULLBACK*h.
PULLBACK = 2.5

MASS_TOL = 1e-10

# Sup-norm residual at which the chart Newton solve stops, and its step budget.
RESIDUAL_TOL = 1e-10
MAX_ITERATIONS = 60


@dataclass
class LocalChart:
    """Coordinate ball around the minimum point of a potential.

    The mask selects the open ball of radius ``2 * r0`` in the periodic
    minimal-image distance; on it the ambient metric is pinched between
    half and twice the identity.  ``positivity_fraction`` is half the
    largest constant c with g_h >= (2c/(n-1)) (tr_g g_h) g on the ball,
    and ``depth_cap`` = 4 * positivity_fraction * r0**2 bounds the
    admissible tilt depths.  ``mask_flat``, ``taps``, ``ghost_flat`` and
    ``extend`` are the ball's stencil and ghost geometry (``_chart_geometry``).
    """

    grid: object
    center_index: tuple
    r0: float
    mask: np.ndarray
    ring: np.ndarray
    dist_sq: np.ndarray
    positivity_fraction: float
    depth_cap: float
    vol_density: np.ndarray
    metric_margin: float
    estimate_trivial: bool
    mask_flat: np.ndarray
    taps: dict
    ghost_flat: np.ndarray
    extend: object

    @property
    def radius(self):
        """Radius of the chart ball (twice the core radius r0)."""
        return 2.0 * self.r0

    @property
    def num_interior(self):
        return self.mask_flat.size


def build_chart(phi, g, g_h, grid):
    """Cut the largest admissible coordinate ball around the argmin of phi.

    g and g_h come checked, as a PrimaryProblem's metric and reference_metric
    (planes run the closed forms, complex fields eigvalsh).  The chart masks
    them, so a constant metric's 0-d planes are broadcast to grid.shape
    first, as views with no copy.  The center is
    the grid argmin of phi (lowest flat index on ties).  The radius r0 is
    the largest multiple of h, at most L/4, such that the eigenvalues of g
    lie in [1/2, 2] on the open ball of radius 2*r0.

    Raises ChartFailureError when no radius of at least 4 grid spacings
    qualifies, and MetricDegeneracyError when g_h is not positive definite
    on the chosen ball.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.shape:
        raise InconsistentInputError("potential shape does not match the grid")
    if not np.all(np.isfinite(phi)):
        raise InconsistentInputError("potential contains non-finite values")

    center_flat = int(np.argmin(phi.ravel()))
    center = tuple(int(c) for c in np.unravel_index(center_flat, grid.shape))
    dist_sq = grid.distance_sq(center)

    planes = isinstance(g, HermitianPlanes)
    if planes:
        g, g_h = (HermitianPlanes(*(np.broadcast_to(p, grid.shape) for p in m))
                  for m in (g, g_h))
    eigs = _eigs_2x2(*g)[0] if planes else np.linalg.eigvalsh(g)
    emin, emax = eigs[..., 0], eigs[..., -1]
    jmax = min(grid.N // 4, int(np.floor(grid.L / 4.0 / grid.h + 1e-12)))
    chosen = None
    for j in range(jmax, MIN_RADIUS_STEPS - 1, -1):
        ball = dist_sq < (2.0 * j * grid.h) ** 2
        lo = float(emin[ball].min())
        hi = float(emax[ball].max())
        if lo >= METRIC_LOWER - METRIC_SLACK and hi <= METRIC_UPPER + METRIC_SLACK:
            chosen = (j, ball, lo, hi)
            break
    if chosen is None:
        raise ChartFailureError(
            "no chart radius of at least %d grid spacings keeps the metric "
            "eigenvalues inside [1/2, 2]; background too rough for this grid"
            % MIN_RADIUS_STEPS
        )
    j, mask, lo, hi = chosen
    r0 = j * grid.h

    ring = np.zeros_like(mask)
    for axis in range(2 * grid.n):
        for shift in (1, -1):
            ring |= mask & ~np.roll(mask, shift, axis=axis)

    if planes:
        g_m, gh_m = (HermitianPlanes(*(p[mask] for p in m)) for m in (g, g_h))
    else:
        g_m, gh_m = g[mask], g_h[mask]
    lam_min = endomorphism_eigs(g_m, gh_m)[..., 0]
    trace = hermitian_trace(hermitian_inverse(g_m), gh_m)
    if lam_min.min() <= 0.0 or trace.min() <= 0.0:
        raise MetricDegeneracyError("reference form is not positive definite on the chart ball")
    maximal = 0.5 * (grid.n - 1) * float(np.min(lam_min / trace))
    positivity_fraction = 0.5 * maximal
    mask_flat, taps, ghost_flat, extend = _chart_geometry(mask, center, 2.0 * r0, grid)

    return LocalChart(
        grid=grid,
        center_index=center,
        r0=float(r0),
        mask=mask,
        ring=ring,
        dist_sq=dist_sq,
        positivity_fraction=positivity_fraction,
        depth_cap=4.0 * positivity_fraction * r0 * r0,
        vol_density=volume_density(g),
        metric_margin=float(min(lo - METRIC_LOWER, METRIC_UPPER - hi)),
        estimate_trivial=bool(-phi.min() < 2.0),
        mask_flat=mask_flat,
        taps=taps,
        ghost_flat=ghost_flat,
        extend=extend,
    )


def tilted_potential(phi, chart, s):
    """Tilt phi by the chart quadratic and drop it by depth s.

    Returns the tilted field w = phi - phi(center) + positivity_fraction *
    dist_sq - s on the whole grid.  Requires 0 < s < chart.depth_cap; that
    cap makes w positive near the chart boundary.
    """
    if not 0.0 < s < chart.depth_cap:
        raise ValueError(
            "tilt depth %g outside (0, %g)" % (s, chart.depth_cap)
        )
    phi = np.asarray(phi, dtype=float)
    center_value = phi[chart.center_index]
    return phi - center_value + chart.positivity_fraction * chart.dist_sq - s


def smooth_hinge(x, k):
    """Smooth positive surrogate for max(x, 0) at smoothing index k.

    Equals x + 1/k for x >= 0 and the constant 1/(2k) for x <= -1/k; on
    (-1/k, 0) the unique monotone quadratic bridge matching values and
    slopes at both ends, staying inside [1/(2k), 1/k].
    """
    if int(k) != k or k < 1:
        raise ValueError("smoothing index must be a positive integer")
    k = float(k)
    x = np.asarray(x, dtype=float)
    t = k * x + 1.0
    bridge = (1.0 + t * t) / (2.0 * k)
    out = np.where(x >= 0.0, x + 1.0 / k, np.where(x <= -1.0 / k, 1.0 / (2.0 * k), bridge))
    if out.ndim == 0:
        return float(out)
    return out


def _hinge_density(w, F, k, chart):
    """smooth_hinge(-w, k) * exp(n F) * det(g) on the chart ball, and its finite mass."""
    grid = chart.grid
    mask = chart.mask
    w = np.asarray(w, dtype=float)
    F = np.asarray(F, dtype=float)
    with np.errstate(over="ignore"):
        density = smooth_hinge(-w[mask], k) * np.exp(grid.n * F[mask]) * chart.vol_density[mask]
        mass = float(np.sum(density) * grid.cell_volume)
    if not np.isfinite(mass):
        raise InconsistentInputError("hinge mass is not finite: exp(n F) overflows")
    return density, mass


def hinge_mass(w, F, k, chart):
    """Discrete mass of the smoothed negative part of w over the chart ball.

    Integrates smooth_hinge(-w, k) * exp(n F) against the metric volume
    element; strictly positive since the hinge is bounded below by 1/(2k),
    and InconsistentInputError when it is not finite.
    """
    return _hinge_density(w, F, k, chart)[1]


def _chart_geometry(mask, center_index, R, grid):
    """Ghost-value machinery for Dirichlet problems on a ball of radius R.

    Returns (mask_flat, taps, ghost_flat, extend): the flat indices of the
    ball, its neighbour_table, the flat indices of the grid points outside
    the ball that the table reads, and the sparse map from ball values to
    ghost values.  A ghost value is extrapolated along the ray from the
    center: the interior value is sampled by multilinear interpolation on
    the sphere of radius R - PULLBACK*h and scaled linearly in squared
    radius so that the extension vanishes exactly on the sphere of radius R.
    """
    m = 2 * grid.n
    N = grid.N

    mask_flat = np.flatnonzero(mask.ravel())
    taps = neighbour_table(mask_flat, grid)
    read = np.zeros(grid.num_points, dtype=bool)
    for index in taps.values():
        read[index] = True
    read[mask_flat] = False
    ghost_flat = np.flatnonzero(read)
    inverse = np.full(grid.num_points, -1, dtype=np.int64)
    inverse[mask_flat] = np.arange(mask_flat.size)

    center = np.array(center_index, dtype=np.int64)
    idx = np.array(np.unravel_index(ghost_flat, grid.shape)).T
    offset = (idx - center + N // 2) % N - N // 2
    rp = grid.h * np.sqrt(np.sum(offset.astype(float) ** 2, axis=1))

    # build_chart keeps R >= 2 * MIN_RADIUS_STEPS * h > PULLBACK * h, so rq > 0
    rq = R - PULLBACK * grid.h

    # fractional index of the pullback point on the ray toward the center
    u = center + offset.astype(float) * (rq / rp)[:, None]
    base = np.floor(u).astype(np.int64)
    frac = u - base

    bits = np.array(list(itertools.product((0, 1), repeat=m)), dtype=np.int64)
    corners = (base[:, None, :] + bits[None, :, :]) % N
    weights = np.prod(np.where(bits[None, :, :] == 1, frac[:, None, :], 1.0 - frac[:, None, :]), axis=2)
    corner_flat = np.ravel_multi_index(tuple(corners[:, :, a] for a in range(m)), grid.shape)
    cols = inverse[corner_flat]
    if np.any(cols < 0):
        raise InconsistentInputError("ghost interpolation point escaped the chart ball")

    # r >= R outside the open ball, so the scale factor is nonpositive
    factor = (R * R - rp * rp) / (R * R - rq * rq)
    rows = np.repeat(np.arange(ghost_flat.size), bits.shape[0])
    data = (weights * factor[:, None]).ravel()
    extend = csr_matrix((data, (rows, cols.ravel())), shape=(ghost_flat.size, mask_flat.size))
    return mask_flat, taps, ghost_flat, extend


@dataclass
class AuxiliarySolution(NewtonRecord):
    """The NewtonRecord of a Dirichlet Monge-Ampere solve on a chart ball,
    with its solution, discrete mass, smallest Hessian eigenvalue and
    clamped points per step."""

    psi: np.ndarray
    mass: float
    min_eigenvalue: float
    clamp_history: list


def _clamped_inverse(eigs, frames):
    """The inverse ball Hessian of a chart Newton step with its eigenvalues
    clamped at EIG_FLOOR, from eigh's eigen-pairs: at n = 2 its planes,
    stored contiguous since every matvec reads each of them, otherwise the
    complex field."""
    inv = np.einsum("pik,pk,pjk->pij", frames, 1.0 / np.maximum(eigs, EIG_FLOOR),
                    frames.conj())
    if inv.shape[-1] != 2:
        return inv
    return HermitianPlanes(*(p.copy() for p in hermitian_planes(inv)))


def solve_dirichlet_ma(chart, rhs_density):
    """Solve det of the complex Hessian of psi = rhs on the chart ball.

    Damped Newton iteration in log-determinant form on the interior values,
    to a sup residual of RESIDUAL_TOL in at most MAX_ITERATIONS steps, with
    ghost values tied to the interior by the chart's radial zero-boundary
    extrapolation (``extend``).
    Each residual takes np.linalg.eigh of the ball Hessian (at n = 2 its
    planes written as a complex field).  Hessian eigenvalues are clamped at
    EIG_FLOOR during the iteration; a clamp still active at convergence
    raises DegeneracyError.

    Each Newton step solves tr(inv H(d)) = -r on the ball, inv the clamped
    inverse Hessian (at n = 2 the real weighted sum over the planes of inv
    and H), by LGMRES with the trace-scaled preconditioner of the periodic
    solve (grid.trace_scaling): the ball residual is divided by t = tr inv,
    zero-extended to the grid, its zero mode dropped, passed through the
    exact torus inverse of tr(Tbar H(.)), Tbar the ball mean of inv / t
    (grid.frozen_hessian_inverse), and restricted to the ball.  LGMRES
    starts from that preconditioned residual.

    Parameters
    ----------
    chart : LocalChart
    rhs_density : full grid field, positive on the chart mask, with
        discrete unit mass over the mask to MASS_TOL.
    """
    grid = chart.grid
    rhs_density = np.asarray(rhs_density, dtype=float)
    if rhs_density.shape != grid.shape:
        raise InconsistentInputError("rhs density shape does not match the grid")
    rho = rhs_density.ravel()[chart.mask_flat]
    if not np.all(np.isfinite(rho)) or rho.min() <= 0.0:
        raise InconsistentInputError("rhs density must be finite and positive on the chart ball")
    mass_defect = abs(float(np.sum(rho) * grid.cell_volume) - 1.0)
    if mass_defect > MASS_TOL:
        raise InconsistentInputError(
            "rhs density mass defect %.3e exceeds %.1e" % (mass_defect, MASS_TOL)
        )
    log_rho = np.log(rho)
    n = grid.n
    mask = chart.mask
    full = np.zeros(grid.num_points)  # fill and the preconditioner write only here

    def fill(values):
        full[chart.mask_flat] = values
        full[chart.ghost_flat] = chart.extend @ values
        return full.reshape(grid.shape)

    def evaluate_at(values):
        H = complex_hessian(fill(values), grid, chart.taps)
        if isinstance(H, HermitianPlanes):
            H = H.matrix()
        eigs, frames = np.linalg.eigh(H)
        r = plane_sum([np.log(np.maximum(eigs[:, i], EIG_FLOOR)) for i in range(n)]) - log_rho
        return values, r, (eigs, frames)

    clamp_history = []

    def step(state, r, krylov_rtol):
        eigs, frames = state
        clamp_history.append(int(np.count_nonzero(eigs < EIG_FLOOR)))
        inv = _clamped_inverse(eigs, frames)
        matvecs = 0

        def matvec(d):
            nonlocal matvecs
            matvecs += 1
            return hermitian_trace(inv, complex_hessian(fill(d), grid, chart.taps))

        inv_t, tbar = trace_scaling(inv)
        frozen = frozen_hessian_inverse(tbar, grid)

        def precond(u):
            full[chart.mask_flat] = u * inv_t
            full[chart.ghost_flat] = 0.0
            return frozen(full.reshape(grid.shape), 0.0).reshape(-1)[chart.mask_flat]

        op = LinearOperator((rho.size, rho.size), matvec=matvec, dtype=float)
        M = LinearOperator((rho.size, rho.size), matvec=precond, dtype=float)
        direction, info = lgmres(op, -r, x0=precond(-r), M=M, rtol=krylov_rtol, atol=0.0,
                                 maxiter=400)
        return direction, info, matvecs

    R = chart.radius
    cbar = float(np.mean(rho))
    psi, (eigs, _), record = damped_newton(
        evaluate_at(cbar ** (1.0 / n) * (chart.dist_sq[mask] - R * R)),
        lambda values, direction, t: evaluate_at(values + t * direction),
        step, RESIDUAL_TOL, MAX_ITERATIONS,
    )
    clamp_history.append(int(np.count_nonzero(eigs < EIG_FLOOR)))
    min_eig = float(eigs.min())
    if min_eig < EIG_FLOOR:
        raise DegeneracyError(
            "positivity safeguard active at convergence (min eigenvalue %.3e)" % min_eig
        )
    return AuxiliarySolution(
        **vars(record),
        psi=fill(psi).copy(),
        mass=float(np.sum(reduce(np.multiply, [eigs[:, i] for i in range(n)]))
                   * grid.cell_volume),
        min_eigenvalue=min_eig,
        clamp_history=clamp_history,
    )


def comparison_scale(mass, gamma, n):
    """Rescaling constant for the comparison bound.

    Returns the positive (n+1)-th root of mass * (n+1)^n / (gamma * n^(2n)).
    """
    if mass <= 0.0 or gamma <= 0.0:
        raise ValueError("mass and structural constant must be positive")
    if int(n) != n or n < 2:
        raise ValueError("dimension must be an integer >= 2")
    n = int(n)
    value = mass * (n + 1.0) ** n / (gamma * float(n) ** (2 * n))
    return float(value ** (1.0 / (n + 1.0)))


def check_comparison(w, psi, eps, chart, c_disc):
    """Measure the worst violation of -w <= eps * (-psi)^(n/(n+1)) on the ball.

    Evaluates the test function Phi = -eps * (-psi)^(n/(n+1)) - w over the
    chart mask.  Returns the verdict keys of a ``localization.json`` cell:
    ``max_phi`` and its grid index ``location`` (whether w < 0 there, that
    is whether it lies in the sublevel set, as ``argmax_in_sublevel``), the
    margin ``quantiles``, ``epsilon``, and ``pass`` against the
    discretization budget ``tolerance`` = c_disc * h**2.
    """
    grid = chart.grid
    mask = chart.mask
    n = grid.n
    w = np.asarray(w, dtype=float)[mask]
    psi = np.asarray(psi, dtype=float)
    depth = np.maximum(-psi[mask], 0.0)
    phi_test = -eps * depth ** (n / (n + 1.0)) - w

    arg = int(np.argmax(phi_test))
    flat = np.flatnonzero(mask.ravel())[arg]
    tolerance = c_disc * grid.h ** 2
    max_phi = float(phi_test[arg])
    qs = np.percentile(phi_test, [0.0, 25.0, 50.0, 75.0, 100.0])
    return {
        "epsilon": float(eps),
        "max_phi": max_phi,
        # a list, not a tuple: the schema's "array" type rejects tuples
        "location": [int(c) for c in np.unravel_index(flat, grid.shape)],
        "tolerance": float(tolerance),
        "pass": bool(max_phi <= tolerance),
        "argmax_in_sublevel": bool(w[arg] < 0.0),
        "quantiles": {"min": float(qs[0]), "q25": float(qs[1]), "median": float(qs[2]),
                      "q75": float(qs[3]), "max": float(qs[4])},
    }


# the keys a failed cell holds as null
_UNMEASURED = ("mass", "epsilon", "max_phi", "location", "tolerance", "argmax_in_sublevel",
               "quantiles", "mass_error", "line_search_trials", "clamp_history")


def run_localization(solution, problem, s_fractions, k_list, c_disc, entropy_exponent,
                     phases=None):
    """Run the full comparison loop on a solved primary instance.

    Builds the chart at the argmin of the solved potential, then for every
    tilt depth (as a fraction of the chart depth cap) and smoothing index
    solves the auxiliary Dirichlet problem and checks the comparison bound.
    Returns the ``localization.json`` object: the chart's figures and one
    cell per (s, k), the ``check_comparison`` verdict with the hinge mass
    and the chart solve's mass error, residual and iteration counts, line
    search trials and clamped points per step (clamp_history).  A cell that
    fails holds its (s, k) and ``error``, ``pass`` false and null figures; a
    chart failure or an entropy that is not finite aborts the whole run.
    When a list phases is given, the wall time of the chart and of each cell
    (time.perf_counter) is appended to it, as the trace.json phases of cli.
    """
    grid = problem.grid
    n = grid.n
    phases = [] if phases is None else phases
    started = time.perf_counter()
    chart = build_chart(solution.phi, problem.metric, problem.reference_metric, grid)
    phases.append({"name": "chart", "seconds": time.perf_counter() - started})
    with np.errstate(over="ignore"):
        entropy = entropy_norm(problem.F, problem.metric, grid, entropy_exponent)
    if not np.isfinite(entropy):
        raise InconsistentInputError("entropy of the forcing is not finite on the grid")

    cells = []
    for fraction in s_fractions:
        s = fraction * chart.depth_cap
        for k in k_list:
            started = time.perf_counter()
            try:
                w = tilted_potential(solution.phi, chart, s)
                density, mass = _hinge_density(w, problem.F, k, chart)
                rhs = np.zeros(grid.shape)
                rhs[chart.mask] = density / mass
                aux = solve_dirichlet_ma(chart, rhs)
                eps = comparison_scale(mass, problem.spec.gamma, n)
                cell = check_comparison(w, aux.psi, eps, chart, c_disc)
                cell.update(mass=mass, mass_error=abs(aux.mass - 1.0), error=None,
                            line_search_trials=aux.line_search_trials,
                            clamp_history=aux.clamp_history, residuals={
                    "solver_sup": aux.residual_sup, "iterations": aux.iterations,
                    "krylov_iterations": aux.krylov_iterations})
            except (DegeneracyError, InconsistentInputError, NonConvergenceError, ValueError) as exc:
                cell = dict.fromkeys(_UNMEASURED)
                cell.update({"pass": False, "error": str(exc), "residuals": dict.fromkeys(
                    ("solver_sup", "iterations", "krylov_iterations"))})
            cells.append({"s": s, "k": k, **cell})
            phases.append({"name": "cell", "s": s, "k": k,
                           "seconds": time.perf_counter() - started})

    return {
        "depth": float(-solution.phi.min()),
        "entropy": float(entropy),
        "center": list(chart.center_index),
        "r0": chart.r0,
        "positivity_fraction": chart.positivity_fraction,
        "depth_cap": chart.depth_cap,
        "estimate_trivial": chart.estimate_trivial,
        "all_passed": all(cell["pass"] for cell in cells),
        "reports": cells,
    }


@dataclass
class TightFixture:
    """Comparison fixture tuned so the bound holds with a thin margin."""

    chart: LocalChart
    psi: np.ndarray
    w: np.ndarray
    mass: float
    epsilon: float
    alpha: float


def tight_comparison_fixture(spec, grid):
    """Build a synthetic comparison instance with a controlled margin.

    Solves the constant-rhs Dirichlet problem on the flat chart, then sets
    the tilted field to -alpha * (-psi)^(n/(n+1)) with alpha 0.9 times the
    fixed point where the comparison scale computed from the field's own
    hinge mass at smoothing index 10 equals alpha.  The comparison then
    holds with margin (alpha - eps) * max(-psi)^(n/(n+1)); any rescaling of
    eps below alpha's fixed-point share makes it fail.
    """
    from scipy.optimize import brentq

    from .grid import identity_metric

    n = grid.n
    k = 10
    g = checked_metric(identity_metric(grid))
    chart = build_chart(np.zeros(grid.shape), g, g, grid)
    count = chart.num_interior
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (count * grid.cell_volume)
    aux = solve_dirichlet_ma(chart, rhs)

    power = n / (n + 1.0)
    depth = np.maximum(-aux.psi[chart.mask], 0.0) ** power
    shape_mass = float(np.sum(depth * chart.vol_density[chart.mask]) * grid.cell_volume)
    tail = float(np.sum(chart.vol_density[chart.mask]) * grid.cell_volume) / k

    def residual(alpha):
        return alpha - comparison_scale(alpha * shape_mass + tail, spec.gamma, n)

    fixed_point = brentq(residual, 1e-9, 1e9, xtol=1e-14, rtol=1e-14)
    alpha = 0.9 * fixed_point

    w = np.zeros(grid.shape)
    w[chart.mask] = -alpha * depth
    mass = hinge_mass(w, np.zeros(grid.shape), k, chart)
    eps = comparison_scale(mass, spec.gamma, n)
    return TightFixture(chart=chart, psi=aux.psi, w=w, mass=mass, epsilon=eps, alpha=alpha)
