"""Damped Newton solver for the twisted-metric equation in log form.

Unknowns are a zero-mean potential phi and a scalar b solving

    log f(lam[g^-1 gt(phi)]) = F + b,      sup-normalized on output.

The linearization of the left side along dphi is tr(T @ H(dphi)) where T is
the trace reversal of the linearization coefficients, so each Newton step
solves an elliptic variable-coefficient problem; the constant mode is fixed
by a zero-mean constraint and b absorbs the compatibility defect (bordered
system, matrix-free Krylov).  T is positive definite, so the operator is
uniformly elliptic, and with t = tr T it is t tr((T/t) H(.)).  The Krylov
solve is preconditioned by the trace-scaled frozen inverse: divide by t,
then apply the exact torus inverse of tr(Tbar H(.)), Tbar the grid mean of
T/t, whose constant coefficients np.fft diagonalizes
(grid.trace_scaling and grid.frozen_hessian_inverse, which the chart
solve of auxiliary also uses).  It is exact when T is a scalar field
times a constant matrix.

g and g_h enter once, when a PrimaryProblem is built: it checks each
(hermlin.checked_metric, once when g_h is g) and holds what the check
returns, with g^-1.  For n = 2 these are grid.HermitianPlanes, so the
twisted metric, the linearization, its trace reversal (the Newton
coefficients) and the matvec's tr(T H) take the closed forms on planes,
with no further check.  A metric that is one matrix at every point comes
as four 0-d planes, and its g^-1 as four numbers, which the closed forms
broadcast: the pencil of every Newton step reads four numbers, not four
fields.  l1_bound_check reads complex metrics through the same check.

damped_newton runs both Newton solves, this one and the chart solve of
auxiliary, and reports what each did as a NewtonRecord, which both
solutions extend.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from . import grid as gridmod
from . import hermlin, symfun
from .errors import InfeasibleStartError, NonConvergenceError

MIN_STEP = 2.0**-20


@dataclass
class PrimaryProblem:
    """Operator, background metrics, forcing, and grid for one instance;
    metric, reference_metric and g_inv are g, g_h and g^-1 as checked (at
    n = 2 planes, 0-d for a constant metric: hermlin.checked_metric).  A
    non-finite F or tolerance and a negative or non-integer max_iterations
    raise ValueError."""

    spec: symfun.OperatorSpec
    g: np.ndarray
    g_h: np.ndarray
    F: np.ndarray
    grid: gridmod.TorusGrid
    tolerance: float = 1e-9
    max_iterations: int = 40
    metric: object = field(init=False, repr=False)
    reference_metric: object = field(init=False, repr=False)
    g_inv: object = field(init=False, repr=False)

    def __post_init__(self):
        shape = self.grid.shape + (self.grid.n, self.grid.n)
        if self.spec.dim != self.grid.n:
            raise ValueError("operator dimension does not match the grid")
        if self.g.shape != shape or self.g_h.shape != shape:
            raise ValueError("metric fields must have shape grid.shape + (n, n)")
        if self.F.shape != self.grid.shape:
            raise ValueError("forcing must be a scalar field on the grid")
        if not np.all(np.isfinite(self.F)):
            raise ValueError("forcing must be finite")
        if not (self.tolerance > 0 and np.isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive and finite")
        if not (isinstance(self.max_iterations, numbers.Integral) and self.max_iterations >= 0):
            raise ValueError("max_iterations must be a non-negative integer")
        self.metric = hermlin.checked_metric(self.g, "metric")
        if isinstance(self.metric, gridmod.HermitianPlanes):
            # copied contiguous, as the pencil reads g several times a call
            # (a constant g's 0-d planes stay 0-d); g_h's planes stay views,
            # which each twisted metric reads once
            self.metric = gridmod.HermitianPlanes(*(p.copy() for p in self.metric))
        self.reference_metric = (self.metric if self.g_h is self.g
                                 else hermlin.checked_metric(self.g_h, "reference metric"))
        self.g_inv = gridmod.hermitian_inverse(self.metric)


@dataclass
class NewtonRecord:
    """What one damped_newton solve did: the sup residual of the start and
    of each accepted iterate (residual_history), and per Newton step the
    trial iterates its line search evaluated (line_search_trials) and the
    Krylov operator applications (krylov_iterations)."""

    residual_history: list
    line_search_trials: list
    krylov_iterations: list

    @property
    def residual_sup(self):
        return self.residual_history[-1]

    @property
    def iterations(self):
        return len(self.residual_history) - 1

    @property
    def residual_evaluations(self):
        """Every residual evaluation, the start's included."""
        return 1 + sum(self.line_search_trials)


@dataclass
class PrimarySolution(NewtonRecord):
    """The NewtonRecord of solve_primary, with the sup-normalized potential
    and the log-scale constant."""

    phi: np.ndarray
    b: float


def _eigs_of_twisted(problem, phi):
    gt = gridmod.twisted_metric(phi, problem.metric, problem.reference_metric, problem.grid,
                                g_inv=problem.g_inv)
    lam = hermlin.endomorphism_eigs(problem.metric, gt)
    return gt, lam


def residual(problem, phi, b):
    """Pointwise residual field log f(lam) - F - b.

    Raises ConeViolationError (with the first offending flat index) if the
    eigenvalue field leaves the cone.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != problem.grid.shape:
        raise ValueError("phi shape does not match the grid")
    _, lam = _eigs_of_twisted(problem, phi)
    f = symfun.evaluate(problem.spec, lam)
    return np.log(f) - problem.F - b


def _evaluate_iterate(problem, phi):
    """(log f(lam), margin) for the twisted eigenvalues lam of phi: margin is
    their interior margin field, and log f is None off the strict interior."""
    _, lam = _eigs_of_twisted(problem, phi)
    margin = symfun.interior_margin(lam, problem.spec.cone)
    if not np.all(margin > 0.0):
        return None, margin
    return np.log(symfun.evaluate(problem.spec, lam)), margin


def _newton_step(problem, coeff, r, krylov_rtol):
    """Solve the bordered system tr(coeff H(dphi)) - db = -r, mean(dphi) = 0.

    The preconditioner is the exact inverse of the bordered system with
    coeff replaced by t Tbar, t = tr coeff and Tbar the grid mean of
    coeff / t (grid.trace_scaling): db = -mean(top / t) / mean(1 / t), so
    that (top + db) / t has zero mean, the mean of dphi is the bordered
    entry, and dphi is the torus inverse of tr(Tbar H(.)) applied to
    (top + db) / t (grid.frozen_hessian_inverse).

    Returns ((dphi, db), info, matvecs) with info the lgmres exit flag and
    matvecs the number of operator applications.
    """
    g = problem.grid
    m = g.num_points
    shape = g.shape
    matvecs = 0

    def matvec(u):
        nonlocal matvecs
        matvecs += 1
        dphi = u[:m].reshape(shape)
        db = u[m]
        top = gridmod.hermitian_trace(coeff, gridmod.complex_hessian(dphi, g)) - db
        bottom = np.array([dphi.mean()])
        return np.concatenate([top.reshape(-1), bottom])

    inv_t, tbar = gridmod.trace_scaling(coeff)
    frozen = gridmod.frozen_hessian_inverse(tbar, g)
    mean_inv_t = float(np.mean(inv_t))

    def precond(u):
        top = u[:m].reshape(shape)
        db = -float(np.mean(top * inv_t)) / mean_inv_t
        dphi = frozen((top + db) * inv_t, u[m])
        return np.concatenate([dphi.reshape(-1), np.array([db])])

    op = LinearOperator((m + 1, m + 1), matvec=matvec, dtype=float)
    M = LinearOperator((m + 1, m + 1), matvec=precond, dtype=float)
    rhs = np.concatenate([(-r).reshape(-1), np.array([0.0])])
    # start from the preconditioned right-hand side: exact when coeff / t is
    # constant, and the first matvec then measures a residual instead of
    # applying the operator to zero
    sol, info = lgmres(op, rhs, x0=precond(rhs), M=M, rtol=krylov_rtol, atol=0.0,
                       maxiter=400)
    dphi = sol[:m].reshape(shape)
    return (dphi - dphi.mean(), float(sol[m])), info, matvecs


def damped_newton(start, evaluate, step, tolerance, max_iterations):
    """Damped inexact Newton iteration shared by the periodic and chart solves.

    ``start`` is the evaluated initial iterate ``(iterate, r, state)``: the
    residual field (damped_newton takes its sup norm) and whatever ``step`` needs.
    ``step(state, r, rtol)`` returns the Krylov result
    ``(direction, info, matvecs)`` for the linearized equation
    ``J direction = -r`` solved to relative tolerance ``rtol``, with the
    Krylov exit flag and the number of operator applications.
    ``evaluate(iterate, direction, t)`` returns the evaluated trial
    ``iterate + t * direction`` in the same form as ``start`` (the iterate
    as it is to be kept), or None when the trial leaves the admissible set.

    The Krylov tolerance (Eisenstat and Walker's choice 2, with Kelley's
    guard against over-solving) is 1e-2 on the first step, then
    min(1e-2, max(1e-10, 0.9 * (sup / sup_prev)**2, 0.1 * tolerance / sup)),
    sup_prev the sup before the last step: a step is solved only as
    accurately as the Newton convergence can use, and never much below
    what reaching ``tolerance`` needs.  A trial is accepted once its sup
    residual decreases; t halves from 1 and a step below MIN_STEP raises
    NonConvergenceError, as does a start whose sup residual is not finite,
    a failed Krylov solve or an iterate still above tolerance after
    max_iterations steps.  Every error carries the residual history.
    Returns ``(iterate, state, NewtonRecord)``.
    """
    iterate, r, state = start
    del start  # only the current iterate stays alive
    sup = float(np.max(np.abs(r)))
    history, trials, matvecs = [sup], [], []
    if not np.isfinite(sup):
        raise NonConvergenceError(f"start residual is not finite ({sup})", history)
    while sup > tolerance:
        if len(history) > max_iterations:
            raise NonConvergenceError(
                f"no convergence in {max_iterations} iterations (residual {sup:.3e})", history
            )
        ratio = sup / history[-2] if len(history) > 1 else 1.0  # first step: the cap
        rtol = min(1e-2, max(1e-10, 0.9 * ratio * ratio, 0.1 * tolerance / sup))
        direction, info, count = step(state, r, rtol)
        if info != 0:
            raise NonConvergenceError(f"inner Krylov solve stalled (info={info})", history)
        matvecs.append(count)
        t = 1.0
        trials.append(0)
        while True:
            trial = evaluate(iterate, direction, t)
            trials[-1] += 1
            trial_sup = np.inf if trial is None else float(np.max(np.abs(trial[1])))
            if trial_sup < sup:
                break
            t *= 0.5
            if t < MIN_STEP:
                raise NonConvergenceError(
                    f"line search stalled below the minimum step (residual {sup:.3e})",
                    history,
                )
        iterate, r, state = trial
        sup = trial_sup
        history.append(sup)
    return iterate, state, NewtonRecord(history, trials, matvecs)


def _primary_start(problem, initial):
    """Evaluated zero-mean start for damped_newton, b chosen to zero the mean residual."""
    g = problem.grid
    if initial is None:
        phi = np.zeros(g.shape)
    else:
        phi = np.asarray(initial, dtype=float).copy()
        if phi.shape != g.shape:
            raise ValueError("initial guess shape does not match the grid")
    phi -= phi.mean()

    log_f, margin = _evaluate_iterate(problem, phi)
    if log_f is None:
        idx = int(np.argmin(margin.reshape(-1)))
        raise InfeasibleStartError(
            f"initial iterate violates the cone constraint (margin "
            f"{float(margin.reshape(-1)[idx]):.3e} at flat index {idx})"
        )
    b = float(np.mean(log_f - problem.F))
    return (phi, b), log_f - problem.F - b, phi


def solve_primary(problem, initial=None):
    """Damped Newton iteration; returns a sup-normalized PrimarySolution.

    The unknowns are the zero-mean potential and b; a trial step must keep
    the eigenvalues inside the cone and decrease the sup residual (see
    damped_newton for the step policy and the NonConvergenceError cases).
    """

    def evaluate(iterate, direction, t):
        trial_phi = iterate[0] + t * direction[0]
        trial_b = iterate[1] + t * direction[1]
        log_f, _ = _evaluate_iterate(problem, trial_phi)
        if log_f is None:
            return None
        r_t = log_f - problem.F - trial_b
        trial_phi -= trial_phi.mean()
        return (trial_phi, trial_b), r_t, trial_phi

    def step(phi, r, krylov_rtol):
        gt, _ = _eigs_of_twisted(problem, phi)
        # nested, so the linearization is freed before the Krylov solve
        coeff = hermlin.trace_reversal(hermlin.linearization(problem.spec, problem.metric, gt),
                                       problem.metric, g_inv=problem.g_inv)
        return _newton_step(problem, coeff, r, krylov_rtol)

    (phi, b), _, record = damped_newton(
        _primary_start(problem, initial), evaluate, step,
        problem.tolerance, problem.max_iterations,
    )
    return PrimarySolution(**vars(record), phi=gridmod.normalize_sup(phi), b=b)


def _metric_planes(a, name):
    return a if isinstance(a, gridmod.HermitianPlanes) else hermlin.checked_metric(a, name)


@dataclass(frozen=True)
class L1BoundReport:
    """Premises and output of the final L1 bound chain for one solution.

    c_prime is the sup of tr(g^-1 g_h); the Laplacian margin is
    min(Delta phi + c_prime) and must clear -1e-9; the rescaled trace is
    min tr(g^-1 (g + H(n phi / c_prime))) and must also clear -1e-9; l1
    is the integral of -phi against the metric volume.
    """

    c_prime: float
    laplacian_margin: float
    rescaled_trace_min: float
    l1: float

    @property
    def passed(self):
        return self.laplacian_margin >= -1e-9 and self.rescaled_trace_min >= -1e-9


def l1_bound_check(phi, g, g_h, grid, g_inv=None):
    """Verify the trace-route premises on a solved potential.

    Both checks are trace conditions: membership of the rescaled twisted
    eigenvalues in the largest cone only constrains the metric trace.  For
    n = 2 they run on planes: a PrimaryProblem's (with its g_inv), or complex
    metrics read through hermlin.checked_metric (once when g_h is g).
    """
    phi = np.asarray(phi, dtype=float)
    if grid.n == 2:
        metric = _metric_planes(g, "metric")
        g_h = metric if g_h is g else _metric_planes(g_h, "reference metric")
        g = metric
    if g_inv is None:
        g_inv = gridmod.hermitian_inverse(g)
    lap = gridmod.laplacian(phi, g, grid, g_inv=g_inv)
    c_prime = float(np.max(gridmod.hermitian_trace(g_inv, g_h)))
    laplacian_margin = float(np.min(lap) + c_prime)
    n = grid.n
    rescaled = n + (n / c_prime) * lap
    rescaled_trace_min = float(np.min(rescaled))
    l1 = gridmod.integrate(-phi, gridmod.volume_density(g), grid)
    return L1BoundReport(c_prime, laplacian_margin, rescaled_trace_min, l1)
