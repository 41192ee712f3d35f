"""Damped Newton solver for the twisted-metric equation in log form.

Unknowns are a zero-mean potential phi and a scalar b solving

    log f(lam[g^-1 gt(phi)]) = F + b,      sup-normalized on output.

The linearization of the left side along dphi is tr(T @ H(dphi)) where T is
the trace reversal of the linearization coefficients, so each Newton step
solves an elliptic variable-coefficient problem; the constant mode is fixed
by a zero-mean constraint and b absorbs the compatibility defect (bordered
system, matrix-free Krylov).  T is positive definite, so the operator is
uniformly elliptic; frozen at its grid mean it has constant coefficients,
np.fft diagonalizes it on the torus, and its exact inverse
(grid.frozen_hessian_inverse, which the chart solve of auxiliary also
uses) preconditions the Krylov solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from . import grid as gridmod
from . import hermlin, symfun
from .errors import InfeasibleStartError, NonConvergenceError

MIN_STEP = 2.0**-20


@dataclass
class PrimaryProblem:
    """Operator, background metrics, forcing, and grid for one instance."""

    spec: symfun.OperatorSpec
    g: np.ndarray
    g_h: np.ndarray
    F: np.ndarray
    grid: gridmod.TorusGrid
    tolerance: float = 1e-9
    max_iterations: int = 40

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
        for name, m in (("metric", self.g), ("reference metric", self.g_h)):
            hermlin.cholesky_pd(m, name)
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")

    @cached_property
    def g_inv(self):
        return gridmod.hermitian_inverse(self.g)


@dataclass
class PrimarySolution:
    """Sup-normalized potential, log-scale constant, and iteration stats.

    krylov_iterations holds the operator applications of each Newton step.
    """

    phi: np.ndarray
    b: float
    residual_sup: float
    iterations: int
    residual_history: list = field(default_factory=list)
    krylov_iterations: list = field(default_factory=list)


def _eigs_of_twisted(problem, phi):
    gt = gridmod.twisted_metric(phi, problem.g, problem.g_h, problem.grid,
                                g_inv=problem.g_inv)
    lam = hermlin.endomorphism_eigs(problem.g, gt)
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


def apply_trace_reversed_hessian(coeff, dphi, grid):
    """tr(coeff @ H(dphi)) evaluated with the periodic stencils; real field."""
    H = gridmod.complex_hessian(dphi, grid)
    return np.einsum("...ij,...ji->...", coeff, H).real


def _newton_step(problem, coeff, r, krylov_rtol):
    """Solve the bordered system tr(coeff H(dphi)) - db = -r, mean(dphi) = 0.

    The preconditioner is the exact inverse of the bordered system with
    coeff frozen at its grid mean Tbar: db = -mean(top), the mean of dphi
    is the bordered entry, and the mean-free part of top goes through the
    torus inverse of tr(Tbar H(.)) (grid.frozen_hessian_inverse).

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
        top = apply_trace_reversed_hessian(coeff, dphi, g) - db
        bottom = np.array([dphi.mean()])
        return np.concatenate([top.reshape(-1), bottom])

    frozen = gridmod.frozen_hessian_inverse(coeff.mean(axis=tuple(range(coeff.ndim - 2))), g)

    def precond(u):
        top = u[:m].reshape(shape)
        dphi = frozen(top, u[m])
        return np.concatenate([dphi.reshape(-1), np.array([-top.mean()])])

    op = LinearOperator((m + 1, m + 1), matvec=matvec, dtype=float)
    M = LinearOperator((m + 1, m + 1), matvec=precond, dtype=float)
    rhs = np.concatenate([(-r).reshape(-1), np.array([0.0])])
    # start from the frozen-coefficient solution: exact for constant coeff,
    # and the first matvec then measures a residual instead of applying the
    # operator to zero
    sol, info = lgmres(op, rhs, x0=precond(rhs), M=M, rtol=krylov_rtol, atol=0.0,
                       maxiter=400)
    dphi = sol[:m].reshape(shape)
    return (dphi - dphi.mean(), float(sol[m])), info, matvecs


def damped_newton(start, evaluate, step, tolerance, max_iterations):
    """Damped inexact Newton iteration shared by the periodic and chart solves.

    ``start`` is the evaluated initial iterate ``(iterate, r, sup, state)``:
    the residual field, its sup norm and whatever ``step`` needs.
    ``step(state, r, rtol)`` returns the Krylov result ``(direction, info)``
    for the linearized equation ``J direction = -r`` solved to relative
    tolerance ``rtol``.  ``evaluate(iterate, direction, t)`` returns the
    evaluated trial ``iterate + t * direction`` in the same form as
    ``start`` (the iterate as it is to be kept), or None when the trial
    leaves the admissible set.

    The forcing term is min(1e-2, max(1e-10, 0.05 * sup)).  A trial is
    accepted once its sup residual decreases; t halves from 1 and a step
    below MIN_STEP raises NonConvergenceError, as does a failed Krylov
    solve or an iterate still above tolerance after max_iterations steps.
    Every error carries the residual history.  Returns
    ``(iterate, sup, state, iterations, history)``.
    """
    iterate, r, sup, state = start
    del start  # only the current iterate stays alive
    history = [sup]
    for iterations in range(max_iterations + 1):
        if sup <= tolerance:
            return iterate, sup, state, iterations, history
        if iterations == max_iterations:
            break
        direction, info = step(state, r, min(1e-2, max(1e-10, 0.05 * sup)))
        if info != 0:
            raise NonConvergenceError(f"inner Krylov solve stalled (info={info})", history)
        t = 1.0
        while True:
            trial = evaluate(iterate, direction, t)
            if trial is not None and trial[2] < sup:
                break
            t *= 0.5
            if t < MIN_STEP:
                raise NonConvergenceError(
                    f"line search stalled below the minimum step (residual {sup:.3e})",
                    history,
                )
        iterate, r, sup, state = trial
        history.append(sup)
    raise NonConvergenceError(
        f"no convergence in {max_iterations} iterations (residual {sup:.3e})", history
    )


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
    r = log_f - problem.F - b
    return (phi, b), r, float(np.max(np.abs(r))), phi


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
        sup_t = float(np.max(np.abs(r_t)))
        trial_phi -= trial_phi.mean()
        return (trial_phi, trial_b), r_t, sup_t, trial_phi

    krylov_iterations = []

    def step(phi, r, krylov_rtol):
        gt, _ = _eigs_of_twisted(problem, phi)
        # nested, so the linearization is freed before the Krylov solve
        coeff = hermlin.trace_reversal(hermlin.linearization(problem.spec, problem.g, gt),
                                       problem.g, g_inv=problem.g_inv)
        direction, info, matvecs = _newton_step(problem, coeff, r, krylov_rtol)
        krylov_iterations.append(matvecs)
        return direction, info

    (phi, b), sup, _, iterations, history = damped_newton(
        _primary_start(problem, initial), evaluate, step,
        problem.tolerance, problem.max_iterations,
    )
    return PrimarySolution(gridmod.normalize_sup(phi), b, sup, iterations, history,
                           krylov_iterations)


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
    eigenvalues in the largest cone only constrains the metric trace.
    """
    phi = np.asarray(phi, dtype=float)
    if g_inv is None:
        g_inv = gridmod.hermitian_inverse(g)
    lap = gridmod.laplacian(phi, g, grid, g_inv=g_inv)
    c_prime = float(np.max(np.einsum("...ij,...ji->...", g_inv, g_h).real))
    laplacian_margin = float(np.min(lap) + c_prime)
    n = grid.n
    rescaled = n + (n / c_prime) * lap
    rescaled_trace_min = float(np.min(rescaled))
    l1 = gridmod.integrate(-phi, gridmod.volume_density(g), grid)
    return L1BoundReport(c_prime, laplacian_margin, rescaled_trace_min, l1)
