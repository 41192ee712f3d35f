"""Pointwise Hermitian linear algebra for the twisted metric ansatz.

Generalized eigenvalues of a Hermitian pair, the linearization coefficients
of log f at a point, their trace reversal, and a verifier for the two
pointwise identities the comparison argument rests on:

  (a) contracting the trace reversal with the complex Hessian recovers
      1 - <linearization, reference metric>;
  (b) the trace reversal is positive definite with determinant (taken in a
      g-orthonormal frame) at least det of the linearization, which is at
      least gamma / f**n.

All functions broadcast over leading batch axes; matrices live on the last
two axes.  Matrix-valued tensors with upper indices (the linearization, its
trace reversal) pair with lower-index metrics by a plain matrix trace, and
their determinant inequalities are read in a g-orthonormal frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symfun
from .errors import (
    InconsistentInputError,
    MetricDegeneracyError,
    UnsupportedDimensionError,
)
from .grid import twisted_from_hessian

TRACE_TOL = 1e-10        # |tr(G gt) - 1|
IDENTITY_TOL = 1e-9      # residual of identity (a)
DET_SLACK_TOL = -1e-12   # det slack may round slightly negative
CHAIN_SLACK_TOL = -1e-11  # det(reversal) - det(linearization) ties exactly for n=2
CONSISTENCY_TOL = 1e-12  # relative defect of the supplied twisted metric


def hermitian_part(a):
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def is_hermitian(a, tol=1e-12):
    a = np.asarray(a)
    scale = 1.0 + np.max(np.abs(a))
    return bool(np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2)))) <= tol * scale)


def _as_matrix(a, name):
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square on the last two axes")
    if a.shape[-1] < 1:
        raise ValueError(f"{name} is empty")
    return a


def cholesky_pd(g, name="metric"):
    """Lower Cholesky factor; MetricDegeneracyError if not HPD."""
    g = _as_matrix(g, name)
    if not is_hermitian(g, tol=1e-12):
        raise MetricDegeneracyError(f"{name} is not Hermitian")
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise MetricDegeneracyError(f"{name} is not positive definite") from exc


def _reduce_pencil(g, gt):
    """Cholesky reduction of the pair (g, gt) to a standard Hermitian matrix.

    Returns (L, M) with g = L L^H and M = L^-1 gt L^-H.
    """
    gt = _as_matrix(gt, "twisted metric")
    if not is_hermitian(gt, tol=1e-10):
        raise ValueError("twisted metric must be Hermitian")
    L = cholesky_pd(g)
    tmp = np.linalg.solve(L, gt)
    M = np.conj(np.swapaxes(np.linalg.solve(L, np.conj(np.swapaxes(tmp, -1, -2))), -1, -2))
    return L, hermitian_part(M)


def endomorphism_eigs(g, gt):
    """Eigenvalues of g^-1 gt, ascending; real because the pair is Hermitian."""
    _, M = _reduce_pencil(g, gt)
    return np.linalg.eigvalsh(M)


def g_orthonormal_eigenframe(g, gt):
    """Eigenpairs (lam, V) with V^H g V = I and V^H gt V = diag(lam)."""
    L, M = _reduce_pencil(g, gt)
    lam, U = np.linalg.eigh(M)
    V = np.linalg.solve(np.conj(np.swapaxes(L, -1, -2)), U)
    return lam, V


def linearization(spec, g, gt):
    """Coefficient matrix of the linearized log-operator at (g, gt).

    In a g-orthonormal eigenframe the matrix is diag(df/dlam_j / f); pushed
    back to the ambient frame it satisfies tr(G @ gt) = 1 (degree-1
    homogeneity) and is Hermitian positive definite.
    """
    lam, V = g_orthonormal_eigenframe(g, gt)
    f = symfun.evaluate(spec, lam)
    grads = symfun.gradient(spec, lam)
    d = grads / f[..., None]
    return hermitian_part(np.einsum("...ik,...k,...jk->...ij", V, d, np.conj(V)))


def trace_reversal(G, g):
    """Trace reversal (tr(G g) g^-1 - G) / (n - 1) of an upper-index tensor.

    These are the elliptic coefficients through which the twisted metric
    couples to the complex Hessian: tr(T @ hess) equals the linearized
    operator applied to the potential.
    """
    G = _as_matrix(G, "linearization")
    n = G.shape[-1]
    if n < 2:
        raise UnsupportedDimensionError("trace reversal needs dimension >= 2")
    g = _as_matrix(g, "metric")
    t = np.einsum("...ij,...ji->...", G, g).real
    g_inv = np.linalg.inv(g)
    return (t[..., None, None] * g_inv - G) / (n - 1)


def to_orthonormal_frame(g, tensor):
    """Matrix of an upper-index tensor in a g-orthonormal frame (L^H T L)."""
    L = cholesky_pd(g)
    return np.conj(np.swapaxes(L, -1, -2)) @ tensor @ L


@dataclass(frozen=True)
class TraceReversalReport:
    """Residuals and margins of the pointwise identities (worst over batch).

    det_slack is det(trace reversal) - gamma/f**n, chain_slack is
    det(trace reversal) - det(linearization); both in a g-orthonormal frame.
    """

    residual_a: float
    pd_margin: float
    det_slack: float
    chain_slack: float
    trace_residual: float

    @property
    def passed(self):
        return (
            self.residual_a <= IDENTITY_TOL
            and self.pd_margin > 0.0
            and self.det_slack >= DET_SLACK_TOL
            and self.chain_slack >= CHAIN_SLACK_TOL
            and self.trace_residual <= TRACE_TOL
        )


def verify_trace_reversal_identities(spec, g, g_h, gt, phi_h):
    """Check the two pointwise identities on a (batch of) admissible data.

    Preconditions: g, g_h HPD; phi_h Hermitian; gt consistent with
    (g, g_h, phi_h) to CONSISTENCY_TOL (relative); eigenvalues in the cone.
    Returns worst-case residuals over the batch.
    """
    g = _as_matrix(g, "metric")
    g_h = _as_matrix(g_h, "reference metric")
    phi_h = _as_matrix(phi_h, "complex Hessian")
    gt = _as_matrix(gt, "twisted metric")
    if not is_hermitian(phi_h, tol=1e-12):
        raise ValueError("complex Hessian must be Hermitian")
    cholesky_pd(g_h, "reference metric")
    rebuilt = twisted_from_hessian(phi_h, g, g_h)
    scale = 1.0 + np.max(np.abs(gt))
    defect = np.max(np.abs(gt - rebuilt)) / scale
    if defect > CONSISTENCY_TOL:
        raise InconsistentInputError(
            f"twisted metric inconsistent with its parts (defect {defect:.3e})"
        )

    lam, _ = g_orthonormal_eigenframe(g, gt)
    f = symfun.evaluate(spec, lam)
    G = linearization(spec, g, gt)
    T = trace_reversal(G, g)

    trace_residual = float(np.max(np.abs(np.einsum("...ij,...ji->...", G, gt).real - 1.0)))
    lhs = np.einsum("...ij,...ji->...", T, phi_h).real
    rhs = 1.0 - np.einsum("...ij,...ji->...", G, g_h).real
    residual_a = float(np.max(np.abs(lhs - rhs)))

    T_frame = to_orthonormal_frame(g, T)
    G_frame = to_orthonormal_frame(g, G)
    pd_margin = float(np.min(np.linalg.eigvalsh(hermitian_part(T_frame))))
    det_T = np.linalg.det(hermitian_part(T_frame)).real
    det_G = np.linalg.det(hermitian_part(G_frame)).real
    bound = spec.gamma / f**spec.dim
    det_slack = float(np.min(det_T - bound))
    chain_slack = float(np.min(det_T - det_G))
    return TraceReversalReport(residual_a, pd_margin, det_slack, chain_slack, trace_residual)


def random_admissible_parts(spec, count, rng, metric_scale=0.2, hess_scale=0.25,
                            margin_floor=0.05):
    """Sample admissible (g, g_h, phi_h, gt) batches for property suites.

    Metrics are identity plus a small random Hermitian perturbation (kept
    HPD by construction scale); tuples whose cone margin falls below
    margin_floor are rejected, so the samples model the uniformly elliptic
    regime where the determinant bound stays at bounded magnitude (near the
    cone boundary the bound gamma/f^n blows up and its roundoff with it).
    """
    n = spec.dim
    out = []
    have = 0
    while have < count:
        m = max(2 * (count - have), 32)
        g = np.eye(n) + _random_hermitian(m, n, rng, metric_scale)
        g_h = np.eye(n) + _random_hermitian(m, n, rng, metric_scale)
        phi_h = _random_hermitian(m, n, rng, hess_scale)
        ok = np.linalg.eigvalsh(g)[..., 0] > 0.05
        ok &= np.linalg.eigvalsh(g_h)[..., 0] > 0.05
        g, g_h, phi_h = g[ok], g_h[ok], phi_h[ok]
        gt = twisted_from_hessian(phi_h, g, g_h)
        lam = endomorphism_eigs(g, gt)
        keep = symfun.interior_margin(lam, spec.cone) > margin_floor
        g, g_h, phi_h, gt = g[keep], g_h[keep], phi_h[keep], gt[keep]
        take = min(len(g), count - have)
        out.append((g[:take], g_h[:take], phi_h[:take], gt[:take]))
        have += take
    gs, ghs, phs, gts = zip(*out)
    return (
        np.concatenate(gs),
        np.concatenate(ghs),
        np.concatenate(phs),
        np.concatenate(gts),
    )


def _random_hermitian(m, n, rng, scale):
    a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return scale * hermitian_part(a)
