"""Pointwise Hermitian linear algebra for the twisted metric ansatz.

Generalized eigenvalues of a Hermitian pair, the linearization coefficients
of log f at a point, their trace reversal, and a verifier for the two
pointwise identities the comparison argument rests on:

  (a) contracting the trace reversal with the complex Hessian recovers
      1 - <linearization, reference metric>;
  (b) the trace reversal is positive definite with determinant (taken in a
      g-orthonormal frame) at least det of the linearization, which is at
      least gamma / f**n.

For n = 2, endomorphism_eigs and linearization take a closed form: the
Cholesky factor of g, its inverse and the reduced matrix entry by entry,
the eigenvalues as mean -/+ rad, and the linearization without
eigenvectors.  So do the metric inverse that trace_reversal takes when no
g_inv is given and the determinant under it (grid.hermitian_inverse, the
adjugate over grid.volume_density's g_00 g_11 - |g_01|^2).  The general
path (Cholesky reduction, eigvalsh/eigh, np.linalg.inv) serves n >= 3 and
is the reference the closed form is tested against.

All functions broadcast over leading batch axes; matrices live on the last
two axes.  Matrix-valued tensors with upper indices (the linearization, its
trace reversal) pair with lower-index metrics by a plain matrix trace, and
their determinant inequalities are read in a g-orthonormal frame.
"""

from __future__ import annotations

import numpy as np

from . import symfun
from .errors import InconsistentInputError, MetricDegeneracyError, UnsupportedDimensionError
from .grid import hermitian_inverse, twisted_from_hessian

TRACE_TOL = 1e-10        # |tr(G gt) - 1|
IDENTITY_TOL = 1e-9      # residual of identity (a)
DET_SLACK_TOL = -1e-12   # det slack may round slightly negative
CHAIN_SLACK_TOL = -1e-11  # det(reversal) - det(linearization) ties exactly for n=2


def hermitian_part(a):
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def is_hermitian(a, tol=1e-12):
    a = np.asarray(a)
    scale = 1.0 + np.max(np.abs(a))
    # |a_ij - conj(a_ji)| is symmetric in (i, j): read each pair once
    n = a.shape[-1]
    defect = np.max([np.max(np.abs(a[..., i, j] - np.conj(a[..., j, i])))
                     for i in range(n) for j in range(i, n)])
    return bool(defect <= tol * scale)


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


def _twisted_matrix(gt):
    gt = _as_matrix(gt, "twisted metric")
    if not is_hermitian(gt, tol=1e-10):
        raise ValueError("twisted metric must be Hermitian")
    return gt


def _reduce_pencil(g, gt):
    """Cholesky reduction of the pair (g, gt) to a standard Hermitian matrix.

    Returns (L, M) with g = L L^H and M = L^-1 gt L^-H.  The general-n
    reference path; _reduce_pencil_2x2 is its closed form for n = 2.
    """
    gt = _twisted_matrix(gt)
    L = cholesky_pd(g)
    tmp = np.linalg.solve(L, gt)
    M = np.conj(np.swapaxes(np.linalg.solve(L, np.conj(np.swapaxes(tmp, -1, -2))), -1, -2))
    return L, hermitian_part(M)


def _reduce_pencil_2x2(g, gt):
    """_reduce_pencil for n = 2, entry by entry, with the same checks.

    Returns ((a, c, d), (m00, m01, m11)): L^-1 = [[a, 0], [c, d]] for the
    Cholesky factor L = [[sqrt(g00), 0], [g10 / sqrt(g00), sqrt(schur)]],
    schur = g11 - |g10|^2 / g00, and the upper triangle of M = L^-1 gt L^-H
    (a, d and the diagonal of M real).
    """
    gt = _twisted_matrix(gt)
    g = _as_matrix(g, "metric")
    if gt.shape[-1] != 2:
        raise ValueError("metric and twisted metric must have the same size")
    if not is_hermitian(g, tol=1e-12):
        raise MetricDegeneracyError("metric is not Hermitian")
    g00 = g[..., 0, 0].real
    g10 = g[..., 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        schur = g[..., 1, 1].real - (g10.real**2 + g10.imag**2) / g00
    if not (np.all(g00 > 0.0) and np.all(schur > 0.0)):
        raise MetricDegeneracyError("metric is not positive definite")
    a = 1.0 / np.sqrt(g00)
    d = 1.0 / np.sqrt(schur)
    c = -g10 * (a * a * d)
    # Hermitian part of gt, as the reference takes of M
    h00 = gt[..., 0, 0].real
    h11 = gt[..., 1, 1].real
    h01 = 0.5 * (gt[..., 0, 1] + np.conj(gt[..., 1, 0]))
    ch01 = c * h01
    m00 = a * a * h00
    m01 = a * (h00 * np.conj(c) + d * h01)
    m11 = (c.real**2 + c.imag**2) * h00 + 2.0 * d * ch01.real + d * d * h11
    return (a, c, d), (m00, m01, m11)


def _is_2x2(g):
    return np.shape(g)[-2:] == (2, 2)


def _eigs_2x2(m00, m01, m11):
    """Ascending eigenvalues mean -/+ rad of a Hermitian 2x2 matrix, and rad."""
    mean = 0.5 * (m00 + m11)
    rad = np.hypot(0.5 * (m00 - m11), np.abs(m01))
    return np.stack([mean - rad, mean + rad], axis=-1), rad


def endomorphism_eigs(g, gt):
    """Eigenvalues of g^-1 gt, ascending; real because the pair is Hermitian.

    Closed form for n = 2, Cholesky reduction and eigvalsh otherwise.
    """
    if _is_2x2(g):
        return _eigs_2x2(*_reduce_pencil_2x2(g, gt)[1])[0]
    return _endomorphism_eigs_general(g, gt)


def _endomorphism_eigs_general(g, gt):
    return np.linalg.eigvalsh(_reduce_pencil(g, gt)[1])


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

    For n = 2 no eigenvectors are formed: with d = grad f / f at the
    eigenvalues mean -/+ rad of M = L^-1 gt L^-H, U diag(d) U^H equals
    s I + (dd / (2 rad)) (M - mean I) with s = (d0 + d1) / 2, dd = d1 - d0,
    and s I at rad = 0; dd / rad stays bounded as the eigenvalues merge.
    It is pushed back as G = L^-H P L^-1.
    """
    if not _is_2x2(g):
        return _linearization_general(spec, g, gt)
    (a, c, d), (m00, m01, m11) = _reduce_pencil_2x2(g, gt)
    lam, rad = _eigs_2x2(m00, m01, m11)
    dlog = symfun.gradient(spec, lam) / symfun.evaluate(spec, lam)[..., None]
    s = 0.5 * (dlog[..., 0] + dlog[..., 1])
    k = np.divide(0.5 * (dlog[..., 1] - dlog[..., 0]), rad,
                  out=np.zeros_like(rad), where=rad > 0.0)
    kd = k * (0.5 * (m00 - m11))
    p00, p01, p11 = s + kd, k * m01, s - kd
    G = np.empty(np.shape(p00) + (2, 2), dtype=complex)
    G[..., 0, 0] = a * a * p00 + 2.0 * a * (p01 * c).real + (c.real**2 + c.imag**2) * p11
    G[..., 0, 1] = d * (a * p01 + np.conj(c) * p11)
    G[..., 1, 0] = np.conj(G[..., 0, 1])
    G[..., 1, 1] = d * d * p11
    return G


def _linearization_general(spec, g, gt):
    lam, V = g_orthonormal_eigenframe(g, gt)
    f = symfun.evaluate(spec, lam)
    grads = symfun.gradient(spec, lam)
    d = grads / f[..., None]
    return hermitian_part(np.einsum("...ik,...k,...jk->...ij", V, d, np.conj(V)))


def trace_reversal(G, g, g_inv=None):
    """Trace reversal (tr(G g) g^-1 - G) / (n - 1) of an upper-index tensor.

    These are the elliptic coefficients through which the twisted metric
    couples to the complex Hessian: tr(T @ hess) equals the linearized
    operator applied to the potential.  g_inv, when given, is g^-1.
    """
    G = _as_matrix(G, "linearization")
    n = G.shape[-1]
    if n < 2:
        raise UnsupportedDimensionError("trace reversal needs dimension >= 2")
    g = _as_matrix(g, "metric")
    t = np.einsum("...ij,...ji->...", G, g).real
    if g_inv is None:
        g_inv = hermitian_inverse(g)
    return (t[..., None, None] * g_inv - G) / (n - 1)


def to_orthonormal_frame(g, tensor):
    """Matrix of an upper-index tensor in a g-orthonormal frame (L^H T L)."""
    L = cholesky_pd(g)
    return np.conj(np.swapaxes(L, -1, -2)) @ tensor @ L


def verify_trace_reversal_identities(spec, g, g_h, phi_h):
    """Check the two pointwise identities on a (batch of) admissible data.

    Preconditions: g, g_h HPD; phi_h Hermitian; the eigenvalues of the
    twisted metric built from (g, g_h, phi_h) in the cone.  Returns the
    ``identities`` suite of ``check.json``: worst-case residuals and margins
    over the batch (det_slack is det(trace reversal) - gamma/f**n,
    chain_slack det(trace reversal) - det(linearization), both in a
    g-orthonormal frame) and whether they all pass.
    """
    g = _as_matrix(g, "metric")
    g_h = _as_matrix(g_h, "reference metric")
    phi_h = _as_matrix(phi_h, "complex Hessian")
    if not is_hermitian(phi_h, tol=1e-12):
        raise ValueError("complex Hessian must be Hermitian")
    cholesky_pd(g_h, "reference metric")
    gt = twisted_from_hessian(phi_h, g, g_h)

    lam = endomorphism_eigs(g, gt)
    f = symfun.evaluate(spec, lam)
    G = linearization(spec, g, gt)
    T = trace_reversal(G, g)

    trace_residual = float(np.max(np.abs(np.einsum("...ij,...ji->...", G, gt).real - 1.0)))
    lhs = np.einsum("...ij,...ji->...", T, phi_h).real
    rhs = 1.0 - np.einsum("...ij,...ji->...", G, g_h).real
    identity_residual = float(np.max(np.abs(lhs - rhs)))

    T_frame = to_orthonormal_frame(g, T)
    G_frame = to_orthonormal_frame(g, G)
    pd_margin = float(np.min(np.linalg.eigvalsh(hermitian_part(T_frame))))
    det_T = np.linalg.det(hermitian_part(T_frame)).real
    det_G = np.linalg.det(hermitian_part(G_frame)).real
    bound = spec.gamma / f**spec.dim
    det_slack = float(np.min(det_T - bound))
    chain_slack = float(np.min(det_T - det_G))
    return {
        "identity_residual": identity_residual,
        "trace_residual": trace_residual,
        "pd_margin": pd_margin,
        "det_slack": det_slack,
        "chain_slack": chain_slack,
        "passed": bool(identity_residual <= IDENTITY_TOL and pd_margin > 0.0
                       and det_slack >= DET_SLACK_TOL and chain_slack >= CHAIN_SLACK_TOL
                       and trace_residual <= TRACE_TOL),
    }


def random_admissible_parts(spec, count, rng):
    """Sample admissible (g, g_h, phi_h) batches for property suites.

    Metrics are identity plus a random Hermitian perturbation of scale 0.2
    (kept HPD: a metric with an eigenvalue at most 0.05 is dropped), and
    Hessians random Hermitian of scale 0.25; tuples whose interior cone
    margin is at most 0.05 are rejected, so the samples model the uniformly
    elliptic regime where the determinant bound stays at bounded magnitude
    (near the cone boundary the bound gamma/f^n blows up and its roundoff
    with it).  Raises InconsistentInputError when 200 rounds fall short of
    count, as in high dimension, where few perturbed metrics stay HPD.
    """
    n = spec.dim
    out = []
    have = 0
    for _ in range(200):
        m = max(2 * (count - have), 32)
        g = np.eye(n) + _random_hermitian(m, n, rng, 0.2)
        g_h = np.eye(n) + _random_hermitian(m, n, rng, 0.2)
        phi_h = _random_hermitian(m, n, rng, 0.25)
        ok = np.linalg.eigvalsh(g)[..., 0] > 0.05
        ok &= np.linalg.eigvalsh(g_h)[..., 0] > 0.05
        if not np.any(ok):
            continue
        g, g_h, phi_h = g[ok], g_h[ok], phi_h[ok]
        lam = endomorphism_eigs(g, twisted_from_hessian(phi_h, g, g_h))
        keep = symfun.interior_margin(lam, spec.cone) > 0.05
        take = min(int(np.count_nonzero(keep)), count - have)
        out.append((g[keep][:take], g_h[keep][:take], phi_h[keep][:take]))
        have += take
        if have == count:
            return tuple(np.concatenate(parts) for parts in zip(*out))
    raise InconsistentInputError(
        f"dimension {n}: fewer than {count} admissible samples after 200 rounds "
        f"of random metric perturbations"
    )


def _random_hermitian(m, n, rng, scale):
    a = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return scale * hermitian_part(a)
