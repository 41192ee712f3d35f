"""Pointwise Hermitian linear algebra for the twisted metric ansatz.

Generalized eigenvalues of a Hermitian pair, the linearization coefficients
of log f at a point, their trace reversal, and a verifier for the two
pointwise identities the comparison argument rests on:

  (a) contracting the trace reversal with the complex Hessian recovers
      1 - <linearization, reference metric>;
  (b) the trace reversal is positive definite with determinant (taken in a
      g-orthonormal frame) at least det of the linearization, which is at
      least gamma / f**n.

The type of the fields picks the kernel.  Planes in (grid.HermitianPlanes:
h_00, h_11, Re h_01, Im h_01 of an n = 2 field, Hermitian by construction)
run the closed forms and give planes out: the Cholesky factor of g, its
inverse and the reduced matrix entry by entry, the eigenvalues as
mean -/+ rad, the linearization without eigenvectors, and the metric
inverse and determinant under the trace reversal (grid.hermitian_inverse
over grid.volume_density).  Complex fields in run the general path
(Cholesky reduction, eigvalsh/eigh, np.linalg.inv) at any n, n = 2
included, which checks its inputs on every call and is the reference the
closed forms are tested against.  A metric enters the program once,
through checked_metric: finite, Hermitian and positive definite, and read
as planes at n = 2; an n = 2 metric that is one matrix at every point, bit
for bit, enters as four 0-d planes, which every closed form broadcasts, so
a constant metric is four numbers and not four fields.

All functions broadcast over leading batch axes; matrices live on the last
two axes.  Matrix-valued tensors with upper indices (the linearization, its
trace reversal) pair with lower-index metrics by a plain matrix trace, and
their determinant inequalities are read in a g-orthonormal frame.
"""

from __future__ import annotations

import numpy as np

from . import symfun
from .errors import InconsistentInputError, MetricDegeneracyError, UnsupportedDimensionError
from .grid import (
    HermitianPlanes,
    hermitian_inverse,
    hermitian_planes,
    hermitian_trace,
    twisted_from_hessian,
)

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


def _checked_hermitian(a, name):
    a = _as_matrix(a, name)
    if not is_hermitian(a, tol=1e-12):
        raise MetricDegeneracyError(f"{name} is not Hermitian")
    return a


def cholesky_pd(g, name="metric"):
    """Lower Cholesky factor; MetricDegeneracyError if not HPD."""
    g = _checked_hermitian(g, name)
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise MetricDegeneracyError(f"{name} is not positive definite") from exc


def _reduce_pencil(g, gt):
    """Cholesky reduction of the pair (g, gt) to a standard Hermitian matrix.

    Returns (L, M) with g = L L^H and M = L^-1 gt L^-H.  The general-n
    reference path; _reduce_pencil_2x2 is its closed form for n = 2.
    """
    gt = _as_matrix(gt, "twisted metric")
    if not is_hermitian(gt, tol=1e-10):
        raise ValueError("twisted metric must be Hermitian")
    L = cholesky_pd(g)
    tmp = np.linalg.solve(L, gt)
    M = np.conj(np.swapaxes(np.linalg.solve(L, np.conj(np.swapaxes(tmp, -1, -2))), -1, -2))
    return L, hermitian_part(M)


def _schur_2x2(g, name="metric"):
    """g11 - |g01|^2 / g00 of planes g; MetricDegeneracyError unless it and
    g00 are positive, that is unless g is positive definite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        schur = g.h11 - (g.re01 * g.re01 + g.im01 * g.im01) / g.h00
    if not (np.all(g.h00 > 0.0) and np.all(schur > 0.0)):
        raise MetricDegeneracyError(f"{name} is not positive definite")
    return schur


def checked_metric(a, name="metric"):
    """A metric as it enters the program: planes at n = 2, the complex field
    otherwise.  MetricDegeneracyError naming it if it is not finite, not
    Hermitian to 1e-12 or not positive definite (at n = 2 the Schur test of
    the closed form, otherwise cholesky_pd), each checked on the whole field.

    The planes are views of a, except that a field whose planes each hold
    one value bit for bit at every point (a +0.0 and a -0.0 differ) gives
    four 0-d planes: every closed form broadcasts them and computes the
    bytes of the full planes, so a constant metric is never streamed."""
    a = _as_matrix(a, name)
    if not np.all(np.isfinite(a)):
        raise MetricDegeneracyError(f"{name} is not finite")
    if a.shape[-1] != 2:
        cholesky_pd(a, name)
        return a
    planes = hermitian_planes(_checked_hermitian(a, name))
    _schur_2x2(planes, name)
    if planes.h00.size and all(np.all(bits == bits.flat[0])
                               for bits in (p.view(np.int64) for p in planes)):
        return HermitianPlanes(*(np.array(p.flat[0]) for p in planes))
    return planes


def checked_parts(g, g_h, phi_h):
    """A metric g, reference metric g_h and complex Hessian phi_h as the
    pointwise layer takes them: planes at n = 2, the complex fields
    otherwise.  The metrics enter through checked_metric (a g_h that is g
    is checked and read with g).  The Hessian must be finite and, unless it
    comes as planes (n = 2 only, Hermitian by construction), Hermitian to
    1e-12 (ValueError)."""
    metric = checked_metric(g, "metric")
    reference = metric if g_h is g else checked_metric(g_h, "reference metric")
    planes = isinstance(metric, HermitianPlanes)
    if isinstance(phi_h, HermitianPlanes):
        if not planes:
            raise ValueError("complex Hessian planes need a 2 x 2 metric")
        if not all(np.all(np.isfinite(p)) for p in phi_h):
            raise ValueError("complex Hessian is not finite")
        return metric, reference, phi_h
    phi_h = _as_matrix(phi_h, "complex Hessian")
    if not np.all(np.isfinite(phi_h)):
        raise ValueError("complex Hessian is not finite")
    if not is_hermitian(phi_h, tol=1e-12):
        raise ValueError("complex Hessian must be Hermitian")
    return metric, reference, hermitian_planes(phi_h) if planes else phi_h


def _reduce_pencil_2x2(g, gt):
    """_reduce_pencil on planes, entry by entry.

    Returns ((a, cr, ci, d), (m00, m11, m01r, m01i)): L^-1 = [[a, 0], [c, d]],
    c = cr + 1j ci, for the Cholesky factor L = [[sqrt(g00), 0],
    [g10 / sqrt(g00), sqrt(schur)]], schur = g11 - |g10|^2 / g00, and the
    planes of M = L^-1 gt L^-H.  MetricDegeneracyError if g is not positive
    definite.
    """
    d = 1.0 / np.sqrt(_schur_2x2(g))
    a = 1.0 / np.sqrt(g.h00)
    # c = -g10 a^2 d with g10 = conj(g01)
    scale = a * a * d
    cr = -g.re01 * scale
    ci = g.im01 * scale
    h00 = gt.h00
    m00 = a * a * h00
    m01r = a * (h00 * cr + d * gt.re01)
    m01i = a * (d * gt.im01 - h00 * ci)
    # x * x, not x**2: from a constant metric's 0-d planes cr and ci are
    # numpy scalars, whose ** is libm pow and may round otherwise than the
    # np.square of an array (as it may in _schur_2x2 and volume_density)
    m11 = (cr * cr + ci * ci) * h00 + 2.0 * d * (cr * gt.re01 - ci * gt.im01) + d * d * gt.h11
    return (a, cr, ci, d), (m00, m11, m01r, m01i)


def _eigs_2x2(m00, m11, m01r, m01i):
    """Ascending eigenvalues mean -/+ rad of a Hermitian 2x2 matrix given as
    planes, rad, and half = (m00 - m11) / 2."""
    mean = 0.5 * (m00 + m11)
    half = 0.5 * (m00 - m11)
    rad = np.hypot(half, np.hypot(m01r, m01i))
    return np.stack([mean - rad, mean + rad], axis=-1), rad, half


def endomorphism_eigs(g, gt):
    """Eigenvalues of g^-1 gt, ascending; real because the pair is Hermitian.

    Closed form on planes, Cholesky reduction and eigvalsh on complex fields.
    """
    if not isinstance(g, HermitianPlanes):
        return np.linalg.eigvalsh(_reduce_pencil(g, gt)[1])
    return _eigs_2x2(*_reduce_pencil_2x2(g, gt)[1])[0]


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

    On planes it takes a closed form, planes out, and forms no eigenvectors:
    with d = grad f / f at the eigenvalues mean -/+ rad of M = L^-1 gt L^-H,
    U diag(d) U^H equals s I + (dd / (2 rad)) (M - mean I) with
    s = (d0 + d1) / 2, dd = d1 - d0, and s I at rad = 0; dd / rad stays
    bounded as the eigenvalues merge.  It is pushed back as G = L^-H P L^-1.
    """
    if not isinstance(g, HermitianPlanes):
        lam, V = g_orthonormal_eigenframe(g, gt)
        dlog = symfun.gradient(spec, lam) / symfun.evaluate(spec, lam)[..., None]
        return hermitian_part(np.einsum("...ik,...k,...jk->...ij", V, dlog, np.conj(V)))
    (a, cr, ci, d), (m00, m11, m01r, m01i) = _reduce_pencil_2x2(g, gt)
    lam, rad, half = _eigs_2x2(m00, m11, m01r, m01i)
    dlog = symfun.gradient(spec, lam) / symfun.evaluate(spec, lam)[..., None]
    s = 0.5 * (dlog[..., 0] + dlog[..., 1])
    k = np.divide(0.5 * (dlog[..., 1] - dlog[..., 0]), rad,
                  out=np.zeros_like(rad), where=rad > 0.0)
    kd = k * half
    p00, p11 = s + kd, s - kd
    p01r, p01i = k * m01r, k * m01i
    return HermitianPlanes(
        a * a * p00 + 2.0 * a * (p01r * cr - p01i * ci) + (cr * cr + ci * ci) * p11,
        d * d * p11,
        d * (a * p01r + cr * p11),
        d * (a * p01i - ci * p11),
    )


def trace_reversal(G, g, g_inv=None):
    """Trace reversal (tr(G g) g^-1 - G) / (n - 1) of an upper-index tensor.

    These are the elliptic coefficients through which the twisted metric
    couples to the complex Hessian: tr(T @ hess) equals the linearized
    operator applied to the potential.  g_inv, when given, is g^-1.  Planes
    in (G, g and g_inv) give planes out, complex fields a complex field.
    """
    if isinstance(G, HermitianPlanes):
        t = hermitian_trace(G, g)
        # n - 1 = 1: each plane is t g^-1 - G
        planes = []
        for ip, Gp in zip(hermitian_inverse(g) if g_inv is None else g_inv, G):
            p = t * ip
            p -= Gp
            planes.append(p)
        return HermitianPlanes(*planes)
    G = _as_matrix(G, "linearization")
    n = G.shape[-1]
    if n < 2:
        raise UnsupportedDimensionError("trace reversal needs dimension >= 2")
    g = _as_matrix(g, "metric")
    if g_inv is None:
        g_inv = hermitian_inverse(g)
    t = hermitian_trace(G, g)
    return (t[..., None, None] * g_inv - G) / (n - 1)


def _in_frame(L, tensor):
    return np.conj(np.swapaxes(L, -1, -2)) @ tensor @ L


def verify_trace_reversal_identities(spec, g, g_h, phi_h):
    """Check the two pointwise identities on a (batch of) admissible data.

    Preconditions: g, g_h HPD; phi_h Hermitian (or planes at n = 2); the
    eigenvalues of the twisted metric built from (g, g_h, phi_h) in the
    cone.  Each input is
    checked once, here (checked_parts); for n = 2 the twisted metric, the
    linearization and its trace reversal are computed on planes.  Returns the
    ``identities`` suite of ``check.json``: worst-case residuals and margins
    over the batch (det_slack is det(trace reversal) - gamma/f**n,
    chain_slack det(trace reversal) - det(linearization), both in a
    g-orthonormal frame) and whether they all pass.
    """
    m, m_h, hess = checked_parts(g, g_h, phi_h)
    if isinstance(phi_h, HermitianPlanes):
        phi_h = phi_h.matrix()
    g, g_h, phi_h = (np.asarray(a, dtype=complex) for a in (g, g_h, phi_h))
    L = np.linalg.cholesky(g)
    gt = twisted_from_hessian(hess, m, m_h)
    lam = endomorphism_eigs(m, gt)
    f = symfun.evaluate(spec, lam)
    G = linearization(spec, m, gt)
    T = trace_reversal(G, m)
    if isinstance(G, HermitianPlanes):
        gt, G, T = gt.matrix(), G.matrix(), T.matrix()

    # the residuals are read in the complex arithmetic of the general path
    trace_residual = float(np.max(np.abs(hermitian_trace(G, gt) - 1.0)))
    lhs = hermitian_trace(T, phi_h)
    rhs = 1.0 - hermitian_trace(G, g_h)
    identity_residual = float(np.max(np.abs(lhs - rhs)))

    T_frame = _in_frame(L, T)
    G_frame = _in_frame(L, G)
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
