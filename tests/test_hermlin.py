"""Hermitian pencil reduction, linearization, and trace-reversal identities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nformpde.errors import MetricDegeneracyError
from nformpde.grid import (
    HermitianPlanes,
    TorusGrid,
    complex_hessian,
    hermitian_inverse,
    hermitian_planes,
    hermitian_trace,
    laplacian,
    twisted_from_hessian,
    volume_density,
)
from nformpde.hermlin import (
    CHAIN_SLACK_TOL,
    DET_SLACK_TOL,
    _eigs_2x2,
    checked_metric,
    endomorphism_eigs,
    g_orthonormal_eigenframe,
    hermitian_part,
    linearization,
    trace_reversal,
    verify_trace_reversal_identities,
    random_admissible_parts,
)
from nformpde.symfun import hessian, monge_ampere, p_monge_ampere
from test_grid import differing_bytes


def test_endomorphism_eigs_example():
    g = np.eye(2, dtype=complex)
    gt = np.array([[1.0, 1j], [-1j, 1.0]])
    lam = endomorphism_eigs(g, gt)
    assert lam == pytest.approx([0.0, 2.0], abs=1e-14)


def test_eigenframe_diagonalizes_both():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = np.eye(3) + 0.1 * (a + a.conj().T)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    gt = np.eye(3) + 0.1 * (b + b.conj().T)
    lam, v = g_orthonormal_eigenframe(g, gt)
    assert np.allclose(v.conj().T @ g @ v, np.eye(3), atol=1e-12)
    assert np.allclose(v.conj().T @ gt @ v, np.diag(lam), atol=1e-12)


def test_linearization_diagonal_example():
    # f = (l1 l2)^(1/2), g = I, gt = diag(1, 4): G = diag(f_1, f_2)/f
    g = np.eye(2, dtype=complex)
    gt = np.diag([1.0, 4.0]).astype(complex)
    G = linearization(monge_ampere(2), g, gt)
    assert np.allclose(G, np.diag([0.5, 0.125]), atol=1e-14)
    trace = np.einsum("ij,ji->", G, gt).real
    assert trace == pytest.approx(1.0, abs=1e-14)


def test_trace_reversal_examples():
    g = np.eye(2, dtype=complex)
    G = np.diag([0.5, 0.125]).astype(complex)
    T = trace_reversal(G, g)
    # n = 2 swaps the diagonal entries
    assert np.allclose(T, np.diag([0.125, 0.5]), atol=1e-15)
    g3 = np.eye(3, dtype=complex)
    T3 = trace_reversal(np.eye(3, dtype=complex), g3)
    assert np.allclose(T3, np.eye(3), atol=1e-15)


def test_trace_reversal_determinant_ties_linearization_n2():
    # in two dimensions the reversal permutes eigenvalues, dets agree exactly
    rng = np.random.default_rng(7)
    spec = monge_ampere(2)
    g, g_h, phi_h = random_admissible_parts(spec, 200, rng)
    gt = twisted_from_hessian(phi_h, g, g_h)
    G = linearization(spec, g, gt)
    T = trace_reversal(G, g)
    # both in a g-orthonormal frame, L^H (.) L for g = L L^H
    L = np.linalg.cholesky(g)
    det_G = np.linalg.det(_adjoint(L) @ G @ L).real
    det_T = np.linalg.det(_adjoint(L) @ T @ L).real
    assert np.max(np.abs(det_T - det_G)) <= 1e-11


def test_identity_suite_batches():
    rng = np.random.default_rng(41)
    specs = [
        monge_ampere(2),
        monge_ampere(3),
        hessian(3, 1),
        hessian(3, 2),
        p_monge_ampere(3, 2),
    ]
    for spec in specs:
        g, g_h, phi_h = random_admissible_parts(spec, 800, rng)
        report = verify_trace_reversal_identities(spec, g, g_h, phi_h)
        assert report["passed"] is True, (spec.family, report)
        if spec.dim == 2:
            # a Hessian given as planes is checked and read as the same field
            planes = verify_trace_reversal_identities(spec, g, g_h, hermitian_planes(phi_h))
            assert planes == report
        assert report["identity_residual"] <= 1e-9
        assert report["trace_residual"] <= 1e-10
        assert report["pd_margin"] > 0.0
        assert report["det_slack"] >= DET_SLACK_TOL
        assert report["chain_slack"] >= CHAIN_SLACK_TOL
        # the identities suite of check.json, and only its keys
        assert set(report) == {"identity_residual", "trace_residual", "pd_margin",
                               "det_slack", "chain_slack", "passed"}


def test_twisted_from_hessian_matches_definition():
    rng = np.random.default_rng(3)
    spec = monge_ampere(3)
    g, g_h, phi_h = random_admissible_parts(spec, 50, rng)
    gt = twisted_from_hessian(phi_h, g, g_h)
    lap = np.einsum("...ij,...ji->...", np.linalg.inv(g), phi_h).real
    manual = g_h + (lap[..., None, None] * g - phi_h) / 2.0
    assert np.allclose(gt, manual, atol=1e-13)


def test_non_hermitian_hessian_rejected():
    rng = np.random.default_rng(13)
    spec = monge_ampere(2)
    g, g_h, phi_h = random_admissible_parts(spec, 5, rng)
    phi_bad = phi_h.copy()
    phi_bad[0, 0, 1] += 0.5
    with pytest.raises(ValueError):
        verify_trace_reversal_identities(spec, g, g_h, phi_bad)


def test_degenerate_metric_rejected():
    spec = monge_ampere(2)
    g = np.eye(2, dtype=complex)
    g_h = np.diag([1.0, 0.0]).astype(complex)
    phi_h = np.zeros((2, 2), dtype=complex)
    with pytest.raises(MetricDegeneracyError):
        verify_trace_reversal_identities(spec, g, g_h, phi_h)


def test_hermitian_part_projects():
    a = np.array([[1.0 + 0j, 2.0], [0.0, 3.0]])
    h = hermitian_part(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0], [1.0, 3.0]])


# ---------------------------------------------------------------------------
# the n = 2 closed form against the general (Cholesky + eigh) path

SPECS_2 = [monge_ampere(2), hessian(2, 1), hessian(2, 2), p_monge_ampere(2, 1),
           p_monge_ampere(2, 2)]


def _unitary(rng, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, 2, 2)) + 1j * rng.normal(size=(m, 2, 2)))
    return q


def _adjoint(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _metric(rng, m, diagonal):
    """HPD metrics with eigenvalues in [0.2, 5], diagonal or in a random frame."""
    w = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=(m, 2)))
    if diagonal:
        return w[:, :, None] * np.eye(2)
    U = _unitary(rng, m)
    return hermitian_part((U * w[:, None, :]) @ _adjoint(U))


def _pencils(kind, rng, m, diagonal):
    """(g, gt) batches whose eigenvalues of g^-1 gt are positive and:
    generic in [0.1, 10]; repeated (gt = c g); nearly repeated (relative gap
    1e-13 to 1e-9); or near the cone boundary (smallest about 1e-8)."""
    g = _metric(rng, m, diagonal)
    if kind == "repeated":
        return g, np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(m, 1, 1))) * g
    low = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=m))
    if kind == "generic":
        lam = np.sort(np.stack([low, np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=m))],
                               axis=-1), axis=-1)
    elif kind == "near":
        lam = np.stack([low, low * (1.0 + 10.0 ** rng.uniform(-13, -9, size=m))], axis=-1)
    else:
        lam = np.stack([1e-8 * np.exp(rng.uniform(-1.0, 1.0, size=m)),
                        np.exp(rng.uniform(np.log(0.5), np.log(5.0), size=m))], axis=-1)
    L = np.linalg.cholesky(g)
    U = _unitary(rng, m)
    return g, hermitian_part(L @ (U * lam[:, None, :]) @ _adjoint(U) @ _adjoint(L))


def _relative_defect(a, b):
    """Per-sample max |a - b| over the max |b| of that sample."""
    m = len(b)
    return np.abs(a - b).reshape(m, -1).max(axis=-1) / np.abs(b).reshape(m, -1).max(axis=-1)


def _einsum_trace(a, b):
    return np.einsum("...ij,...ji->...", a, b).real


def _trace_defect(planes_value, a, b):
    """Per-sample |tr(A B) on planes - einsum reference| over sum |A_ij B_ji|."""
    scale = np.abs(np.einsum("...ij,...ji->...ij", a, b)).sum(axis=(-2, -1))
    return np.abs(planes_value - _einsum_trace(a, b)) / scale


def _plane_case(kind, rng, diagonal, spec):
    """A checked pencil as complex fields and as planes, the linearization on
    planes, and the eigenvalue-dependent tolerance of the closed form."""
    g, gt = _pencils(kind, rng, 32, diagonal)
    gp, gtp = checked_metric(g), hermitian_planes(gt)
    lam = endomorphism_eigs(g, gt)
    # both paths round the smallest eigenvalue to about eps * largest, so
    # d log f / d lam, and with it G, agree to about eps * lam1 / lam0
    tol = 1e-13 * lam[:, 1] / lam[:, 0]
    return g, gt, gp, gtp, lam, linearization(spec, gp, gtp), tol


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), diagonal=st.booleans(),
       kind=st.sampled_from(["generic", "repeated", "near", "boundary"]),
       spec=st.sampled_from(SPECS_2))
def test_closed_form_matches_general_path(seed, diagonal, kind, spec):
    # each kernel on planes from the checked constructor (the closed form)
    # against the same function on the complex fields (the general path)
    rng = np.random.default_rng(seed)
    g, gt, gp, gtp, lam, G, tol = _plane_case(kind, rng, diagonal, spec)
    assert np.all(np.abs(endomorphism_eigs(gp, gtp) - lam) <= 1e-13 * lam[:, 1:])
    G_ref = linearization(spec, g, gt)
    assert isinstance(G, HermitianPlanes)
    assert np.all(_relative_defect(G.matrix(), G_ref) <= tol)
    T = trace_reversal(G, gp)
    assert isinstance(T, HermitianPlanes)
    assert np.all(_relative_defect(T.matrix(), trace_reversal(G_ref, g)) <= tol)
    H = hermitian_part(rng.normal(size=(32, 2, 2)) + 1j * rng.normal(size=(32, 2, 2)))
    twisted = twisted_from_hessian(hermitian_planes(H), gp, gtp)
    assert isinstance(twisted, HermitianPlanes)
    assert np.all(_relative_defect(twisted.matrix(), twisted_from_hessian(H, g, gt)) <= 1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), diagonal=st.booleans(),
       kind=st.sampled_from(["generic", "repeated", "near", "boundary"]),
       spec=st.sampled_from(SPECS_2))
def test_plane_kernels_match_general_path(seed, diagonal, kind, spec):
    # the plane kernels against the einsum statements of the trace
    # reversal, tr(T H) and the twisted metric, on the linearization of the
    # general path, with the tolerances of the test above
    rng = np.random.default_rng(seed)
    g, gt, gp, gtp, _, G, tol = _plane_case(kind, rng, diagonal, spec)
    G_ref = linearization(spec, g, gt)
    g_inv = np.linalg.inv(g)
    T_ref = _einsum_trace(G_ref, g)[:, None, None] * g_inv - G_ref
    T = trace_reversal(G, gp)
    assert np.all(_relative_defect(T.matrix(), T_ref) <= tol)
    H = hermitian_part(rng.normal(size=(32, 2, 2)) + 1j * rng.normal(size=(32, 2, 2)))
    assert np.all(_trace_defect(hermitian_trace(T, hermitian_planes(H)), T_ref, H) <= tol)
    # gt as the reference metric: HPD, and of the same scale as g
    twisted = twisted_from_hessian(hermitian_planes(H), gp, gtp)
    twisted_ref = gt + _einsum_trace(g_inv, H)[:, None, None] * g - H
    assert np.all(_relative_defect(twisted.matrix(), twisted_ref) <= 1e-13)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), diagonal=st.booleans())
def test_plane_laplacian_matches_einsum(seed, diagonal):
    grid = TorusGrid(n=2, N=8, L=1.0)
    rng = np.random.default_rng(seed)
    g = _metric(rng, grid.num_points, diagonal).reshape(grid.shape + (2, 2))
    phi = rng.normal(size=grid.shape)
    H = complex_hessian(phi, grid).matrix()
    g_inv = np.linalg.inv(g)
    ref = _einsum_trace(g_inv, H)
    scale = np.abs(np.einsum("...ij,...ji->...ij", g_inv, H)).sum(axis=(-2, -1))
    # the metric enters through checked_metric: laplacian takes planes at n = 2
    assert np.all(np.abs(laplacian(phi, checked_metric(g), grid) - ref) <= 1e-13 * scale)


def test_closed_form_exact_repeated_eigenvalue_is_the_limit():
    # rad = 0 exactly: U diag(d) U^H = s I, with no division by zero
    g = np.eye(2, dtype=complex)
    gp, gtp = checked_metric(g), hermitian_planes(2.0 * g)
    with np.errstate(all="raise"):
        assert endomorphism_eigs(gp, gtp).tolist() == [2.0, 2.0]
        G = linearization(monge_ampere(2), gp, gtp)
    assert np.array_equal(G.matrix(), 0.25 * g)


# decimal exponents of the entries: around 1, and at and beyond the limits
# 1e+-154 where a square overflows or underflows
EXPONENTS = [0, 150, 154, 155, 160, 300, -150, -154, -155, -160, -200, -300, -310]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (1,), (7,), (3, 5)]),
       exponents=st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=3),
       merged=st.floats(0.0, 1.0), view=st.booleans())
@example(seed=0, shape=(), exponents=[0], merged=1.0, view=False)
@example(seed=1, shape=(7,), exponents=[300, -300], merged=0.5, view=True)
def test_eigs_2x2_match_eigvalsh(seed, shape, exponents, merged, view):
    # each point's entries share a scale drawn from the exponents; a share
    # `merged` of the points are s I, whose eigenvalues merge with rad 0
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.choice(exponents, size=shape)
    planes = [scale * rng.normal(size=shape) for _ in range(4)]
    same = rng.random(shape) < merged
    planes[1] = np.where(same, planes[0], planes[1])
    planes[2] = np.where(same, 0.0, planes[2])
    planes[3] = np.where(same, 0.0, planes[3])
    if view:  # build_chart's read-only views of a constant metric's 0-d planes
        planes = [np.broadcast_to(p.reshape(-1)[:1].reshape(()), (4,) + shape) for p in planes]
    lam, rad, half = _eigs_2x2(*planes)  # a RuntimeWarning fails the test
    full = np.broadcast_shapes(*(p.shape for p in planes))
    assert lam.shape == full + (2,) and rad.shape == half.shape == full
    reference = np.linalg.eigvalsh(HermitianPlanes(*planes).matrix())
    # to a few ulps of the largest entry; a few subnormal steps near 1e-310
    size = np.max([np.abs(np.broadcast_to(p, full)) for p in planes], axis=0)
    tolerance = 16.0 * np.spacing(size) + 4.0 * np.spacing(0.0)
    assert np.all(np.abs(lam - reference) <= tolerance[..., None])
    # rad is hypot's to a few ulps, and 0 exactly where the eigenvalues merge
    hyp = np.hypot(half, np.hypot(*np.broadcast_arrays(planes[2], planes[3])))
    assert np.all(np.abs(rad - hyp) <= 4.0 * np.spacing(hyp))
    assert np.array_equal(rad == 0.0, hyp == 0.0)
    assert np.array_equal(lam[..., 0] == lam[..., 1], rad == 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), diagonal=st.booleans(),
       defect=st.sampled_from(["indefinite", "singular", "non-hermitian"]))
def test_closed_form_raises_as_general_path_on_bad_metric(seed, diagonal, defect):
    rng = np.random.default_rng(seed)
    g, gt = _pencils("generic", rng, 8, diagonal)
    bad = int(rng.integers(8))
    if defect == "non-hermitian":
        g[bad, 0, 1] += 0.5
    elif defect == "indefinite":
        U = np.eye(2) if diagonal else _unitary(rng, 1)[0]
        g[bad] = (U * [-0.1, 1.0]) @ _adjoint(U)
    else:
        # exactly singular, so neither factorization is decided by roundoff
        g[bad] = np.diag([1.0, 0.0]) if diagonal else [[4.0, 2j], [-2j, 1.0]]
    spec = monge_ampere(2)
    # on planes a non-Hermitian g fails checked_metric, where it enters, and
    # an indefinite or singular one, read through unchecked views, the
    # closed form's own Schur test
    def planes():
        metric = checked_metric(g) if defect == "non-hermitian" else hermitian_planes(g)
        return metric, hermitian_planes(gt)

    for call in (lambda: endomorphism_eigs(g, gt), lambda: linearization(spec, g, gt),
                 lambda: endomorphism_eigs(*planes()), lambda: linearization(spec, *planes())):
        with pytest.raises(MetricDegeneracyError,
                           match="not Hermitian" if defect == "non-hermitian"
                           else "not positive definite"):
            call()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), diagonal=st.booleans())
def test_closed_form_raises_as_general_path_on_non_hermitian_twisted_metric(seed, diagonal):
    rng = np.random.default_rng(seed)
    g, gt = _pencils("generic", rng, 8, diagonal)
    gt[int(rng.integers(8)), 0, 1] += 1e-3
    spec = monge_ampere(2)
    # planes are Hermitian by construction: only the complex path can be given one
    for call in (lambda: endomorphism_eigs(g, gt), lambda: linearization(spec, g, gt)):
        with pytest.raises(ValueError, match="twisted metric must be Hermitian"):
            call()


# ---------------------------------------------------------------------------
# a constant n = 2 metric enters as four 0-d planes

def full_planes(planes, shape):
    """The planes broadcast to shape and copied: the full field of a constant."""
    return HermitianPlanes(*(np.broadcast_to(p, shape).copy() for p in planes))


def _differing_bytes_broadcast(value, full):
    """differing_bytes of a result computed on 0-d planes, broadcast to the
    shape of the result computed on full planes, against that result."""
    if isinstance(full, HermitianPlanes):
        return sum(_differing_bytes_broadcast(v, f) for v, f in zip(value, full))
    return differing_bytes(np.broadcast_to(value, full.shape).copy(), full)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), diagonal=st.booleans(),
       constant_reference=st.booleans(), spec=st.sampled_from(SPECS_2))
# seeds with a metric whose 0-d cr ** 2 (libm pow on this numpy) is not cr * cr
@example(seed=10, diagonal=False, constant_reference=True, spec=SPECS_2[0])
@example(seed=51, diagonal=False, constant_reference=True, spec=SPECS_2[0])
def test_constant_metric_planes_give_the_bytes_of_full_planes(seed, diagonal,
                                                              constant_reference, spec):
    # many metrics per example: a numpy scalar operation that rounds
    # otherwise than its array form (** is libm pow on a scalar) shows about
    # once in a thousand operations
    rng = np.random.default_rng(seed)
    for _ in range(50):
        _check_constant_metric_bytes(rng, diagonal, constant_reference, spec)


def _check_constant_metric_bytes(rng, diagonal, constant_reference, spec):
    m = 16
    g = np.broadcast_to(_metric(rng, 1, diagonal), (m, 2, 2))
    g_h = (np.broadcast_to(_metric(rng, 1, diagonal), (m, 2, 2)) if constant_reference
           else _metric(rng, m, diagonal))
    # small enough that the twisted metric stays near g_h, inside every cone
    H = hermitian_planes(1e-3 * hermitian_part(rng.normal(size=(m, 2, 2))
                                               + 1j * rng.normal(size=(m, 2, 2))))
    metric, reference = checked_metric(g), checked_metric(g_h, "reference metric")
    assert all(np.ndim(p) == 0 for p in metric)
    assert all(np.ndim(p) == (0 if constant_reference else 1) for p in reference)
    full, full_reference = full_planes(metric, (m,)), full_planes(reference, (m,))
    assert differing_bytes(full, HermitianPlanes(*(p.copy() for p in hermitian_planes(g)))) == 0

    inverse, full_inverse = hermitian_inverse(metric), hermitian_inverse(full)
    assert _differing_bytes_broadcast(inverse, full_inverse) == 0
    assert _differing_bytes_broadcast(volume_density(metric), volume_density(full)) == 0
    assert _differing_bytes_broadcast(hermitian_trace(inverse, reference),
                                      hermitian_trace(full_inverse, full_reference)) == 0
    assert differing_bytes(hermitian_trace(inverse, H), hermitian_trace(full_inverse, H)) == 0
    gt = twisted_from_hessian(H, full, full_reference)
    for g_inv, full_g_inv in ((None, None), (inverse, full_inverse)):
        assert differing_bytes(twisted_from_hessian(H, metric, reference, g_inv=g_inv),
                               gt) == 0
        assert differing_bytes(twisted_from_hessian(H, full, full_reference,
                                                    g_inv=full_g_inv), gt) == 0
    assert differing_bytes(endomorphism_eigs(metric, gt), endomorphism_eigs(full, gt)) == 0
    G = linearization(spec, full, gt)
    assert differing_bytes(linearization(spec, metric, gt), G) == 0
    T = trace_reversal(G, full)
    assert differing_bytes(trace_reversal(G, metric), T) == 0
    assert differing_bytes(trace_reversal(G, metric, g_inv=inverse), T) == 0
    assert differing_bytes(trace_reversal(G, full, g_inv=full_inverse), T) == 0


def test_constant_metric_rule_keeps_full_planes_at_its_edges():
    g = np.broadcast_to(np.array([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]]), (6, 2, 2)).copy()
    assert all(np.ndim(p) == 0 for p in checked_metric(g))
    # one point off by one unit in the last place
    g[4, 1, 1] = np.nextafter(1.0, 2.0)
    assert all(np.shape(p) == (6,) for p in checked_metric(g))
    # only the sign of one zero differs: the field is not one value bit for bit
    eye = np.broadcast_to(np.eye(2, dtype=complex), (6, 2, 2)).copy()
    assert all(np.ndim(p) == 0 for p in checked_metric(eye))
    for upper in (complex(-0.0, 0.0), complex(0.0, -0.0)):
        signed = eye.copy()
        signed[2, 0, 1] = upper
        planes = checked_metric(signed)
        assert all(np.shape(p) == (6,) for p in planes)
        assert np.signbit(planes.re01[2]) or np.signbit(planes.im01[2])
    # n = 3 is the complex field, constant or not
    eye3 = np.broadcast_to(np.eye(3, dtype=complex), (6, 3, 3))
    assert checked_metric(eye3).shape == (6, 3, 3)


def test_checked_metric_reads_planes():
    # planes are Hermitian by construction: they take the finiteness and the
    # Schur checks, and the constant-metric rule
    rng = np.random.default_rng(5)
    g = _metric(rng, 6, False)
    planes = HermitianPlanes(*(p.copy() for p in hermitian_planes(g)))
    assert checked_metric(planes) is planes
    for plane, value, message in (("h11", np.nan, "not finite"),
                                  ("h11", -1.0, "not positive definite"),
                                  ("h00", 0.0, "not positive definite")):
        bad = getattr(planes, plane).copy()
        bad[2] = value
        with pytest.raises(MetricDegeneracyError, match="^metric is %s$" % message):
            checked_metric(planes._replace(**{plane: bad}))
    # a singular matrix at one point: h00 h11 = |h01|^2
    singular = planes._replace(h11=planes.h11.copy())
    singular.h11[4] = (planes.re01[4] ** 2 + planes.im01[4] ** 2) / planes.h00[4]
    with pytest.raises(MetricDegeneracyError, match="^metric is not positive definite$"):
        checked_metric(singular)
    constant = checked_metric(np.broadcast_to(g[0], (6, 2, 2)))
    full = full_planes(constant, (6,))
    zero_d = checked_metric(full)
    assert all(np.ndim(p) == 0 for p in zero_d)
    assert differing_bytes(full_planes(zero_d, (6,)), full) == 0


@pytest.mark.parametrize("matrix, message", [
    ([[1.0, 2.0], [2.0, 1.0]], "metric is not positive definite"),
    ([[1.0, 0.0], [0.0, 0.0]], "metric is not positive definite"),
    ([[1.0, np.nan], [np.nan, 1.0]], "metric is not finite"),
    ([[1.0, np.inf], [0.0, 1.0]], "metric is not finite"),
    ([[1.0, 0.5], [0.0, 1.0]], "metric is not Hermitian"),
])
def test_constant_bad_metric_raises_as_a_full_one(matrix, message):
    g = np.broadcast_to(np.asarray(matrix, dtype=complex), (5, 2, 2))
    with pytest.raises(MetricDegeneracyError, match="^%s$" % message):
        checked_metric(g)
