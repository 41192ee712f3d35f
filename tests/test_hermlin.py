"""Hermitian pencil reduction, linearization, and trace-reversal identities."""

import numpy as np
import pytest

from nformpde.errors import InconsistentInputError, MetricDegeneracyError
from nformpde.hermlin import (
    CHAIN_SLACK_TOL,
    DET_SLACK_TOL,
    endomorphism_eigs,
    g_orthonormal_eigenframe,
    hermitian_part,
    linearization,
    to_orthonormal_frame,
    trace_reversal,
    verify_trace_reversal_identities,
    random_admissible_parts,
)
from nformpde.grid import twisted_from_hessian
from nformpde.symfun import hessian, monge_ampere, p_monge_ampere


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
    g, g_h, phi_h, gt = random_admissible_parts(spec, 200, rng)
    G = linearization(spec, g, gt)
    T = trace_reversal(G, g)
    det_G = np.linalg.det(to_orthonormal_frame(g, G)).real
    det_T = np.linalg.det(to_orthonormal_frame(g, T)).real
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
        g, g_h, phi_h, gt = random_admissible_parts(spec, 800, rng)
        report = verify_trace_reversal_identities(spec, g, g_h, gt, phi_h)
        assert report.passed, (spec.family, report)
        assert report.residual_a <= 1e-9
        assert report.trace_residual <= 1e-10
        assert report.pd_margin > 0.0
        assert report.det_slack >= DET_SLACK_TOL
        assert report.chain_slack >= CHAIN_SLACK_TOL


def test_twisted_from_hessian_matches_definition():
    rng = np.random.default_rng(3)
    spec = monge_ampere(3)
    g, g_h, phi_h, gt = random_admissible_parts(spec, 50, rng)
    lap = np.einsum("...ij,...ji->...", np.linalg.inv(g), phi_h).real
    manual = g_h + (lap[..., None, None] * g - phi_h) / 2.0
    assert np.allclose(gt, manual, atol=1e-13)


def test_inconsistent_twisted_rejected():
    rng = np.random.default_rng(9)
    spec = monge_ampere(2)
    g, g_h, phi_h, gt = random_admissible_parts(spec, 10, rng)
    gt_bad = gt.copy()
    gt_bad[0, 0, 0] += 1e-6
    with pytest.raises(InconsistentInputError):
        verify_trace_reversal_identities(spec, g, g_h, gt_bad, phi_h)


def test_non_hermitian_hessian_rejected():
    rng = np.random.default_rng(13)
    spec = monge_ampere(2)
    g, g_h, phi_h, gt = random_admissible_parts(spec, 5, rng)
    phi_bad = phi_h.copy()
    phi_bad[0, 0, 1] += 0.5
    with pytest.raises(ValueError):
        verify_trace_reversal_identities(spec, g, g_h, gt, phi_bad)


def test_degenerate_metric_rejected():
    spec = monge_ampere(2)
    g = np.eye(2, dtype=complex)
    g_h = np.diag([1.0, 0.0]).astype(complex)
    phi_h = np.zeros((2, 2), dtype=complex)
    gt = twisted_from_hessian(phi_h, g, g_h)
    with pytest.raises(MetricDegeneracyError):
        verify_trace_reversal_identities(spec, g, g_h, gt, phi_h)


def test_hermitian_part_projects():
    a = np.array([[1.0 + 0j, 2.0], [0.0, 3.0]])
    h = hermitian_part(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0], [1.0, 3.0]])
