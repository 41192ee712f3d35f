"""Operator families on cone eigenvalues: frozen values and invariants."""

import numpy as np
import pytest

from nformpde import symfun
from nformpde.errors import ConeViolationError, DegeneratePointError
from nformpde.symfun import (
    ConeIntersection,
    GammaK,
    OperatorSpec,
    PIndexCone,
    combine,
    cone_margin,
    evaluate,
    gamma_lower_bound,
    gradient,
    hessian,
    in_cone,
    interior_margin,
    monge_ampere,
    p_monge_ampere,
    sample_cone,
    sigma_j,
)

FAMILIES = [
    monge_ampere(2),
    monge_ampere(3),
    hessian(3, 1),
    hessian(3, 2),
    p_monge_ampere(3, 2),
    combine([monge_ampere(2), hessian(2, 1)], [1.0, 1.0]),
]


def test_sigma_values():
    assert sigma_j(np.array([1.0, 1.0, 1.0]), 2) == pytest.approx(3.0, abs=1e-15)
    assert sigma_j(np.array([2.0, -1.0]), 1) == pytest.approx(1.0, abs=1e-15)
    assert sigma_j(np.array([1.0, 2.0, 3.0]), 3) == pytest.approx(6.0, abs=1e-14)


def test_operator_point_values():
    assert evaluate(monge_ampere(2), np.array([1.0, 4.0])) == pytest.approx(2.0, rel=1e-14)
    # arithmetic mean for the 1-Hessian
    assert evaluate(hessian(3, 1), np.array([1.0, 2.0, 3.0])) == pytest.approx(2.0, rel=1e-14)
    # pair-product family evaluates to p on the diagonal
    assert evaluate(p_monge_ampere(3, 2), np.array([1.0, 1.0, 1.0])) == pytest.approx(2.0, rel=1e-14)
    combo = combine([monge_ampere(2), hessian(2, 1)], [1.0, 1.0])
    assert evaluate(combo, np.array([1.0, 1.0])) == pytest.approx(2.0, rel=1e-14)


def test_gradient_point_values():
    spec = monge_ampere(2)
    assert gradient(spec, np.array([1.0, 1.0])) == pytest.approx([0.5, 0.5], rel=1e-14)
    assert gradient(spec, np.array([1.0, 4.0])) == pytest.approx([1.0, 0.25], rel=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for spec in FAMILIES:
        lam = sample_cone(spec.cone, spec.dim, 40, rng)
        grad = gradient(spec, lam)
        eps = 1e-6
        for j in range(spec.dim):
            bump = np.zeros(spec.dim)
            bump[j] = eps
            fd = (evaluate(spec, lam + bump) - evaluate(spec, lam - bump)) / (2 * eps)
            assert np.allclose(grad[:, j], fd, rtol=1e-5, atol=1e-8)


def test_euler_relation_and_homogeneity():
    rng = np.random.default_rng(5)
    for spec in FAMILIES:
        lam = sample_cone(spec.cone, spec.dim, 2000, rng)
        f = evaluate(spec, lam)
        grad = gradient(spec, lam)
        euler = np.abs(np.sum(lam * grad, axis=-1) - f)
        assert euler.max() <= 1e-10 * np.abs(f).max()
        t = rng.uniform(0.5, 2.0, size=lam.shape[0])
        homog = np.abs(evaluate(spec, t[:, None] * lam) - t * f)
        assert homog.max() <= 1e-10 * (t * np.abs(f)).max()
        assert grad.min() > 0.0


def test_cone_membership_and_margins():
    cone = PIndexCone(2)
    assert cone_margin(np.array([-1.0, 3.0, 3.0]), cone) == pytest.approx(2.0, abs=1e-15)
    assert in_cone(np.array([-1.0, 3.0, 3.0]), cone)
    assert not in_cone(np.array([-3.0, 1.0, 1.0]), cone)
    g2 = GammaK(2)
    lam = np.array([1.0, 1.0, -0.2])
    assert in_cone(lam, g2)
    assert cone_margin(lam, g2) == pytest.approx(min(1.8, sigma_j(lam, 2)), rel=1e-12)
    both = ConeIntersection((GammaK(3), PIndexCone(2)))
    assert cone_margin(np.array([1.0, 1.0, 1.0]), both) == pytest.approx(1.0, abs=1e-15)


def test_evaluate_rejects_boundary_and_exterior():
    spec = monge_ampere(2)
    with pytest.raises(ConeViolationError):
        evaluate(spec, np.array([1.0, -1.0]))
    with pytest.raises(ConeViolationError):
        evaluate(spec, np.array([1.0, 0.0]))
    with pytest.raises(DegeneratePointError):
        gradient(spec, np.array([0.0, 0.0]))


def test_interior_margin_scales_with_magnitude():
    spec = monge_ampere(2)
    lam = np.array([1e-11, 1e-11])
    # inside the open cone but below the interior guard band
    assert interior_margin(lam, spec.cone) < 0.0


def test_gamma_certified_values():
    assert monge_ampere(2).gamma == pytest.approx(0.25, abs=1e-15)
    assert monge_ampere(2).gamma_certified
    assert monge_ampere(3).gamma == pytest.approx(3.0 ** -3, abs=1e-15)
    assert hessian(3, 1).gamma == pytest.approx(3.0 ** -3, abs=1e-15)
    assert hessian(3, 1).gamma_certified
    assert hessian(3, 3).gamma == pytest.approx(3.0 ** -3, abs=1e-15)
    assert hessian(3, 3).gamma_certified


def test_gamma_empirical_values():
    # interior symmetric-ray minima, frozen from the sampled+polished search
    h = hessian(3, 2)
    assert not h.gamma_certified
    assert h.gamma <= 1.0 / 27.0 + 1e-12
    assert h.gamma == pytest.approx(1.0 / 27.0, abs=1e-6)
    p = p_monge_ampere(3, 2)
    assert not p.gamma_certified
    assert p.gamma <= 8.0 / 27.0 + 1e-12
    assert p.gamma == pytest.approx(8.0 / 27.0, abs=1e-6)


def test_gamma_lower_bound_report():
    bound = gamma_lower_bound(monge_ampere(2))
    assert bound.certified and bound.value == pytest.approx(0.25, abs=1e-15)
    empirical = gamma_lower_bound(hessian(3, 2))
    assert not empirical.certified
    assert empirical.value <= 1.0 / 27.0 + 1e-12


def test_every_spec_takes_gamma_from_gamma_lower_bound():
    # the member attaining max(w**n * gamma) is the sampled one
    sampled_combo = combine([monge_ampere(3), hessian(3, 2)], [0.5, 1.5])
    assert not sampled_combo.gamma_certified
    for spec in FAMILIES + [hessian(3, 3), p_monge_ampere(2, 2), sampled_combo]:
        bound = gamma_lower_bound(spec)
        assert spec.gamma == bound.value
        assert spec.gamma_certified == bound.certified
    # gamma is decided there, never passed in
    with pytest.raises(TypeError):
        OperatorSpec(family="monge-ampere", dim=2, cone=GammaK(2), gamma=1.0)


def test_gamma_is_computed_once_when_first_read(monkeypatch):
    calls = []

    def counted(spec, *args, **kwargs):
        calls.append(spec.family)
        return gamma_lower_bound(spec, *args, **kwargs)

    monkeypatch.setattr(symfun, "gamma_lower_bound", counted)
    spec = hessian(3, 2)
    assert calls == []
    assert spec.gamma > 0.0
    assert not spec.gamma_certified
    assert calls == ["hessian"]


def test_gamma_is_sampled_floor():
    rng = np.random.default_rng(17)
    for spec in FAMILIES:
        lam = sample_cone(spec.cone, spec.dim, 3000, rng)
        product = np.prod(gradient(spec, lam), axis=-1)
        assert product.min() >= spec.gamma * (1.0 - 1e-9)


def test_combination_structure():
    combo = combine([monge_ampere(2), hessian(2, 1)], [1.0, 1.0])
    assert isinstance(combo.cone, GammaK) and combo.cone.k == 2
    # bound comes from the best member: max over w_i^n * gamma_i
    assert combo.gamma == pytest.approx(0.25, abs=1e-15)
    assert combo.gamma_certified
    with pytest.raises(ValueError):
        combine([monge_ampere(2)], [1.0, 2.0])
    with pytest.raises(ValueError):
        combine([monge_ampere(2), monge_ampere(3)], [1.0, 1.0])


def test_sample_cone_stays_interior():
    rng = np.random.default_rng(23)
    for spec in FAMILIES:
        lam = sample_cone(spec.cone, spec.dim, 500, rng)
        assert np.all(interior_margin(lam, spec.cone) > 0.0)


def test_dimension_checks():
    with pytest.raises(ValueError):
        monge_ampere(1)
    with pytest.raises(ValueError):
        hessian(3, 4)
    with pytest.raises(ValueError):
        p_monge_ampere(3, 0)
