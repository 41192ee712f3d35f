"""Operator families on cone eigenvalues: frozen values and invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nformpde import symfun
from nformpde.errors import ConeViolationError, DegeneratePointError
from nformpde.symfun import (
    INTERIOR_RTOL,
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
    log_gradient,
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


def test_log_gradient_is_the_gradient_over_the_value():
    # one interior check, then grad f / f (1 / (n lam_j) for Monge-Ampere)
    rng = np.random.default_rng(12)
    for spec in FAMILIES:
        lam = sample_cone(spec.cone, spec.dim, 200, rng)
        reference = gradient(spec, lam) / evaluate(spec, lam)[..., None]
        assert np.all(np.abs(log_gradient(spec, lam) - reference) <= 1e-14 * np.abs(reference))
        # evaluate unchecked is evaluate, bit for bit
        assert evaluate(spec, lam, checked=False).tobytes() == evaluate(spec, lam).tobytes()
    with pytest.raises(DegeneratePointError):
        log_gradient(monge_ampere(2), np.array([1.0, 0.0]))


def test_interior_margin_of_huge_and_tiny_tuples_is_hypot_scaled():
    # the norm's squares overflow above 1e154 and underflow below 1e-154;
    # the guard takes hypot there, so no warning escapes and the tolerance
    # keeps its scale
    cone = PIndexCone(1)  # its margin min(lam) forms no product to overflow
    for x in (1e200, 1e300, 1e-200, 0.0):
        lam = np.array([[x, 3.0 * x]])
        scale = 1.0 + math.hypot(x, 3.0 * x)
        assert interior_margin(lam, cone)[0] == x - INTERIOR_RTOL * scale


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


# ---------------------------------------------------------------------------
# the plane folds against the axis reductions they replace

def ref_elementary_all(lam):
    """e_0..e_n along the last axis as an (..., n + 1) array: the reference."""
    n = lam.shape[-1]
    coeff = np.zeros(lam.shape[:-1] + (n + 1,), dtype=float)
    coeff[..., 0] = 1.0
    for i in range(n):
        x = lam[..., i : i + 1]
        coeff[..., 1 : i + 2] = coeff[..., 1 : i + 2] + x * coeff[..., 0 : i + 1]
    return coeff


def ref_cone_margin(lam, cone):
    n = lam.shape[-1]
    if isinstance(cone, GammaK):
        return np.min(ref_elementary_all(lam)[..., 1 : cone.k + 1], axis=-1)
    if isinstance(cone, PIndexCone):
        sums = [np.sum(lam[..., list(idx)], axis=-1)
                for idx in itertools.combinations(range(n), cone.p)]
        return np.min(np.stack(sums, axis=-1), axis=-1)
    return np.min(np.stack([ref_cone_margin(lam, m) for m in cone.members], axis=-1), axis=-1)


def ref_interior_margin(lam, cone):
    return ref_cone_margin(lam, cone) - INTERIOR_RTOL * (1.0 + np.linalg.norm(lam, axis=-1))


def ref_evaluate(spec, lam):
    n = spec.dim
    if spec.family == "monge-ampere":
        return np.prod(lam, axis=-1) ** (1.0 / n)
    if spec.family == "hessian":
        k = spec.cone.k
        return (ref_elementary_all(lam)[..., k] / math.comb(n, k)) ** (1.0 / k)
    if spec.family == "p-monge-ampere":
        p = spec.cone.p
        prod = np.ones(lam.shape[:-1])
        for idx in itertools.combinations(range(n), p):
            prod = prod * np.sum(lam[..., list(idx)], axis=-1)
        return prod ** (1.0 / math.comb(n, p))
    total = 0.0
    for w, member in zip(spec.weights, spec.members):
        total = total + w * ref_evaluate(member, lam)
    return total


def ref_gradient(spec, lam):
    n = spec.dim
    if spec.family == "combination":
        total = 0.0
        for w, member in zip(spec.weights, spec.members):
            total = total + w * ref_gradient(member, lam)
        return total
    f = ref_evaluate(spec, lam)
    if spec.family == "monge-ampere":
        return f[..., None] / (n * lam)
    if spec.family == "hessian":
        k = spec.cone.k
        out = np.empty_like(lam)
        for j in range(n):
            out[..., j] = ref_elementary_all(np.delete(lam, j, axis=-1))[..., k - 1]
        return f[..., None] * out / (k * ref_elementary_all(lam)[..., k])[..., None]
    p = spec.cone.p
    acc = np.zeros_like(lam)
    for idx in itertools.combinations(range(n), p):
        inv = 1.0 / np.sum(lam[..., list(idx)], axis=-1)
        for j in idx:
            acc[..., j] += inv
    return f[..., None] * acc / math.comb(n, p)


def differing_bytes(a, b):
    """How many bytes of two equally shaped float results differ (0-d included)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype == float
    return int(np.count_nonzero(a.reshape(-1).view(np.uint8) != b.reshape(-1).view(np.uint8)))


FOLD_SPECS = [spec for n in range(2, 6) for spec in (
    [monge_ampere(n)] + [hessian(n, k) for k in range(1, n + 1)]
    + [p_monge_ampere(n, p) for p in range(2, n + 1)]
    + [combine([monge_ampere(n), hessian(n, 1)], [0.7, 1.3]),
       combine([p_monge_ampere(n, 2), hessian(n, n - 1)], [0.3, 2.0])])]


@settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(spec=st.sampled_from(FOLD_SPECS), seed=st.integers(0, 2**32 - 1),
       batch=st.sampled_from([(), (1,), (40,), (6, 7)]), zeros=st.sampled_from([0.0, 0.3]))
def test_plane_folds_keep_the_bytes_of_the_axis_reductions(spec, seed, batch, zeros):
    # tuples of mixed signs and magnitudes, a share ``zeros`` of entries +0.0
    # or -0.0; evaluate and gradient see the tuples the reference calls interior
    rng = np.random.default_rng(seed)
    n, cone = spec.dim, spec.cone
    lam = rng.normal(1.0, 0.8, size=batch + (n,)) * 10.0 ** rng.uniform(-3, 3, size=batch + (1,))
    hit = rng.random(lam.shape) < zeros
    lam[hit] = np.copysign(0.0, rng.normal(size=int(hit.sum())))
    differ = differing_bytes(cone_margin(lam, cone), ref_cone_margin(lam, cone))
    differ += differing_bytes(interior_margin(lam, cone), ref_interior_margin(lam, cone))
    coeff = ref_elementary_all(lam)
    differ += sum(differing_bytes(sigma_j(lam, j), coeff[..., j]) for j in range(1, n + 1))
    inside = ref_interior_margin(lam, cone) > 0.0
    tuples = lam if lam.ndim == 1 and inside else lam[inside]
    differ += differing_bytes(evaluate(spec, tuples), ref_evaluate(spec, tuples))
    differ += differing_bytes(gradient(spec, tuples), ref_gradient(spec, tuples))
    assert differ == 0


@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(length=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_plane_sum_is_numpys_pairwise_sum(length, seed):
    # from eight terms on numpy sums an axis pairwise; interior_margin at
    # n >= 8 keeps np.linalg.norm's bytes only through that order
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=(5, length)) * 10.0 ** rng.uniform(-8, 8, size=(5, length))
    lam[rng.random(lam.shape) < 0.2] = -0.0
    lam[0] = -0.0
    planes = [lam[..., i] for i in range(length)]
    assert differing_bytes(symfun.plane_sum(planes), np.sum(lam, axis=-1)) == 0
    squares = [x * x for x in planes]
    assert differing_bytes(np.sqrt(symfun.plane_sum(squares)), np.linalg.norm(lam, axis=-1)) == 0
