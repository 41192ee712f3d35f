"""Symmetric operator families over Garding-type cones.

Eigenvalue-side algebra for the nonlinear operators: elementary symmetric
polynomials, cone membership, operator evaluation and gradients, and the
structural lower bound on the product of first derivatives.

Every operation broadcasts over leading batch axes; an eigenvalue tuple is
a float array whose last axis has length n >= 2.  Operators are degree-1
positively homogeneous with strictly positive gradients inside their cone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConeViolationError, DegeneratePointError

# a tuple counts as strictly interior when every cone functional exceeds
# INTERIOR_RTOL * (1 + |lam|)
INTERIOR_RTOL = 1e-10

_GAMMA_SAMPLES = 20000
_GAMMA_SEED = 20260816


def _as_tuples(lam):
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] < 2:
        raise ValueError("eigenvalue tuples need length >= 2 along the last axis")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalue tuples must be finite")
    return lam


def _elementary_all(lam):
    """All elementary symmetric polynomials e_0..e_n along the last axis.

    Monic-coefficient recurrence; exact up to floating rounding.
    """
    n = lam.shape[-1]
    coeff = np.zeros(lam.shape[:-1] + (n + 1,), dtype=float)
    coeff[..., 0] = 1.0
    for i in range(n):
        x = lam[..., i : i + 1]
        coeff[..., 1 : i + 2] = coeff[..., 1 : i + 2] + x * coeff[..., 0 : i + 1]
    return coeff


def sigma_j(lam, j):
    """Elementary symmetric polynomial sigma_j(lam) over the last axis."""
    lam = _as_tuples(lam)
    n = lam.shape[-1]
    if not 1 <= j <= n:
        raise ValueError(f"j={j} outside 1..{n}")
    return _elementary_all(lam)[..., j]


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaK:
    """Cone where sigma_1..sigma_k are all positive."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class PIndexCone:
    """Cone where every sum of p distinct entries is positive."""

    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")


@dataclass(frozen=True)
class ConeIntersection:
    """Conjunction of member cones."""

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ValueError("intersection needs at least one member")


def cone_margin(lam, cone):
    """Smallest cone functional value; positive exactly on the open cone."""
    lam = _as_tuples(lam)
    n = lam.shape[-1]
    if isinstance(cone, GammaK):
        if cone.k > n:
            raise ValueError(f"GammaK({cone.k}) undefined for tuples of length {n}")
        sig = _elementary_all(lam)
        return np.min(sig[..., 1 : cone.k + 1], axis=-1)
    if isinstance(cone, PIndexCone):
        if cone.p > n:
            raise ValueError(f"PIndexCone({cone.p}) undefined for tuples of length {n}")
        sums = [
            np.sum(lam[..., list(idx)], axis=-1)
            for idx in itertools.combinations(range(n), cone.p)
        ]
        return np.min(np.stack(sums, axis=-1), axis=-1)
    if isinstance(cone, ConeIntersection):
        margins = np.stack([cone_margin(lam, m) for m in cone.members], axis=-1)
        return np.min(margins, axis=-1)
    raise TypeError(f"unknown cone spec {cone!r}")


def in_cone(lam, cone):
    """Boolean membership in the open cone (broadcasts over batch axes)."""
    return cone_margin(lam, cone) > 0.0


def interior_margin(lam, cone):
    """cone_margin minus the interior tolerance INTERIOR_RTOL*(1+|lam|)."""
    lam = _as_tuples(lam)
    scale = 1.0 + np.linalg.norm(lam, axis=-1)
    return cone_margin(lam, cone) - INTERIOR_RTOL * scale


def _intersect_cones(cones):
    # GammaK members collapse (larger k is the smaller cone); others are kept
    flat = []
    for c in cones:
        if isinstance(c, ConeIntersection):
            flat.extend(c.members)
        else:
            flat.append(c)
    kmax = 0
    rest = []
    for c in flat:
        if isinstance(c, GammaK):
            kmax = max(kmax, c.k)
        elif c not in rest:
            rest.append(c)
    members = ([GammaK(kmax)] if kmax else []) + rest
    if len(members) == 1:
        return members[0]
    return ConeIntersection(tuple(members))


# ---------------------------------------------------------------------------
# operator specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    """A symmetric, degree-1 homogeneous operator on an admissible cone.

    gamma is a lower bound for the product of the first derivatives over the
    open cone; gamma_certified says whether it comes from a closed form or
    from ray sampling (degree-0 homogeneous product, so rays suffice).
    """

    family: str
    dim: int
    k: int | None = None
    p: int | None = None
    members: tuple = ()
    weights: tuple = ()
    cone: object = None
    gamma: float = 0.0
    gamma_certified: bool = False

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")


def monge_ampere(n):
    """Geometric mean of the eigenvalues on the positive-orthant cone."""
    return OperatorSpec(
        family="monge-ampere",
        dim=n,
        cone=GammaK(n),
        gamma=float(n) ** (-n),
        gamma_certified=True,
    )


def hessian(n, k, gamma_samples=_GAMMA_SAMPLES, seed=_GAMMA_SEED):
    """Normalized k-th root of sigma_k on GammaK(k).

    k = 1 and k = n admit the closed-form product bound n**-n; intermediate
    k fall back to the sampled infimum.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    spec = OperatorSpec(
        family="hessian",
        dim=n,
        k=k,
        cone=GammaK(k),
        gamma=float(n) ** (-n),
        gamma_certified=True,
    )
    if k in (1, n):
        return spec
    bound = gamma_lower_bound(spec, gamma_samples, seed=seed)
    return OperatorSpec(
        family="hessian",
        dim=n,
        k=k,
        cone=GammaK(k),
        gamma=bound.value,
        gamma_certified=False,
    )


def p_monge_ampere(n, p, gamma_samples=_GAMMA_SAMPLES, seed=_GAMMA_SEED):
    """Geometric mean of all p-index eigenvalue sums on the p-index cone.

    Degree-1 homogeneous with f(1,...,1) = p; the product bound has no
    known closed form and is sampled (flagged, regression baseline only).
    """
    if not 1 <= p <= n:
        raise ValueError(f"p={p} outside 1..{n}")
    if p == 1:
        return monge_ampere(n)
    probe = OperatorSpec(
        family="p-monge-ampere",
        dim=n,
        p=p,
        cone=PIndexCone(p),
        gamma=1.0,
        gamma_certified=False,
    )
    bound = gamma_lower_bound(probe, gamma_samples, seed=seed)
    return OperatorSpec(
        family="p-monge-ampere",
        dim=n,
        p=p,
        cone=PIndexCone(p),
        gamma=bound.value,
        gamma_certified=False,
    )


def combine(specs, weights):
    """Positive-weight sum of operators on the intersection cone.

    The product bound max_i(w_i**n * gamma_i) is inherited: each factor of
    the combined gradient product dominates the corresponding weighted
    member factor.
    """
    specs = tuple(specs)
    weights = tuple(float(w) for w in weights)
    if len(specs) != len(weights) or not specs:
        raise ValueError("need matching, non-empty specs and weights")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    dims = {s.dim for s in specs}
    if len(dims) != 1:
        raise ValueError("members must share the dimension")
    n = dims.pop()
    # the bound only leans on the member attaining the max, so it is
    # certified exactly when that member's bound is
    gamma, certified = max(
        ((w**n * s.gamma, s.gamma_certified) for w, s in zip(weights, specs)),
        key=lambda pair: pair[0],
    )
    return OperatorSpec(
        family="combination",
        dim=n,
        members=specs,
        weights=weights,
        cone=_intersect_cones([s.cone for s in specs]),
        gamma=gamma,
        gamma_certified=certified,
    )


# ---------------------------------------------------------------------------
# evaluation and gradients
# ---------------------------------------------------------------------------

def _check_dim(spec, lam):
    if lam.shape[-1] != spec.dim:
        raise ValueError(f"expected tuples of length {spec.dim}, got {lam.shape[-1]}")


def _require_in_cone(spec, lam):
    margin = cone_margin(lam, spec.cone)
    bad = margin <= 0.0
    if np.any(bad):
        idx = int(np.argmax(bad.reshape(-1)))
        raise ConeViolationError(
            f"{spec.family}: tuple outside the admissible cone",
            margin=float(margin.reshape(-1)[idx]),
            index=idx,
        )


def evaluate(spec, lam):
    """Operator value f(lam); raises ConeViolationError outside the cone."""
    lam = _as_tuples(lam)
    _check_dim(spec, lam)
    _require_in_cone(spec, lam)
    return _evaluate_unchecked(spec, lam)


def _evaluate_unchecked(spec, lam):
    n = spec.dim
    if spec.family == "monge-ampere":
        return np.prod(lam, axis=-1) ** (1.0 / n)
    if spec.family == "hessian":
        k = spec.k
        return (sigma_j(lam, k) / math.comb(n, k)) ** (1.0 / k)
    if spec.family == "p-monge-ampere":
        p = spec.p
        m = math.comb(n, p)
        prod = np.ones(lam.shape[:-1])
        for idx in itertools.combinations(range(n), p):
            prod = prod * np.sum(lam[..., list(idx)], axis=-1)
        return prod ** (1.0 / m)
    if spec.family == "combination":
        total = 0.0
        for w, member in zip(spec.weights, spec.members):
            total = total + w * _evaluate_unchecked(member, lam)
        return total
    raise ValueError(f"unknown family {spec.family!r}")


def gradient(spec, lam):
    """Gradient of f at lam, shape (..., n); requires strict interior."""
    lam = _as_tuples(lam)
    _check_dim(spec, lam)
    margin = interior_margin(lam, spec.cone)
    if np.any(margin <= 0.0):
        idx = int(np.argmax((margin <= 0.0).reshape(-1)))
        raise DegeneratePointError(
            f"{spec.family}: gradient requested within tolerance of the cone "
            f"boundary (margin {float(margin.reshape(-1)[idx]):.3e} at flat "
            f"index {idx})"
        )
    return _gradient_unchecked(spec, lam)


def _gradient_unchecked(spec, lam):
    n = spec.dim
    if spec.family == "monge-ampere":
        f = _evaluate_unchecked(spec, lam)
        return f[..., None] / (n * lam)
    if spec.family == "hessian":
        k = spec.k
        f = _evaluate_unchecked(spec, lam)
        sk = sigma_j(lam, k)
        out = np.empty_like(lam)
        for j in range(n):
            reduced = np.delete(lam, j, axis=-1)
            if k == 1:
                out[..., j] = 1.0
            else:
                out[..., j] = _elementary_all(reduced)[..., k - 1]
        return f[..., None] * out / (k * sk)[..., None]
    if spec.family == "p-monge-ampere":
        p = spec.p
        m = math.comb(n, p)
        f = _evaluate_unchecked(spec, lam)
        acc = np.zeros_like(lam)
        for idx in itertools.combinations(range(n), p):
            inv = 1.0 / np.sum(lam[..., list(idx)], axis=-1)
            for j in idx:
                acc[..., j] += inv
        return f[..., None] * acc / m
    if spec.family == "combination":
        total = 0.0
        for w, member in zip(spec.weights, spec.members):
            total = total + w * _gradient_unchecked(member, lam)
        return total
    raise ValueError(f"unknown family {spec.family!r}")


# ---------------------------------------------------------------------------
# structural constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaBound:
    """Lower bound for prod_j df/dlam_j over the open cone."""

    value: float
    certified: bool
    method: str
    samples: int = 0


def sample_cone(cone, n, count, rng, center=1.0, scale=0.5, max_tries=200):
    """Rejection-sample tuples from the open cone.

    Gaussian proposals centered at (center,...,center) with the given scale.
    """
    out = np.empty((count, n))
    have = 0
    for _ in range(max_tries):
        need = count - have
        cand = center + scale * rng.standard_normal((max(2 * need, 16), n))
        good = cand[in_cone(cand, cone)]
        take = min(len(good), need)
        out[have : have + take] = good[:take]
        have += take
        if have == count:
            return out
    raise RuntimeError("cone sampler failed to reach the requested count")


def gamma_lower_bound(spec, sample_count=_GAMMA_SAMPLES, seed=_GAMMA_SEED):
    """Structural bound on prod_j df/dlam_j over the cone.

    Closed forms where they exist; otherwise the sampled infimum over random
    rays (the product is homogeneous of degree zero, so rays are enough).
    Sampled values are flagged and should be read as regression baselines.
    """
    n = spec.dim
    if spec.family == "monge-ampere":
        # prod_j f/(n lam_j) = f**n / (n**n prod lam) = n**-n identically
        return GammaBound(float(n) ** (-n), True, "closed-form")
    if spec.family == "hessian" and spec.k in (1, n):
        return GammaBound(float(n) ** (-n), True, "closed-form")
    if spec.family == "combination":
        # combine() already took the best weighted member bound
        return GammaBound(spec.gamma, spec.gamma_certified, "member-bound")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    lam = sample_cone(spec.cone, n, sample_count, rng)
    # keep strictly interior points; the product degenerates at the boundary
    lam = lam[interior_margin(lam, spec.cone) > 0.0]
    grads = _gradient_unchecked(spec, lam)
    prod = np.prod(grads, axis=-1)
    best = int(np.argmin(prod))
    value = _polish_ray_minimum(spec, lam[best], float(prod[best]))
    return GammaBound(value, False, "ray-sampling", samples=len(lam))


def _polish_ray_minimum(spec, lam0, f0):
    """Local descent from the best sampled ray.

    The product is degree-0 homogeneous and blows up at the cone boundary
    for every shipped family, so the sampled minimum is interior; polishing
    it pins the reported value to the local infimum, which keeps later
    pointwise checks against this bound from undercutting it by sampling
    noise.  Every evaluated point is a genuine ray, so the result is still
    an empirical infimum.
    """

    def objective(lam):
        lam = np.asarray(lam, dtype=float)[None, :]
        if interior_margin(lam, spec.cone)[0] <= 0.0:
            return np.inf
        return float(np.prod(_gradient_unchecked(spec, lam)))

    res = minimize(
        objective,
        lam0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 5000},
    )
    candidate = objective(res.x) if np.all(np.isfinite(res.x)) else np.inf
    return min(f0, candidate)
