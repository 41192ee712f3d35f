"""Symmetric operator families over Garding-type cones.

Eigenvalue-side algebra for the nonlinear operators: elementary symmetric
polynomials, cone membership, operator evaluation and gradients, and the
structural lower bound on the product of first derivatives.

Every operation broadcasts over leading batch axes; an eigenvalue tuple is
a float array whose last axis has length n >= 2.  Operators are degree-1
positively homogeneous with strictly positive gradients inside their cone.

No reduction runs along that short last axis: numpy would loop once per
tuple over its n entries.  Each sum, product and minimum is instead a fold
of binary ufuncs over the planes lam[..., i], in the order numpy's
reduction along the axis takes, so the bytes are that reduction's, signed
zeros included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import ConeViolationError, DegeneratePointError

# a tuple counts as strictly interior when every cone functional exceeds
# INTERIOR_RTOL * (1 + |lam|)
INTERIOR_RTOL = 1e-10

# a sum of squares below this may hold squares that underflowed, so its
# square root would lose precision (root_sum_squares)
SQUARES_FLOOR = 1e-290

_GAMMA_SAMPLES = 20000
_GAMMA_SEED = 20260816


def _as_tuples(lam):
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] < 2:
        raise ValueError("eigenvalue tuples need length >= 2 along the last axis")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalue tuples must be finite")
    return lam


def _planes(lam):
    """The n planes lam[..., i] of a tuple array, as views."""
    return [lam[..., i] for i in range(lam.shape[-1])]


def plane_sum(planes):
    """np.sum along the last axis of the C-ordered array stacking the planes,
    with its bytes: 0.0 (add.reduce's identity) plus numpy's pairwise sum of
    the axis, a plain fold below eight terms, eight partial sums from eight
    on and halves above 128."""
    return 0.0 + _pairwise(planes)


def _pairwise(planes):
    m = len(planes)
    if m < 8:
        return reduce(np.add, planes[1:], planes[0])
    if m > 128:
        half = m // 2 - (m // 2) % 8
        return _pairwise(planes[:half]) + _pairwise(planes[half:])
    r = planes[:8]
    for i in range(8, m - m % 8, 8):
        r = [r[j] + planes[i + j] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(np.add, planes[m - m % 8:], total)


def _elementary_all(planes):
    """All elementary symmetric polynomials e_0..e_n of n planes, as n + 1
    planes (e_0 is 1.0).

    Monic-coefficient recurrence e_j <- e_j + x e_{j-1} from e = (1, 0, ..., 0),
    j taken downwards so each step reads e_{j-1} before it changes; exact up
    to floating rounding.
    """
    e = [1.0]
    for x in planes:
        e.append(0.0)
        for j in range(len(e) - 1, 0, -1):
            e[j] = e[j] + (x if j == 1 else x * e[j - 1])  # x * e_0 is x
    return e


def sigma_j(lam, j):
    """Elementary symmetric polynomial sigma_j(lam) over the last axis."""
    lam = _as_tuples(lam)
    n = lam.shape[-1]
    if not 1 <= j <= n:
        raise ValueError(f"j={j} outside 1..{n}")
    return _elementary_all(_planes(lam))[j]


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
        return reduce(np.minimum, _elementary_all(_planes(lam))[1 : cone.k + 1])
    if isinstance(cone, PIndexCone):
        if cone.p > n:
            raise ValueError(f"PIndexCone({cone.p}) undefined for tuples of length {n}")
        return reduce(np.minimum, _index_sums(_planes(lam), cone.p))
    if isinstance(cone, ConeIntersection):
        return reduce(np.minimum, [cone_margin(lam, m) for m in cone.members])
    raise TypeError(f"unknown cone spec {cone!r}")


def _index_sums(planes, p):
    """The sums of p distinct planes, one per index set in combinations order.

    Each is a fold from 0.0, the bytes of np.sum(lam[..., list(idx)], axis=-1)
    on a batch of tuples: numpy lays that fancy-indexed copy out index axis
    first, so it adds term by term even from eight terms on.
    """
    return [reduce(np.add, [planes[i] for i in idx], 0.0)
            for idx in itertools.combinations(range(len(planes)), p)]


def in_cone(lam, cone):
    """Boolean membership in the open cone (broadcasts over batch axes)."""
    return cone_margin(lam, cone) > 0.0


def root_sum_squares(total, planes):
    """sqrt(total), total the sum of the squares of the planes, taken in
    place when total is an array.  Where total is not finite (a square
    overflowed) or below SQUARES_FLOOR (its squares may have underflowed),
    the nested hypot of the planes stands in (Blue 1978), so the result
    keeps hypot's range; 0 stays exactly 0."""
    total = np.asarray(total)
    suspect = None
    if not (np.min(total, initial=np.inf) >= SQUARES_FLOOR
            and np.max(total, initial=0.0) < np.inf):  # NaN fails both
        suspect = ~((total >= SQUARES_FLOOR) & (total < np.inf))
        suspect &= reduce(np.logical_or, [p != 0.0 for p in planes])  # 0 of zeros is exact
    np.sqrt(total, out=total)
    if suspect is not None and suspect.any():
        with np.errstate(over="ignore"):
            total[suspect] = reduce(np.hypot, [np.broadcast_to(p, total.shape)[suspect]
                                               for p in planes])
    return total


def interior_margin(lam, cone):
    """cone_margin minus the interior tolerance INTERIOR_RTOL*(1+|lam|), the
    norm that of np.linalg.norm with root_sum_squares' guard."""
    lam = _as_tuples(lam)
    planes = _planes(lam)
    with np.errstate(over="ignore"):
        total = plane_sum([x * x for x in planes])
    scale = 1.0 + root_sum_squares(total, planes)
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

    gamma, a lower bound for the product of the first derivatives over the
    open cone, and gamma_certified, whether it comes from a closed form or
    from ray sampling (degree-0 homogeneous product, so rays suffice), come
    from one gamma_lower_bound call, made the first time either is read.
    The index k or p of a family is read from its cone (GammaK.k,
    PIndexCone.p).
    """

    family: str
    dim: int
    members: tuple = ()
    weights: tuple = ()
    cone: object = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be >= 2")

    @cached_property
    def _gamma_bound(self):
        return gamma_lower_bound(self)

    @property
    def gamma(self):
        return self._gamma_bound.value

    @property
    def gamma_certified(self):
        return self._gamma_bound.certified


def monge_ampere(n):
    """Geometric mean of the eigenvalues on the positive-orthant cone."""
    return OperatorSpec(family="monge-ampere", dim=n, cone=GammaK(n))


def hessian(n, k):
    """Normalized k-th root of sigma_k on GammaK(k).

    k = 1 and k = n have a closed-form product bound; intermediate k fall
    back to the sampled infimum.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    return OperatorSpec(family="hessian", dim=n, cone=GammaK(k))


def p_monge_ampere(n, p):
    """Geometric mean of all p-index eigenvalue sums on the p-index cone.

    Degree-1 homogeneous with f(1,...,1) = p; the product bound has no
    known closed form and is sampled (flagged, regression baseline only).
    """
    if not 1 <= p <= n:
        raise ValueError(f"p={p} outside 1..{n}")
    if p == 1:
        return monge_ampere(n)
    return OperatorSpec(family="p-monge-ampere", dim=n, cone=PIndexCone(p))


def combine(specs, weights):
    """Positive-weight sum of operators on the intersection cone.

    Its product bound, the best weighted member bound, comes from
    gamma_lower_bound like every other family's.
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
    return OperatorSpec(
        family="combination",
        dim=dims.pop(),
        members=specs,
        weights=weights,
        cone=_intersect_cones([s.cone for s in specs]),
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
            f"{spec.family}: tuple outside the admissible cone (margin "
            f"{float(margin.reshape(-1)[idx]):.3e} at flat index {idx})"
        )


def evaluate(spec, lam, checked=True):
    """Operator value f(lam); raises ConeViolationError outside the cone.
    checked=False skips every check, for a caller that has found the
    interior margin of lam positive."""
    if not checked:
        return _evaluate_unchecked(spec, np.asarray(lam, dtype=float))
    lam = _as_tuples(lam)
    _check_dim(spec, lam)
    _require_in_cone(spec, lam)
    return _evaluate_unchecked(spec, lam)


def _evaluate_unchecked(spec, lam):
    n = spec.dim
    if spec.family == "monge-ampere":
        return reduce(np.multiply, _planes(lam)) ** (1.0 / n)
    if spec.family == "hessian":
        k = spec.cone.k
        return (_elementary_all(_planes(lam))[k] / math.comb(n, k)) ** (1.0 / k)
    if spec.family == "p-monge-ampere":
        sums = _index_sums(_planes(lam), spec.cone.p)
        return reduce(np.multiply, sums) ** (1.0 / len(sums))
    if spec.family == "combination":
        total = 0.0
        for w, member in zip(spec.weights, spec.members):
            total = total + w * _evaluate_unchecked(member, lam)
        return total
    raise ValueError(f"unknown family {spec.family!r}")


def _interior_tuples(spec, lam):
    """lam as tuples, DegeneratePointError unless strictly interior."""
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
    return lam


def gradient(spec, lam):
    """Gradient of f at lam, shape (..., n); requires strict interior."""
    return _gradient_unchecked(spec, _interior_tuples(spec, lam))


def log_gradient(spec, lam):
    """grad f / f = grad log f at lam, shape (..., n), after one interior
    check (DegeneratePointError, as gradient): 1 / (n lam_j) for
    Monge-Ampere, otherwise the gradient over the value."""
    lam = _interior_tuples(spec, lam)
    if spec.family == "monge-ampere":
        out = np.multiply(lam, float(spec.dim))
        return np.divide(1.0, out, out=out)
    return _gradient_unchecked(spec, lam) / _evaluate_unchecked(spec, lam)[..., None]


def _gradient_unchecked(spec, lam):
    if spec.family == "combination":
        total = 0.0
        for w, member in zip(spec.weights, spec.members):
            total = total + w * _gradient_unchecked(member, lam)
        return total
    n = spec.dim
    planes = _planes(lam)
    out = np.empty_like(lam)  # each family writes plane j of its gradient here
    if spec.family == "monge-ampere":
        f = _evaluate_unchecked(spec, lam)
        for j, x in enumerate(planes):
            np.divide(f, n * x, out=out[..., j])
        return out
    if spec.family == "hessian":
        # d sigma_k / d lam_j is sigma_{k-1} of the other n - 1 entries
        k = spec.cone.k
        f = _evaluate_unchecked(spec, lam)
        scale = k * _elementary_all(planes)[k]
        for j in range(n):
            rest = _elementary_all(planes[:j] + planes[j + 1 :])[k - 1]
            np.divide(f * rest, scale, out=out[..., j])
        return out
    if spec.family == "p-monge-ampere":
        # d log f / d lam_j is the mean over the index sets of 1/sum, counted
        # where j is in the set; each accumulates from 0.0 in combinations order
        p = spec.cone.p
        f = _evaluate_unchecked(spec, lam)
        inverses = [[] for _ in range(n)]
        index_sets = list(itertools.combinations(range(n), p))
        for idx, total in zip(index_sets, _index_sums(planes, p)):
            inv = 1.0 / total
            for j in idx:
                inverses[j].append(inv)
        for j in range(n):
            np.divide(f * reduce(np.add, inverses[j], 0.0), len(index_sets), out=out[..., j])
        return out
    raise ValueError(f"unknown family {spec.family!r}")


# ---------------------------------------------------------------------------
# structural constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaBound:
    """Lower bound for prod_j df/dlam_j over the open cone."""

    value: float
    certified: bool


def sample_cone(cone, n, count, rng):
    """Rejection-sample tuples from the open cone.

    Gaussian proposals centered at (1,...,1) with standard deviation 1/2,
    in at most 200 rounds.
    """
    out = np.empty((count, n))
    have = 0
    for _ in range(200):
        need = count - have
        cand = 1.0 + 0.5 * rng.standard_normal((max(2 * need, 16), n))
        good = cand[in_cone(cand, cone)]
        take = min(len(good), need)
        out[have : have + take] = good[:take]
        have += take
        if have == count:
            return out
    raise RuntimeError("cone sampler failed to reach the requested count")


def gamma_lower_bound(spec):
    """Structural bound on prod_j df/dlam_j over the cone.

    Closed forms where they exist; for a combination the best weighted
    member bound max_i(w_i**n * gamma_i); otherwise the sampled infimum over
    random rays (the product is homogeneous of degree zero, so rays are
    enough: _GAMMA_SAMPLES of them, drawn with the fixed _GAMMA_SEED).
    Sampled values are flagged and should be read as regression baselines.
    """
    n = spec.dim
    if spec.family == "monge-ampere" or (spec.family == "hessian" and spec.cone.k in (1, n)):
        # Monge-Ampere (hessian k = n): prod_j f/(n lam_j) = f**n / (n**n prod lam);
        # hessian k = 1: every derivative is 1/n
        return GammaBound(float(n) ** (-n), True)
    if spec.family == "combination":
        # each factor of the combined gradient product dominates the weighted
        # member factor; the bound only leans on the member attaining the max,
        # so it is certified exactly when that member's bound is
        return GammaBound(*max(
            ((w**n * m.gamma, m.gamma_certified) for w, m in zip(spec.weights, spec.members)),
            key=lambda pair: pair[0],
        ))
    rng = np.random.default_rng(_GAMMA_SEED)
    lam = sample_cone(spec.cone, n, _GAMMA_SAMPLES, rng)
    # keep strictly interior points; the product degenerates at the boundary
    lam = lam[interior_margin(lam, spec.cone) > 0.0]
    prod = reduce(np.multiply, _planes(_gradient_unchecked(spec, lam)))
    best = int(np.argmin(prod))
    value = _polish_ray_minimum(spec, lam[best], float(prod[best]))
    return GammaBound(value, False)


def _polish_ray_minimum(spec, lam0, f0):
    """Local descent from the best sampled ray.

    The product is degree-0 homogeneous and blows up at the cone boundary
    for every shipped family, so the sampled minimum is interior; polishing
    it pins the reported value to the local infimum, which keeps later
    pointwise checks against this bound from undercutting it by sampling
    noise.  Every evaluated point is a genuine ray, so the result is still
    an empirical infimum.
    """
    from scipy.optimize import minimize

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
