"""Flat Hermitian torus grids and second-order periodic stencils.

A grid discretizes the torus (R^{2n} / L Z^{2n}) with N points per real
axis; axes are ordered (x_1, y_1, ..., x_n, y_n) so axis 2i carries Re z_i
and axis 2i+1 carries Im z_i.  Scalar fields are float arrays of shape
(N,)*2n, Hermitian fields append a trailing (n, n).

The complex Hessian of a real field combines the real second differences

    H_ij = (phi_xixj + phi_yiyj)/4 + i (phi_xiyj - phi_yixj)/4

with centered second-order stencils (the mixed terms use the symmetrized
four-point cross), so H is exactly Hermitian and exact on local quadratics.
One table of signed taps is its only stencil (hessian_taps): each part
H_ii, Re H_ij and Im H_ij is a list of (offset, integer weight) pairs and
one scale 1/(c h^2), summed in table order by one evaluator.  It reads the
field through a tap source: on the whole grid, contiguous slices of one
flattened periodic pad of the field; at chosen points, int32 gathers
through a table of flat neighbour indices; both give the same bytes.  The Fourier symbol of the
frozen operator and the stencil footprint are read off the same table.
Integrals use the flat normalization: cell volume h^{2n}, metric volume
density det(g).

For n = 2 a Hermitian field may be four real planes (HermitianPlanes:
h_00, h_11, Re h_01, Im h_01), Hermitian by construction.  The grid's n
picks the type of the complex Hessian: planes at n = 2, the four contiguous
parts of its entries, and a complex field otherwise.  The type of a field
picks the pointwise formula (inverse, determinant, the trace pairing
tr(A B), the twisted metric): planes in run the n = 2 closed form and give
planes out; a complex (..., n, n) field in runs the general np.linalg path
at any n, n = 2 included, and gives a complex field out.  Nothing here
converts a field: an n = 2 metric becomes planes through
hermlin.checked_metric, and planes paired with a complex field raise.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedDimensionError


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on the 2n-torus of side L, of fewer than 2**31
    points.  Each ValueError message starts with the field it refuses."""

    n: int
    N: int
    L: float

    def __post_init__(self):
        for name, value in (("n", self.n), ("N", self.N)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError("%s must be an integer, got %r" % (name, value))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.N < 8:
            raise ValueError("N must be >= 8 to support the stencils")
        if not self.L > 0:
            raise ValueError("L must be positive")
        try:
            scales = (self.cell_volume, 1.0 / self.h ** 2)
        except (OverflowError, ZeroDivisionError):
            scales = (0.0,)
        if not all(0.0 < s < math.inf for s in scales):
            raise ValueError("L = %g gives a cell volume h^2n or a stencil factor 1/h^2 that "
                             "is not a finite nonzero float" % self.L)
        if self.num_points >= 2**31:
            raise ValueError("N = %d at n = %d gives N^2n = %d grid points; a grid holds fewer "
                             "than 2**31, since neighbour_table's flat indices are int32"
                             % (self.N, self.n, self.num_points))

    @property
    def h(self):
        return self.L / self.N

    @property
    def shape(self):
        return (self.N,) * (2 * self.n)

    @property
    def num_points(self):
        return self.N ** (2 * self.n)

    @property
    def cell_volume(self):
        return self.h ** (2 * self.n)

    def axis_coordinates(self, axis):
        """Coordinate field along one real axis (broadcast to full shape)."""
        if not 0 <= axis < 2 * self.n:
            raise ValueError("axis out of range")
        line = np.arange(self.N) * self.h
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return np.broadcast_to(line.reshape(shape), self.shape)

    def wrapped_offset(self, axis, center_index):
        """Signed minimal-image offset from a center index along one axis."""
        line = (np.arange(self.N) - center_index) * self.h
        line = (line + 0.5 * self.L) % self.L - 0.5 * self.L
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return line.reshape(shape)

    def distance_sq(self, center_index):
        """Squared periodic distance field from a grid point (index tuple)."""
        if len(center_index) != 2 * self.n:
            raise ValueError("center index must have 2n entries")
        total = np.zeros(self.shape)
        for axis, c in enumerate(center_index):
            total = total + self.wrapped_offset(axis, int(c)) ** 2
        return total


@functools.lru_cache(maxsize=None)
def hessian_taps(n):
    """The complex Hessian as one table of signed taps: a tuple of parts
    (i, j, imag, c, taps), each part of H equal to
    (1 / (c h^2)) sum_{(o, w) in taps} w f(x + o h), summed in table order.

      H_ii     (imag False, i == j): -4 at 0, +1 at +-e_xi and +-e_yi; c = 4.
      Re H_ij  (imag False, i < j):  +1 at +-(e_xi + e_xj) and +-(e_yi + e_yj),
                                     -1 at +-(e_xi - e_xj) and +-(e_yi - e_yj); c = 16.
      Im H_ij  (imag True, i < j):   +1 at +-(e_xi + e_yj) and +-(e_yi - e_xj),
                                     -1 at +-(e_xi - e_yj) and +-(e_yi + e_xj); c = 16.

    These are (f_xixj + f_yiyj)/4 + i (f_xiyj - f_yixj)/4 with the
    three-point second difference on the diagonal and the symmetrized
    four-point cross off it.  Only the zero offset, first in a diagonal
    part, weighs other than +-1, and an off-diagonal part's first two
    weights are +1.  Parts come as H_ii, then Re H_ij and Im H_ij for each
    j > i.
    """
    def e(*steps):  # the offset of (axis, sign) steps
        offset = [0] * (2 * n)
        for axis, sign in steps:
            offset[axis] += sign
        return tuple(offset)

    def pm(weight, *steps):  # weight at +-(the offset of the steps)
        return ((e(*steps), weight), (e(*((a, -s) for a, s in steps)), weight))

    parts = []
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        parts.append((i, i, False, 4.0, ((e(), -4),) + pm(1, (xi, 1)) + pm(1, (yi, 1))))
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            parts.append((i, j, False, 16.0, pm(1, (xi, 1), (xj, 1)) + pm(1, (yi, 1), (yj, 1))
                          + pm(-1, (xi, 1), (xj, -1)) + pm(-1, (yi, 1), (yj, -1))))
            parts.append((i, j, True, 16.0, pm(1, (xi, 1), (yj, 1)) + pm(1, (yi, 1), (xj, -1))
                          + pm(-1, (xi, 1), (yj, -1)) + pm(-1, (yi, 1), (xj, 1))))
    return tuple(parts)


def stencil_offsets(n):
    """Every nonzero offset over the 2n real axes in the table of hessian_taps,
    the points complex_hessian reads besides x."""
    return sorted({o for *_, taps in hessian_taps(n) for o, _ in taps if any(o)})


@functools.lru_cache(maxsize=None)
def _pad_layout(shape):
    """For a one-layer pad of a field of this shape: the flat shift of each
    offset of hessian_taps, the pad's shape, and the flat index of the
    first grid point in it."""
    padded = tuple(size + 2 for size in shape)
    steps = np.cumprod((1,) + padded[:0:-1])[::-1]
    offsets = {o for *_, taps in hessian_taps(len(shape) // 2) for o, _ in taps}
    return {o: int(np.dot(o, steps)) for o in offsets}, padded, int(steps.sum())


def periodic_taps(f):
    """Tap source of a whole periodic field: (tap, acc, points).  f is
    padded by one wrap-around layer and flattened; tap(offset) is the
    contiguous slice of the pad holding f at x + offset for each x of the
    pad's inner range (the grid points and the pad cells between them), acc
    a fresh array over that range, and points the view of its grid points.
    Contiguous taps stream about twice as fast as strided views of the pad
    at N = 12, whose innermost runs are N values long."""
    shifts, padded_shape, start = _pad_layout(f.shape)
    flat = np.pad(f, 1, mode="wrap").reshape(-1)
    stop = flat.size - start
    whole = np.empty(flat.size)

    def tap(offset):
        shift = shifts[offset]
        return flat[start + shift:stop + shift]

    return tap, whole[start:stop], whole.reshape(padded_shape)[(slice(1, -1),) * f.ndim]


def neighbour_table(points, grid):
    """Flat indices of x + shift for each of the flat grid points x, keyed by
    the shift: the zero shift and every one of stencil_offsets, so
    complex_hessian(phi, grid, table) reads phi at the points only through it.

    The indices are int32, half the memory of intp, and np.take gathers
    through them as fast; TorusGrid refuses a grid of 2**31 points or more,
    whose flat indices would wrap.
    """
    m = 2 * grid.n
    index = np.unravel_index(np.asarray(points), grid.shape)
    return {shift: np.ravel_multi_index(
                tuple((index[a] + shift[a]) % grid.N for a in range(m)), grid.shape
            ).astype(np.int32)
            for shift in [(0,) * m] + stencil_offsets(grid.n)}


def _table_taps(f, table):
    """Tap source at the points of a neighbour_table, as periodic_taps:
    tap(offset) gathers f at x + offset for each of the points x (the zero
    offset gathered once, as every diagonal part reads it), and acc is its
    own points."""
    flat = f.reshape(-1)
    centre = np.take(flat, table[(0,) * f.ndim])

    def tap(offset):
        return centre if not any(offset) else np.take(flat, table[offset])

    acc = np.empty(centre.size)
    return tap, acc, acc


def _tap_sum(source, taps, scale):
    """scale * sum of w tap(o) over the (o, w) taps in order, from a tap
    source (tap, acc, points): the first tap times its weight, or the sum
    of the first two when the first weighs +1, goes to acc, the rest (each
    +-1) are added to it in place, and one multiply applies the scale as it
    writes the points out to a fresh array, so either tap source gives the
    same bytes."""
    tap, acc, points = source
    (o0, w0), *rest = taps
    if w0 == 1:
        (o1, _), *rest = rest
        np.add(tap(o0), tap(o1), out=acc)
    else:
        np.multiply(tap(o0), w0, out=acc)
    for offset, weight in rest:
        (np.add if weight == 1 else np.subtract)(acc, tap(offset), out=acc)
    return np.multiply(points, scale)


def complex_hessian(phi, grid, taps=None):
    """Discrete complex Hessian field, Hermitian, at every grid point or at
    the K points of a neighbour_table ``taps`` (there the bytes of the
    whole-grid Hessian), each part summed from the table of hessian_taps.
    At n = 2 its HermitianPlanes: the four parts H_00, H_11, Re H_01 and
    Im H_01, contiguous, each of shape grid.shape or (K,).  Otherwise the
    complex field of shape grid.shape + (n, n) or (K, n, n), written as
    HermitianPlanes.matrix writes one: imaginary diagonal 0.0, and
    H_ji = Re H_ij + 1j (0.0 - Im H_ij)."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.shape:
        raise ValueError("field shape does not match the grid")
    n, h = grid.n, grid.h
    if taps is None:
        source, shape = periodic_taps(phi), grid.shape
    else:
        source, shape = _table_taps(phi, taps), (taps[(0,) * phi.ndim].size,)
    scales = {c: 1.0 / (c * h**2) for c in (4.0, 16.0)}
    if n == 2:
        part = {(i, j, imag): _tap_sum(source, part_taps, scales[c])
                for i, j, imag, c, part_taps in hessian_taps(2)}
        return HermitianPlanes(part[0, 0, False], part[1, 1, False],
                               part[0, 1, False], part[0, 1, True])
    out = np.zeros(shape + (n, n), dtype=complex)
    parts = out.view(float).reshape(shape + (n, n, 2))
    for i, j, imag, c, part_taps in hessian_taps(n):
        value = _tap_sum(source, part_taps, scales[c])
        parts[..., i, j, int(imag)] = value
        if i != j:
            if imag:
                np.subtract(0.0, value, out=parts[..., j, i, 1])
            else:
                parts[..., j, i, 0] = value
    return out


def hessian_symbol(T, grid):
    """Fourier symbol of u -> tr(T H(u)) for one constant Hermitian (n, n) T.

    On the mode exp(i sum_a theta_a x_a / h) the tap at offset o multiplies
    by exp(i theta . o); a part's taps come in pairs +-o of one weight, so
    the part acts by (1 / (c h^2)) sum_{(o, w)} w cos(theta . o)
    (hessian_taps).  With tr(T H) = sum_i T_ii H_ii
    + 2 sum_{i<j} (Re T_ij Re H_ij + Im T_ij Im H_ij) this gives the real
    symbol on the np.fft.rfftn modes, shape (N,)*(2n-1) + (N//2 + 1,): zero
    at the zero mode, strictly negative at every other mode when T is
    positive definite.
    """
    n, N, h = grid.n, grid.N, grid.h
    T = np.asarray(T)
    theta = []
    for axis in range(2 * n):
        freq = np.fft.rfftfreq(N) if axis == 2 * n - 1 else np.fft.fftfreq(N)
        shape = [1] * (2 * n)
        shape[axis] = freq.size
        theta.append(2.0 * math.pi * freq.reshape(shape))

    out = 0.0
    for i, j, imag, c, taps in hessian_taps(n):
        # cos is even, so each pair +-o counts once, twice; taps on the
        # same axes sum on their small broadcast shape first
        groups = {}
        for offset, weight in taps:
            axes = [a for a, o in enumerate(offset) if o]
            if not axes:
                groups[()] = groups.get((), 0.0) + weight
            elif offset[axes[0]] > 0:
                term = 2 * weight * np.cos(sum(offset[a] * theta[a] for a in axes))
                groups[tuple(axes)] = groups.get(tuple(axes), 0.0) + term
        coefficient = T[i, i].real if i == j else 2.0 * (T[i, j].imag if imag else T[i, j].real)
        out = out + (coefficient / (c * h**2)) * sum(groups.values())
    return out


def frozen_hessian_inverse(T, grid):
    """(inv_t, solve), the preconditioner of u -> tr(T H(u)) for a Hermitian
    positive definite coefficient field T (planes, or complex of shape
    (..., n, n)); both Newton solves build theirs with this one call.

    inv_t = 1/t for t = tr T, and solve(f, mean) is the field u with
    tr(Tbar H(u)) = f - mean(f) and mean(u) = mean, Tbar the batch mean of
    T/t, one constant matrix, inverted exactly through the symbol of
    hessian_symbol: one rfftn, a division and one irfftn per call.  Since
    tr(T H(u)) = t tr((T/t) H(u)), f -> solve(f inv_t, mean) is exact
    whenever T is a scalar field times a constant matrix (Concus and Golub,
    1973).  Each plane of T/t is formed and reduced alone, so only 1/t
    outlives the call.
    """
    if isinstance(T, HermitianPlanes):
        inv_t = 1.0 / (T.h00 + T.h11)
        tbar = HermitianPlanes(*(np.mean(p * inv_t) for p in T)).matrix()
    else:
        inv_t = 1.0 / np.einsum("...ii->...", T).real
        tbar = np.tensordot(inv_t, T, axes=inv_t.ndim) / inv_t.size
    shape = grid.shape
    axes = tuple(range(len(shape)))
    symbol = hessian_symbol(tbar, grid)
    symbol.flat[0] = 1.0  # no 0/0: solve overwrites the zero mode

    def solve(f, mean):
        modes = np.fft.rfftn(f, s=shape, axes=axes) / symbol
        modes.flat[0] = mean * grid.num_points
        return np.fft.irfftn(modes, s=shape, axes=axes)

    return inv_t, solve


class HermitianPlanes(NamedTuple):
    """An n = 2 Hermitian field as four real planes of its batch shape:
    h_00, h_11, Re h_01 and Im h_01.  Hermitian by construction, since h_10
    is read as the conjugate of h_01.  The planes of one field share one
    shape."""

    h00: np.ndarray
    h11: np.ndarray
    re01: np.ndarray
    im01: np.ndarray

    def matrix(self):
        """The complex (..., 2, 2) field: imaginary diagonal 0.0, and
        h_10 = Re h_01 + 1j (0.0 - Im h_01), so a zero entry stays +0.0 as in
        np.linalg.inv of the identity; hermitian_planes reads the same planes
        back."""
        shape = np.shape(self.h00)
        out = np.zeros(shape + (2, 2), dtype=complex)
        parts = out.view(float).reshape(shape + (2, 2, 2))
        parts[..., 0, 0, 0] = self.h00
        parts[..., 1, 1, 0] = self.h11
        parts[..., 0, 1, 0] = self.re01
        parts[..., 1, 0, 0] = self.re01
        parts[..., 0, 1, 1] = self.im01
        np.subtract(0.0, self.im01, out=parts[..., 1, 0, 1])
        return out


def hermitian_planes(a):
    """The planes of a Hermitian (..., 2, 2) field: strided views of its real
    diagonal and of its upper entry, with no copy and no check
    (hermlin.checked_metric checks a metric)."""
    a = np.asarray(a)
    if a.shape[-2:] != (2, 2):
        raise ValueError("Hermitian planes need a field of shape (..., 2, 2)")
    upper = a[..., 0, 1]
    return HermitianPlanes(a[..., 0, 0].real, a[..., 1, 1].real, upper.real, upper.imag)


def _one_kind(*fields):
    if len({isinstance(a, HermitianPlanes) for a in fields}) > 1:
        raise ValueError("planes and a complex field do not pair: an n = 2 metric enters "
                         "as planes through hermlin.checked_metric")


def hermitian_trace(a, b):
    """tr(A B) of two Hermitian fields, a real field.  On planes
    A_00 B_00 + A_11 B_11 + 2 (Re A_01 Re B_01 + Im A_01 Im B_01), the sum
    hessian_symbol takes; on complex (..., n, n) fields the real part of
    the matrix trace.  Planes and a complex field raise ValueError."""
    _one_kind(a, b)
    if not isinstance(a, HermitianPlanes):
        return np.einsum("...ij,...ji->...", a, b).real
    cross = a.re01 * b.re01
    cross += a.im01 * b.im01
    cross *= 2.0
    out = a.h00 * b.h00
    out += a.h11 * b.h11
    out += cross
    return out


def laplacian(phi, g, grid, g_inv=None):
    """Metric trace of the complex Hessian, tr(g^-1 H(phi)); real field.
    At n = 2 on planes, so g (and g_inv) must be planes."""
    H = complex_hessian(phi, grid)
    if g_inv is None:
        g_inv = hermitian_inverse(g)
    return hermitian_trace(g_inv, H)


def twisted_from_hessian(phi_h, g, g_h, g_inv=None):
    """Twisted metric gt = g_h + ((tr_g H) g - H) / (n - 1) of a Hessian field H.

    Pointwise on the trailing (n, n) axes; requires n >= 2.  Planes in (H,
    g, g_h and g_inv all planes) give planes out; complex fields in give a
    complex field out; planes and a complex field raise ValueError.
    """
    _one_kind(phi_h, g, g_h)
    if g_inv is None:
        g_inv = hermitian_inverse(g)
    lap = hermitian_trace(g_inv, phi_h)
    if not isinstance(g, HermitianPlanes):
        n = g.shape[-1]
        if n < 2:
            raise UnsupportedDimensionError("twisted metric needs n >= 2")
        return g_h + (lap[..., None, None] * g - phi_h) / (n - 1)
    # n - 1 = 1: each plane is g_h + (lap g - H)
    planes = []
    for gp, hp, ghp in zip(g, phi_h, g_h):
        p = lap * gp
        p -= hp
        p += ghp
        planes.append(p)
    return HermitianPlanes(*planes)


def twisted_metric(phi, g, g_h, grid, g_inv=None):
    """Twisted metric of a potential on the grid; see twisted_from_hessian.
    At n = 2 on planes, so the metrics must be planes."""
    return twisted_from_hessian(complex_hessian(phi, grid), g, g_h, g_inv=g_inv)


def hermitian_inverse(g):
    """Inverse of a Hermitian positive definite field on its trailing (n, n)
    axes: on planes the adjugate over volume_density, plane by plane (each
    negation 0.0 - x, so a zero entry stays +0.0 as in np.linalg.inv of the
    identity, and the planes of identity_metric invert to themselves);
    np.linalg.inv of a complex field.  Every g^-1 of the package is this."""
    if not isinstance(g, HermitianPlanes):
        return np.linalg.inv(g)
    det = volume_density(g)
    re01 = np.subtract(0.0, g.re01)
    re01 /= det
    im01 = np.subtract(0.0, g.im01)
    im01 /= det
    return HermitianPlanes(g.h11 / det, g.h00 / det, re01, im01)


def volume_density(g):
    """Metric volume density against the flat cell measure, det(g): on planes
    the closed form g_00 g_11 - |g_01|^2, np.linalg.det of a complex field."""
    if not isinstance(g, HermitianPlanes):
        return np.linalg.det(g).real
    return g.h00 * g.h11 - (g.re01 * g.re01 + g.im01 * g.im01)


def integrate(field, density, grid):
    """Riemann sum of field against a volume density.

    The sum is scaled by the cell volume once at the end; only when that
    unscaled sum overflows is each term scaled first, so an integral that
    fits a float is finite and every other result keeps its bytes.
    """
    field = np.asarray(field)
    if field.shape != grid.shape:
        raise ValueError("field shape does not match the grid")
    with np.errstate(over="ignore"):
        total = np.sum(field * density)
    if np.isfinite(total):
        return float(total * grid.cell_volume)
    return float(np.sum(field * (density * grid.cell_volume)))


def entropy_integrand(F, p, slope=False):
    """e^F L^p with L = log(e + e^F), the integrand of entropy_norm; with
    slope, also its derivative in F, e^F L^(p-1) (L + p e^F / (e + e^F))."""
    eF = np.exp(np.asarray(F, dtype=float))
    L = np.log(math.e + eF)
    value = eF * L ** p
    if not slope:
        return value
    return value, value * (1.0 + p * eF / ((math.e + eF) * L))


def entropy_norm(F, g, grid, p):
    """Orlicz-type entropy integral of e^F: int e^F (log(e + e^F))^p dV_g.

    Requires p > n; finite automatically on these discrete fields.
    """
    if not p > grid.n:
        raise ValueError(f"entropy exponent must exceed n={grid.n}")
    return integrate(entropy_integrand(F, p), volume_density(g), grid)


def normalize_sup(phi):
    """Shift so the maximum is exactly zero."""
    phi = np.asarray(phi, dtype=float)
    return phi - phi.max()


def identity_metric(grid):
    """Constant identity Hermitian field on the grid."""
    out = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
    idx = np.arange(grid.n)
    out[..., idx, idx] = 1.0
    return out
