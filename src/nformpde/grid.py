"""Flat Hermitian torus grids and second-order periodic stencils.

A grid discretizes the torus (R^{2n} / L Z^{2n}) with N points per real
axis; axes are ordered (x_1, y_1, ..., x_n, y_n) so axis 2i carries Re z_i
and axis 2i+1 carries Im z_i.  Scalar fields are float arrays of shape
(N,)*2n, Hermitian fields append a trailing (n, n).

The complex Hessian of a real field combines the real second differences

    H_ij = (phi_xixj + phi_yiyj)/4 + i (phi_xiyj - phi_yixj)/4

with centered second-order stencils (the mixed terms use the symmetrized
four-point cross), so H is exactly Hermitian and exact on local quadratics.
A stencil reads the field through a tap source: on the whole grid, views of
one periodic pad of the field; at chosen points, gathers through a table of
flat neighbour indices.
Integrals use the flat normalization: cell volume h^{2n}, metric volume
density det(g).

For n = 2 a Hermitian field may be four real planes (HermitianPlanes:
h_00, h_11, Re h_01, Im h_01), Hermitian by construction.  The grid's n
picks the type of the complex Hessian: planes at n = 2, the four contiguous
parts of its entries, and a complex field otherwise.  The type of a field
picks the pointwise formula (inverse, determinant, the trace pairing
tr(A B), the twisted metric): planes in run the n = 2 closed form and give
planes out; a complex (..., n, n) field in runs the general np.linalg path
at any n, n = 2 included, and gives a complex field out.  The functions
that take a Hessian of the grid (laplacian, twisted_metric) read a complex
n = 2 metric as plane views where it enters (hermitian_field).
"""

from __future__ import annotations

import math
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


def periodic_taps(f):
    """Tap source of a whole periodic field: tap(*steps) is f at x + shift for
    every grid point x, the shift summing the (axis, +-1) steps; each tap is
    a view of one wrap-around pad of f."""
    padded = np.pad(f, 1, mode="wrap")

    def tap(*steps):
        index = [slice(1, -1)] * f.ndim
        for axis, step in steps:
            index[axis] = slice(1 + step, f.shape[axis] + 1 + step)
        return padded[tuple(index)]

    return tap


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
    """Tap source at the points of a neighbour_table: gathers from f, the
    zero shift once (every diagonal second difference reads it)."""
    flat = f.reshape(-1)
    centre = np.take(flat, table[(0,) * f.ndim])

    def tap(*steps):
        if not steps:
            return centre
        shift = [0] * f.ndim
        for axis, step in steps:
            shift[axis] += step
        return np.take(flat, table[tuple(shift)])

    return tap


def second_difference(tap, a, b, h):
    """Periodic second-order d^2 f / dx_a dx_b from a tap source (tap(*steps)
    is f shifted by the (axis, +-1) steps): the three-point difference when
    a == b, otherwise the symmetrized four-point cross."""
    # in place, with the operations of (f+ - 2 f + f-) / h^2 and
    # (pp - pm - mp + mm) / (4 h^2) in that order, so the bytes are theirs
    if a == b:
        d = np.multiply(tap(), 2.0)
        np.subtract(tap((a, 1)), d, out=d)
        d += tap((a, -1))
        d /= h**2
        return d
    d = np.subtract(tap((a, 1), (b, 1)), tap((a, 1), (b, -1)))
    d -= tap((a, -1), (b, 1))
    d += tap((a, -1), (b, -1))
    d /= 4.0 * h**2
    return d


def _second_difference_multiplier(theta, a, b, h):
    """Fourier multiplier of second_difference(., a, b, h) at angles theta."""
    if a == b:
        return (2.0 * np.cos(theta[a]) - 2.0) / h**2
    return -np.sin(theta[a]) * np.sin(theta[b]) / h**2


def _hessian_entries(D, n):
    """Yield (i, j, re, im), H_ij = re + 1j * im for i <= j (im None if i == j),
    from D(a, b), a second difference along real axes a and b."""
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        yield i, i, 0.25 * (D(xi, xi) + D(yi, yi)), None
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            yield (i, j, 0.25 * (D(xi, xj) + D(yi, yj)),
                   0.25 * (D(xi, yj) - D(yi, xj)))


def complex_hessian(phi, grid, taps=None):
    """Discrete complex Hessian field, Hermitian, at every grid point or at
    the K points of a neighbour_table ``taps`` (there the bytes of the
    whole-grid Hessian).  At n = 2 its HermitianPlanes: the four contiguous
    real parts of _hessian_entries, each of shape grid.shape or (K,).
    Otherwise the complex field of shape grid.shape + (n, n) or (K, n, n),
    each off-diagonal pair written as re +- 1j * im."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.shape:
        raise ValueError("field shape does not match the grid")
    n, h = grid.n, grid.h
    if taps is None:
        tap, shape = periodic_taps(phi), grid.shape
    else:
        tap, shape = _table_taps(phi, taps), (taps[(0,) * phi.ndim].size,)
    entries = _hessian_entries(lambda a, b: second_difference(tap, a, b, h), n)
    if n == 2:
        (_, _, h00, _), (_, _, re01, im01), (_, _, h11, _) = entries
        return HermitianPlanes(h00, h11, re01, im01)
    out = np.zeros(shape + (n, n), dtype=complex)
    for i, j, re, im in entries:
        if im is None:
            out[..., i, i] = re
        else:
            out[..., i, j] = re + 1j * im
            out[..., j, i] = re - 1j * im
    return out


def hessian_symbol(T, grid):
    """Fourier symbol of u -> tr(T H(u)) for one constant Hermitian (n, n) T.

    On the mode exp(i sum_a theta_a x_a / h) each second difference acts by
    multiplication: along (a, a) by (2 cos theta_a - 2)/h^2, along a != b by
    -sin theta_a sin theta_b / h^2.  These combine into H_ii, Re H_ij and
    Im H_ij as in complex_hessian, and tr(T H) = sum_i T_ii H_ii
    + 2 sum_{i<j} (Re T_ij Re H_ij + Im T_ij Im H_ij).  Returns the real
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
    for i, j, re, im in _hessian_entries(
            lambda a, b: _second_difference_multiplier(theta, a, b, h), n):
        if im is None:
            out = out + T[i, i].real * re
        else:
            out = out + 2.0 * (T[i, j].real * re + T[i, j].imag * im)
    return out


def trace_scaling(T):
    """(1/t, Tbar) for a Hermitian positive definite coefficient field T
    (planes, or complex of shape (..., n, n)): t = tr T, a positive field,
    and Tbar the batch mean of the trace-normalized T/t, a constant complex
    (n, n) matrix.

    Since tr(T H(u)) = t tr((T/t) H(u)), the map f -> solve(f / t) with
    solve = frozen_hessian_inverse(Tbar, grid) preconditions u -> tr(T H(u))
    (Concus and Golub, 1973), exactly whenever T is a scalar field times a
    constant matrix.  Each plane of T/t is formed and reduced alone, so only
    1/t outlives the call.
    """
    if isinstance(T, HermitianPlanes):
        inv_t = 1.0 / (T.h00 + T.h11)
        return inv_t, HermitianPlanes(*(np.mean(p * inv_t) for p in T)).matrix()
    inv_t = 1.0 / np.einsum("...ii->...", T).real
    return inv_t, np.tensordot(inv_t, T, axes=inv_t.ndim) / inv_t.size


def frozen_hessian_inverse(T, grid):
    """Exact torus inverse of u -> tr(T H(u)) for one constant Hermitian
    positive definite (n, n) T, through the symbol of hessian_symbol.  Both
    Newton solves pass the Tbar of trace_scaling, the mean of their
    coefficient over its trace, and divide by the trace before the solve.

    Returns solve(f, mean): the field u with tr(T H(u)) = f - mean(f) and
    mean(u) = mean.  The zero mode of f is dropped; the caller sets the zero
    mode of u.  Each call is one rfftn, a division by the symbol and one
    irfftn.
    """
    shape = grid.shape
    axes = tuple(range(len(shape)))
    symbol = hessian_symbol(T, grid)
    symbol.flat[0] = 1.0  # no 0/0: solve overwrites the zero mode

    def solve(f, mean):
        modes = np.fft.rfftn(f, s=shape, axes=axes) / symbol
        modes.flat[0] = mean * grid.num_points
        return np.fft.irfftn(modes, s=shape, axes=axes)

    return solve


def stencil_offsets(n):
    """Every nonzero index offset over the 2n real axes read by complex_hessian:
    the nonzero taps of the Hessian entries of a centered 3^(2n) impulse."""
    center = (1,) * (2 * n)
    kernel = np.zeros((3,) * (2 * n))
    kernel[center] = 1.0
    taps = np.zeros(kernel.shape, dtype=bool)
    tap = periodic_taps(kernel)
    for _, _, re, im in _hessian_entries(lambda a, b: second_difference(tap, a, b, 1.0), n):
        taps |= re != 0.0
        if im is not None:
            taps |= im != 0.0
    taps[center] = False
    return [tuple(1 - int(i) for i in idx) for idx in np.argwhere(taps)]


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


def hermitian_field(a, n):
    """A Hermitian field as the pointwise layer reads it at dimension n: at
    n = 2 its planes (a complex field read through the views of
    hermitian_planes, with no copy and no check), otherwise a itself.
    None stays None."""
    if n != 2 or a is None or isinstance(a, HermitianPlanes):
        return a
    return hermitian_planes(a)


def hermitian_trace(a, b):
    """tr(A B) of two Hermitian fields, a real field.  On planes
    A_00 B_00 + A_11 B_11 + 2 (Re A_01 Re B_01 + Im A_01 Im B_01), the sum
    hessian_symbol takes; on complex (..., n, n) fields the real part of
    the matrix trace."""
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
    At n = 2 on planes: a complex g (and g_inv) is read as plane views."""
    H = complex_hessian(phi, grid)
    g, g_inv = hermitian_field(g, grid.n), hermitian_field(g_inv, grid.n)
    if g_inv is None:
        g_inv = hermitian_inverse(g)
    return hermitian_trace(g_inv, H)


def twisted_from_hessian(phi_h, g, g_h, g_inv=None):
    """Twisted metric gt = g_h + ((tr_g H) g - H) / (n - 1) of a Hessian field H.

    Pointwise on the trailing (n, n) axes; requires n >= 2.  Planes in (H,
    g, g_h and g_inv all planes) give planes out; complex fields in give a
    complex field out.
    """
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
    At n = 2 planes out: complex metrics are read as plane views."""
    g, g_h, g_inv = (hermitian_field(a, grid.n) for a in (g, g_h, g_inv))
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
