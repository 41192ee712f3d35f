"""Flat Hermitian torus grids and second-order periodic stencils.

A grid discretizes the torus (R^{2n} / L Z^{2n}) with N points per real
axis; axes are ordered (x_1, y_1, ..., x_n, y_n) so axis 2i carries Re z_i
and axis 2i+1 carries Im z_i.  Scalar fields are float arrays of shape
(N,)*2n, Hermitian fields append a trailing (n, n).

The complex Hessian of a real field combines the real second differences

    H_ij = (phi_xixj + phi_yiyj)/4 + i (phi_xiyj - phi_yixj)/4

with centered second-order stencils (the mixed terms use the symmetrized
four-point cross), so H is exactly Hermitian and exact on local quadratics.
Integrals use the flat normalization: cell volume h^{2n}, metric volume
density det(g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDimensionError


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on the 2n-torus of side L."""

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


def second_difference(f, a, b, h):
    """Periodic second-order d^2 f / dx_a dx_b: the three-point difference
    when a == b, otherwise the symmetrized four-point cross."""
    if a == b:
        return (np.roll(f, -1, a) - 2.0 * f + np.roll(f, 1, a)) / h**2
    pp = np.roll(f, (-1, -1), (a, b))
    pm = np.roll(f, (-1, 1), (a, b))
    mp = np.roll(f, (1, -1), (a, b))
    mm = np.roll(f, (1, 1), (a, b))
    return (pp - pm - mp + mm) / (4.0 * h**2)


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


def complex_hessian(phi, grid):
    """Discrete complex Hessian field, shape grid.shape + (n, n), Hermitian."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.shape:
        raise ValueError("field shape does not match the grid")
    n, h = grid.n, grid.h
    out = np.zeros(grid.shape + (n, n), dtype=complex)
    for i, j, re, im in _hessian_entries(lambda a, b: second_difference(phi, a, b, h), n):
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


def frozen_hessian_inverse(T, grid):
    """Exact torus inverse of u -> tr(T H(u)) for one constant Hermitian
    positive definite (n, n) T, through the symbol of hessian_symbol.

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
    for _, _, re, im in _hessian_entries(
            lambda a, b: second_difference(kernel, a, b, 1.0), n):
        taps |= re != 0.0
        if im is not None:
            taps |= im != 0.0
    taps[center] = False
    return [tuple(1 - int(i) for i in idx) for idx in np.argwhere(taps)]


def laplacian(phi, g, grid, g_inv=None):
    """Metric trace of the complex Hessian, tr(g^-1 H(phi)); real field."""
    if g_inv is None:
        g_inv = np.linalg.inv(g)
    return np.einsum("...ij,...ji->...", g_inv, complex_hessian(phi, grid)).real


def twisted_from_hessian(phi_h, g, g_h, g_inv=None):
    """Twisted metric gt = g_h + ((tr_g H) g - H) / (n - 1) of a Hessian field H.

    Pointwise on the trailing (n, n) axes; requires n >= 2.
    """
    n = g.shape[-1]
    if n < 2:
        raise UnsupportedDimensionError("twisted metric needs n >= 2")
    if g_inv is None:
        g_inv = np.linalg.inv(g)
    lap = np.einsum("...ij,...ji->...", g_inv, phi_h).real
    return g_h + (lap[..., None, None] * g - phi_h) / (n - 1)


def twisted_metric(phi, g, g_h, grid, g_inv=None):
    """Twisted metric of a potential on the grid; see twisted_from_hessian."""
    return twisted_from_hessian(complex_hessian(phi, grid), g, g_h, g_inv=g_inv)


def volume_density(g):
    """Metric volume density against the flat cell measure: det(g)."""
    return np.linalg.det(g).real


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
