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

import itertools
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


def d1(f, axis, h):
    """Centered first difference, second order, periodic."""
    return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)


def d2(f, axis, h):
    """Centered second difference, second order, periodic."""
    return (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / h**2


def dcross(f, axis_a, axis_b, h):
    """Symmetrized four-point cross stencil for a mixed second derivative."""
    if axis_a == axis_b:
        return d2(f, axis_a, h)
    pp = np.roll(np.roll(f, -1, axis_a), -1, axis_b)
    pm = np.roll(np.roll(f, -1, axis_a), 1, axis_b)
    mp = np.roll(np.roll(f, 1, axis_a), -1, axis_b)
    mm = np.roll(np.roll(f, 1, axis_a), 1, axis_b)
    return (pp - pm - mp + mm) / (4.0 * h**2)


def complex_hessian(phi, grid):
    """Discrete complex Hessian field, shape grid.shape + (n, n), Hermitian."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.shape:
        raise ValueError("field shape does not match the grid")
    n, h = grid.n, grid.h
    out = np.zeros(grid.shape + (n, n), dtype=complex)
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        out[..., i, i] = 0.25 * (d2(phi, xi, h) + d2(phi, yi, h))
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            re = 0.25 * (dcross(phi, xi, xj, h) + dcross(phi, yi, yj, h))
            im = 0.25 * (dcross(phi, xi, yj, h) - dcross(phi, yi, xj, h))
            out[..., i, j] = re + 1j * im
            out[..., j, i] = re - 1j * im
    return out


def hessian_symbol(T, grid):
    """Fourier symbol of u -> tr(T H(u)) for one constant Hermitian (n, n) T.

    On the mode exp(i sum_a theta_a x_a / h) the stencils act by
    multiplication: d2 along axis a by (2 cos theta_a - 2)/h^2, dcross along
    (a, b) by -sin theta_a sin theta_b / h^2.  These combine into H_ii,
    Re H_ij and Im H_ij as in complex_hessian, and tr(T H) = sum_i T_ii H_ii
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
    second = [(2.0 * np.cos(t) - 2.0) / h**2 for t in theta]
    sine = [np.sin(t) for t in theta]

    def cross(a, b):
        return -sine[a] * sine[b] / h**2

    out = 0.0
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        out = out + T[i, i].real * 0.25 * (second[xi] + second[yi])
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            re = 0.25 * (cross(xi, xj) + cross(yi, yj))
            im = 0.25 * (cross(xi, yj) - cross(yi, xj))
            out = out + 2.0 * (T[i, j].real * re + T[i, j].imag * im)
    return out


def stencil_offsets(n):
    """Every nonzero index offset over the 2n real axes read by complex_hessian.

    The axis neighbours of the pure second differences, and the four corners
    of each cross stencil; cross stencils only pair axes of distinct complex
    coordinates.
    """
    unit = np.eye(2 * n, dtype=int)
    offsets = [tuple(s * unit[a]) for a in range(2 * n) for s in (1, -1)]
    offsets += [
        tuple(sa * unit[a] + sb * unit[b])
        for a, b in itertools.combinations(range(2 * n), 2) if a // 2 != b // 2
        for sa in (1, -1) for sb in (1, -1)
    ]
    return offsets


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
    """Riemann sum of field against a volume density."""
    field = np.asarray(field)
    if field.shape != grid.shape:
        raise ValueError("field shape does not match the grid")
    return float(np.sum(field * density) * grid.cell_volume)


def entropy_norm(F, g, grid, p):
    """Orlicz-type entropy integral of e^F: int e^F (log(e + e^F))^p dV_g.

    Requires p > n; finite automatically on these discrete fields.
    """
    if not p > grid.n:
        raise ValueError(f"entropy exponent must exceed n={grid.n}")
    F = np.asarray(F, dtype=float)
    eF = np.exp(F)
    integrand = eF * np.log(math.e + eF) ** p
    return integrate(integrand, volume_density(g), grid)


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
