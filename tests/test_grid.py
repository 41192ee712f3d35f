"""Periodic grid calculus: stencils, complex Hessian, integrals."""

import math

import numpy as np
import pytest

from nformpde.grid import (
    TorusGrid,
    complex_hessian,
    d1,
    d2,
    dcross,
    entropy_norm,
    hessian_symbol,
    identity_metric,
    integrate,
    laplacian,
    normalize_sup,
    stencil_offsets,
    twisted_metric,
    volume_density,
)
from nformpde.solver import apply_trace_reversed_hessian


def trig_field(grid, shift=0.0):
    x = grid.axis_coordinates(0)
    y = grid.axis_coordinates(1)
    k = 2.0 * math.pi / grid.L
    return np.sin(k * x + shift) * np.cos(k * y)


def test_grid_basic_properties():
    grid = TorusGrid(n=2, N=16, L=1.0)
    assert grid.h == pytest.approx(1.0 / 16)
    assert grid.shape == (16, 16, 16, 16)
    assert grid.cell_volume == pytest.approx(grid.h**4)
    with pytest.raises(ValueError):
        TorusGrid(n=2, N=4, L=1.0)
    with pytest.raises(ValueError):
        TorusGrid(n=0, N=16, L=1.0)


def test_distance_sq_fold():
    grid = TorusGrid(n=1, N=16, L=1.0)
    d2f = grid.distance_sq((0, 0))
    # periodic: farthest point is the antipode at squared distance 2*(L/2)^2
    assert d2f.max() == pytest.approx(0.5, abs=1e-14)
    assert d2f[0, 0] == 0.0
    assert d2f[8, 0] == pytest.approx(0.25, abs=1e-14)
    assert d2f[15, 0] == d2f[1, 0]


def test_first_difference_order():
    errs = []
    for N in (16, 32):
        grid = TorusGrid(n=1, N=N, L=1.0)
        f = trig_field(grid)
        k = 2.0 * math.pi
        exact = k * np.cos(k * grid.axis_coordinates(0)) * np.cos(k * grid.axis_coordinates(1))
        errs.append(np.abs(d1(f, 0, grid.h) - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_second_difference_order():
    errs = []
    for N in (16, 32):
        grid = TorusGrid(n=1, N=N, L=1.0)
        f = trig_field(grid)
        k = 2.0 * math.pi
        exact = -k * k * f
        errs.append(np.abs(d2(f, 0, grid.h) - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_cross_difference_order():
    errs = []
    for N in (16, 32):
        grid = TorusGrid(n=1, N=N, L=1.0)
        f = trig_field(grid)
        k = 2.0 * math.pi
        x = grid.axis_coordinates(0)
        y = grid.axis_coordinates(1)
        exact = -k * k * np.cos(k * x) * np.sin(k * y)
        errs.append(np.abs(dcross(f, 0, 1, grid.h) - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_complex_hessian_exact_on_quadratics():
    # stencils are exact on quadratic potentials: phi = |z - z0|^2 gives I,
    # away from the periodic fold seam at per-axis offset L/2
    grid = TorusGrid(n=2, N=12, L=1.0)
    center = (3, 5, 2, 7)
    phi = 0.25 * grid.distance_sq(center)
    H = complex_hessian(phi, grid)
    target = np.zeros(grid.shape + (2, 2), dtype=complex)
    target[..., 0, 0] = 0.25
    target[..., 1, 1] = 0.25
    safe = np.ones(grid.shape, dtype=bool)
    for axis, c in enumerate(center):
        safe &= np.broadcast_to(
            np.abs(grid.wrapped_offset(axis, c)), grid.shape
        ) <= 0.5 * grid.L - 1.5 * grid.h
    assert safe.sum() > 0
    assert np.abs(H - target).max(axis=(-1, -2))[safe].max() <= 1e-12


def test_complex_hessian_is_hermitian_with_real_diagonal():
    grid = TorusGrid(n=2, N=12, L=1.0)
    rng = np.random.default_rng(4)
    phi = rng.normal(size=grid.shape)
    H = complex_hessian(phi, grid)
    assert np.abs(H - np.conj(np.swapaxes(H, -1, -2))).max() <= 1e-13
    assert np.abs(H[..., 0, 0].imag).max() == 0.0
    assert np.abs(H[..., 1, 1].imag).max() == 0.0


def test_complex_hessian_convergence_order():
    errs = []
    k = 2.0 * math.pi
    for N in (16, 32):
        grid = TorusGrid(n=2, N=N, L=1.0)
        x = [grid.axis_coordinates(a) for a in range(4)]
        phi = np.sin(k * x[0]) * np.sin(k * x[1]) * np.cos(k * x[2])
        H = complex_hessian(phi, grid)
        # exact H_{00}: (phi_x0x0 + phi_y0y0)/4 with y0 = axis 1
        exact00 = -0.5 * k * k * np.sin(k * x[0]) * np.sin(k * x[1]) * np.cos(k * x[2])
        errs.append(np.abs(H[..., 0, 0] - exact00).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_laplacian_matches_trace():
    grid = TorusGrid(n=2, N=10, L=1.0)
    rng = np.random.default_rng(8)
    phi = rng.normal(size=grid.shape)
    g = identity_metric(grid)
    lap = laplacian(phi, g, grid)
    H = complex_hessian(phi, grid)
    assert np.abs(lap - (H[..., 0, 0] + H[..., 1, 1]).real).max() <= 1e-12


def test_twisted_metric_matches_parts():
    grid = TorusGrid(n=2, N=10, L=1.0)
    rng = np.random.default_rng(21)
    phi = 0.05 * rng.normal(size=grid.shape)
    g = identity_metric(grid)
    g_h = identity_metric(grid)
    gt = twisted_metric(phi, g, g_h, grid)
    H = complex_hessian(phi, grid)
    lap = (H[..., 0, 0] + H[..., 1, 1]).real
    manual = g_h + lap[..., None, None] * g - H
    assert np.abs(gt - manual).max() <= 1e-13


def test_volume_and_integration():
    grid = TorusGrid(n=2, N=10, L=1.0)
    g = identity_metric(grid)
    dens = volume_density(g)
    assert np.abs(dens - 1.0).max() == 0.0
    assert integrate(np.ones(grid.shape), dens, grid) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError):
        integrate(np.ones((3, 3)), dens, grid)


def test_entropy_constant_forcing():
    # F = 0 on the unit torus: value is exactly (log(e + 1))^p
    grid = TorusGrid(n=2, N=8, L=1.0)
    g = identity_metric(grid)
    val = entropy_norm(np.zeros(grid.shape), g, grid, 3)
    assert val == pytest.approx(math.log(math.e + 1.0) ** 3, rel=1e-13)
    with pytest.raises(ValueError):
        entropy_norm(np.zeros(grid.shape), g, grid, 2)


def test_normalize_sup():
    rng = np.random.default_rng(6)
    phi = rng.normal(size=(5, 5))
    out = normalize_sup(phi)
    assert out.max() == 0.0
    assert np.allclose(out - out.min(), phi - phi.min())


@pytest.mark.parametrize("n", [2, 3])
def test_complex_hessian_footprint_is_stencil_offsets(n):
    grid = TorusGrid(n=n, N=8, L=1.0)
    impulse = np.zeros(grid.shape)
    impulse[(0,) * (2 * n)] = 1.0
    H = complex_hessian(impulse, grid)
    support = np.argwhere(np.abs(H).reshape(grid.shape + (n * n,)).max(axis=-1) > 0.0)
    expected = {(0,) * (2 * n)} | {tuple(int(o) % grid.N for o in off)
                                   for off in stencil_offsets(n)}
    assert {tuple(int(i) for i in idx) for idx in support} == expected
    assert len(stencil_offsets(n)) == 4 * n + 16 * n * (n - 1) // 2


def random_hermitian_pd(n, rng):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A @ A.conj().T + 0.1 * np.eye(n)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [8, 9])
def test_hessian_symbol_diagonalizes_the_frozen_operator(n, N):
    grid = TorusGrid(n=n, N=N, L=1.3)
    rng = np.random.default_rng(10 * n + N)
    T = random_hermitian_pd(n, rng)
    symbol = hessian_symbol(T, grid)
    axes = tuple(range(2 * n))
    assert symbol.shape == (N,) * (2 * n - 1) + (N // 2 + 1,)
    assert symbol.dtype == np.float64
    u = rng.normal(size=grid.shape)
    spectral = np.fft.irfftn(np.fft.rfftn(u, s=grid.shape, axes=axes) * symbol,
                             s=grid.shape, axes=axes)
    stencil = apply_trace_reversed_hessian(np.broadcast_to(T, grid.shape + (n, n)), u, grid)
    assert np.abs(spectral - stencil).max() <= 1e-12 * np.abs(stencil).max()
    # positive definite T: zero only at the zero mode, so the frozen operator
    # is invertible off the constants
    assert symbol.flat[0] == 0.0
    assert symbol.reshape(-1)[1:].max() < 0.0
