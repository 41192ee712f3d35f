"""Periodic grid calculus: stencils, complex Hessian, integrals."""

import itertools
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nformpde.grid import (
    HermitianPlanes,
    TorusGrid,
    complex_hessian,
    entropy_integrand,
    entropy_norm,
    frozen_hessian_inverse,
    hermitian_inverse,
    hermitian_planes,
    hermitian_trace,
    hessian_symbol,
    hessian_taps,
    identity_metric,
    integrate,
    laplacian,
    neighbour_table,
    normalize_sup,
    stencil_offsets,
    twisted_metric,
    volume_density,
)
from nformpde.hermlin import checked_metric
from nformpde.manufactured import trig_hessian, trig_potential


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


@pytest.mark.parametrize("field, n, N", [("N", 2, 8.5), ("N", 2, 16.0), ("n", 2.0, 16),
                                         ("n", True, 16), ("N", 2, np.float64(16.0))])
def test_grid_refuses_a_dimension_or_side_that_is_not_an_integer(field, n, N):
    # a float would fail later, at the first array built on the grid, and a
    # bool would build a torus with n = 1
    with pytest.raises(ValueError, match="^%s must be an integer" % field):
        TorusGrid(n=n, N=N, L=1.0)
    assert TorusGrid(n=np.int64(2), N=np.int32(8), L=1.0).shape == (8,) * 4


@pytest.mark.parametrize("n, largest", [(2, 215), (3, 35), (5, 8)])
def test_grid_refuses_2_to_the_31_points(n, largest):
    # neighbour_table's flat indices are int32: one more point per axis
    # would wrap them, so the grid is refused before anything is allocated
    assert TorusGrid(n=n, N=largest, L=1.0).num_points < 2**31
    with pytest.raises(ValueError, match=r"fewer than 2\*\*31.*int32"):
        TorusGrid(n=n, N=largest + 1, L=1.0)


def test_distance_sq_fold():
    grid = TorusGrid(n=1, N=16, L=1.0)
    d2f = grid.distance_sq((0, 0))
    # periodic: farthest point is the antipode at squared distance 2*(L/2)^2
    assert d2f.max() == pytest.approx(0.5, abs=1e-14)
    assert d2f[0, 0] == 0.0
    assert d2f[8, 0] == pytest.approx(0.25, abs=1e-14)
    assert d2f[15, 0] == d2f[1, 0]


@pytest.mark.parametrize("plane", ["h00", "h11", "re01", "im01"])
def test_hessian_part_converges_at_second_order(plane):
    # the plane wave phi = sin(k a.x), a = (1, 1, 1, 2) over (x0, y0, x1, y1):
    # phi_ab = -k^2 a_a a_b phi, so H_00 = -k^2 (2/4) phi, H_11 = -k^2 (5/4) phi,
    # Re H_01 = -k^2 (3/4) phi and Im H_01 = -k^2 (1/4) phi, none zero
    a = (1.0, 1.0, 1.0, 2.0)
    exact_over_phi = {"h00": 2.0, "h11": 5.0, "re01": 3.0, "im01": 1.0}[plane]
    k = 2.0 * math.pi
    errs = []
    for N in (16, 32):
        grid = TorusGrid(n=2, N=N, L=1.0)
        phi = np.sin(k * sum(c * grid.axis_coordinates(axis) for axis, c in enumerate(a)))
        exact = -0.25 * k * k * exact_over_phi * phi
        errs.append(np.abs(getattr(complex_hessian(phi, grid), plane) - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_taps_state_the_complex_hessian(n):
    # H_ij = (f_xixj + f_yiyj)/4 + i (f_xiyj - f_yixj)/4, with the three-point
    # second difference and the four-point cross, as (offset, weight) sets
    def e(*steps):
        offset = [0] * (2 * n)
        for axis, sign in steps:
            offset[axis] += sign
        return tuple(offset)

    def pm(weight, *steps):
        return {(e(*steps), weight), (e(*((a, -s) for a, s in steps)), weight)}

    stated = []
    for i in range(n):
        xi, yi = 2 * i, 2 * i + 1
        stated.append((i, i, False, 4.0, {(e(), -4)} | pm(1, (xi, 1)) | pm(1, (yi, 1))))
        for j in range(i + 1, n):
            xj, yj = 2 * j, 2 * j + 1
            stated.append((i, j, False, 16.0, pm(1, (xi, 1), (xj, 1)) | pm(1, (yi, 1), (yj, 1))
                           | pm(-1, (xi, 1), (xj, -1)) | pm(-1, (yi, 1), (yj, -1))))
            stated.append((i, j, True, 16.0, pm(1, (xi, 1), (yj, 1)) | pm(1, (yi, 1), (xj, -1))
                           | pm(-1, (xi, 1), (yj, -1)) | pm(-1, (yi, 1), (xj, 1))))
    table = hessian_taps(n)
    assert [(i, j, imag, c, set(taps)) for i, j, imag, c, taps in table] == stated
    # no offset twice in a part; the evaluator's order: the zero offset first
    # in a diagonal part, two +1 taps first in an off-diagonal one
    for i, j, _, _, taps in table:
        assert len({o for o, _ in taps}) == len(taps)
        assert taps[0][1] == -4 if i == j else taps[0][1] == taps[1][1] == 1


def test_complex_hessian_exact_on_quadratics():
    # stencils are exact on quadratic potentials: phi = |z - z0|^2 gives I,
    # away from the periodic fold seam at per-axis offset L/2
    grid = TorusGrid(n=2, N=12, L=1.0)
    center = (3, 5, 2, 7)
    phi = 0.25 * grid.distance_sq(center)
    H = complex_hessian(phi, grid).matrix()
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
    # at n = 2 four real planes of the grid's shape, Hermitian by construction
    # (the n = 3 complex field is the roll reference's, byte for byte, below)
    grid = TorusGrid(n=2, N=12, L=1.0)
    rng = np.random.default_rng(4)
    phi = rng.normal(size=grid.shape)
    H = complex_hessian(phi, grid)
    assert isinstance(H, HermitianPlanes)
    assert all(p.shape == grid.shape and p.dtype == np.float64 for p in H)
    H = H.matrix()
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
        errs.append(np.abs(H.h00 - exact00).max())
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_complex_hessian_matches_analytic_entries():
    # an oracle independent of the stencil table: every n=2 entry, real and
    # imaginary parts, converges at second order to the closed form
    errs = []
    for N in (16, 32):
        grid = TorusGrid(n=2, N=N, L=1.0)
        diff = complex_hessian(trig_potential(grid), grid).matrix() - trig_hessian(grid)
        errs.append(np.abs(diff).reshape(-1, 4).max(axis=0))
    ratios = errs[0] / errs[1]
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_laplacian_matches_trace():
    grid = TorusGrid(n=2, N=10, L=1.0)
    rng = np.random.default_rng(8)
    phi = rng.normal(size=grid.shape)
    g = checked_metric(identity_metric(grid))
    lap = laplacian(phi, g, grid)
    H = complex_hessian(phi, grid)
    assert np.abs(lap - (H.h00 + H.h11)).max() <= 1e-12


def test_twisted_metric_matches_parts():
    grid = TorusGrid(n=2, N=10, L=1.0)
    rng = np.random.default_rng(21)
    phi = 0.05 * rng.normal(size=grid.shape)
    g = identity_metric(grid)
    g_h = identity_metric(grid)
    # at n = 2 the metrics enter through checked_metric: planes in, planes out
    gt = twisted_metric(phi, checked_metric(g), checked_metric(g_h), grid)
    assert isinstance(gt, HermitianPlanes)
    H = complex_hessian(phi, grid).matrix()
    lap = (H[..., 0, 0] + H[..., 1, 1]).real
    manual = g_h + lap[..., None, None] * g - H
    assert np.abs(gt.matrix() - manual).max() <= 1e-13


def test_planes_and_a_complex_field_do_not_pair():
    # an n = 2 Hessian of the grid is planes, so a complex metric given to
    # the grid raises, naming the check through which it becomes planes
    grid = TorusGrid(n=2, N=8, L=1.0)
    phi = np.random.default_rng(4).normal(size=grid.shape)
    g = identity_metric(grid)
    planes = checked_metric(g)
    for call in (lambda: laplacian(phi, g, grid),
                 lambda: laplacian(phi, planes, grid, g_inv=g),
                 lambda: twisted_metric(phi, g, g, grid),
                 lambda: twisted_metric(phi, planes, g, grid),
                 lambda: hermitian_trace(planes, g),
                 lambda: hermitian_trace(g, complex_hessian(phi, grid))):
        with pytest.raises(ValueError, match="checked_metric"):
            call()


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


def test_entropy_norm_of_a_large_finite_integral_is_finite():
    # every integrand value (at most 5.5e307) and the integral fit a float,
    # but their unscaled sum (about 2.8e310) does not
    grid = TorusGrid(n=2, N=8, L=1.0)
    g = identity_metric(grid)
    F = 25.0 * (1.0 + np.cos(2.0 * math.pi * grid.axis_coordinates(0)))
    values = entropy_integrand(F + 639.0, 3)
    assert np.all(np.isfinite(values))
    expected = math.fsum((values * grid.cell_volume).ravel())
    assert 1e306 < expected < 1e307
    assert entropy_norm(F + 639.0, g, grid, 3) == pytest.approx(expected, rel=1e-13)
    # a sum that does not overflow keeps its bytes: summed, then scaled
    values = entropy_integrand(F + 600.0, 3)
    assert entropy_norm(F + 600.0, g, grid, 3) == float(np.sum(values) * grid.cell_volume)


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
    if n == 2:
        H = H.matrix()
    support = np.argwhere(np.abs(H).reshape(grid.shape + (n * n,)).max(axis=-1) > 0.0)
    expected = {(0,) * (2 * n)} | {tuple(int(o) % grid.N for o in off)
                                   for off in stencil_offsets(n)}
    assert {tuple(int(i) for i in idx) for idx in support} == expected
    # the axis neighbours, and the corners of every cross pairing axes of
    # distinct complex coordinates
    unit = np.eye(2 * n, dtype=int)
    listed = {tuple(s * unit[a]) for a in range(2 * n) for s in (1, -1)}
    listed |= {tuple(sa * unit[a] + sb * unit[b])
               for a, b in itertools.combinations(range(2 * n), 2) if a // 2 != b // 2
               for sa in (1, -1) for sb in (1, -1)}
    assert set(stencil_offsets(n)) == listed
    assert len(stencil_offsets(n)) == 4 * n + 16 * n * (n - 1) // 2


def random_hermitian_pd(n, rng):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A @ A.conj().T + 0.1 * np.eye(n)


def frozen_operator(T, u, grid):
    """tr(T H(u)) for one constant positive definite T, by the stencils: T
    enters as a metric does (planes at n = 2), since it pairs with H."""
    coeff = checked_metric(np.broadcast_to(T, grid.shape + (grid.n, grid.n)), "coefficient")
    return hermitian_trace(coeff, complex_hessian(u, grid))


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
    stencil = frozen_operator(T, u, grid)
    assert np.abs(spectral - stencil).max() <= 1e-12 * np.abs(stencil).max()
    # positive definite T: zero only at the zero mode, so the frozen operator
    # is invertible off the constants
    assert symbol.flat[0] == 0.0
    assert symbol.reshape(-1)[1:].max() < 0.0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [8, 9])
def test_frozen_hessian_inverse_is_exact_on_mean_free_fields(n, N):
    grid = TorusGrid(n=n, N=N, L=1.3)
    rng = np.random.default_rng(100 + 10 * n + N)
    # T is one matrix (batch shape ()), so T / t is its own mean and the
    # trace-scaled inverse is exact; a T broadcast to the grid would add
    # the rounding of a mean over N^2n terms
    T = random_hermitian_pd(n, rng)
    inv_t, solve = frozen_hessian_inverse(T, grid)
    f = rng.normal(size=grid.shape)
    f -= f.mean()
    for mean in (0.0, 0.7):
        u = solve(f * inv_t, mean)
        back = frozen_operator(T, u, grid)
        assert np.abs(back - f).max() <= 1e-12 * np.abs(f).max()
        assert u.mean() == pytest.approx(mean, abs=1e-12)
    # the zero mode of the right-hand side is dropped
    u = solve(f, 0.0)
    assert np.abs(solve(f + 2.0, 0.0) - u).max() <= 1e-12 * np.abs(u).max()


def roll_part(phi, taps, c, h):
    """One part of the complex Hessian by np.roll, the reference: the sum
    of w phi(x + o h) over its taps in table order, times 1 / (c h^2)."""
    axes = tuple(range(phi.ndim))
    terms = [w * np.roll(phi, tuple(-o for o in offset), axes) for offset, w in taps]
    return reduce(np.add, terms) * (1.0 / (c * h**2))


def roll_complex_hessian(phi, grid):
    """The np.roll complex Hessian, the reference: at n = 2 the planes of its
    parts (h_00, h_11, Re h_01, Im h_01), otherwise the complex field with
    imaginary diagonal 0.0 and h_ji = Re h_ij + 1j (0.0 - Im h_ij)."""
    n, h = grid.n, grid.h
    parts = {(i, j, imag): roll_part(phi, taps, c, h) for i, j, imag, c, taps in hessian_taps(n)}
    if n == 2:
        return HermitianPlanes(parts[0, 0, False], parts[1, 1, False],
                               parts[0, 1, False], parts[0, 1, True])
    out = np.zeros(grid.shape + (n, n), dtype=complex)
    for (i, j, imag), value in parts.items():
        if imag:
            out.imag[..., i, j] = value
            out.imag[..., j, i] = 0.0 - value
        else:
            out.real[..., i, j] = value
            out.real[..., j, i] = value
    return out


def differing_bytes(a, b):
    """How many bytes of two arrays of one shape and dtype differ, plane by
    plane for two HermitianPlanes.  Asserting on this count keeps pytest from
    printing the arrays, which at n = 3 takes longer than the test."""
    if isinstance(a, HermitianPlanes) or isinstance(b, HermitianPlanes):
        assert isinstance(a, HermitianPlanes) and isinstance(b, HermitianPlanes)
        return sum(differing_bytes(p, q) for p, q in zip(a, b))
    assert a.shape == b.shape and a.dtype == b.dtype
    return int(np.count_nonzero(a.view(np.uint8) != b.view(np.uint8)))


def random_field(grid, seed, zeros):
    """A normal field with a share ``zeros`` of its values set to +0.0 or -0.0,
    so that exact and signed zeros reach the Hessian entries."""
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=grid.shape)
    hit = rng.random(grid.shape) < zeros
    phi[hit] = np.copysign(0.0, rng.normal(size=int(hit.sum())))
    return phi


# n = 3 stops at N = 9: its N = 13 grid has 4.8e6 points, 0.7 GB of Hessian
grids = st.one_of(
    st.builds(TorusGrid, n=st.sampled_from([1, 2]), N=st.integers(8, 13),
              L=st.floats(0.1, 10.0)),
    st.builds(TorusGrid, n=st.just(3), N=st.integers(8, 9), L=st.floats(0.1, 10.0)))


# no shrinking: a field is drawn from its seed, and a seed does not shrink
@settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(grid=grids, seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from([0.0, 0.5, 1.0]))
def test_complex_hessian_matches_the_roll_reference_byte_for_byte(grid, seed, zeros):
    phi = random_field(grid, seed, zeros)
    differ = differing_bytes(complex_hessian(phi, grid), roll_complex_hessian(phi, grid))
    assert differ == 0


@settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(grid=grids.filter(lambda grid: grid.n < 3), seed=st.integers(0, 2**32 - 1),
       share=st.floats(0.0, 1.0), zeros=st.sampled_from([0.0, 0.5]))
def test_complex_hessian_at_table_points_is_the_grid_hessian_there(grid, seed, share, zeros):
    phi = random_field(grid, seed, zeros)
    mask = np.random.default_rng(seed + 1).random(grid.shape) < share
    table = neighbour_table(np.flatnonzero(mask), grid)
    at_points = complex_hessian(phi, grid, table)
    whole = complex_hessian(phi, grid)
    K = int(mask.sum())
    if grid.n == 2:
        assert [p.shape for p in at_points] == [(K,)] * 4
        there = HermitianPlanes(*(p[mask] for p in whole))
    else:
        assert at_points.shape == (K, grid.n, grid.n)
        there = whole[mask]
    differ = differing_bytes(at_points, there)
    assert differ == 0


def test_neighbour_table_wraps_the_torus():
    grid = TorusGrid(n=1, N=8, L=1.0)
    table = neighbour_table([0, 63], grid)
    assert set(table) == {(0, 0)} | set(stencil_offsets(1))
    assert table[(0, 0)].tolist() == [0, 63]
    # (0, 0) - e_0 is (7, 0) and (7, 7) + e_1 is (7, 0)
    assert table[(-1, 0)].tolist() == [56, 55]
    assert table[(0, 1)].tolist() == [1, 56]


def random_hpd_field(shape, seed, diagonal):
    """Hermitian positive definite 2 x 2 fields of condition number at most 25
    and overall scale 1e-3..1e3; ``diagonal`` zeroes the off-diagonal."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    U, _ = np.linalg.qr(a)
    if diagonal:
        U = np.broadcast_to(np.eye(2), U.shape)
    lam = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=shape + (2,)))
    lam *= 10.0 ** rng.uniform(-3, 3, size=shape + (1,))
    g = (U * lam[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


@settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (1,), (50,), (4, 5, 6)]),
       diagonal=st.booleans())
def test_closed_form_inverse_and_determinant_match_lapack(seed, shape, diagonal):
    g = random_hpd_field(shape, seed, diagonal)
    planes = hermitian_planes(g)
    inv = hermitian_inverse(planes)
    assert isinstance(inv, HermitianPlanes) and all(p.shape == shape for p in inv)
    inv = inv.matrix()
    ref = hermitian_inverse(g)
    assert np.array_equal(ref, np.linalg.inv(g))
    scale = np.abs(ref).max(axis=(-2, -1))
    assert np.all(np.abs(inv - ref).max(axis=(-2, -1)) <= 1e-13 * scale)
    det = volume_density(g)
    assert np.array_equal(det, np.linalg.det(g).real)
    assert np.all(np.abs(volume_density(planes) - det) <= 1e-13 * det)


def test_closed_form_inverse_and_determinant_of_the_identity_are_exact():
    g = identity_metric(TorusGrid(n=2, N=8, L=1.0))
    planes = hermitian_planes(g)
    # the bytes of the identity, +0.0 off the diagonal as np.linalg.inv gives
    assert hermitian_inverse(planes).matrix().tobytes() == g.tobytes()
    assert volume_density(planes).tobytes() == np.ones(g.shape[:-2]).tobytes()


def test_inverse_and_determinant_use_lapack_beyond_n2():
    g = random_hpd_field((7,), 3, False)
    g3 = np.zeros((7, 3, 3), dtype=complex)
    g3[:, :2, :2] = g
    g3[:, 2, 2] = 2.0
    assert np.array_equal(hermitian_inverse(g3), np.linalg.inv(g3))
    assert np.array_equal(volume_density(g3), np.linalg.det(g3).real)


@settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (1,), (50,), (4, 5, 6)]))
def test_planes_round_trip_is_byte_exact(seed, shape):
    # a field written as the module writes one (imaginary diagonal +0.0,
    # h_10 = Re h_01 + 1j (0.0 - Im h_01)) goes complex -> planes -> complex
    # with every byte, signed zeros included, and planes -> complex -> planes too
    rng = np.random.default_rng(seed)
    planes = [np.where(rng.random(shape) < 0.5, rng.choice([0.0, -0.0], size=shape),
                       rng.normal(size=shape)) for _ in range(4)]
    h00, h11, re01, im01 = planes
    a = np.zeros(shape + (2, 2), dtype=complex)
    a[..., 0, 0] = h00
    a[..., 1, 1] = h11
    a.real[..., 0, 1] = a.real[..., 1, 0] = re01
    a.imag[..., 0, 1] = im01
    a.imag[..., 1, 0] = 0.0 - im01
    assert hermitian_planes(a).matrix().tobytes() == a.tobytes()
    back = hermitian_planes(HermitianPlanes(*planes).matrix())
    assert [p.tobytes() for p in back] == [p.tobytes() for p in planes]


def test_identity_metric_round_trips_through_planes():
    g = identity_metric(TorusGrid(n=2, N=8, L=1.0))
    assert hermitian_planes(g).matrix().tobytes() == g.tobytes()
