"""Manufactured fields with analytic derivatives, plus the radial oracle.

The trigonometric potential below has a hand-computed complex Hessian, so a
forcing built from it analytically turns any solver run into a convergence
study; building the forcing from the *discrete* Hessian instead makes the
potential an exact discrete solution (zero-residual oracle).

The radial oracle integrates the rotationally symmetric Dirichlet problem
det H(psi) = rho(|z|^2) on a ball by reducing to one variable t = |z|^2:
the determinant is v'(t)^(n-1) (v'(t) + t v''(t)), which integrates to

    t^n v'(t)^n = n * int_0^t s^(n-1) rho(s) ds,

so v' follows from a cumulative quadrature and v from one more integral.
"""

from __future__ import annotations

import numpy as np

from . import grid as gridmod


def trig_potential(grid, a=0.002, c=0.001, d=0.001):
    """Smooth periodic potential with closed-form complex Hessian (n = 2)."""
    if grid.n != 2:
        raise ValueError("the trigonometric potential is two-dimensional")
    k = 2.0 * np.pi / grid.L
    u1 = k * grid.axis_coordinates(0)
    v1 = k * grid.axis_coordinates(1)
    u2 = k * grid.axis_coordinates(2)
    v2 = k * grid.axis_coordinates(3)
    phi = (
        a * (np.sin(u1) * np.sin(v1) + np.sin(u2) * np.sin(v2))
        + c * np.sin(u1) * np.sin(u2)
        + d * np.sin(u1) * np.sin(v2)
    )
    return phi


def trig_hessian(grid, a=0.002, c=0.001, d=0.001):
    """Analytic complex Hessian of trig_potential on the grid points."""
    if grid.n != 2:
        raise ValueError("the trigonometric potential is two-dimensional")
    k = 2.0 * np.pi / grid.L
    u1 = k * grid.axis_coordinates(0)
    v1 = k * grid.axis_coordinates(1)
    u2 = k * grid.axis_coordinates(2)
    v2 = k * grid.axis_coordinates(3)
    k2 = k * k
    s1v1 = np.sin(u1) * np.sin(v1)
    s2v2 = np.sin(u2) * np.sin(v2)
    s1s2 = np.sin(u1) * np.sin(u2)
    s1w2 = np.sin(u1) * np.sin(v2)

    xx1 = -k2 * (a * s1v1 + c * s1s2 + d * s1w2)
    yy1 = -k2 * a * s1v1
    xx2 = -k2 * (a * s2v2 + c * s1s2)
    yy2 = -k2 * (a * s2v2 + d * s1w2)
    x1x2 = k2 * c * np.cos(u1) * np.cos(u2)
    x1y2 = k2 * d * np.cos(u1) * np.cos(v2)

    H = np.zeros(grid.shape + (2, 2), dtype=complex)
    H[..., 0, 0] = 0.25 * (xx1 + yy1)
    H[..., 1, 1] = 0.25 * (xx2 + yy2)
    off = 0.25 * x1x2 + 0.25j * x1y2
    H[..., 0, 1] = off
    H[..., 1, 0] = np.conj(off)
    return H


def forcing_from_hessian(spec, g, g_h, phi_h, b=0.0):
    """Forcing F with log f(lam[g^-1 gt]) = F + b for the given Hessian field.

    g, g_h and phi_h are checked Hermitian once, here (hermlin.checked_parts),
    and at n = 2 read as planes.
    """
    from . import hermlin, symfun

    g, g_h, phi_h = hermlin.checked_parts(g, g_h, phi_h)
    gt = gridmod.twisted_from_hessian(phi_h, g, g_h)
    lam = hermlin.endomorphism_eigs(g, gt)
    return np.log(symfun.evaluate(spec, lam)) - b


def radial_profile(rhs_of_t, T, n):
    """Radial reduction of the constant-boundary Dirichlet problem.

    Returns (t_nodes, v, v_prime) on 10001 uniform nodes of [0, T] for
    det H(psi) = rhs(|z|^2) on |z|^2 <= T with psi = 0 at the boundary;
    rhs_of_t maps t >= 0 to a positive value.
    """
    from scipy.integrate import cumulative_simpson
    t = np.linspace(0.0, T, 10001)
    rho = np.asarray(rhs_of_t(t), dtype=float)
    if np.any(rho < 0):
        raise ValueError("radial rhs must be nonnegative")
    moment = cumulative_simpson(t ** (n - 1) * rho, x=t, initial=0.0)
    v_prime = np.zeros_like(t)
    v_prime[1:] = (n * moment[1:]) ** (1.0 / n) / t[1:]
    v_prime[0] = rho[0] ** (1.0 / n)
    tail = cumulative_simpson(v_prime, x=t, initial=0.0)
    v = tail - tail[-1]
    return t, v, v_prime


def radial_field(grid, center_index, t_nodes, values):
    """Sample a radial profile v(|z|^2) onto the grid (linear in t)."""
    t = grid.distance_sq(center_index)
    return np.interp(t, t_nodes, values)
