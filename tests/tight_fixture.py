"""A synthetic comparison instance whose bound holds with a thin margin.

Shared by the auxiliary and acceptance tests.  The chart solve is called
through the ``auxiliary`` module, so a test that patches
``auxiliary.solve_dirichlet_ma`` sees the fixture's call.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from nformpde import auxiliary
from nformpde.grid import identity_metric


@dataclass
class TightFixture:
    """Comparison fixture tuned so the bound holds with a thin margin."""

    chart: auxiliary.LocalChart
    psi: np.ndarray
    w: np.ndarray
    mass: float
    epsilon: float
    alpha: float


def tight_comparison_fixture(spec, grid):
    """Build a synthetic comparison instance with a controlled margin.

    Solves the constant-rhs Dirichlet problem on the flat chart, then sets
    the tilted field to -alpha * (-psi)^(n/(n+1)) with alpha 0.9 times the
    fixed point where the comparison scale computed from the field's own
    hinge mass at smoothing index 10 equals alpha.  The comparison then
    holds with margin (alpha - eps) * max(-psi)^(n/(n+1)); any rescaling of
    eps below alpha's fixed-point share makes it fail.
    """
    n = grid.n
    k = 10
    g = identity_metric(grid)
    chart = auxiliary.build_chart(np.zeros(grid.shape), g, g, grid)
    count = chart.num_interior
    rhs = np.zeros(grid.shape)
    rhs[chart.mask] = 1.0 / (count * grid.cell_volume)
    aux = auxiliary.solve_dirichlet_ma(chart, rhs)

    power = n / (n + 1.0)
    depth = np.maximum(-aux.psi[chart.mask], 0.0) ** power
    shape_mass = float(np.sum(depth * chart.vol_density[chart.mask]) * grid.cell_volume)
    tail = float(np.sum(chart.vol_density[chart.mask]) * grid.cell_volume) / k

    def residual(alpha):
        return alpha - auxiliary.comparison_scale(alpha * shape_mass + tail, spec.gamma, n)

    fixed_point = brentq(residual, 1e-9, 1e9, xtol=1e-14, rtol=1e-14)
    alpha = 0.9 * fixed_point

    w = np.zeros(grid.shape)
    w[chart.mask] = -alpha * depth
    mass = auxiliary.hinge_mass(w, np.zeros(grid.shape), k, chart)
    eps = auxiliary.comparison_scale(mass, spec.gamma, n)
    return TightFixture(chart=chart, psi=aux.psi, w=w, mass=mass, epsilon=eps, alpha=alpha)
