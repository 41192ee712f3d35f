"""Experiment descriptors: JSON round trips, validation, field generators."""

import numpy as np
import pytest

from nformpde import descriptors, schemas
from nformpde.descriptors import ExperimentDescriptor
from nformpde.errors import InconsistentInputError
from nformpde.grid import TorusGrid, integrate, volume_density
from nformpde.symfun import combine, hessian, monge_ampere, p_monge_ampere


def test_default_descriptor_round_trip():
    desc = ExperimentDescriptor()
    text = desc.to_json()
    back = ExperimentDescriptor.from_json(text)
    assert back.to_json() == text
    assert back == desc


def test_round_trip_preserves_custom_fields():
    desc = ExperimentDescriptor(
        operator={"family": "hessian", "dim": 2, "k": 1},
        grid={"n": 2, "N": 12, "L": 2.0},
        forcing={"name": "gaussian", "params": {"amplitude": 0.3, "sigma": 0.2}},
        s_fractions=[0.5],
        k_list=[10],
        concentrations=[0.18, 0.12],
        entropy_target=2.5,
        samples=500,
        seed=11,
    )
    back = ExperimentDescriptor.from_json(desc.to_json())
    assert back == desc
    assert back.make_grid() == TorusGrid(n=2, N=12, L=2.0)
    assert back.make_operator().family == "hessian"


def test_make_grid_takes_the_largest_grid_inside_the_budget():
    # N^2n grid points up to GRID_POINT_BUDGET at n = 2 and 3, and no grid at
    # n >= 4; make_grid realizes no field, so none is built here
    for n, largest in ((2, 48), (3, 12)):
        assert largest ** (2 * n) <= descriptors.GRID_POINT_BUDGET[n] < (largest + 1) ** (2 * n)
        operator = {"family": "monge-ampere", "dim": n}
        desc = ExperimentDescriptor(operator=operator, grid={"n": n, "N": largest})
        assert desc.make_grid() == TorusGrid(n=n, N=largest, L=1.0)
        with pytest.raises(InconsistentInputError, match="^grid.N: N = %d at n = %d"
                           % (largest + 1, n)):
            ExperimentDescriptor(operator=operator, grid={"n": n, "N": largest + 1}).make_grid()
    with pytest.raises(InconsistentInputError, match="^grid.N: N = 8 at n = 4"):
        ExperimentDescriptor(operator={"family": "monge-ampere", "dim": 4},
                             grid={"n": 4, "N": 8}).make_grid()


def test_sweep_lanes_are_bounded_by_the_working_set():
    # as many sweep chains at once as fit the working set are taken, one
    # more is refused, and one chain fits every grid that make_grid returns
    for n in (2, 3):
        largest = round(descriptors.GRID_POINT_BUDGET[n] ** (1.0 / (2 * n)))
        while largest ** (2 * n) > descriptors.GRID_POINT_BUDGET[n]:
            largest -= 1
        grid = TorusGrid(n=n, N=largest, L=1.0)
        descriptors.check_sweep_lanes(grid, 1)
        lanes = descriptors.WORKING_SET_BYTES // (
            descriptors._SWEEP_MEMBER_BYTES_PER_POINT[n] * grid.num_points)
        descriptors.check_sweep_lanes(grid, lanes)
        with pytest.raises(InconsistentInputError, match="^--workers: %d sweep chains at once "
                           "on N = %d at n = %d" % (lanes + 1, largest, n)):
            descriptors.check_sweep_lanes(grid, lanes + 1)


def test_samples_are_bounded_by_the_working_set():
    # check-pointwise's batch holds about 260 bytes per sample and entry of
    # an n x n matrix: at n = 6 the largest count inside the working set is
    # taken, and one more is refused
    largest = descriptors.WORKING_SET_BYTES // (descriptors._BYTES_PER_SAMPLE_ENTRY * 36)
    operator = {"family": "monge-ampere", "dim": 6}
    assert ExperimentDescriptor(operator=operator, grid={"n": 6}, samples=largest).samples == largest
    with pytest.raises(InconsistentInputError, match="^samples: %d samples" % (largest + 1)):
        ExperimentDescriptor(operator=operator, grid={"n": 6}, samples=largest + 1)


def test_unknown_fields_rejected():
    data = ExperimentDescriptor().to_dict()
    data["extra_knob"] = 1
    with pytest.raises(InconsistentInputError):
        ExperimentDescriptor.from_dict(data)
    with pytest.raises(InconsistentInputError):
        ExperimentDescriptor.from_json("not json {")
    with pytest.raises(InconsistentInputError):
        ExperimentDescriptor.from_json("[1, 2]")


def test_validation_failures():
    cases = [
        {"grid": {"n": 1, "N": 16, "L": 1.0}, "operator": {"family": "monge-ampere", "dim": 1}},
        {"grid": {"n": 2, "N": 4, "L": 1.0}},
        {"grid": {"n": 2, "N": 16, "L": -1.0}},
        {"operator": {"family": "monge-ampere", "dim": 3}},
        {"operator": {"family": "does-not-exist", "dim": 2}},
        {"background_g": {"name": "nope", "params": {}}},
        {"forcing": {"name": "nope", "params": {}}},
        {"entropy_exponent": 2.0},
        {"s_fractions": [1.5]},
        {"k_list": [2.5]},
        {"samples": 0},
    ]
    for overrides in cases:
        data = ExperimentDescriptor().to_dict()
        data.update(overrides)
        with pytest.raises(InconsistentInputError):
            ExperimentDescriptor.from_dict(data)


def test_direct_construction_is_checked_and_completed():
    # a descriptor built in code is checked as a loaded one is, when it is built
    for fields in ({"grid": {"N": 4}},
                   {"background_g": {"name": "banded", "params": {"amplitude": 0.6}}},
                   {"operator": {"family": "hessian", "dim": 2}},
                   {"concentrations": []}):
        with pytest.raises(InconsistentInputError):
            ExperimentDescriptor(**fields)
    # grid and tolerances keep the keys given and take every other default
    desc = ExperimentDescriptor(grid={"N": 12}, tolerances={"solver": 1e-6})
    assert desc.grid == {"n": 2, "N": 12, "L": 1.0}
    assert desc.tolerances == {"solver": 1e-6, "c_disc": 10.0, "sweep_ratio": 3.0,
                               "max_iterations": 40}
    assert ExperimentDescriptor.from_json(desc.to_json()) == desc


def test_p_monge_ampere_index_bound():
    # the pair index is confined to 1..n
    data = ExperimentDescriptor().to_dict()
    data["operator"] = {"family": "p-monge-ampere", "dim": 2, "p": 3}
    with pytest.raises(ValueError):
        ExperimentDescriptor.from_dict(data)
    data["operator"] = {"family": "p-monge-ampere", "dim": 3, "p": 2}
    data["grid"] = {"n": 3, "N": 16, "L": 1.0}
    back = ExperimentDescriptor.from_dict(data)
    assert back.make_operator().cone.p == 2


def test_operator_config_round_trip():
    # each family from a literal config, through JSON, to the operator it names
    ma = {"family": "monge-ampere", "dim": 2}
    cases = [
        (ma, monge_ampere(2)),
        ({"family": "hessian", "dim": 3, "k": 2}, hessian(3, 2)),
        ({"family": "p-monge-ampere", "dim": 3, "p": 2}, p_monge_ampere(3, 2)),
        ({"family": "combination", "dim": 2, "weights": [0.7, 0.3],
          "members": [ma, {"family": "hessian", "dim": 2, "k": 1}]},
         combine([monge_ampere(2), hessian(2, 1)], [0.7, 0.3])),
    ]
    for config, spec in cases:
        data = ExperimentDescriptor(operator=config, grid={"n": spec.dim, "N": 16, "L": 1.0})
        rebuilt = ExperimentDescriptor.from_json(data.to_json()).make_operator()
        assert rebuilt.family == spec.family
        assert rebuilt.dim == spec.dim
        assert rebuilt.gamma == pytest.approx(spec.gamma, rel=1e-12)


def test_background_generators_produce_pinched_metrics():
    grid = TorusGrid(n=2, N=12, L=1.0)
    for name, params in [
        ("identity", {}),
        ("conformal", {"amplitude": 0.4}),
        ("banded", {"amplitude": 0.4}),
    ]:
        desc = ExperimentDescriptor(background_g={"name": name, "params": params})
        g, g_h = desc.make_backgrounds(grid)
        assert g.shape == grid.shape + (2, 2)
        assert np.abs(g - np.conj(np.swapaxes(g, -1, -2))).max() <= 1e-14
        eigs = np.linalg.eigvalsh(g)
        assert eigs.min() >= 0.5 - 1e-12
        assert eigs.max() <= 2.0 + 1e-12
        assert np.abs(g_h - np.eye(2)).max() == 0.0


def test_banded_background_has_offdiagonal_content():
    grid = TorusGrid(n=2, N=12, L=1.0)
    desc = ExperimentDescriptor(background_gh={"name": "banded", "params": {"amplitude": 0.3}})
    _, g_h = desc.make_backgrounds(grid)
    assert np.abs(g_h[..., 0, 1]).max() > 0.1
    assert np.abs(g_h[..., 0, 1].imag).max() > 0.05


def test_forcing_constant_and_seeded_determinism():
    grid = TorusGrid(n=2, N=8, L=1.0)
    desc = ExperimentDescriptor(forcing={"name": "constant", "params": {"value": 0.7}})
    F = desc.make_forcing(grid)
    assert np.all(F == 0.7)
    for name in ("bumps", "bandlimited"):
        d1 = ExperimentDescriptor(forcing={"name": name, "params": {}}, seed=5)
        d2 = ExperimentDescriptor(forcing={"name": name, "params": {}}, seed=5)
        d3 = ExperimentDescriptor(forcing={"name": name, "params": {}}, seed=6)
        a, b, c = d1.make_forcing(grid), d2.make_forcing(grid), d3.make_forcing(grid)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_forcing_gaussian_periodization_is_shift_invariant():
    # total mass of the periodized profile must not depend on the center
    grid = TorusGrid(n=2, N=12, L=1.0)
    masses = []
    for center in ([0.5] * 4, [0.1, 0.9, 0.3, 0.7]):
        desc = ExperimentDescriptor(
            forcing={"name": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.15, "center": center}}
        )
        F = desc.make_forcing(grid)
        assert F.min() > 0.0
        masses.append(integrate(F, np.ones(grid.shape), grid))
    assert masses[0] == pytest.approx(masses[1], rel=1e-12)


def test_forcing_bandlimited_amplitude_normalized():
    grid = TorusGrid(n=2, N=12, L=1.0)
    desc = ExperimentDescriptor(
        forcing={"name": "bandlimited", "params": {"amplitude": 0.3, "max_mode": 1}}, seed=2
    )
    F = desc.make_forcing(grid)
    assert np.abs(F).max() == pytest.approx(0.3, rel=1e-12)
    assert abs(float(F.mean())) < 0.3


def test_forcing_param_overrides():
    grid = TorusGrid(n=2, N=8, L=1.0)
    desc = ExperimentDescriptor(forcing={"name": "gaussian", "params": {"sigma": 0.2}})
    base = desc.make_forcing(grid)
    scaled = desc.make_forcing(grid, params={"amplitude": 2.0})
    assert np.allclose(scaled, 2.0 * base)


def test_entropy_exponent_default():
    desc = ExperimentDescriptor()
    assert desc.entropy_exponent_or_default(2) == 3
    desc2 = ExperimentDescriptor(entropy_exponent=4.5)
    assert desc2.entropy_exponent_or_default(2) == 4.5


def test_every_schema_and_rule_is_a_valid_schema():
    # schemas.validate does not check its schema on each call; each is
    # checked here with the validator class it is used with
    published = [value for name, value in vars(schemas).items() if name.endswith("_SCHEMA")]
    tables = (descriptors._OPERATORS, descriptors._BACKGROUNDS, descriptors._FORCINGS)
    rules = [rule for table in tables for _, rule in table.values()]
    assert len(published) == 8 and len(rules) == 11
    for schema in published + rules:
        schemas.Validator.check_schema(schema)
