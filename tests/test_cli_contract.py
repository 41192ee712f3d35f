"""The CLI's exit-code contract, on descriptors drawn near the published rules.

Every run of cli.main ends in an exit code in {0, 1, 2, 3} with no
exception and no warning escaping; exit 2 (a usage or descriptor error)
leaves --out empty, and any other exit leaves JSON artifacts that parse
strictly and validate against their published schemas.  Descriptors are
drawn at n = 2 and N = 8, or rarely the first N above the grid budget, each
field valid with high probability and its numbers from typical values and
the edges: 0, +-1e-300, +-1e300, and each schema bound with its two float
neighbours.
"""

import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nformpde import cli, descriptors, schemas
from nformpde.cli import EXIT_USAGE, main

EXIT_CODES = {0, 1, 2, 3}

# the JSON artifacts with a published schema; the error files are checked
# for their message alone
ARTIFACT_SCHEMAS = {name: schema for name, (schema, _) in cli._ARTIFACTS.items()}
ARTIFACT_SCHEMAS["trace.json"] = schemas.TRACE_SCHEMA
ERROR_FILES = ("solve_error.json", "localize_error.json")


def edges(*bounds):
    """0, +-1e-300, +-1e300, and each bound with its two float neighbours."""
    values = {0.0, 1e-300, -1e-300, 1e300, -1e300}
    for bound in bounds:
        values |= {bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)}
    return sorted(values)


def mostly(typical, rare):
    """One of the typical values seven times in eight, otherwise a rare one."""
    return st.one_of(*[st.sampled_from(typical)] * 7, st.sampled_from(rare))


def numbers(typical, *bounds):
    return mostly(typical, edges(*bounds))


def params(**fields):
    """A params object holding any subset of the fields."""
    return st.fixed_dictionaries({}, optional=fields)


AMPLITUDE = numbers([0.4, 1.0, -1.0])
SIGMA = numbers([0.18, 0.1], 0.0)
GAUSSIAN = st.fixed_dictionaries({"name": st.just("gaussian")}, optional={"params": params(
    amplitude=AMPLITUDE, sigma=SIGMA,
    center=st.lists(numbers([0.5, 0.3], 0.0, 1.0), min_size=4, max_size=4)
    | st.just([0.5] * 3))})
BUMPS = st.fixed_dictionaries({"name": st.just("bumps")}, optional={"params": params(
    amplitude=AMPLITUDE, sigma=SIGMA, count=mostly([1, 3], [0, 1000, 1001]))})
# a sweep varies sigma, which gaussian and bumps take
FORCINGS = st.one_of(
    st.fixed_dictionaries({"name": st.just("constant")},
                          optional={"params": params(value=numbers([0.0, 1.0, -2.0]))}),
    GAUSSIAN, GAUSSIAN, BUMPS,
    st.fixed_dictionaries({"name": st.just("bandlimited")}, optional={"params": params(
        amplitude=AMPLITUDE, max_mode=mostly([1, 2, 4], [0, 5]))}),
)
BACKGROUNDS = st.one_of(
    st.just({"name": "identity"}),
    st.fixed_dictionaries({"name": st.sampled_from(["conformal", "banded"])}, optional={
        "params": params(amplitude=numbers([0.1, 0.3], 0.0, 0.45))}),
)
OPERATORS = mostly([
    {"family": "monge-ampere", "dim": 2},
    {"family": "hessian", "dim": 2, "k": 1},
    {"family": "hessian", "k": 2},
    {"family": "p-monge-ampere", "dim": 2, "p": 1},
    {"family": "combination", "members": [{"family": "monge-ampere"},
                                          {"family": "hessian", "k": 1}],
     "weights": [1.0, 0.5]},
], [
    {"family": "hessian", "k": 3},
    {"family": "combination", "members": [{"family": "monge-ampere"}], "weights": [-1.0]},
])
# the first N whose N^4 points the n = 2 grid budget refuses
ABOVE_BUDGET = next(N for N in range(8, 2**16) if N**4 > descriptors.GRID_POINT_BUDGET[2])
DESCRIPTORS = st.fixed_dictionaries(
    {"grid": st.fixed_dictionaries({"n": st.just(2), "N": mostly([8], [ABOVE_BUDGET])},
                                   optional={"L": numbers([1.0, 0.5, 0.01], 0.0)}),
     "forcing": FORCINGS},
    optional={
        "operator": OPERATORS,
        "background_g": BACKGROUNDS,
        "background_gh": BACKGROUNDS,
        "concentrations": st.lists(numbers([0.18, 0.12, 0.1], 0.0), min_size=1, max_size=3),
        "entropy_target": st.one_of(st.none(), numbers([1.0, 10.0], 0.0)),
        "entropy_exponent": st.one_of(st.none(), numbers([3.0, 4.0], 2.0)),
        "tolerances": params(solver=numbers([1e-9, 1e-6], 0.0),
                             sweep_ratio=numbers([3.0], 0.0),
                             max_iterations=mostly([1, 5, 40], [0, -1])),
        "samples": mostly([1, 2, 16, 64], [0]),
        "seed": mostly([0, 1, 16], [-1]),
    },
)


def strict_json(path):
    """The JSON document at path; a NaN or an infinity in it raises."""
    def refuse(constant):
        raise ValueError("%s in %s" % (constant, path))
    with open(path) as handle:
        return json.load(handle, parse_constant=refuse)


def check_contract(command, descriptor):
    """Run command on descriptor in process and check the exit-code contract."""
    with tempfile.TemporaryDirectory() as scratch:
        config, out = os.path.join(scratch, "desc.json"), os.path.join(scratch, "out")
        with open(config, "w") as handle:
            json.dump(descriptor, handle)
        os.mkdir(out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", config, "--out", out])
        assert code in EXIT_CODES
        written = sorted(os.listdir(out))
        if code == EXIT_USAGE:
            assert written == []
            return code
        assert written
        for name in written:
            if not name.endswith(".json"):
                continue
            doc = strict_json(os.path.join(out, name))
            if name in ERROR_FILES:
                assert isinstance(doc["error"], str)
            else:
                schemas.validate(doc, ARTIFACT_SCHEMAS[name])
        return code


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["check-pointwise", "solve", "sweep"]), descriptor=DESCRIPTORS)
# the two descriptors that once ended in a traceback and in escaping warnings
@example(command="sweep", descriptor={
    "grid": {"n": 2, "N": 8, "L": 0.01}, "seed": 16,
    "forcing": {"name": "gaussian", "params": {"amplitude": -1e300, "sigma": 1.0}}})
@example(command="solve", descriptor={
    "grid": {"n": 2, "N": 8, "L": 1.0}, "seed": 1,
    "forcing": {"name": "bandlimited", "params": {"amplitude": -1e300}}})
def test_cli_keeps_its_exit_code_contract(command, descriptor):
    check_contract(command, descriptor)


# localize needs N >= 16 to host a chart, so it runs on explicit descriptors:
# one whose e^(n F) underflows on the chart ball, and the README default
@pytest.mark.parametrize("descriptor, expected", [
    ({"grid": {"n": 2, "N": 16, "L": 1.0},
      "forcing": {"name": "constant", "params": {"value": -700}}}, 1),
    ({"background_gh": {"name": "banded", "params": {"amplitude": 0.3}},
      "forcing": {"name": "gaussian", "params": {"amplitude": 0.4, "sigma": 0.18}}}, 0),
])
def test_localize_keeps_its_exit_code_contract(descriptor, expected):
    assert check_contract("localize", descriptor) == expected
