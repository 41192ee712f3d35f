"""Experiment descriptors: named field generators and JSON round-trip.

A descriptor bundles everything one run needs: the operator, the grid, the
background metric pair, the forcing family, the localization parameters, and
the tolerances.  Generators are referenced by name with plain parameter
dictionaries so descriptors serialize losslessly.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from jsonschema import ValidationError

from . import schemas
from .errors import InconsistentInputError
from .grid import TorusGrid, identity_metric
from .symfun import combine, hessian, monge_ampere, p_monge_ampere


def _check(instance, rule, what):
    """Raise InconsistentInputError, naming the field path under `what`, when
    instance breaks the JSON-schema rule."""
    try:
        schemas.validate(instance, rule)
    except ValidationError as exc:
        raise InconsistentInputError("%s: %s" % (what + exc.json_path[1:], exc.message)) from None


def _entry(config, table, key, what):
    """The table entry that config[key] names, once config satisfies its rule."""
    _check(config, {"type": "object", "required": [key], "properties": {key: {"enum": list(table)}}},
           what)
    entry = table[config[key]]
    _check(config, entry[1], what)
    return entry


def _keys(required=(), **properties):
    """Rule for an object that takes only these keys, the required ones always."""
    return {"type": "object", "additionalProperties": False, "properties": properties,
            "required": list(required)}


_NUMBER = {"type": "number"}
_POSITIVE_INTEGER = {"type": "integer", "minimum": 1}


def _operator(build, required=(), **keys):
    return build, _keys(("family",) + required, family={}, dim={"type": "integer"}, **keys)


def _combination(config, n):
    spec = combine([_operator_from_config(m) for m in config["members"]], config["weights"])
    if "dim" in config and spec.dim != n:
        raise InconsistentInputError("combination dim %d does not match its members" % n)
    return spec


# family -> (builder from a checked config and its dim, rule of the config)
_OPERATORS = {
    "monge-ampere": _operator(lambda config, n: monge_ampere(n)),
    "hessian": _operator(lambda config, n: hessian(n, int(config["k"])), ("k",),
                         k={"type": "integer"}),
    "p-monge-ampere": _operator(lambda config, n: p_monge_ampere(n, int(config["p"])), ("p",),
                                p={"type": "integer"}),
    "combination": _operator(_combination, ("members", "weights"),
                             members={"type": "array"},
                             weights={"type": "array", "items": _NUMBER}),
}


def _check_operator(config, what="operator"):
    _entry(config, _OPERATORS, "family", what)
    for i, member in enumerate(config.get("members", [])):
        _check_operator(member, "%s.members[%d]" % (what, i))


def _operator_from_config(config):
    """The operator spec of a config that _check_operator accepted."""
    return _OPERATORS[config["family"]][0](config, int(config.get("dim", 2)))


def operator_config(spec):
    """Serializable configuration for an operator spec."""
    if spec.family == "combination":
        return {
            "family": spec.family,
            "dim": spec.dim,
            "members": [operator_config(m) for m in spec.members],
            "weights": list(spec.weights),
        }
    config = {"family": spec.family, "dim": spec.dim}
    if spec.family == "hessian":
        config["k"] = spec.k
    if spec.family == "p-monge-ampere":
        config["p"] = spec.p
    return config


def _generator(generate, **params):
    return generate, _keys(("name",), name={}, params=_keys(**params))


# ---------------------------------------------------------------------------
# background metric generators

def _background_identity(grid, params):
    return identity_metric(grid)


def _background_conformal(grid, params):
    """(1 + amp * cos(2 pi x / L) * cos(2 pi y / L)) * I on the first chart pair."""
    amp = params.get("amplitude", 0.1)
    k = 2.0 * np.pi / grid.L
    x = grid.axis_coordinates(0)
    y = grid.axis_coordinates(1)
    factor = 1.0 + amp * np.cos(k * x) * np.cos(k * y)
    g = identity_metric(grid)
    return g * factor[..., None, None]


def _background_banded(grid, params):
    """Identity plus a smooth off-diagonal Hermitian band."""
    amp = params.get("amplitude", 0.1)
    if grid.n < 2:
        raise InconsistentInputError("banded background needs at least two complex directions")
    k = 2.0 * np.pi / grid.L
    x = grid.axis_coordinates(0)
    y = grid.axis_coordinates(3)
    band = 0.5 * amp * (np.cos(k * x) + 1j * np.sin(k * y))
    g = identity_metric(grid)
    g[..., 0, 1] = band
    g[..., 1, 0] = np.conj(band)
    return g


_AMPLITUDE = {"type": "number", "minimum": 0, "maximum": 0.45}

# name -> (generator, rule of the generator object and its params)
_BACKGROUNDS = {
    "identity": _generator(_background_identity),
    "conformal": _generator(_background_conformal, amplitude=_AMPLITUDE),
    "banded": _generator(_background_banded, amplitude=_AMPLITUDE),
}


# ---------------------------------------------------------------------------
# forcing generators

def _periodized_gaussian(grid, center, sigma):
    # separable theta-function periodization, five images per axis
    value = np.ones(grid.shape)
    for axis in range(2 * grid.n):
        line = np.arange(grid.N) * grid.h - center[axis] * grid.L
        acc = np.zeros(grid.N)
        for image in range(-2, 3):
            acc += np.exp(-0.5 * ((line - image * grid.L) / sigma) ** 2)
        shape = [1] * (2 * grid.n)
        shape[axis] = grid.N
        value = value * acc.reshape(shape)
    return value


def _forcing_constant(grid, params, rng):
    return params.get("value", 0.0) * np.ones(grid.shape)


def _forcing_gaussian(grid, params, rng):
    amp = params.get("amplitude", 1.0)
    sigma = params.get("sigma", 0.15) * grid.L
    center = params.get("center", [0.5] * (2 * grid.n))
    if len(center) != 2 * grid.n:
        raise InconsistentInputError("gaussian center must have one entry per real axis")
    return amp * _periodized_gaussian(grid, center, sigma)


def _forcing_bumps(grid, params, rng):
    amp = params.get("amplitude", 1.0)
    sigma = params.get("sigma", 0.12) * grid.L
    count = int(params.get("count", 3))
    field_sum = np.zeros(grid.shape)
    centers = rng.uniform(0.0, 1.0, size=(count, 2 * grid.n))
    signs = rng.choice([-1.0, 1.0], size=count)
    for center, sign in zip(centers, signs):
        field_sum += sign * _periodized_gaussian(grid, center, sigma)
    return amp * field_sum


def _forcing_bandlimited(grid, params, rng):
    amp = params.get("amplitude", 0.5)
    max_mode = int(params.get("max_mode", 2))
    m = 2 * grid.n
    mesh = [grid.axis_coordinates(a) for a in range(m)]
    out = np.zeros(grid.shape)
    modes = np.stack(np.meshgrid(*([np.arange(-max_mode, max_mode + 1)] * m),
                                 indexing="ij"), axis=-1).reshape(-1, m)
    for mode in modes:
        if not np.any(mode):
            continue
        coeff = rng.normal() / (1.0 + float(np.dot(mode, mode)))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(2.0 * np.pi * mode[a] * mesh[a] / grid.L for a in range(m))
        out += coeff * np.cos(arg + phase)
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= amp / peak
    return out


# one rule for the width of gaussian and bumps, the parameter a sweep varies
_SIGMA = {"type": "number", "exclusiveMinimum": 0}

# name -> (generator, rule of the generator object and its params)
_FORCINGS = {
    "constant": _generator(_forcing_constant, value=_NUMBER),
    "gaussian": _generator(_forcing_gaussian, amplitude=_NUMBER, sigma=_SIGMA,
                           center={"type": "array", "items": _NUMBER}),
    "bumps": _generator(_forcing_bumps, amplitude=_NUMBER, sigma=_SIGMA, count=_POSITIVE_INTEGER),
    "bandlimited": _generator(_forcing_bandlimited, amplitude=_NUMBER, max_mode=_POSITIVE_INTEGER),
}


def _not_json(constant):
    raise InconsistentInputError("descriptor is not valid JSON: %s is not a JSON number" % constant)


def _json_int(text):
    """A JSON integer, rejected when no float can hold it."""
    try:
        float(int(text))
    except (OverflowError, ValueError):
        raise InconsistentInputError("descriptor integer %s... is too large for a float"
                                     % text[:12]) from None
    return int(text)


def parse_json(text):
    """Plain data of a descriptor's JSON text (NaN and Infinity are not JSON,
    and every number must fit a float)."""
    try:
        return json.loads(text, parse_constant=_not_json, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise InconsistentInputError("descriptor is not valid JSON: %s" % exc) from None


_GRID_DEFAULTS = {"n": 2, "N": 16, "L": 1.0}
_TOLERANCE_DEFAULTS = {"solver": 1e-9, "c_disc": 10.0, "sweep_ratio": 3.0, "max_iterations": 40}


@dataclass
class ExperimentDescriptor:
    """Declarative description of one experiment run, checked once, when built."""

    operator: dict = field(default_factory=lambda: {"family": "monge-ampere", "dim": 2})
    grid: dict = field(default_factory=dict)
    background_g: dict = field(default_factory=lambda: {"name": "identity", "params": {}})
    background_gh: dict = field(default_factory=lambda: {"name": "identity", "params": {}})
    forcing: dict = field(default_factory=lambda: {"name": "constant", "params": {"value": 0.0}})
    s_fractions: list = field(default_factory=lambda: [0.25, 0.5, 0.75])
    k_list: list = field(default_factory=lambda: [10, 100])
    entropy_exponent: float = None
    concentrations: list = field(default_factory=lambda: [0.18, 0.16, 0.14, 0.12, 0.1])
    entropy_target: float = None
    tolerances: dict = field(default_factory=dict)
    samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        """DESCRIPTOR_SCHEMA, grid and tolerances merged over their defaults, each
        operator and generator object against its table, the rules that span fields."""
        _check(vars(self), schemas.DESCRIPTOR_SCHEMA, "descriptor")
        self.grid = {**_GRID_DEFAULTS, **self.grid}
        self.tolerances = {**_TOLERANCE_DEFAULTS, **self.tolerances}
        _check_operator(self.operator)
        if self.make_operator().dim != self.grid["n"]:
            raise InconsistentInputError("operator dimension does not match the grid")
        _entry(self.background_g, _BACKGROUNDS, "name", "background_g")
        _entry(self.background_gh, _BACKGROUNDS, "name", "background_gh")
        _entry(self.forcing, _FORCINGS, "name", "forcing")
        if self.entropy_exponent is not None and self.entropy_exponent <= self.grid["n"]:
            raise InconsistentInputError("entropy exponent must exceed the complex dimension")

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data):
        """A descriptor from plain data, schema-checked before it is unpacked."""
        _check(data, schemas.DESCRIPTOR_SCHEMA, "descriptor")
        return cls(**data)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(parse_json(text))

    # ---- realized objects: the fields were checked when the descriptor was built ----

    def make_grid(self):
        return TorusGrid(n=int(self.grid["n"]), N=int(self.grid["N"]), L=float(self.grid["L"]))

    def make_operator(self):
        return _operator_from_config(self.operator)

    def make_backgrounds(self, grid):
        return tuple(_BACKGROUNDS[config["name"]][0](grid, config.get("params", {}))
                     for config in (self.background_g, self.background_gh))

    def forcing_params(self, overrides=None):
        """The forcing's params with `overrides` merged in; overrides are
        checked against the generator's rule."""
        params = {**self.forcing.get("params", {}), **(overrides or {})}
        if overrides:
            _entry(dict(self.forcing, params=params), _FORCINGS, "name", "forcing")
        return params

    def make_forcing(self, grid, params=None):
        generate = _FORCINGS[self.forcing["name"]][0]
        return generate(grid, self.forcing_params(params), np.random.default_rng(self.seed))

    def entropy_exponent_or_default(self, n):
        return n + 1 if self.entropy_exponent is None else self.entropy_exponent
