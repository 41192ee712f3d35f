"""Experiment descriptors: named field generators and JSON round-trip.

A descriptor bundles everything one run needs: the operator, the grid, the
background metric pair, the forcing family, the localization parameters, and
the tolerances.  Generators are referenced by name with plain parameter
dictionaries so descriptors serialize losslessly.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InconsistentInputError
from .grid import TorusGrid, identity_metric
from .symfun import combine, hessian, monge_ampere, p_monge_ampere


def _object(value, what):
    if not isinstance(value, dict):
        raise InconsistentInputError("%s must be an object, got %r" % (what, value))
    return value


def _check_keys(config, accepted, what):
    unread = sorted(set(config) - set(accepted))
    if unread:
        raise InconsistentInputError("%s does not read %s" % (what, unread))


def _required(config, key):
    if key not in config:
        raise InconsistentInputError("operator %r is missing %r" % (config.get("family"), key))
    return config[key]


def _integer(config, key, default=None):
    value = _required(config, key) if default is None else config.get(key, default)
    if isinstance(value, bool) or not (
            isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise InconsistentInputError(
            "operator %r needs an integer %r, got %r" % (config.get("family"), key, value))
    return int(value)


def _list(config, key):
    value = _required(config, key)
    if not isinstance(value, list):
        raise InconsistentInputError(
            "operator %r needs a list %r, got %r" % (config.get("family"), key, value))
    return value


def _weight(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InconsistentInputError("combination weight must be a number, got %r" % (value,))
    return float(value)


# the keys besides "family" that each operator family reads
_OPERATOR_KEYS = {
    "monge-ampere": ("dim",),
    "hessian": ("dim", "k"),
    "p-monge-ampere": ("dim", "p"),
    "combination": ("dim", "members", "weights"),
}


def _operator_from_config(config):
    family = _object(config, "operator").get("family")
    if not isinstance(family, str) or family not in _OPERATOR_KEYS:
        raise InconsistentInputError("unknown operator family %r" % (family,))
    _check_keys(config, ("family",) + _OPERATOR_KEYS[family], "operator %r" % family)
    n = _integer(config, "dim", 2)
    if family == "monge-ampere":
        return monge_ampere(n)
    if family == "hessian":
        return hessian(n, _integer(config, "k"))
    if family == "p-monge-ampere":
        return p_monge_ampere(n, _integer(config, "p"))
    members = [_operator_from_config(m) for m in _list(config, "members")]
    spec = combine(members, [_weight(w) for w in _list(config, "weights")])
    if "dim" in config and spec.dim != n:
        raise InconsistentInputError("combination dim %d does not match its members" % n)
    return spec


def _operator_to_config(spec):
    if spec.family == "combination":
        return {
            "family": spec.family,
            "dim": spec.dim,
            "members": [_operator_to_config(m) for m in spec.members],
            "weights": list(spec.weights),
        }
    config = {"family": spec.family, "dim": spec.dim}
    if spec.family == "hessian":
        config["k"] = spec.k
    if spec.family == "p-monge-ampere":
        config["p"] = spec.p
    return config


# ---------------------------------------------------------------------------
# background metric generators

def _background_identity(grid, params):
    return identity_metric(grid)


def _background_conformal(grid, params):
    """(1 + amp * cos(2 pi x / L) * cos(2 pi y / L)) * I on the first chart pair."""
    amp = float(params.get("amplitude", 0.1))
    if not 0.0 <= amp <= 0.45:
        raise InconsistentInputError("conformal amplitude must lie in [0, 0.45]")
    k = 2.0 * np.pi / grid.L
    x = grid.axis_coordinates(0)
    y = grid.axis_coordinates(1)
    factor = 1.0 + amp * np.cos(k * x) * np.cos(k * y)
    g = identity_metric(grid)
    return g * factor[..., None, None]


def _background_banded(grid, params):
    """Identity plus a smooth off-diagonal Hermitian band."""
    amp = float(params.get("amplitude", 0.1))
    if not 0.0 <= amp <= 0.45:
        raise InconsistentInputError("banded amplitude must lie in [0, 0.45]")
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


# name -> (generator, the params keys it reads)
_BACKGROUNDS = {
    "identity": (_background_identity, ()),
    "conformal": (_background_conformal, ("amplitude",)),
    "banded": (_background_banded, ("amplitude",)),
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
    return float(params.get("value", 0.0)) * np.ones(grid.shape)


def _forcing_gaussian(grid, params, rng):
    amp = float(params.get("amplitude", 1.0))
    sigma = float(params.get("sigma", 0.15)) * grid.L
    center = params.get("center", [0.5] * (2 * grid.n))
    if len(center) != 2 * grid.n:
        raise InconsistentInputError("gaussian center must have one entry per real axis")
    if sigma <= 0:
        raise InconsistentInputError("gaussian sigma must be positive")
    return amp * _periodized_gaussian(grid, [float(c) for c in center], sigma)


def _forcing_bumps(grid, params, rng):
    amp = float(params.get("amplitude", 1.0))
    sigma = float(params.get("sigma", 0.12)) * grid.L
    count = int(params.get("count", 3))
    if count < 1:
        raise InconsistentInputError("bump count must be positive")
    field_sum = np.zeros(grid.shape)
    centers = rng.uniform(0.0, 1.0, size=(count, 2 * grid.n))
    signs = rng.choice([-1.0, 1.0], size=count)
    for center, sign in zip(centers, signs):
        field_sum += sign * _periodized_gaussian(grid, center, sigma)
    return amp * field_sum


def _forcing_bandlimited(grid, params, rng):
    amp = float(params.get("amplitude", 0.5))
    max_mode = int(params.get("max_mode", 2))
    if max_mode < 1:
        raise InconsistentInputError("max_mode must be at least 1")
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


# name -> (generator, the params keys it reads)
_FORCINGS = {
    "constant": (_forcing_constant, ("value",)),
    "gaussian": (_forcing_gaussian, ("amplitude", "sigma", "center")),
    "bumps": (_forcing_bumps, ("amplitude", "sigma", "count")),
    "bandlimited": (_forcing_bandlimited, ("amplitude", "max_mode")),
}


def _check_generator(config, label, table):
    """Reject an unknown generator name, or a key that neither the generator
    object (name, params) nor the generator itself reads."""
    _check_keys(_object(config, label), ("name", "params"), label)
    name = config.get("name")
    if not isinstance(name, str) or name not in table:
        raise InconsistentInputError("%s generator %r does not exist" % (label, name))
    params = _object(config.get("params", {}), "%s params" % label)
    _check_keys(params, table[name][1], "%s generator %r" % (label, name))


@dataclass
class ExperimentDescriptor:
    """Declarative description of one experiment run."""

    operator: dict = field(default_factory=lambda: {"family": "monge-ampere", "dim": 2})
    grid: dict = field(default_factory=lambda: {"n": 2, "N": 16, "L": 1.0})
    background_g: dict = field(default_factory=lambda: {"name": "identity", "params": {}})
    background_gh: dict = field(default_factory=lambda: {"name": "identity", "params": {}})
    forcing: dict = field(default_factory=lambda: {"name": "constant", "params": {"value": 0.0}})
    s_fractions: list = field(default_factory=lambda: [0.25, 0.5, 0.75])
    k_list: list = field(default_factory=lambda: [10, 100])
    entropy_exponent: float = None
    concentrations: list = field(default_factory=list)
    entropy_target: float = None
    tolerances: dict = field(default_factory=lambda: {"solver": 1e-9, "c_disc": 10.0})
    samples: int = 10000
    seed: int = 0

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data):
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise InconsistentInputError("unknown descriptor fields: %s" % sorted(extra))
        descriptor = cls(**data)
        descriptor.validate()
        return descriptor

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InconsistentInputError("descriptor is not valid JSON: %s" % exc)
        if not isinstance(data, dict):
            raise InconsistentInputError("descriptor must be a JSON object")
        return cls.from_dict(data)

    def validate(self):
        grid_cfg = self.grid
        n = int(grid_cfg.get("n", 2))
        N = int(grid_cfg.get("N", 16))
        L = float(grid_cfg.get("L", 1.0))
        if n < 2:
            raise InconsistentInputError("need at least two complex directions")
        if N < 8:
            raise InconsistentInputError("grid too coarse (N >= 8)")
        if L <= 0:
            raise InconsistentInputError("torus size must be positive")
        spec = _operator_from_config(self.operator)
        if spec.dim != n:
            raise InconsistentInputError("operator dimension does not match the grid")
        _check_generator(self.background_g, "background_g", _BACKGROUNDS)
        _check_generator(self.background_gh, "background_gh", _BACKGROUNDS)
        _check_generator(self.forcing, "forcing", _FORCINGS)
        exponent = self.entropy_exponent
        if exponent is not None and exponent <= n:
            raise InconsistentInputError("entropy exponent must exceed the complex dimension")
        for fraction in self.s_fractions:
            if not 0.0 < fraction < 1.0:
                raise InconsistentInputError("tilt fractions must lie in (0, 1)")
        for k in self.k_list:
            if int(k) != k or k < 1:
                raise InconsistentInputError("smoothing indices must be positive integers")
        if self.samples < 1:
            raise InconsistentInputError("sample count must be positive")
        return self

    # ---- realized objects ----

    def make_grid(self):
        return TorusGrid(n=int(self.grid.get("n", 2)), N=int(self.grid.get("N", 16)),
                         L=float(self.grid.get("L", 1.0)))

    def make_operator(self):
        return _operator_from_config(self.operator)

    def make_backgrounds(self, grid):
        g = _BACKGROUNDS[self.background_g["name"]][0](grid, self.background_g.get("params", {}))
        g_h = _BACKGROUNDS[self.background_gh["name"]][0](grid, self.background_gh.get("params", {}))
        return g, g_h

    def make_forcing(self, grid, params=None):
        rng = np.random.default_rng(self.seed)
        merged = dict(self.forcing.get("params", {}))
        if params:
            merged.update(params)
        return _FORCINGS[self.forcing["name"]][0](grid, merged, rng)

    def entropy_exponent_or_default(self, n):
        return n + 1 if self.entropy_exponent is None else self.entropy_exponent


def operator_config(spec):
    """Serializable configuration for an operator spec."""
    return _operator_to_config(spec)
