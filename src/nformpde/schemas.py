"""Published JSON schemas for descriptors and emitted reports."""

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match
from jsonschema.validators import extend

_NUMBER_OR_NULL = {"type": ["number", "null"]}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

DESCRIPTOR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "operator": {"type": "object"},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 2},
                "N": {"type": "integer", "minimum": 8},
                "L": _POSITIVE,
            },
        },
        "background_g": {"type": "object"},
        "background_gh": {"type": "object"},
        "forcing": {"type": "object"},
        "s_fractions": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        },
        "k_list": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
        "entropy_exponent": _NUMBER_OR_NULL,
        "concentrations": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        "entropy_target": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "solver": _POSITIVE,
                "c_disc": _POSITIVE,
                "sweep_ratio": _POSITIVE,
                "max_iterations": {"type": "integer", "minimum": 0},
            },
        },
        "samples": {"type": "integer", "minimum": 1, "maximum": 1000000},
        "seed": {"type": "integer", "minimum": 0},
    },
}

COMPARISON_REPORT_SCHEMA = {
    "type": "object",
    "required": ["s", "k", "mass", "epsilon", "max_phi", "location", "pass",
                 "mass_error", "line_search_trials", "clamp_history", "residuals"],
    "properties": {
        "s": _NUMBER_OR_NULL,
        "k": {"type": ["integer", "null"]},
        "mass": _NUMBER_OR_NULL,
        "epsilon": _NUMBER_OR_NULL,
        "max_phi": _NUMBER_OR_NULL,
        "location": {"type": ["array", "null"], "items": {"type": "integer"}},
        "tolerance": _NUMBER_OR_NULL,
        "pass": {"type": "boolean"},
        "argmax_in_sublevel": {"type": ["boolean", "null"]},
        "quantiles": {"type": ["object", "null"]},
        "mass_error": _NUMBER_OR_NULL,
        "line_search_trials": {"type": ["array", "null"],
                               "items": {"type": "integer", "minimum": 1}},
        "clamp_history": {"type": ["array", "null"], "items": {"type": "integer", "minimum": 0}},
        "residuals": {
            "type": "object",
            "additionalProperties": False,
            "required": ["solver_sup", "iterations", "krylov_iterations"],
            "properties": {
                "solver_sup": _NUMBER_OR_NULL,
                "iterations": {"type": ["integer", "null"]},
                "krylov_iterations": {"type": ["array", "null"],
                                      "items": {"type": "integer", "minimum": 1}},
            },
        },
        "error": {"type": ["string", "null"]},
    },
}

LOCALIZATION_REPORT_SCHEMA = {
    "type": "object",
    "required": ["depth", "entropy", "center", "r0", "positivity_fraction",
                 "depth_cap", "estimate_trivial", "all_passed", "reports"],
    "properties": {
        "depth": {"type": "number"},
        "entropy": {"type": "number"},
        "center": {"type": "array", "items": {"type": "integer"}},
        "r0": {"type": "number"},
        "positivity_fraction": {"type": "number"},
        "depth_cap": {"type": "number"},
        "estimate_trivial": {"type": "boolean"},
        "all_passed": {"type": "boolean"},
        "reports": {"type": "array", "minItems": 1, "items": COMPARISON_REPORT_SCHEMA},
    },
}


def _suite(*numbers, **properties):
    """A check.json suite: these numbers, the other properties and its verdict."""
    properties.update(dict.fromkeys(numbers, {"type": "number"}), passed={"type": "boolean"})
    return {"type": "object", "required": list(properties), "properties": properties}


POINTWISE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["samples", "seed", "suites", "all_passed"],
    "properties": {
        "samples": {"type": "integer"},
        "seed": {"type": "integer"},
        "suites": {
            "type": "object",
            "additionalProperties": False,
            "required": ["operator", "identities"],
            "properties": {
                "operator": _suite("euler_rel", "homogeneity_rel", "gradient_min",
                                   "gradient_product_min", "gamma",
                                   gamma_certified={"type": "boolean"}),
                "identities": _suite("identity_residual", "trace_residual", "pd_margin",
                                     "det_slack", "chain_slack"),
            },
        },
        "all_passed": {"type": "boolean"},
    },
}

SOLVE_META_SCHEMA = {
    "type": "object",
    "required": ["grid", "b", "sup_norm", "residual_sup", "iterations",
                 "krylov_iterations", "line_search_trials", "l1_bound", "field_file"],
    "properties": {
        "grid": {"type": "object"},
        "b": {"type": "number"},
        "sup_norm": {"type": "number"},
        "residual_sup": {"type": "number"},
        "iterations": {"type": "integer"},
        "krylov_iterations": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "line_search_trials": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "l1_bound": {
            "type": "object",
            "required": ["c_prime", "laplacian_margin", "rescaled_trace_min", "l1", "passed"],
            "properties": {
                "c_prime": {"type": "number"},
                "laplacian_margin": {"type": "number"},
                "rescaled_trace_min": {"type": "number"},
                "l1": {"type": "number"},
                "passed": {"type": "boolean"},
            },
        },
        "field_file": {"type": "string"},
    },
}

SWEEP_REPORT_SCHEMA = {
    "type": "object",
    "required": ["entropy_target", "rows", "max_over_min", "band", "band_ok",
                 "all_converged"],
    "properties": {
        "entropy_target": {"type": "number"},
        "rows": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["parameter", "entropy", "sup_norm", "b", "iterations", "matvecs",
                             "warm_start", "line_search_trials", "converged"],
                "properties": {
                    "iterations": {"type": ["integer", "null"], "minimum": 0},
                    "matvecs": {"type": ["integer", "null"], "minimum": 0},
                    "warm_start": {"type": ["boolean", "null"]},
                    "line_search_trials": {"type": ["array", "null"],
                                           "items": {"type": "integer", "minimum": 1}},
                },
            },
        },
        "max_over_min": _NUMBER_OR_NULL,
        "band": {"type": "number"},
        "band_ok": {"type": "boolean"},
        "all_converged": {"type": "boolean"},
    },
}

# trace.json of solve, localize and sweep: wall times (time.perf_counter),
# which no other artifact holds; a cell phase carries its (s, k), a member
# phase its parameter.  Phases come in artifact order, but localize's
# chains of cells of different k run on separate threads, as do the
# sweep's two chains of members with workers above 1, so their seconds
# overlap and can sum to more than wall_s
TRACE_SCHEMA = {
    "type": "object",
    "required": ["command", "wall_s", "phases"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": ["solve", "localize", "sweep"]},
        "wall_s": {"type": "number", "minimum": 0},
        "phases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "seconds"],
                "additionalProperties": False,
                "properties": {
                    "name": {"enum": ["solve", "l1_check", "chart", "cell", "member"]},
                    "seconds": {"type": "number", "minimum": 0},
                    "s": {"type": "number"},
                    "k": {"type": "integer"},
                    "parameter": {"type": "number"},
                },
            },
        },
    },
}

REPORT_SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["artifacts", "all_passed"],
    "properties": {
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "all_passed": {"type": "boolean"},
    },
}


def _is_integer(checker, instance):
    return isinstance(instance, int) and not isinstance(instance, bool)


# Draft 2020-12 with "integer" meaning a Python int: 8.0 is a number, not an integer
Validator = extend(Draft202012Validator,
                   type_checker=Draft202012Validator.TYPE_CHECKER.redefine("integer", _is_integer))


def validate(instance, schema):
    """Raise jsonschema.ValidationError when instance violates schema.

    The error is the one jsonschema.validate would raise under Validator,
    but the schema itself is not checked against its metaschema on every
    call: every schema the toolkit validates with is a constant that the
    tests check once.
    """
    error = best_match(Validator(schema).iter_errors(instance))
    if error is not None:
        raise error
    return instance
