"""Published JSON schemas for descriptors and emitted reports."""

import jsonschema

_NUMBER_OR_NULL = {"type": ["number", "null"]}

DESCRIPTOR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "operator": {"type": "object"},
        "grid": {
            "type": "object",
            "properties": {
                "n": {"type": "integer", "minimum": 2},
                "N": {"type": "integer", "minimum": 8},
                "L": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "background_g": {"type": "object"},
        "background_gh": {"type": "object"},
        "forcing": {"type": "object"},
        "s_fractions": {"type": "array", "items": {"type": "number"}},
        "k_list": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "entropy_exponent": _NUMBER_OR_NULL,
        "concentrations": {"type": "array", "items": {"type": "number"}},
        "entropy_target": _NUMBER_OR_NULL,
        "tolerances": {"type": "object"},
        "samples": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
    },
}

COMPARISON_REPORT_SCHEMA = {
    "type": "object",
    "required": ["s", "k", "mass", "epsilon", "max_phi", "location", "pass",
                 "mass_error", "residuals"],
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
        "residuals": {"type": ["object", "null"]},
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
        "reports": {"type": "array", "items": COMPARISON_REPORT_SCHEMA},
    },
}

POINTWISE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["samples", "seed", "suites", "all_passed"],
    "properties": {
        "samples": {"type": "integer"},
        "seed": {"type": "integer"},
        "suites": {"type": "object"},
        "all_passed": {"type": "boolean"},
    },
}

SOLVE_META_SCHEMA = {
    "type": "object",
    "required": ["grid", "b", "sup_norm", "residual_sup", "iterations",
                 "krylov_iterations", "l1_bound", "field_file"],
    "properties": {
        "grid": {"type": "object"},
        "b": {"type": "number"},
        "sup_norm": {"type": "number"},
        "residual_sup": {"type": "number"},
        "iterations": {"type": "integer"},
        "krylov_iterations": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "l1_bound": {"type": "object"},
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
            "items": {
                "type": "object",
                "required": ["parameter", "entropy", "sup_norm", "b", "converged"],
            },
        },
        "max_over_min": _NUMBER_OR_NULL,
        "band": {"type": "number"},
        "band_ok": {"type": "boolean"},
        "all_converged": {"type": "boolean"},
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


def validate(instance, schema):
    """Raise jsonschema.ValidationError when instance violates schema."""
    jsonschema.validate(instance=instance, schema=schema)
    return instance
