"""The three benchmark workloads: seeded inputs, one instance, oracle checks.

Each workload goes through three steps, all driven by ``instance.py``:

``make_inputs(name, seed)``
    Plain JSON-serializable parameters.  Seed 0 is the canonical instance;
    any other seed perturbs the inputs inside the ranges stated below.
``setup(name, inputs)``
    For solve-N24 the grid, metrics, manufactured forcing, problem and
    analytic oracle; for the two CLI workloads the descriptor load and
    validation (``cmd_localize`` and ``cmd_sweep`` realize the fields
    themselves).  This is the part counted by ``setup_s``.
``run(name, state, out_dir, workers)``
    The program on the realized inputs, artifacts written, outputs checked
    against the oracle.  This is the part counted by ``wall_s``.

The program only ever receives the generated inputs; the oracle values
stay on the benchmark side.
"""

import json
import os

import jsonschema
import numpy as np

from nformpde import cli, grid, manufactured, schemas, solver
from nformpde.descriptors import ExperimentDescriptor
from nformpde.symfun import monge_ampere

WORKLOADS = ("solve-N24", "localize-N16", "sweep-N12")

# Canonical manufactured instance (acceptance criterion 05).
TRIG_AMPLITUDES = {"a": 0.002, "c": 0.001, "d": 0.001}
B_TRUE = 0.3

# Seed perturbation ranges (seed 0 applies none of them).
AMPLITUDE_JITTER = 0.02  # relative, uniform, on each of a, c, d
B_JITTER = 0.05          # absolute, uniform, on b_true
CENTER_JITTER = 0.02     # absolute, uniform, per gaussian center coordinate

# Oracle gates.
RESIDUAL_MAX = 1e-9
B_ERROR_MAX = 2e-6
# Discretization budget for max|phi - phi*| at N=24 (seed 0 gives 5.73e-5).
SUP_ERROR_MAX = 1e-4
# Seed 0 must reproduce the recorded error up to roundoff.
CANONICAL_SUP_ERROR = 5.7324357e-05
CANONICAL_SUP_ERROR_TOL = 1e-9

ARTIFACT = {"solve-N24": "phi.bin", "localize-N16": "localization.json",
            "sweep-N12": "sweep.json"}


def _localize_descriptor():
    # the README default descriptor
    return {
        "operator": {"family": "monge-ampere", "dim": 2},
        "grid": {"n": 2, "N": 16, "L": 1.0},
        "background_g": {"name": "identity", "params": {}},
        "background_gh": {"name": "banded", "params": {"amplitude": 0.3}},
        "forcing": {"name": "gaussian", "params": {"amplitude": 0.4, "sigma": 0.18}},
        "s_fractions": [0.25, 0.5, 0.75],
        "k_list": [10, 100],
        "concentrations": [0.18, 0.16, 0.14, 0.12, 0.1],
        "samples": 10000,
        "seed": 0,
    }


def _sweep_descriptor():
    # the acceptance criterion 10 descriptor
    return {
        "grid": {"n": 2, "N": 12, "L": 1.0},
        "forcing": {"name": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.18}},
        "concentrations": [0.18, 0.16, 0.14, 0.12, 0.10],
        "seed": 3,
    }


def make_inputs(name, seed):
    """Generated inputs of one workload instance; seed 0 is canonical."""
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r" % (name,))
    rng = np.random.default_rng(seed) if seed != 0 else None
    if name == "solve-N24":
        amplitudes = dict(TRIG_AMPLITUDES)
        b_true = B_TRUE
        if rng is not None:
            for key in ("a", "c", "d"):
                amplitudes[key] *= 1.0 + rng.uniform(-AMPLITUDE_JITTER, AMPLITUDE_JITTER)
            b_true += rng.uniform(-B_JITTER, B_JITTER)
        return {"N": 24, "amplitudes": amplitudes, "b_true": b_true, "seed": seed}
    descriptor = _localize_descriptor() if name == "localize-N16" else _sweep_descriptor()
    if rng is not None:
        center = 0.5 + rng.uniform(-CENTER_JITTER, CENTER_JITTER, size=4)
        descriptor["forcing"]["params"]["center"] = [float(c) for c in center]
    return {"descriptor": json.dumps(descriptor, sort_keys=True), "seed": seed}


def setup(name, inputs):
    """Realize the inputs; returns the state ``run`` consumes."""
    if name == "solve-N24":
        torus = grid.TorusGrid(n=2, N=inputs["N"], L=1.0)
        spec = monge_ampere(2)
        g = grid.identity_metric(torus)
        amplitudes = inputs["amplitudes"]
        hess = manufactured.trig_hessian(torus, **amplitudes)
        F = manufactured.forcing_from_hessian(spec, g, g, hess, b=inputs["b_true"])
        problem = solver.PrimaryProblem(spec=spec, g=g, g_h=g, F=F, grid=torus)
        phi_star = grid.normalize_sup(manufactured.trig_potential(torus, **amplitudes))
        return {"problem": problem, "phi_star": phi_star, "b_true": inputs["b_true"],
                "seed": inputs["seed"]}
    descriptor = ExperimentDescriptor.from_json(inputs["descriptor"])
    schemas.validate(descriptor.to_dict(), schemas.DESCRIPTOR_SCHEMA)
    return {"descriptor": descriptor}


def run(name, state, out_dir, workers=1):
    """One instance: the program, its artifacts, and the oracle checks.

    Returns ``(failures, values)``: a list of failed-check messages (empty
    when the instance verified) and the checked quantities.
    """
    if name == "solve-N24":
        return _run_solve(state, out_dir)
    if name == "localize-N16":
        return _run_localize(state, out_dir)
    return _run_sweep(state, out_dir, workers)


def _run_solve(state, out_dir):
    problem = state["problem"]
    solution = solver.solve_primary(problem)
    bound = solver.l1_bound_check(solution.phi, problem.g, problem.g_h, problem.grid)
    solution.phi.astype("<f8").tofile(os.path.join(out_dir, ARTIFACT["solve-N24"]))

    sup_error = float(np.max(np.abs(solution.phi - state["phi_star"])))
    b_error = abs(solution.b - state["b_true"])
    values = {"sup_error": sup_error, "b_error": b_error,
              "residual_sup": solution.residual_sup, "iterations": solution.iterations}
    failures = []
    if not solution.residual_sup <= RESIDUAL_MAX:
        failures.append("residual %.3e > %.0e" % (solution.residual_sup, RESIDUAL_MAX))
    if not b_error <= B_ERROR_MAX:
        failures.append("|b - b_true| %.3e > %.0e" % (b_error, B_ERROR_MAX))
    if not bound.passed:
        failures.append("L1 bound check failed")
    if not sup_error <= SUP_ERROR_MAX:
        failures.append("sup error %.3e > %.0e" % (sup_error, SUP_ERROR_MAX))
    if state["seed"] == 0 and abs(sup_error - CANONICAL_SUP_ERROR) > CANONICAL_SUP_ERROR_TOL:
        failures.append("seed-0 sup error %.9e differs from the recorded %.9e"
                        % (sup_error, CANONICAL_SUP_ERROR))
    return failures, values


def _load(out_dir, name):
    path = os.path.join(out_dir, ARTIFACT[name])
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def _run_localize(state, out_dir):
    code = cli.cmd_localize(state["descriptor"], out_dir)
    report = _load(out_dir, "localize-N16")
    failures = []
    if code != cli.EXIT_PASS:
        failures.append("cmd_localize exited %d" % code)
    if report is None:
        return failures + ["localization.json missing"], {}
    try:
        jsonschema.validate(report, schemas.LOCALIZATION_REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        failures.append("localization.json violates its schema: %s" % exc.message)
    cells = report.get("reports", [])
    passed = sum(1 for cell in cells if cell.get("pass") is True)
    if len(cells) != 6 or passed != 6:
        failures.append("%d of %d cells passed, 6 of 6 required" % (passed, len(cells)))
    values = {"cells_passed": passed,
              "worst_max_phi": max((c["max_phi"] for c in cells if c.get("max_phi") is not None),
                                   default=None)}
    return failures, values


def _run_sweep(state, out_dir, workers):
    code = cli.cmd_sweep(state["descriptor"], out_dir, workers=workers)
    payload = _load(out_dir, "sweep-N12")
    failures = []
    if code != cli.EXIT_PASS:
        failures.append("cmd_sweep exited %d" % code)
    if payload is None:
        return failures + ["sweep.json missing"], {}
    rows = payload.get("rows", [])
    converged = sum(1 for row in rows if row.get("converged") is True)
    if len(rows) != 5 or converged != 5:
        failures.append("%d of %d rows converged, 5 of 5 required" % (converged, len(rows)))
    if payload.get("band_ok") is not True:
        failures.append("max/min %s outside the band" % payload.get("max_over_min"))
    return failures, {"rows_converged": converged, "max_over_min": payload.get("max_over_min")}
