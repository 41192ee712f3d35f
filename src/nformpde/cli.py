"""Experiment driver: property suites, solves, localization, sweeps, reports.

Every subcommand reads a JSON experiment descriptor, writes machine-readable
artifacts into the output directory, and returns a conventional exit code:
0 pass, 1 check failure, 2 usage or descriptor error, 3 solver failure.
Outputs carry no timestamps so a fixed seed reproduces them byte for byte.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from jsonschema import ValidationError
from scipy.optimize import brentq

from . import schemas
from .auxiliary import run_localization
from .descriptors import ExperimentDescriptor
from .errors import InconsistentInputError, NFormError, NonConvergenceError
from .grid import entropy_norm
from .hermlin import random_admissible_parts, verify_trace_reversal_identities
from .solver import PrimaryProblem, l1_bound_check, solve_primary
from .symfun import evaluate, gradient, sample_cone

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

REL_TOL = 1e-10
GAMMA_SLACK = 1e-9


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# pointwise property suites

def _symfun_suite(spec, samples, rng):
    lam = sample_cone(spec.cone, spec.dim, samples, rng)
    f = evaluate(spec, lam)
    grad = gradient(spec, lam)

    euler = np.max(np.abs(np.sum(lam * grad, axis=-1) - f) / np.abs(f))
    t = rng.uniform(0.5, 2.0, size=samples)
    homog = np.max(np.abs(evaluate(spec, t[:, None] * lam) - t * f) / (t * np.abs(f)))
    grad_min = float(grad.min())
    product_min = float(np.prod(grad, axis=-1).min())
    floor = spec.gamma * (1.0 - GAMMA_SLACK)
    return {
        "euler_rel": float(euler),
        "homogeneity_rel": float(homog),
        "gradient_min": grad_min,
        "gradient_product_min": product_min,
        "gamma": spec.gamma,
        "gamma_certified": spec.gamma_certified,
        "passed": bool(euler <= REL_TOL and homog <= REL_TOL
                       and grad_min > 0.0 and product_min >= floor),
    }


def _hermlin_suite(spec, samples, rng):
    g, g_h, phi_h, gt = random_admissible_parts(spec, samples, rng)
    report = verify_trace_reversal_identities(spec, g, g_h, gt, phi_h)
    return {
        "identity_residual": report.residual_a,
        "trace_residual": report.trace_residual,
        "pd_margin": report.pd_margin,
        "det_slack": report.det_slack,
        "chain_slack": report.chain_slack,
        "passed": bool(report.passed),
    }


def cmd_check_pointwise(descriptor, out_dir):
    rng = np.random.default_rng(descriptor.seed)
    spec = descriptor.make_operator()
    suites = {
        "operator": _symfun_suite(spec, descriptor.samples, rng),
        "identities": _hermlin_suite(spec, descriptor.samples, rng),
    }
    payload = {
        "samples": descriptor.samples,
        "seed": descriptor.seed,
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites.values()),
    }
    schemas.validate(payload, schemas.POINTWISE_REPORT_SCHEMA)
    _write_json(os.path.join(out_dir, "check.json"), payload)
    return EXIT_PASS if payload["all_passed"] else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# solves

def _build_problem(descriptor, forcing_params=None, tolerance=None):
    grid = descriptor.make_grid()
    spec = descriptor.make_operator()
    g, g_h = descriptor.make_backgrounds(grid)
    F = descriptor.make_forcing(grid, forcing_params)
    tol = descriptor.tolerances.get("solver", 1e-9) if tolerance is None else tolerance
    budget = int(descriptor.tolerances.get("max_iterations", 40))
    return PrimaryProblem(spec=spec, g=g, g_h=g_h, F=F, grid=grid, tolerance=tol,
                          max_iterations=budget)


def _solve_artifacts(problem, out_dir, descriptor):
    """Solve and write phi.bin, solve_meta.json and residuals.csv.

    Returns (solution, meta), or None after writing solve_error.json when
    the solve raises any NFormError.
    """
    try:
        solution = solve_primary(problem)
        bound = l1_bound_check(solution.phi, problem.g, problem.g_h, problem.grid)
    except NFormError as exc:
        _write_json(os.path.join(out_dir, "solve_error.json"), {
            "error": str(exc),
            "history": getattr(exc, "history", None) or [],
        })
        return None
    field_file = "phi.bin"
    solution.phi.astype("<f8").tofile(os.path.join(out_dir, field_file))
    meta = {
        "grid": dict(descriptor.grid),
        "b": solution.b,
        "sup_norm": float(np.max(np.abs(solution.phi))),
        "residual_sup": solution.residual_sup,
        "iterations": solution.iterations,
        "krylov_iterations": solution.krylov_iterations,
        "l1_bound": {
            "c_prime": bound.c_prime,
            "laplacian_margin": bound.laplacian_margin,
            "rescaled_trace_min": bound.rescaled_trace_min,
            "l1": bound.l1,
            "passed": bool(bound.passed),
        },
        "field_file": field_file,
    }
    schemas.validate(meta, schemas.SOLVE_META_SCHEMA)
    _write_json(os.path.join(out_dir, "solve_meta.json"), meta)
    _write_csv(
        os.path.join(out_dir, "residuals.csv"),
        ["iteration", "residual_sup"],
        list(enumerate(solution.residual_history)),
    )
    return solution, meta


def cmd_solve(descriptor, out_dir, tolerance=None):
    result = _solve_artifacts(_build_problem(descriptor, tolerance=tolerance), out_dir,
                              descriptor)
    if result is None:
        return EXIT_SOLVER
    return EXIT_PASS if result[1]["l1_bound"]["passed"] else EXIT_CHECK_FAILURE


def cmd_localize(descriptor, out_dir, tolerance=None):
    problem = _build_problem(descriptor, tolerance=tolerance)
    result = _solve_artifacts(problem, out_dir, descriptor)
    if result is None:
        return EXIT_SOLVER
    solution = result[0]
    try:
        report = run_localization(
            solution, problem,
            s_fractions=descriptor.s_fractions,
            k_list=[int(k) for k in descriptor.k_list],
            c_disc=descriptor.tolerances.get("c_disc", 10.0),
            entropy_exponent=descriptor.entropy_exponent,
        )
    except NFormError as exc:
        _write_json(os.path.join(out_dir, "localize_error.json"), {"error": str(exc)})
        return EXIT_CHECK_FAILURE
    payload = report.to_dict()
    schemas.validate(payload, schemas.LOCALIZATION_REPORT_SCHEMA)
    _write_json(os.path.join(out_dir, "localization.json"), payload)
    _write_csv(
        os.path.join(out_dir, "comparisons.csv"),
        ["s", "k", "mass", "epsilon", "max_phi", "tolerance", "pass"],
        [[r.s, r.k, r.mass, r.epsilon, r.max_phi, r.tolerance, r.passed]
         for r in report.reports],
    )
    return EXIT_PASS if report.all_passed else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# uniformity sweep

def _entropy_shift(F, g, grid, p, target):
    def defect(c):
        return entropy_norm(F + c, g, grid, p) - target

    lo, hi = -10.0, 10.0
    while defect(lo) > 0.0:
        lo *= 2.0
        if lo < -700.0:
            raise NonConvergenceError("entropy target unreachable from below")
    while defect(hi) < 0.0:
        hi *= 2.0
        if hi > 700.0:
            raise NonConvergenceError("entropy target unreachable from above")
    shift = brentq(defect, lo, hi, xtol=1e-12, rtol=1e-15)
    return F + shift


def _sweep_member(descriptor, parameter, p, target, tolerance=None):
    problem = _build_problem(descriptor, {"sigma": parameter}, tolerance)
    problem.F = _entropy_shift(problem.F, problem.g, problem.grid, p, target)
    solution = solve_primary(problem)
    bound = l1_bound_check(solution.phi, problem.g, problem.g_h, problem.grid)
    return {
        "parameter": float(parameter),
        "entropy": float(entropy_norm(problem.F, problem.g, problem.grid, p)),
        "sup_norm": float(np.max(np.abs(solution.phi))),
        "b": solution.b,
        "residual_sup": solution.residual_sup,
        "laplacian_margin": bound.laplacian_margin,
        "converged": True,
    }


def cmd_sweep(descriptor, out_dir, tolerance=None, workers=1):
    grid = descriptor.make_grid()
    p = descriptor.entropy_exponent_or_default(grid.n)
    concentrations = descriptor.concentrations or [0.18, 0.16, 0.14, 0.12, 0.1]
    if descriptor.entropy_target is not None:
        target = float(descriptor.entropy_target)
    else:
        g, _ = descriptor.make_backgrounds(grid)
        F0 = descriptor.make_forcing(grid, {"sigma": concentrations[0]})
        target = float(entropy_norm(F0, g, grid, p))

    def member(value):
        try:
            return _sweep_member(descriptor, value, p, target, tolerance)
        except NFormError as exc:
            return {"parameter": float(value), "entropy": None, "sup_norm": None,
                    "b": None, "residual_sup": None, "laplacian_margin": None,
                    "converged": False, "error": str(exc)}

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(member, concentrations))
    else:
        rows = [member(value) for value in concentrations]

    sup_norms = [row["sup_norm"] for row in rows if row["converged"]]
    ratio = None
    if sup_norms and min(sup_norms) > 0.0:
        ratio = float(max(sup_norms) / min(sup_norms))
    band = float(descriptor.tolerances.get("sweep_ratio", 3.0))
    payload = {
        "entropy_target": target,
        "rows": rows,
        "max_over_min": ratio,
        "band": band,
        "band_ok": bool(ratio is None or ratio <= band),
        "all_converged": all(row["converged"] for row in rows),
    }
    schemas.validate(payload, schemas.SWEEP_REPORT_SCHEMA)
    _write_json(os.path.join(out_dir, "sweep.json"), payload)
    _write_csv(
        os.path.join(out_dir, "sweep.csv"),
        ["parameter", "entropy", "sup_norm", "b", "residual_sup",
         "laplacian_margin", "converged"],
        [[row["parameter"], row["entropy"], row["sup_norm"], row["b"],
          row["residual_sup"], row["laplacian_margin"], row["converged"]]
         for row in rows],
    )
    if not payload["all_converged"]:
        return EXIT_SOLVER
    if not payload["band_ok"]:
        return EXIT_CHECK_FAILURE
    return EXIT_PASS


# ---------------------------------------------------------------------------
# consolidated report

_ARTIFACT_FLAGS = {
    "check.json": lambda doc: doc.get("all_passed", False),
    "solve_meta.json": lambda doc: doc.get("l1_bound", {}).get("passed", False),
    "localization.json": lambda doc: doc.get("all_passed", False),
    "sweep.json": lambda doc: doc.get("all_converged", False) and doc.get("band_ok", False),
}


def cmd_report(out_dir):
    artifacts = []
    rows = []
    ok = True
    for name in sorted(_ARTIFACT_FLAGS):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            continue
        with open(path) as handle:
            doc = json.load(handle)
        passed = bool(_ARTIFACT_FLAGS[name](doc))
        artifacts.append(name)
        rows.append([name, passed])
        ok = ok and passed
    if not artifacts:
        print("no artifacts found in %s" % out_dir, file=sys.stderr)
        return EXIT_USAGE
    payload = {"artifacts": artifacts, "all_passed": ok}
    schemas.validate(payload, schemas.REPORT_SUMMARY_SCHEMA)
    _write_json(os.path.join(out_dir, "report.json"), payload)
    _write_csv(os.path.join(out_dir, "report.csv"), ["artifact", "pass"], rows)
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# argument handling

def _load_descriptor(args):
    if args.config is None:
        descriptor = ExperimentDescriptor()
    else:
        with open(args.config) as handle:
            descriptor = ExperimentDescriptor.from_json(handle.read())
    if getattr(args, "seed", None) is not None:
        descriptor.seed = args.seed
    if getattr(args, "grid", None) is not None:
        descriptor.grid = dict(descriptor.grid, N=args.grid)
    descriptor.validate()
    schemas.validate(descriptor.to_dict(), schemas.DESCRIPTOR_SCHEMA)
    return descriptor


def _tolerance(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError("must be a positive finite number, got %r" % text)
    return value


def _workers(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)
    return value


def _parser():
    parser = argparse.ArgumentParser(
        prog="nformpde",
        description="Desk-scale checks for a fully nonlinear Hermitian PDE toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="experiment descriptor (JSON)")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override descriptor seed")
    common.add_argument("--grid", type=int, default=None, help="override grid size N")
    common.add_argument("--tol", type=_tolerance, default=None,
                        help="override solver tolerance (solve, localize, sweep)")
    common.add_argument("--workers", type=_workers, default=1,
                        help="sweep members run concurrently on threads")
    sub.add_parser("check-pointwise", parents=[common])
    sub.add_parser("solve", parents=[common])
    sub.add_parser("localize", parents=[common])
    sub.add_parser("sweep", parents=[common])
    report = sub.add_parser("report")
    report.add_argument("--out", default="out", help="directory holding artifacts")
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        return cmd_report(args.out)
    try:
        descriptor = _load_descriptor(args)
    except (InconsistentInputError, OSError, ValueError, ValidationError) as exc:
        print("descriptor error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "check-pointwise":
            return cmd_check_pointwise(descriptor, args.out)
        if args.command == "solve":
            return cmd_solve(descriptor, args.out, tolerance=args.tol)
        if args.command == "localize":
            return cmd_localize(descriptor, args.out, tolerance=args.tol)
        return cmd_sweep(descriptor, args.out, tolerance=args.tol, workers=args.workers)
    except InconsistentInputError as exc:
        # generator parameters are range-checked when the inputs are realized;
        # every solve-time error is mapped inside the commands
        print("descriptor error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
