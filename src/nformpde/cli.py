"""Experiment driver: property suites, solves, localization, sweeps, reports.

Every subcommand reads a JSON experiment descriptor, writes machine-readable
artifacts into the output directory, and returns a conventional exit code:
0 pass, 1 check failure, 2 usage or descriptor error, 3 solver failure.
Outputs carry no timestamps so a fixed seed reproduces them byte for byte;
the wall times of solve, localize and sweep and of their phases, measured
with time.perf_counter, go to a separate trace.json.
Importing it loads neither scipy.optimize nor scipy.integrate: the few
functions that need them import them when called.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from jsonschema import ValidationError

from . import schemas
from .auxiliary import run_localization
from .descriptors import ExperimentDescriptor, parse_json
from .errors import InconsistentInputError, NFormError, NonConvergenceError
from .grid import entropy_integrand, entropy_norm, integrate, volume_density
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
    # JSON has no NaN or Infinity: one raises here, before the file is opened
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as handle:
        handle.write(text + "\n")


# each JSON artifact: the schema it is published under and its verdict
_ARTIFACTS = {
    "check.json": (schemas.POINTWISE_REPORT_SCHEMA, lambda doc: doc["all_passed"]),
    "solve_meta.json": (schemas.SOLVE_META_SCHEMA, lambda doc: doc["l1_bound"]["passed"]),
    "localization.json": (schemas.LOCALIZATION_REPORT_SCHEMA, lambda doc: doc["all_passed"]),
    "sweep.json": (schemas.SWEEP_REPORT_SCHEMA,
                   lambda doc: doc["all_converged"] and doc["band_ok"]),
}


def _write_artifact(out_dir, name, payload):
    """Validate payload against the artifact's schema, write it, return its verdict."""
    schema, verdict = _ARTIFACTS[name]
    schemas.validate(payload, schema)
    _write_json(os.path.join(out_dir, name), payload)
    return verdict(payload)


def _phase(name, started):
    """A trace.json phase: its name and wall time since started."""
    return {"name": name, "seconds": time.perf_counter() - started}


def _write_trace(out_dir, command, started, phases):
    """trace.json (schemas.TRACE_SCHEMA): the command's wall time since
    started and its phases', apart from the reproducible artifacts."""
    _write_json(os.path.join(out_dir, "trace.json"),
                {"command": command, "wall_s": time.perf_counter() - started, "phases": phases})


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


def cmd_check_pointwise(descriptor, out_dir):
    rng = np.random.default_rng(descriptor.seed)
    spec = descriptor.make_operator()
    operator = _symfun_suite(spec, descriptor.samples, rng)
    g, g_h, phi_h = random_admissible_parts(spec, descriptor.samples, rng)
    suites = {"operator": operator,
              "identities": verify_trace_reversal_identities(spec, g, g_h, phi_h)}
    payload = {
        "samples": descriptor.samples,
        "seed": descriptor.seed,
        "suites": suites,
        "all_passed": all(s["passed"] for s in suites.values()),
    }
    return EXIT_PASS if _write_artifact(out_dir, "check.json", payload) else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# solves

def _build_problem(descriptor, forcing_params=None):
    grid = descriptor.make_grid()
    g, g_h = descriptor.make_backgrounds(grid)
    F = descriptor.make_forcing(grid, forcing_params)
    return PrimaryProblem(spec=descriptor.make_operator(), g=g, g_h=g_h, F=F, grid=grid,
                          tolerance=descriptor.tolerances["solver"],
                          max_iterations=descriptor.tolerances["max_iterations"])


def _solve_artifacts(problem, out_dir, descriptor, phases):
    """Solve and write phi.bin, solve_meta.json and residuals.csv, appending
    the solve and L1 check phases that completed to phases.

    Returns (solution, whether the L1 bound check passed), or None after
    writing solve_error.json when the solve raises any NFormError.
    """
    try:
        started = time.perf_counter()
        solution = solve_primary(problem)
        phases.append(_phase("solve", started))
        started = time.perf_counter()
        bound = l1_bound_check(solution.phi, problem.metric, problem.reference_metric,
                               problem.grid, g_inv=problem.g_inv)
        phases.append(_phase("l1_check", started))
    except NFormError as exc:
        _write_json(os.path.join(out_dir, "solve_error.json"), {
            "error": str(exc),
            "history": [h if math.isfinite(h) else None  # JSON has no NaN
                        for h in getattr(exc, "history", None) or []],
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
        "line_search_trials": solution.line_search_trials,
        "l1_bound": {**dataclasses.asdict(bound), "passed": bool(bound.passed)},
        "field_file": field_file,
    }
    passed = _write_artifact(out_dir, "solve_meta.json", meta)
    _write_csv(
        os.path.join(out_dir, "residuals.csv"),
        ["iteration", "residual_sup"],
        list(enumerate(solution.residual_history)),
    )
    return solution, passed


def cmd_solve(descriptor, out_dir, phases=None):
    """The solve subcommand; its phases go to the list phases when given."""
    phases = [] if phases is None else phases
    result = _solve_artifacts(_build_problem(descriptor), out_dir, descriptor, phases)
    if result is None:
        return EXIT_SOLVER
    return EXIT_PASS if result[1] else EXIT_CHECK_FAILURE


def cmd_localize(descriptor, out_dir, phases=None):
    """The localize subcommand; its phases (the solve's, the chart's and one
    per (s, k) cell) go to the list phases when given."""
    phases = [] if phases is None else phases
    problem = _build_problem(descriptor)
    result = _solve_artifacts(problem, out_dir, descriptor, phases)
    if result is None:
        return EXIT_SOLVER
    solution = result[0]
    try:
        payload = run_localization(
            solution, problem,
            s_fractions=descriptor.s_fractions,
            k_list=descriptor.k_list,
            c_disc=descriptor.tolerances["c_disc"],
            entropy_exponent=descriptor.entropy_exponent_or_default(problem.grid.n),
            phases=phases,
        )
    except NFormError as exc:
        _write_json(os.path.join(out_dir, "localize_error.json"), {"error": str(exc)})
        return EXIT_CHECK_FAILURE
    passed = _write_artifact(out_dir, "localization.json", payload)
    columns = ("s", "k", "mass", "epsilon", "max_phi", "tolerance", "pass")
    _write_csv(
        os.path.join(out_dir, "comparisons.csv"),
        columns,
        [[cell[key] for key in columns] for cell in payload["reports"]],
    )
    return EXIT_PASS if passed else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# uniformity sweep

def _entropy_shift(F, g, grid, p, target):
    """The c with entropy_norm(F + c) == target.

    Newton on the increasing d(c) = log(E(c) / target), E(c) = int e^(F+c)
    L^p dV_g, whose slope E'/E lies in [1, 1 + p]; a step that leaves the
    bracket of evaluated points bisects it, and the iteration stops at
    |dc| <= 1e-12 + 1e-15 |c|.  A c beyond +-640, or where E' overflows,
    is out of reach."""
    density = volume_density(g)
    limit = 640.0
    lo, hi, c = -math.inf, math.inf, 0.0
    for _ in range(100):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            value, slope = entropy_integrand(F + c, p, slope=True)
            mass, growth = integrate(value, density, grid), integrate(slope, density, grid)
            d = np.log(mass) - math.log(target)
            step = -d * mass / growth
        if d < 0.0 and (c >= limit or growth == math.inf):
            raise NonConvergenceError("entropy target unreachable from above")
        if d > 0.0 and c <= -limit:
            raise NonConvergenceError("entropy target unreachable from below")
        if abs(step) <= 1e-12 + 1e-15 * abs(c) and growth < math.inf:
            return c + step
        lo, hi = (c, hi) if d < 0.0 else (lo, c)
        c = c + step if lo < c + step < hi else 0.5 * (lo + hi)
        c = min(max(c, -limit), limit)
    raise NonConvergenceError("entropy shift did not converge")


_SWEEP_COLUMNS = ("parameter", "entropy", "sup_norm", "b", "residual_sup",
                  "laplacian_margin", "iterations", "matvecs", "converged")


def _sweep_member(problem, parameter, p, target):
    problem.F = problem.F + _entropy_shift(problem.F, problem.metric, problem.grid, p, target)
    solution = solve_primary(problem)
    bound = l1_bound_check(solution.phi, problem.metric, problem.reference_metric,
                           problem.grid, g_inv=problem.g_inv)
    return {
        "parameter": float(parameter),
        "entropy": float(entropy_norm(problem.F, problem.metric, problem.grid, p)),
        "sup_norm": float(np.max(np.abs(solution.phi))),
        "b": solution.b,
        "residual_sup": solution.residual_sup,
        "laplacian_margin": bound.laplacian_margin,
        "iterations": solution.iterations,
        "matvecs": sum(solution.krylov_iterations),
        "converged": True,
    }


def cmd_sweep(descriptor, out_dir, workers=1, phases=None):
    """The sweep subcommand; one phase per member goes to the list phases
    when given, in member order whatever the workers."""
    phases = [] if phases is None else phases
    concentrations = descriptor.concentrations
    # every member's forcing must read the swept sigma and accept its value
    for value in concentrations:
        descriptor.forcing_params({"sigma": value})
    p = descriptor.entropy_exponent_or_default(descriptor.grid["n"])
    # each member's problem, built when the member runs and dropped when it
    # is done; the first member's is built here when it sets the target
    problems = [None] * len(concentrations)
    if descriptor.entropy_target is not None:
        target = float(descriptor.entropy_target)
    else:
        first = problems[0] = _build_problem(descriptor, {"sigma": concentrations[0]})
        with np.errstate(over="ignore"):
            target = float(entropy_norm(first.F, first.metric, first.grid, p))
        del first  # only the list holds it, until its member runs
        if not math.isfinite(target):
            raise InconsistentInputError("entropy of the first sweep member is not finite "
                                         "on the grid")

    seconds = [None] * len(concentrations)

    def member(index):
        started = time.perf_counter()
        value = concentrations[index]
        problem, problems[index] = problems[index], None
        try:
            if problem is None:
                problem = _build_problem(descriptor, {"sigma": value})
            row = _sweep_member(problem, value, p, target)
        except NFormError as exc:
            row = dict(dict.fromkeys(_SWEEP_COLUMNS), parameter=float(value),
                       converged=False, error=str(exc))
        seconds[index] = time.perf_counter() - started
        return row

    indices = range(len(concentrations))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(member, indices))
    else:
        rows = [member(index) for index in indices]
    phases.extend({"name": "member", "parameter": row["parameter"], "seconds": t}
                  for row, t in zip(rows, seconds))

    sup_norms = [row["sup_norm"] for row in rows if row["converged"]]
    ratio = None
    if sup_norms and min(sup_norms) > 0.0:
        ratio = float(max(sup_norms) / min(sup_norms))
    band = float(descriptor.tolerances["sweep_ratio"])
    payload = {
        "entropy_target": target,
        "rows": rows,
        "max_over_min": ratio,
        "band": band,
        "band_ok": bool(ratio is None or ratio <= band),
        "all_converged": all(row["converged"] for row in rows),
    }
    passed = _write_artifact(out_dir, "sweep.json", payload)
    _write_csv(
        os.path.join(out_dir, "sweep.csv"),
        _SWEEP_COLUMNS,
        [[row[key] for key in _SWEEP_COLUMNS] for row in rows],
    )
    if not payload["all_converged"]:
        return EXIT_SOLVER
    return EXIT_PASS if passed else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# consolidated report

def cmd_report(out_dir):
    """Consolidate the artifacts in out_dir, each checked against its schema."""
    rows = []
    for name, (schema, verdict) in sorted(_ARTIFACTS.items()):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            continue
        try:
            with open(path) as handle:
                doc = schemas.validate(json.load(handle), schema)
        except (OSError, ValueError) as exc:
            print("unreadable artifact %s: %s" % (path, exc), file=sys.stderr)
            return EXIT_USAGE
        except ValidationError as exc:
            print("artifact %s breaks its schema at %s: %s" % (path, exc.json_path, exc.message),
                  file=sys.stderr)
            return EXIT_USAGE
        rows.append([name, verdict(doc)])
    if not rows:
        print("no artifacts found in %s" % out_dir, file=sys.stderr)
        return EXIT_USAGE
    ok = all(passed for _, passed in rows)
    payload = {"artifacts": [name for name, _ in rows], "all_passed": ok}
    schemas.validate(payload, schemas.REPORT_SUMMARY_SCHEMA)
    _write_json(os.path.join(out_dir, "report.json"), payload)
    _write_csv(os.path.join(out_dir, "report.csv"), ["artifact", "pass"], rows)
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# argument handling

def _load_descriptor(args):
    """The descriptor with --seed, --grid and --tol applied, checked once."""
    data = {}
    if args.config is not None:
        with open(args.config) as handle:
            data = parse_json(handle.read())
    # an override lands only in an object; any other value fails the check
    if isinstance(data, dict):
        if args.seed is not None:
            data["seed"] = args.seed
        for key, sub, value in (("grid", "N", getattr(args, "grid", None)),
                                ("tolerances", "solver", getattr(args, "tol", None))):
            if value is not None and isinstance(data.setdefault(key, {}), dict):
                data[key][sub] = value
    return ExperimentDescriptor.from_dict(data)


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
    solving = argparse.ArgumentParser(add_help=False, parents=[common])
    solving.add_argument("--grid", type=int, default=None, help="override grid size N")
    solving.add_argument("--tol", type=_tolerance, default=None,
                         help="override solver tolerance")
    sub.add_parser("check-pointwise", parents=[common])
    sub.add_parser("solve", parents=[solving])
    sub.add_parser("localize", parents=[solving])
    sub.add_parser("sweep", parents=[solving]).add_argument(
        "--workers", type=_workers, default=1, help="sweep members run concurrently on threads")
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
    except (InconsistentInputError, OSError, ValueError) as exc:
        print("descriptor error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        parser.error("--out must name a directory: %s (%s)" % (args.out, exc.strerror))
    started, phases = time.perf_counter(), []
    try:
        if args.command == "check-pointwise":
            return cmd_check_pointwise(descriptor, args.out)
        if args.command == "solve":
            code = cmd_solve(descriptor, args.out, phases)
        elif args.command == "localize":
            code = cmd_localize(descriptor, args.out, phases)
        else:
            code = cmd_sweep(descriptor, args.out, workers=args.workers, phases=phases)
    except InconsistentInputError as exc:
        # three descriptor errors show only after the descriptor is built: a
        # sweep sigma the forcing rejects, a forcing that overflows on the grid
        # and a sweep entropy target that does; every solve-time error is
        # mapped inside the commands, and nothing is written
        print("descriptor error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    _write_trace(args.out, args.command, started, phases)
    return code


if __name__ == "__main__":
    sys.exit(main())
