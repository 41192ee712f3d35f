"""Command line interface: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nformpde import cli, schemas
from nformpde.cli import EXIT_CHECK_FAILURE, EXIT_PASS, EXIT_SOLVER, EXIT_USAGE, main
from nformpde.descriptors import ExperimentDescriptor
from nformpde.errors import DegeneratePointError
from nformpde.grid import TorusGrid, entropy_norm, identity_metric


def write_config(path, **overrides):
    data = ExperimentDescriptor().to_dict()
    data.update(overrides)
    with open(path, "w") as handle:
        json.dump(data, handle)
    return str(path)


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_check_pointwise_writes_passing_report(tmp_path):
    config = write_config(tmp_path / "desc.json", samples=500, seed=7)
    out = tmp_path / "out"
    assert main(["check-pointwise", "--config", config, "--out", str(out)]) == EXIT_PASS
    payload = json.loads(read(out / "check.json"))
    schemas.validate(payload, schemas.POINTWISE_REPORT_SCHEMA)
    assert payload["all_passed"]
    assert payload["samples"] == 500
    assert payload["seed"] == 7
    assert set(payload["suites"]) == {"operator", "identities"}
    assert payload["suites"]["operator"]["gradient_min"] > 0.0
    assert main(["report", "--out", str(out)]) == EXIT_PASS
    summary = json.loads(read(out / "report.json"))
    assert summary == {"artifacts": ["check.json"], "all_passed": True}


def test_check_pointwise_is_deterministic(tmp_path):
    config = write_config(tmp_path / "desc.json", samples=300)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["check-pointwise", "--config", config, "--out", str(a)]) == EXIT_PASS
    assert main(["check-pointwise", "--config", config, "--out", str(b)]) == EXIT_PASS
    assert read(a / "check.json") == read(b / "check.json")


def test_solve_zero_forcing_flat_artifacts(tmp_path):
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 12, "L": 1.0},
        forcing={"name": "constant", "params": {"value": 0.0}},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == EXIT_PASS
    meta = json.loads(read(out / "solve_meta.json"))
    schemas.validate(meta, schemas.SOLVE_META_SCHEMA)
    assert meta["sup_norm"] <= 1e-12
    assert abs(meta["b"]) <= 1e-12
    assert meta["l1_bound"]["passed"]
    assert meta["l1_bound"]["c_prime"] == pytest.approx(2.0, abs=1e-12)
    assert meta["iterations"] == 0 and meta["krylov_iterations"] == []
    phi = np.fromfile(out / "phi.bin", dtype="<f8")
    assert phi.size == 12**4
    assert np.abs(phi).max() <= 1e-12
    lines = read(out / "residuals.csv").decode().strip().splitlines()
    assert lines[0] == "iteration,residual_sup"
    assert len(lines) >= 2


def test_solve_gaussian_deterministic(tmp_path):
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 12, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 0.4, "sigma": 0.18}},
        seed=7,
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", config, "--out", str(a)]) == EXIT_PASS
    assert main(["solve", "--config", config, "--out", str(b)]) == EXIT_PASS
    for name in ("phi.bin", "solve_meta.json", "residuals.csv"):
        assert read(a / name) == read(b / name)
    meta = json.loads(read(a / "solve_meta.json"))
    assert meta["sup_norm"] > 1e-3
    assert meta["residual_sup"] <= 1e-9
    # one operator-application count per Newton step
    assert len(meta["krylov_iterations"]) == meta["iterations"] > 0
    assert all(count >= 1 for count in meta["krylov_iterations"])


def test_usage_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", "--config", missing, "--out", str(tmp_path / "o")]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_field": 1}))
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    worse = write_config(tmp_path / "worse.json", entropy_exponent=2.0)
    assert main(["solve", "--config", worse, "--out", str(tmp_path / "o")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "descriptor error" in err
    # a generator parameter out of range is a descriptor error
    banded = write_config(tmp_path / "banded.json", grid={"n": 2, "N": 8, "L": 1.0},
                          background_gh={"name": "banded", "params": {"amplitude": 0.9}})
    assert main(["solve", "--config", banded, "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "descriptor error" in capsys.readouterr().err
    # a missing or malformed operator key, or a key no field reads, is a
    # descriptor error
    ma = {"family": "monge-ampere", "dim": 2}
    for fields in ({"operator": {"family": "hessian", "dim": 2}},
                   {"operator": {"family": "combination", "dim": 2}},
                   {"operator": {"family": "combination", "dim": 2, "members": [1],
                                 "weights": [1.0]}},
                   {"operator": {"family": "combination", "dim": 2, "members": ma,
                                 "weights": [1.0]}},
                   {"operator": {"family": "combination", "dim": 2, "members": [ma],
                                 "weights": 1.0}},
                   {"operator": {"family": "combination", "dim": 2, "members": [ma],
                                 "weights": ["x"]}},
                   {"operator": {"family": "combination", "dim": 3, "members": [ma],
                                 "weights": [1.0]}},
                   {"operator": {"family": "hessian", "dim": 2, "k": "x"}},
                   {"operator": {"family": "hessian", "dim": 2, "k": 1.5}},
                   {"operator": {"family": "p-monge-ampere", "dim": 2, "p": None}},
                   {"operator": {"family": "monge-ampere", "dim": "x"}},
                   {"operator": {"family": "monge-ampere", "dim": 2, "k": 3}},
                   {"operator": [ma]},
                   {"forcing": {"name": "gaussian", "params": {"amplitude": 0.4, "sigm": 0.05}}},
                   {"forcing": {"name": "constant", "parms": {"value": 0.1}}},
                   {"forcing": {"name": "constant", "params": [0.1]}},
                   {"background_g": {"name": "identity", "params": {"amplitude": 0.1}}},
                   {"background_gh": {"name": ["banded"], "params": {}}},
                   {"grid": {"n": 2, "N": 16, "L": 1.0, "M": 3}},
                   {"tolerances": {"solvr": 1e-3}},
                   {"grid": {"n": 2, "N": [16], "L": 1.0}},
                   {"samples": "x"},
                   {"s_fractions": 0.5},
                   {"s_fractions": ["a"]},
                   # an empty list would run no comparison or no sweep member
                   {"s_fractions": []},
                   {"k_list": []},
                   {"concentrations": []},
                   {"entropy_exponent": "x"}):
        config = write_config(tmp_path / "keys.json", **fields)
        assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "descriptor error" in capsys.readouterr().err
    # a malformed generator parameter is rejected before any field is realized
    coarse = {"n": 2, "N": 8, "L": 1.0}
    for fields in ({"forcing": {"name": "gaussian", "params": {"amplitude": "x"}}},
                   {"forcing": {"name": "gaussian", "params": {"center": [0.5, "a", 0.5, 0.5]}}},
                   {"background_gh": {"name": "banded", "params": {"amplitude": None}}},
                   # json.dump writes NaN, which is not JSON and passes no range
                   {"background_gh": {"name": "banded", "params": {"amplitude": float("nan")}}},
                   {"forcing": {"name": "bumps", "params": {"count": "two"}}},
                   {"forcing": {"name": "bumps", "params": {"sigma": 0}}},
                   # an integer too large for a float is rejected when parsed
                   {"forcing": {"name": "gaussian", "params": {"amplitude": 10 ** 400}}},
                   {"forcing": {"name": "gaussian", "params": {"sigma": 10 ** 400}}},
                   {"grid": {"n": 2, "N": 8, "L": 10 ** 400}}):
        config = write_config(tmp_path / "params.json", **{"grid": coarse, **fields})
        assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "descriptor error" in capsys.readouterr().err
    # a sweep needs a forcing that reads sigma, and every swept value must be
    # a valid sigma; no member runs otherwise
    # and an entropy target it can reach: the entropy integral is positive
    for name, concentrations, target in (("constant", [0.18, 0.1], None),
                                         ("gaussian", [0.18, -0.1], None),
                                         ("bumps", [0.12, 0.0], None),
                                         ("gaussian", [0.18, 0.1], -1.0)):
        out = tmp_path / ("sweep-" + name)
        config = write_config(tmp_path / "sweep.json", grid=coarse,
                              forcing={"name": name, "params": {}},
                              concentrations=concentrations, entropy_target=target)
        assert main(["sweep", "--config", config, "--out", str(out)]) == EXIT_USAGE
        assert "descriptor error" in capsys.readouterr().err
        assert not os.path.exists(out / "sweep.json")
    assert main(["report", "--out", str(tmp_path / "empty")]) == EXIT_USAGE
    for tol in ("0", "-1e-9", "nan", "inf", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--out", str(tmp_path / "o"), "--tol", tol])
        assert exc.value.code == EXIT_USAGE
    for workers in ("0", "-1", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--out", str(tmp_path / "o"), "--workers", workers])
        assert exc.value.code == EXIT_USAGE
    # a flag is rejected by every subcommand that would ignore it
    for argv in (["solve", "--workers", "4"], ["localize", "--workers", "2"],
                 ["check-pointwise", "--tol", "1e-3"], ["check-pointwise", "--grid", "12"],
                 ["check-pointwise", "--workers", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_USAGE


def test_negative_seed_unusable_out_and_bad_artifacts_exit_two(tmp_path, capsys):
    # a negative seed is a descriptor error, in the descriptor or from --seed
    config = write_config(tmp_path / "negative.json", seed=-1)
    assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "descriptor error" in capsys.readouterr().err
    assert main(["check-pointwise", "--seed", "-3", "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "descriptor error" in capsys.readouterr().err
    # --out naming a regular file is a usage error that names it
    taken = tmp_path / "taken"
    taken.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--out", str(taken)])
    assert exc.value.code == EXIT_USAGE
    assert str(taken) in capsys.readouterr().err
    # report names an artifact that is not JSON, not a JSON object, or an
    # object that breaks its published schema
    bad = [("sweep.json", "{not json"), ("sweep.json", "[1]"),
           ("solve_meta.json", '{"l1_bound": 1}'), ("check.json", '{"all_passed": "yes"}'),
           ("sweep.json", '{"all_converged": true}')]
    for i, (name, text) in enumerate(bad):
        out = tmp_path / ("artifacts%d" % i)
        out.mkdir()
        (out / name).write_text(text)
        assert main(["report", "--out", str(out)]) == EXIT_USAGE
        assert str(out / name) in capsys.readouterr().err
        assert not os.path.exists(out / "report.json")


def test_solver_budget_failure_writes_diagnostic(tmp_path):
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 12, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 0.4, "sigma": 0.18}},
        tolerances={"solver": 1e-9, "max_iterations": 1},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == EXIT_SOLVER
    diag = json.loads(read(out / "solve_error.json"))
    assert "error" in diag
    assert isinstance(diag["history"], list) and diag["history"]
    assert not os.path.exists(out / "solve_meta.json")


@pytest.mark.parametrize("command", ["solve", "localize"])
def test_any_solve_error_writes_diagnostic(tmp_path, monkeypatch, command):
    def fail(problem):
        raise DegeneratePointError("gradient at the cone boundary")

    monkeypatch.setattr(cli, "solve_primary", fail)
    config = write_config(tmp_path / "desc.json", grid={"n": 2, "N": 8, "L": 1.0})
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_SOLVER
    diag = json.loads(read(out / "solve_error.json"))
    assert diag == {"error": "gradient at the cone boundary", "history": []}
    assert not os.path.exists(out / "solve_meta.json")


def test_localize_round_trip(tmp_path, monkeypatch):
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 16, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 0.4, "sigma": 0.18}},
        s_fractions=[0.5],
        k_list=[10],
    )
    out = tmp_path / "out"
    checked = []
    validate, load_descriptor = schemas.validate, cli._load_descriptor

    def load_then_count(args):
        descriptor = load_descriptor(args)
        checked.clear()
        return descriptor

    monkeypatch.setattr(schemas, "validate",
                        lambda instance, schema: checked.append(schema) or validate(instance, schema))
    monkeypatch.setattr(cli, "_load_descriptor", load_then_count)
    assert main(["localize", "--config", config, "--out", str(out)]) == EXIT_PASS
    # a loaded descriptor is not checked again: one check per JSON artifact
    assert checked == [schemas.SOLVE_META_SCHEMA, schemas.LOCALIZATION_REPORT_SCHEMA]
    payload = json.loads(read(out / "localization.json"))
    schemas.validate(payload, schemas.LOCALIZATION_REPORT_SCHEMA)
    assert payload["all_passed"]
    assert payload["estimate_trivial"]
    assert len(payload["reports"]) == 1
    cell = payload["reports"][0]
    assert cell["pass"] and cell["error"] is None
    assert cell["max_phi"] <= cell["tolerance"]
    # one matvec count per chart Newton step
    residuals = cell["residuals"]
    assert len(residuals["krylov_iterations"]) == residuals["iterations"] > 0
    lines = read(out / "comparisons.csv").decode().strip().splitlines()
    assert lines[0] == "s,k,mass,epsilon,max_phi,tolerance,pass"
    assert len(lines) == 2
    assert os.path.exists(out / "phi.bin")
    assert main(["report", "--out", str(out)]) == EXIT_PASS
    summary = json.loads(read(out / "report.json"))
    assert summary == {"artifacts": ["localization.json", "solve_meta.json"],
                       "all_passed": True}


def test_localize_chart_failure_exits_one(tmp_path):
    # N = 12 cannot host the minimal chart radius of four spacings
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 12, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 0.4, "sigma": 0.18}},
    )
    out = tmp_path / "out"
    assert main(["localize", "--config", config, "--out", str(out)]) == EXIT_CHECK_FAILURE
    diag = json.loads(read(out / "localize_error.json"))
    assert "chart" in diag["error"] or "radius" in diag["error"]


def test_sweep_and_report_round_trip(tmp_path):
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 12, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.18}},
        concentrations=[0.18, 0.16],
        seed=3,
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == EXIT_PASS
    payload = json.loads(read(out / "sweep.json"))
    schemas.validate(payload, schemas.SWEEP_REPORT_SCHEMA)
    assert payload["all_converged"] and payload["band_ok"]
    assert len(payload["rows"]) == 2
    assert payload["max_over_min"] >= 1.0
    entropies = [row["entropy"] for row in payload["rows"]]
    assert entropies[0] == pytest.approx(entropies[1], rel=1e-9)
    lines = read(out / "sweep.csv").decode().strip().splitlines()
    assert len(lines) == 3

    assert main(["report", "--out", str(out)]) == EXIT_PASS
    summary = json.loads(read(out / "report.json"))
    schemas.validate(summary, schemas.REPORT_SUMMARY_SCHEMA)
    assert summary == {"artifacts": ["sweep.json"], "all_passed": True}

    # a failed band in the stored artifact must flip the report exit code
    payload["band_ok"] = False
    with open(out / "sweep.json", "w") as handle:
        json.dump(payload, handle)
    assert main(["report", "--out", str(out)]) == EXIT_CHECK_FAILURE
    summary = json.loads(read(out / "report.json"))
    assert not summary["all_passed"]


def test_sweep_workers_parity(tmp_path):
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 12, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.18}},
        concentrations=[0.18, 0.16],
        seed=3,
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", config, "--out", str(a)]) == EXIT_PASS
    assert main(["sweep", "--config", config, "--out", str(b), "--workers", "2"]) == EXIT_PASS
    assert read(a / "sweep.json") == read(b / "sweep.json")
    assert read(a / "sweep.csv") == read(b / "sweep.csv")


def sweep_config(path, **overrides):
    return write_config(
        path,
        grid={"n": 2, "N": 12, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.18}},
        concentrations=[0.18, 0.10],
        seed=3,
        **overrides,
    )


def test_sweep_honours_solver_budget(tmp_path):
    config = sweep_config(tmp_path / "desc.json",
                          tolerances={"solver": 1e-9, "max_iterations": 1})
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == EXIT_SOLVER
    payload = json.loads(read(out / "sweep.json"))
    assert not payload["all_converged"]
    for row in payload["rows"]:
        assert row["converged"] is False
        assert row["error"].startswith("no convergence in 1 iterations")


def test_sweep_honours_tol_flag(tmp_path):
    # one Newton step reaches a loose tolerance but not the descriptor's 1e-9
    config = sweep_config(tmp_path / "desc.json",
                          tolerances={"solver": 1e-9, "max_iterations": 1})
    out = tmp_path / "out"
    main(["sweep", "--config", config, "--out", str(out), "--tol", "0.5"])
    payload = json.loads(read(out / "sweep.json"))
    assert payload["all_converged"]
    assert all(1e-9 < row["residual_sup"] <= 0.5 for row in payload["rows"])


def test_sweep_unreachable_entropy_target_fails_every_row(tmp_path):
    # the shift is searched in |c| <= 640, where this entropy stays below 1e300
    config = sweep_config(tmp_path / "desc.json", entropy_target=1e300)
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == EXIT_SOLVER
    rows = json.loads(read(out / "sweep.json"))["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["converged"] is False
        assert row["error"] == "entropy target unreachable from above"


def smooth_field(torus, seed, amplitude):
    """A random trigonometric field of low modes with the given sup norm."""
    rng = np.random.default_rng(seed)
    field = np.zeros(torus.shape)
    for axis in range(2 * torus.n):
        x = torus.axis_coordinates(axis)
        field = field + rng.normal() * np.sin(2 * np.pi * (x + rng.uniform()))
    return amplitude * field / np.max(np.abs(field))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.01, 3.0),
       log_ratio=st.floats(-3.0, 3.0), p=st.sampled_from([3, 4.5]))
def test_entropy_shift_reaches_the_target(seed, amplitude, log_ratio, p):
    from scipy.optimize import brentq

    torus = TorusGrid(n=2, N=8, L=1.0)
    g = identity_metric(torus)
    F = smooth_field(torus, seed, amplitude)
    target = entropy_norm(F, g, torus, p) * np.exp(log_ratio)
    c = cli._entropy_shift(F, g, torus, p, target)
    assert abs(entropy_norm(F + c, g, torus, p) / target - 1.0) <= 1e-14
    reference = brentq(lambda s: entropy_norm(F + s, g, torus, p) - target, -10.0, 10.0,
                       xtol=1e-14, rtol=1e-15)
    assert abs(c - reference) <= 1e-12
    # F's own entropy needs no shift
    assert abs(cli._entropy_shift(F, g, torus, p, entropy_norm(F, g, torus, p))) <= 1e-15


def test_cli_import_loads_no_optimize_or_integrate():
    # a fresh interpreter: this one has loaded scipy.optimize for other tests
    code = ("import sys, nformpde, nformpde.cli; "
            "print([m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.integrate'))])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_seed_and_grid_overrides(tmp_path):
    config = write_config(tmp_path / "desc.json", samples=200, seed=0)
    out = tmp_path / "out"
    code = main([
        "check-pointwise", "--config", config, "--out", str(out), "--seed", "9",
    ])
    assert code == EXIT_PASS
    assert json.loads(read(out / "check.json"))["seed"] == 9
    config2 = write_config(
        tmp_path / "desc2.json",
        forcing={"name": "constant", "params": {"value": 0.0}},
    )
    out2 = tmp_path / "out2"
    assert main(["solve", "--config", config2, "--out", str(out2), "--grid", "12"]) == EXIT_PASS
    meta = json.loads(read(out2 / "solve_meta.json"))
    assert meta["grid"]["N"] == 12
    phi = np.fromfile(out2 / "phi.bin", dtype="<f8")
    assert phi.size == 12**4


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nformpde.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for command in ("check-pointwise", "solve", "localize", "sweep", "report"):
        assert command in proc.stdout
