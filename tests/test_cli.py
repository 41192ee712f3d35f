"""Command line interface: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nformpde
from nformpde import cli, descriptors, schemas
from nformpde.cli import EXIT_CHECK_FAILURE, EXIT_PASS, EXIT_SOLVER, EXIT_USAGE, main
from nformpde.descriptors import ExperimentDescriptor
from nformpde.errors import DegeneratePointError, InconsistentInputError, NonConvergenceError
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


def package_env():
    """This environment, with PYTHONPATH the directory holding the package under test."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nformpde.__file__)))


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


def test_check_pointwise_in_high_dimension(tmp_path, capsys):
    # at n = 11 most sampled metrics are not positive definite, and a round
    # may keep none of them; at n = 16 no round keeps enough
    config = write_config(tmp_path / "desc.json", operator={"family": "monge-ampere", "dim": 11},
                          grid={"n": 11}, samples=20)
    out = tmp_path / "out"
    assert main(["check-pointwise", "--config", config, "--out", str(out)]) == EXIT_PASS
    assert json.loads(read(out / "check.json"))["all_passed"]
    config = write_config(tmp_path / "desc.json", operator={"family": "monge-ampere", "dim": 16},
                          grid={"n": 16}, samples=20)
    assert main(["check-pointwise", "--config", config, "--out", str(out)]) == EXIT_USAGE
    assert "descriptor error: dimension 16" in capsys.readouterr().err


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
    assert meta["line_search_trials"] == []
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
    # one operator-application count and one line-search trial count per Newton step
    assert len(meta["krylov_iterations"]) == meta["iterations"] > 0
    assert all(count >= 1 for count in meta["krylov_iterations"])
    assert len(meta["line_search_trials"]) == meta["iterations"]
    assert all(count >= 1 for count in meta["line_search_trials"])


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
                   # a mode above N // 2 aliases a lower one on the grid
                   {"grid": {"n": 2, "N": 8, "L": 1.0},
                    "forcing": {"name": "bandlimited", "params": {"max_mode": 100}}},
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
    # a whole number written as a float is not an integer, wherever it is read
    for command, fields in (("solve", {"seed": 1.0}), ("check-pointwise", {"samples": 50.0}),
                            ("solve", {"grid": {"n": 2, "N": 8.0, "L": 1.0}})):
        config = write_config(tmp_path / "floats.json", **fields)
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == EXIT_USAGE
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
    # a number no float holds finitely; json.dump cannot write 1e400, so the
    # descriptors are raw JSON text
    raw = tmp_path / "raw.json"
    for command, text in (
            ("localize", '{"tolerances": {"c_disc": 1e400}}'),
            ("solve", '{"grid": {"N": 8}, "forcing": {"name": "gaussian", "params": {}}, '
                      '"tolerances": {"solver": 1e400}}'),
            ("solve", '{"grid": {"L": 1e400}}'),
            ("solve", '{"forcing": {"name": "constant", "params": {"value": 1e400}}}')):
        raw.write_text(text)
        assert main([command, "--config", str(raw), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "descriptor error" in capsys.readouterr().err
    # a gaussian center needs 2n entries, checked before any field is realized
    for command in ("solve", "check-pointwise"):
        config = write_config(tmp_path / "center.json", forcing={
            "name": "gaussian", "params": {"center": [0.5, 0.5, 0.5]}})
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "descriptor error: forcing.params.center" in capsys.readouterr().err
    # a side L whose cell volume h^4 or stencil factor 1/h^2 at N = 16
    # overflows, underflows or divides by zero, a grid of 2**31 points or
    # more, and a size field above its bound, are refused before anything is
    # allocated
    for command, fields, name in (
            ("solve", {"grid": {"N": 100000}}, "grid.N"),
            ("solve", {"grid": {"L": 1e100}}, "grid.L"),
            ("solve", {"grid": {"L": 1e-300}}, "grid.L"),
            ("localize", {"grid": {"L": 1e-150}}, "grid.L"),
            ("solve", {"forcing": {"name": "bumps", "params": {"count": 1001}}},
             "forcing.params.count"),
            ("check-pointwise", {"samples": 1000001}, "descriptor.samples"),
            ("check-pointwise", {"operator": {"family": "monge-ampere", "dim": 6},
                                 "grid": {"n": 6}, "samples": 1000000}, "samples")):
        config = write_config(tmp_path / "scale.json", **fields)
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "descriptor error: " + name in capsys.readouterr().err
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


def test_forcing_that_overflows_on_the_grid(tmp_path, capsys):
    # amplitude 1.7e308 is a float, but five periodic images of a wide
    # gaussian overflow it: a descriptor error before any solve
    coarse = {"n": 2, "N": 8, "L": 1.0}
    wide = {"name": "gaussian", "params": {"amplitude": 1.7e308, "sigma": 10}}
    config = write_config(tmp_path / "wide.json", grid=coarse, forcing=wide,
                          concentrations=[10, 0.1])
    for command in ("solve", "localize", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == EXIT_USAGE
        assert "descriptor error: forcing gaussian is not finite" in capsys.readouterr().err
        assert os.listdir(out) == []
    # the sweep realizes its first member's forcing with the backgrounds,
    # before any member runs, with an entropy target as without one
    config = write_config(tmp_path / "target.json", grid=coarse, forcing=wide,
                          concentrations=[10, 0.1], entropy_target=1.0)
    out = tmp_path / "target"
    assert main(["sweep", "--config", config, "--out", str(out)]) == EXIT_USAGE
    assert "descriptor error: forcing gaussian is not finite" in capsys.readouterr().err
    assert os.listdir(out) == []
    # a later sweep member that overflows fails its own row: at sigma 0.001
    # the off-grid well underflows to zero, at sigma 10 it overflows
    config = write_config(tmp_path / "sweep.json", grid=coarse, concentrations=[0.001, 10], forcing={
        "name": "gaussian", "params": {"amplitude": 1e306, "center": [0.53] * 4}})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--out", str(out)]) == EXIT_SOLVER
    rows = json.loads(read(out / "sweep.json"))["rows"]
    assert rows[0]["converged"] and not rows[1]["converged"]
    assert rows[1]["error"] == "forcing gaussian is not finite on the grid"


def test_sweep_entropy_target_that_overflows(tmp_path, capsys):
    # the first member's forcing (sigma 0.18) is finite on the grid, but the
    # entropy integral of e^F that would become the sweep's target overflows
    config = write_config(tmp_path / "hot.json", grid={"n": 2, "N": 8, "L": 1.0}, forcing={
        "name": "gaussian", "params": {"amplitude": 1.7e308, "sigma": 10}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == EXIT_USAGE
    assert ("descriptor error: entropy of the first sweep member is not finite"
            in capsys.readouterr().err)
    assert os.listdir(out) == []


def test_sweep_entropy_target_that_underflows(tmp_path, capsys):
    # e^F of the first member underflows at every point, so the entropy that
    # would become the sweep's target is 0.0, whose log has no value
    config = tmp_path / "cold.json"
    config.write_text(json.dumps({"grid": {"n": 2, "N": 8, "L": 0.01}, "forcing": {
        "name": "gaussian", "params": {"amplitude": -1e300, "sigma": 1.0}}, "seed": 16}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_USAGE
    assert ("descriptor error: entropy of the first sweep member is not positive"
            in capsys.readouterr().err)
    assert os.listdir(out) == []


def test_solve_forcing_that_overflows_the_trials_exits_three(tmp_path):
    # every line-search trial overflows the eigenvalues' norm or f; each is
    # outside the admissible set, the solve fails as documented, and no
    # RuntimeWarning escapes (the test suite turns warnings into errors)
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"grid": {"n": 2, "N": 8, "L": 1.0}, "forcing": {
        "name": "bandlimited", "params": {"amplitude": -1e300}}, "seed": 1}))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == EXIT_SOLVER
    with open(out / "solve_error.json") as handle:
        assert "line search stalled" in json.load(handle)["error"]


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
    # object that breaks its published schema, such as one that checked nothing
    localization = {"depth": 0.0, "entropy": 1.0, "center": [0, 0, 0, 0], "r0": 0.25,
                    "positivity_fraction": 0.125, "depth_cap": 0.03, "estimate_trivial": True,
                    "all_passed": True, "reports": []}
    sweep = {"entropy_target": 1.0, "rows": [], "max_over_min": None, "band": 3.0,
             "band_ok": True, "all_converged": True}
    bad = [("sweep.json", "{not json"), ("sweep.json", "[1]"),
           ("solve_meta.json", '{"l1_bound": 1}'), ("check.json", '{"all_passed": "yes"}'),
           ("sweep.json", '{"all_converged": true}'),
           ("check.json", '{"samples": 1, "seed": 0, "suites": {}, "all_passed": true}'),
           ("localization.json", json.dumps(localization)), ("sweep.json", json.dumps(sweep))]
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
    # one matvec and one line-search trial count per chart Newton step, and
    # one clamped-point count per step and at convergence
    residuals = cell["residuals"]
    assert len(residuals["krylov_iterations"]) == residuals["iterations"] > 0
    assert len(cell["line_search_trials"]) == residuals["iterations"]
    assert all(count >= 1 for count in cell["line_search_trials"])
    assert len(cell["clamp_history"]) == residuals["iterations"] + 1
    assert cell["clamp_history"][-1] == 0
    lines = read(out / "comparisons.csv").decode().strip().splitlines()
    assert lines[0] == "s,k,mass,epsilon,max_phi,tolerance,pass"
    assert len(lines) == 2
    assert os.path.exists(out / "phi.bin")
    assert main(["report", "--out", str(out)]) == EXIT_PASS
    summary = json.loads(read(out / "report.json"))
    assert summary == {"artifacts": ["localization.json", "solve_meta.json"],
                       "all_passed": True}


def strict_json(path):
    """The JSON document at path; a NaN or an infinity in it raises."""
    def refuse(constant):
        raise ValueError("%s in %s" % (constant, path))
    return json.loads(read(path), parse_constant=refuse)


def test_localize_forcing_that_overflows_writes_json_and_exits_one(tmp_path):
    # e^(n F) at a constant F = 400 overflows the hinge mass, so the cell
    # fails with null figures; at F = 800 the entropy overflows too, so the
    # run fails; either way every artifact is JSON with no NaN or Infinity
    for value in (400, 800):
        config = write_config(tmp_path / ("%d.json" % value), s_fractions=[0.5], k_list=[10],
                              forcing={"name": "constant", "params": {"value": value}})
        out = tmp_path / str(value)
        assert main(["localize", "--config", config, "--out", str(out)]) == EXIT_CHECK_FAILURE
        docs = {name: strict_json(out / name) for name in os.listdir(out)
                if name.endswith(".json")}
        if value == 400:
            assert set(docs) == {"solve_meta.json", "localization.json", "trace.json"}
            payload = docs["localization.json"]
            assert not payload["all_passed"]
            [cell] = payload["reports"]
            assert cell["pass"] is False and "hinge mass" in cell["error"]
            assert cell["mass"] is None and cell["epsilon"] is None
            assert cell["max_phi"] is None and cell["quantiles"] is None
        else:
            assert set(docs) == {"solve_meta.json", "localize_error.json", "trace.json"}
            assert "entropy" in docs["localize_error.json"]["error"]


def test_localize_forcing_that_underflows_the_hinge_mass_exits_one(tmp_path):
    # e^(n F) at a constant F = -700 underflows on the whole chart ball, so
    # every hinge mass is 0.0: each cell fails with that message and null
    # figures, and no 0/0 warning escapes (the suite turns warnings into errors)
    config = tmp_path / "cold.json"
    config.write_text(json.dumps({"grid": {"n": 2, "N": 16, "L": 1.0}, "forcing": {
        "name": "constant", "params": {"value": -700}}}))
    out = tmp_path / "out"
    assert main(["localize", "--config", str(config), "--out", str(out)]) == EXIT_CHECK_FAILURE
    payload = strict_json(out / "localization.json")
    assert not payload["all_passed"] and len(payload["reports"]) == 6
    for cell in payload["reports"]:
        assert cell["pass"] is False
        assert cell["error"] == "hinge mass is not positive: exp(n F) underflows on the chart ball"
        assert cell["mass"] is None and cell["max_phi"] is None and cell["epsilon"] is None


def test_localize_forcing_with_a_subnormal_hinge_mass_passes(tmp_path):
    # e^(n F) at a constant F = -360 is subnormal, but the density is formed
    # from e^(n (F - max F)), so its unit-mass rhs is exact and the mass, a
    # positive subnormal, and epsilon come from the log mass
    config = tmp_path / "cold.json"
    config.write_text(json.dumps({"grid": {"n": 2, "N": 16, "L": 1.0}, "forcing": {
        "name": "constant", "params": {"value": -360}}}))
    out = tmp_path / "out"
    assert main(["localize", "--config", str(config), "--out", str(out)]) == EXIT_PASS
    payload = strict_json(out / "localization.json")
    assert payload["all_passed"] and len(payload["reports"]) == 6
    for cell in payload["reports"]:
        assert cell["pass"] and cell["error"] is None
        assert cell["mass"] > 0.0 and cell["epsilon"] > 0.0


def test_json_artifacts_hold_no_nan(tmp_path, monkeypatch):
    # JSON has no NaN: _write_json refuses one before it opens the file, and
    # a start residual that is not finite goes into solve_error.json as null
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "nan.json", {"x": float("nan")})
    assert not os.path.exists(tmp_path / "nan.json")

    def fail(problem):
        raise NonConvergenceError("start residual is not finite (nan)", [float("nan")])

    monkeypatch.setattr(cli, "solve_primary", fail)
    config = write_config(tmp_path / "desc.json", grid={"n": 2, "N": 8, "L": 1.0})
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == EXIT_SOLVER
    assert strict_json(out / "solve_error.json")["history"] == [None]


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
    assert diag["error"].startswith("grid too coarse for a chart")
    assert "needs N >= 16" in diag["error"]


def test_localize_refuses_n3_before_any_field(tmp_path, capsys):
    # the chart runs at n = 2 only, so at n = 3 localize is a descriptor
    # error before the periodic solve runs, and nothing is written
    config = write_config(tmp_path / "desc.json", operator={"family": "monge-ampere", "dim": 3},
                          grid={"n": 3, "N": 8, "L": 1.0})
    out = tmp_path / "out"
    assert main(["localize", "--config", config, "--out", str(out)]) == EXIT_USAGE
    assert "descriptor error: grid.n: localize runs at n = 2 only" in capsys.readouterr().err
    assert os.listdir(out) == []


def first_n_above_budget(n):
    N = 8
    while N ** (2 * n) <= descriptors.GRID_POINT_BUDGET[n]:
        N += 1
    return N


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("command, target", [("solve", None), ("localize", None),
                                             ("sweep", None), ("sweep", 1.0)])
def test_grid_above_the_budget_exits_two_with_nothing_written(tmp_path, capsys, n, command,
                                                              target):
    N = first_n_above_budget(n)
    assert N == {2: 49, 3: 13}[n]  # the budget the README states
    config = write_config(tmp_path / "desc.json", operator={"family": "monge-ampere", "dim": n},
                          grid={"n": n, "N": N, "L": 1.0}, entropy_target=target,
                          forcing={"name": "gaussian", "params": {"center": [0.5] * (2 * n)}})
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_USAGE
    assert ("descriptor error: grid.N: N = %d at n = %d" % (N, n)) in capsys.readouterr().err
    assert os.listdir(out) == []


def first_n_above_two_sweep_lanes():
    N, member = 8, descriptors._SWEEP_MEMBER_BYTES_PER_POINT[2]
    while 2 * member * N ** 4 <= descriptors.WORKING_SET_BYTES:
        N += 1
    return N


@pytest.mark.parametrize("target", [None, 1.0])
def test_sweep_workers_above_the_working_set_exit_two_with_nothing_written(tmp_path, capsys,
                                                                            target):
    # one chain fits this grid, two at once do not: --workers 2 is refused
    # before any field is realized, and --workers 8 on two members runs two
    # chains of one member each
    N = first_n_above_two_sweep_lanes()
    assert N ** 4 <= descriptors.GRID_POINT_BUDGET[2]
    config = write_config(tmp_path / "desc.json", grid={"n": 2, "N": N, "L": 1.0},
                          entropy_target=target, concentrations=[0.18, 0.16],
                          forcing={"name": "gaussian", "params": {}})
    for workers in ("2", "8"):
        out = tmp_path / ("out" + workers)
        assert main(["sweep", "--config", config, "--out", str(out), "--workers", workers]) \
            == EXIT_USAGE
        assert ("descriptor error: --workers: 2 sweep chains at once on N = %d at n = 2" % N
                in capsys.readouterr().err)
        assert os.listdir(out) == []


def test_sweep_workers_are_rated_by_the_chains_that_run_at_once(tmp_path, monkeypatch):
    # five members run as two chains, so --workers 8 runs two members at
    # once: it passes the check on a grid where five at once would not fit,
    # and the sweep goes on to realize its fields (stopped here)
    member = descriptors._SWEEP_MEMBER_BYTES_PER_POINT[2]
    N = 36
    assert 5 * member * N ** 4 > descriptors.WORKING_SET_BYTES >= 2 * member * N ** 4
    descriptor = ExperimentDescriptor(grid={"n": 2, "N": N, "L": 1.0},
                                      forcing={"name": "gaussian", "params": {}})
    assert len(descriptor.concentrations) == 5
    with pytest.raises(InconsistentInputError, match="5 sweep chains at once"):
        descriptors.check_sweep_lanes(descriptor.make_grid(), 5)

    class Realized(Exception):
        pass

    def realize(self, grid):
        raise Realized

    monkeypatch.setattr(ExperimentDescriptor, "make_backgrounds", realize)
    with pytest.raises(Realized):
        cli.cmd_sweep(descriptor, str(tmp_path), workers=8)
    assert os.listdir(tmp_path) == []


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
    # each row reports its Newton steps and the Krylov matvecs over them
    for row in payload["rows"]:
        assert isinstance(row["iterations"], int) and row["iterations"] >= 1
        assert isinstance(row["matvecs"], int) and row["matvecs"] >= row["iterations"]
    lines = read(out / "sweep.csv").decode().strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    for line, row in zip(lines[1:], payload["rows"]):
        fields = dict(zip(header, line.split(",")))
        assert (fields["iterations"], fields["matvecs"]) == (str(row["iterations"]),
                                                             str(row["matvecs"]))

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
    # three members: the first chain holds two, so one member starts warm
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 12, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.18}},
        concentrations=[0.18, 0.16, 0.14],
        seed=3,
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", config, "--out", str(a)]) == EXIT_PASS
    assert main(["sweep", "--config", config, "--out", str(b), "--workers", "2"]) == EXIT_PASS
    assert read(a / "sweep.json") == read(b / "sweep.json")
    assert read(a / "sweep.csv") == read(b / "sweep.csv")
    rows = json.loads(read(a / "sweep.json"))["rows"]
    assert [row["warm_start"] for row in rows] == [False, True, False]


def sweep_descriptor(concentrations, N=8):
    return ExperimentDescriptor(
        grid={"n": 2, "N": N, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.18}},
        concentrations=list(concentrations), seed=3)


def cold_sweep_rows(descriptor, target):
    """The sweep rows of descriptor with every member solved cold."""
    grid = descriptor.make_grid()
    p = descriptor.entropy_exponent_or_default(grid.n)
    rows = []
    for value in descriptor.concentrations:
        problem = cli._build_problem(descriptor, grid, {"sigma": value})
        rows.append(cli._sweep_member(problem, problem.F, value, p, target)[0])
    return rows


@settings(max_examples=6, deadline=None)
@given(concentrations=st.lists(st.floats(0.10, 0.20), min_size=2, max_size=4))
def test_chained_sweep_rows_match_the_cold_reference(tmp_path_factory, concentrations):
    # each warm-started member converges to the cold member's solution, to
    # the solver tolerance
    descriptor = sweep_descriptor(concentrations)
    out = tmp_path_factory.mktemp("chained")
    assert cli.cmd_sweep(descriptor, str(out)) == EXIT_PASS
    payload = json.loads(read(out / "sweep.json"))
    half = (len(concentrations) + 1) // 2
    cold = cold_sweep_rows(descriptor, payload["entropy_target"])
    for index, (row, reference) in enumerate(zip(payload["rows"], cold)):
        assert row["warm_start"] is (index not in (0, half))
        assert reference["warm_start"] is False
        assert row["parameter"] == reference["parameter"]
        for key in ("sup_norm", "b"):
            assert row[key] == pytest.approx(reference[key], rel=1e-8), key
        assert row["residual_sup"] <= descriptor.tolerances["solver"]
        assert len(row["line_search_trials"]) == row["iterations"]


def test_chained_sweep_takes_fewer_newton_steps_than_cold_members(tmp_path):
    # the acceptance criterion 10 descriptor: 19 steps against 25 cold
    descriptor = sweep_descriptor([0.18, 0.16, 0.14, 0.12, 0.10], N=12)
    assert cli.cmd_sweep(descriptor, str(tmp_path)) == EXIT_PASS
    payload = json.loads(read(tmp_path / "sweep.json"))
    chained = sum(row["iterations"] for row in payload["rows"])
    cold = sum(row["iterations"] for row in cold_sweep_rows(descriptor,
                                                            payload["entropy_target"]))
    assert chained < cold


def test_a_failed_sweep_member_leaves_the_next_of_its_chain_cold(tmp_path, monkeypatch):
    # five members form the chains (0.18, 0.16, 0.14) and (0.12, 0.10); each
    # starts from the phi of the member before it in its chain, and a member
    # that fails leaves the next one cold.  The chains may run on different
    # threads, so each start is kept by its parameter
    descriptor = sweep_descriptor([0.18, 0.16, 0.14, 0.12, 0.10])
    real_member, starts, phis = cli._sweep_member, {}, {}

    def member(background, F, value, p, target, initial=None):
        starts[value] = initial
        if value == 0.16 and fail:
            raise NonConvergenceError("scripted failure", [1.0])
        row, phi = real_member(background, F, value, p, target, initial)
        phis[value] = phi
        return row, phi

    monkeypatch.setattr(cli, "_sweep_member", member)
    rows = {}
    for fail in (False, True):
        out = tmp_path / str(fail)
        os.mkdir(out)
        starts.clear()
        phis.clear()
        assert cli.cmd_sweep(descriptor, str(out), workers=2) == (EXIT_SOLVER if fail
                                                                  else EXIT_PASS)
        rows[fail] = json.loads(read(out / "sweep.json"))["rows"]
    assert starts[0.18] is None and starts[0.12] is None
    assert starts[0.16] is phis[0.18] and starts[0.10] is phis[0.12]
    assert starts[0.14] is None  # after the scripted failure
    failed = rows[True][1]
    assert failed["converged"] is False and failed["error"] == "scripted failure"
    assert failed["warm_start"] is None and failed["line_search_trials"] is None
    assert [row["warm_start"] for row in rows[True]] == [False, None, False, False, True]
    assert rows[False][2]["warm_start"] is True
    # the other chain holds the rows of the run without the failure
    assert rows[True][0] == rows[False][0]
    assert rows[True][3:] == rows[False][3:]


def test_sweep_members_keep_the_callers_errstate(tmp_path, monkeypatch):
    # numpy's errstate is a context variable and a new thread starts with the
    # default context; every member runs in a copy of the caller's
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 8, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.18}},
        concentrations=[0.18, 0.16],
        seed=3,
    )
    with open(config) as handle:
        descriptor = ExperimentDescriptor.from_dict(json.load(handle))
    real_member, seen = cli._sweep_member, []

    def member(*args):
        seen.append(np.geterr()["under"])
        return real_member(*args)

    monkeypatch.setattr(cli, "_sweep_member", member)
    with np.errstate(under="raise"):
        assert cli.cmd_sweep(descriptor, str(tmp_path), workers=2) == EXIT_PASS
    assert seen == ["raise", "raise"]


def test_trace_holds_the_phase_wall_times(tmp_path):
    # solve, localize and sweep write trace.json beside their artifacts, with
    # the wall time of the command and of each phase; no other artifact does
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 16, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 0.4, "sigma": 0.18}},
        s_fractions=[0.5],
        k_list=[10, 20],
        concentrations=[0.18, 0.16],
        seed=3,
    )
    expected = {"solve": ["solve", "l1_check"],
                "localize": ["solve", "l1_check", "chart", "cell", "cell"],
                "sweep": ["member", "member"]}
    phases = {}
    for command, names in expected.items():
        out = tmp_path / command
        argv = [command, "--config", config, "--out", str(out)]
        assert main(argv + (["--grid", "8"] if command == "sweep" else [])) == EXIT_PASS
        trace = schemas.validate(json.loads(read(out / "trace.json")), schemas.TRACE_SCHEMA)
        assert trace["command"] == command
        phases[command] = trace["phases"]
        assert [phase["name"] for phase in phases[command]] == names
        # localize's chains of cells, one per k, run side by side, so only
        # the cells of one k add up to time spent after the chart
        serial = [phase for phase in phases[command] if phase["name"] != "cell"]
        chains = {}
        for phase in phases[command]:
            if phase["name"] == "cell":
                chains[phase["k"]] = chains.get(phase["k"], 0.0) + phase["seconds"]
        spent = sum(phase["seconds"] for phase in serial) + max(chains.values(), default=0.0)
        assert spent <= trace["wall_s"]
        for name in os.listdir(out):
            if name != "trace.json":
                assert b"seconds" not in read(out / name) and b"wall_s" not in read(out / name)
    cells = json.loads(read(tmp_path / "localize" / "localization.json"))["reports"]
    assert [(p["s"], p["k"]) for p in phases["localize"][3:]] == [(c["s"], c["k"]) for c in cells]
    assert [p["parameter"] for p in phases["sweep"]] == [0.18, 0.16]


def sweep_config(path, **overrides):
    return write_config(
        path,
        grid={"n": 2, "N": 12, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.18}},
        concentrations=[0.18, 0.10],
        seed=3,
        **overrides,
    )


@pytest.mark.parametrize("target", [None, 1.0])
def test_sweep_realizes_its_grid_once_before_any_member(tmp_path, capsys, monkeypatch, target):
    # a grid TorusGrid refuses (2**31 points or more) is a descriptor error,
    # with or without an entropy target, and no member row is written
    config = write_config(tmp_path / "big.json", grid={"n": 2, "N": 216, "L": 1.0},
                          forcing={"name": "gaussian", "params": {}}, entropy_target=target)
    out = tmp_path / "big"
    assert main(["sweep", "--config", config, "--out", str(out)]) == EXIT_USAGE
    assert "descriptor error: grid.N: N = 216" in capsys.readouterr().err
    assert os.listdir(out) == []
    # a sweep that runs realizes one grid for all its members
    calls = []
    make_grid = ExperimentDescriptor.make_grid
    monkeypatch.setattr(ExperimentDescriptor, "make_grid",
                        lambda self: calls.append(self) or make_grid(self))
    config = write_config(tmp_path / "small.json", grid={"n": 2, "N": 8, "L": 1.0},
                          forcing={"name": "gaussian", "params": {}},
                          concentrations=[0.18, 0.14, 0.1], entropy_target=target)
    code = main(["sweep", "--config", config, "--out", str(tmp_path / "small")])
    assert code in (EXIT_PASS, EXIT_CHECK_FAILURE)
    assert len(calls) == 1


def test_sweep_honours_solver_budget(tmp_path):
    config = sweep_config(tmp_path / "desc.json",
                          tolerances={"solver": 1e-9, "max_iterations": 1})
    out = tmp_path / "out"
    assert main(["sweep", "--config", config, "--out", str(out)]) == EXIT_SOLVER
    payload = json.loads(read(out / "sweep.json"))
    assert not payload["all_converged"]
    for row in payload["rows"]:
        assert row["converged"] is False
        assert row["iterations"] is None and row["matvecs"] is None
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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=package_env())
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
        env=package_env(),
    )
    assert proc.returncode == 0
    for command in ("check-pointwise", "solve", "localize", "sweep", "report"):
        assert command in proc.stdout
