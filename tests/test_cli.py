"""Command line interface: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nformpde import cli, schemas
from nformpde.cli import EXIT_CHECK_FAILURE, EXIT_PASS, EXIT_SOLVER, EXIT_USAGE, main
from nformpde.descriptors import ExperimentDescriptor
from nformpde.errors import DegeneratePointError


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
    # generator parameters are range-checked when the fields are realized
    banded = write_config(tmp_path / "banded.json", grid={"n": 2, "N": 8, "L": 1.0},
                          background_gh={"name": "banded", "params": {"amplitude": 0.9}})
    assert main(["solve", "--config", banded, "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "descriptor error" in capsys.readouterr().err
    assert main(["report", "--out", str(tmp_path / "empty")]) == EXIT_USAGE
    for tol in ("0", "-1e-9", "nan", "inf", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--out", str(tmp_path / "o"), "--tol", tol])
        assert exc.value.code == EXIT_USAGE


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


def test_localize_round_trip(tmp_path):
    config = write_config(
        tmp_path / "desc.json",
        grid={"n": 2, "N": 16, "L": 1.0},
        forcing={"name": "gaussian", "params": {"amplitude": 0.4, "sigma": 0.18}},
        s_fractions=[0.5],
        k_list=[10],
    )
    out = tmp_path / "out"
    assert main(["localize", "--config", config, "--out", str(out)]) == EXIT_PASS
    payload = json.loads(read(out / "localization.json"))
    schemas.validate(payload, schemas.LOCALIZATION_REPORT_SCHEMA)
    assert payload["all_passed"]
    assert payload["estimate_trivial"]
    assert len(payload["reports"]) == 1
    cell = payload["reports"][0]
    assert cell["pass"] and cell["error"] is None
    assert cell["max_phi"] <= cell["tolerance"]
    lines = read(out / "comparisons.csv").decode().strip().splitlines()
    assert lines[0] == "s,k,mass,epsilon,max_phi,tolerance,pass"
    assert len(lines) == 2
    assert os.path.exists(out / "phi.bin")


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
