"""The benchmark's workloads: seeded inputs, oracle checks, determinism.

The workload tests run the real instances (about two minutes in all).
"""

import json
import os
import subprocess
import sys

import pytest

import instance
import run
import tracer as tracing
import workloads


def test_seed_zero_is_the_canonical_instance():
    solve = workloads.make_inputs("solve-N24", 0)
    assert solve["amplitudes"] == {"a": 0.002, "c": 0.001, "d": 0.001}
    assert solve["b_true"] == 0.3 and solve["N"] == 24
    localize = json.loads(workloads.make_inputs("localize-N16", 0)["descriptor"])
    assert localize["forcing"]["params"] == {"amplitude": 0.4, "sigma": 0.18}
    assert localize["background_gh"]["params"] == {"amplitude": 0.3}
    sweep = json.loads(workloads.make_inputs("sweep-N12", 0)["descriptor"])
    assert sweep["seed"] == 3 and "center" not in sweep["forcing"]["params"]


@pytest.mark.parametrize("seed", [1, 7, 123456])
def test_seeds_perturb_inside_the_stated_ranges(seed):
    solve = workloads.make_inputs("solve-N24", seed)
    assert solve == workloads.make_inputs("solve-N24", seed)
    for key, value in workloads.TRIG_AMPLITUDES.items():
        assert abs(solve["amplitudes"][key] / value - 1.0) <= workloads.AMPLITUDE_JITTER
    assert abs(solve["b_true"] - workloads.B_TRUE) <= workloads.B_JITTER
    for name in ("localize-N16", "sweep-N12"):
        center = json.loads(workloads.make_inputs(name, seed)["descriptor"])[
            "forcing"]["params"]["center"]
        assert len(center) == 4
        assert all(abs(c - 0.5) <= workloads.CENTER_JITTER for c in center)


def test_declared_per_layer_metrics_are_the_ones_reported():
    assert run.WORKLOADS == workloads.WORKLOADS
    end_to_end, per_layer = run.declared_metrics()
    assert set(end_to_end) == {"wall_s", "setup_s", "peak_rss_mb", "verified_frac"}
    reported = set(tracing.layer_metrics(tracing.Tracer(), wall_s=1.0))
    reported |= {"trace.overhead_frac", "cli.sweep.workers2_speedup", "sup_error"}
    assert reported == set(per_layer)


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = os.path.join(tmp_path, "perfbench")
    os.makedirs(bench)
    for name in ("run.py", "instance.py", "workloads.py", "tracer.py"):
        with open(os.path.join(run.BENCH_DIR, name)) as src, \
                open(os.path.join(bench, name), "w") as dst:
            dst.write(src.read())
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as src, \
            open(os.path.join(tmp_path, "BENCHMARK.json"), "w") as dst:
        dst.write(src.read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-N12",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _instance(tmp_path, workload, seed, traced=False, label=""):
    out = os.path.join(tmp_path, "%s-%d-%s%s" % (workload, seed, traced, label))
    os.makedirs(out)
    return instance.run_instance(workload, seed, out, traced=traced)


def test_sweep_digests_repeat_across_runs(tmp_path):
    first = _instance(tmp_path, "sweep-N12", 0)
    second = _instance(tmp_path, "sweep-N12", 0, label="again")
    assert first["failures"] == [] and second["failures"] == []
    assert first["digest"] == second["digest"] is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_and_invariants_hold(tmp_path, workload):
    plain = _instance(tmp_path, workload, 0)
    traced = _instance(tmp_path, workload, 0, traced=True)
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["digest"] == plain["digest"] is not None
    assert traced["invariants"] == []
    layers = traced["layers"]
    steps = layers["solver.newton_steps"]
    # the line search never halves on these inputs, so every solve makes one
    # start evaluation plus a coefficient field and one trial per step
    assert layers["solver.line_search.accept_frac"] == 1.0
    solves, charts = {"solve-N24": (1, 0), "localize-N16": (1, 1), "sweep-N12": (5, 0)}[workload]
    assert layers["hermlin.endomorphism_eigs.calls"] == solves + 2 * steps + charts
    if workload == "solve-N24":
        assert layers["grid.complex_hessian.calls"] == (
            layers["solver.krylov.matvecs"] + layers["grid.twisted_metric.calls"] + 1)
        assert layers["auxiliary.krylov.matvecs"] == 0
    if workload == "localize-N16":
        assert layers["auxiliary.solve_dirichlet_ma.calls"] == 6
        assert layers["auxiliary.krylov.matvecs"] > 0
        assert 0.0 < layers["auxiliary.hessian_useful_frac"] < 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_nonzero_seed_verifies(tmp_path, workload):
    record = _instance(tmp_path, workload, 7)
    assert record["failures"] == []
