"""nformpde benchmark: three seeded, closed-loop workloads checked against oracles.

    python3 perfbench/run.py --workload solve-N24 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  One instance runs at a time (a closed
loop with a single client), each in a fresh interpreter started by
``instance.py``, so set-up time and peak memory belong to that instance
alone.

``--trace 0`` runs instances until ``--seconds`` would be exceeded by one
more (at least one), adds set-up-only processes until there are
``SETUP_SAMPLES`` set-up times, and reports the end-to-end metrics as
medians.  ``--trace 1`` runs one traced and one untraced instance, checks
that their artifacts are byte-identical and that the tracer's count
invariants hold, times the sweep-N12 instance of the same seed with
``workers=1`` and ``workers=2``, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is the
JSON result.  A record with the run metadata and every instance (digests
included) goes to ``perfbench/_runs/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SOURCE, "nformpde")
RUNS = os.path.join(BENCH_DIR, "_runs")
INSTANCE = os.path.join(BENCH_DIR, "instance.py")
# the names workloads.py defines; run.py itself does not import nformpde
WORKLOADS = ("solve-N24", "localize-N16", "sweep-N12")

SETUP_SAMPLES = 3
# every process started must have ended by then (the contract allows 180 s)
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Instances run with single-threaded BLAS: the work is batched pointwise numpy,
# and on a 2-core machine OpenBLAS threads only spin (sweep-N12 took 10.1 s
# with the default threads against 8.2 s with one, using 1.7x the CPU time).
INSTANCE_THREADS = {name: "1" for name in THREAD_VARIABLES}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def source_digest():
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "instance_thread_env": INSTANCE_THREADS,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


class Runner:
    """Starts instance processes one at a time inside one deadline."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.started = time.perf_counter()
        self.records = []
        self.notes = []
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([SOURCE, BENCH_DIR]),
                        **INSTANCE_THREADS)

    def elapsed(self):
        return time.perf_counter() - self.started

    def spawn(self, workload=None, flags=()):
        """One instance process; returns its record (failed ones included)."""
        workload = workload or self.workload
        out = tempfile.mkdtemp(prefix=workload + "-", dir=self.work_dir)
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("no time left for another instance")
        command = [sys.executable, INSTANCE, "--workload", workload,
                   "--seed", str(self.seed), "--out", out, *flags, "--spawned-at"]
        began = time.perf_counter()
        try:
            proc = subprocess.run(command + [repr(began)], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("instance of %s did not end within %.0f s" % (workload, timeout))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            record = json.loads(lines[-1])
        else:
            tail = proc.stderr.strip().splitlines()[-3:]
            record = {"workload": workload, "seed": self.seed, "traced": "--trace" in flags,
                      "failures": ["instance process exited %d: %s"
                                   % (proc.returncode, " | ".join(tail))],
                      "digest": None}
        record["process_s"] = time.perf_counter() - began
        record["out"] = out
        self.records.append(record)
        return record


def verified(record):
    return "wall_s" in record and not record["failures"] and record["digest"] is not None


def timed_run(runner, seconds):
    """End-to-end metrics from untraced instances; returns (instances, metrics, checks)."""
    instances = []
    while True:
        instances.append(runner.spawn())
        per_instance = statistics.median(r["process_s"] for r in instances)
        if runner.elapsed() + per_instance > seconds:
            break
    setups = [r["setup_s"] for r in instances if "setup_s" in r]
    checks = []
    while len(setups) < SETUP_SAMPLES:
        extra = runner.spawn(flags=("--setup-only",))
        if "setup_s" not in extra:
            checks.append("set-up-only process failed: " + "; ".join(extra["failures"]))
            break
        setups.append(extra["setup_s"])

    good = [r for r in instances if verified(r)]
    runner.notes.append("wall_s and peak_rss_mb: medians of %d verified of %d instances; "
                        "setup_s: median of %d set-ups" % (len(good), len(instances), len(setups)))
    if len({r["digest"] for r in good}) > 1:
        checks.append("artifact digests differ between instances of one seed")
    metrics = {
        # a failed instance never counts toward wall_s; 0 only when none verified
        "wall_s": statistics.median(r["wall_s"] for r in good) if good else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good) if good else 0.0,
        "verified_frac": len(good) / len(instances),
    }
    return instances, metrics, checks


def traced_run(runner):
    """Per-layer metrics from one traced instance; returns (instances, metrics, checks)."""
    traced = runner.spawn(flags=("--trace",))
    plain = runner.spawn()
    sweep_1 = plain if runner.workload == "sweep-N12" else runner.spawn("sweep-N12")
    sweep_2 = runner.spawn("sweep-N12", flags=("--workers", "2"))
    instances = [traced, plain] + ([] if sweep_1 is plain else [sweep_1]) + [sweep_2]

    checks = list(traced.get("invariants", []))
    if traced["digest"] != plain["digest"]:
        checks.append("traced artifact %s != untraced artifact %s"
                      % (traced["digest"], plain["digest"]))
    if sweep_1["digest"] != sweep_2["digest"]:
        checks.append("sweep.json differs between workers=1 and workers=2")
    metrics = dict(traced.get("layers", {}))
    if verified(traced) and verified(plain):
        metrics["trace.overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    if verified(sweep_1) and verified(sweep_2):
        metrics["cli.sweep.workers2_speedup"] = sweep_1["wall_s"] / sweep_2["wall_s"]
    metrics["sup_error"] = traced.get("values", {}).get("sup_error", 0.0)
    spans = os.path.join(traced["out"], "spans.json")
    if os.path.exists(spans):
        shutil.copyfile(spans, os.path.join(
            RUNS, "%s-seed%d-spans.json" % (runner.workload, runner.seed)))
    return instances, metrics, checks


def describe(record):
    if "wall_s" not in record:
        if "setup_s" in record:
            return "%s set-up only: setup %.3f s" % (record["workload"], record["setup_s"])
        return "%s: %s" % (record["workload"], "; ".join(record["failures"]))
    status = "ok" if verified(record) else "FAILED: " + "; ".join(record["failures"])
    return ("%s%s%s: wall %.3f s, setup %.3f s, peak %.1f MB, %s=%s, %s"
            % (record["workload"], " traced" if record.get("traced") else "",
               " workers=%d" % record["workers"] if record.get("workers", 1) > 1 else "",
               record["wall_s"], record["setup_s"], record.get("peak_rss_mb", 0.0),
               record["artifact"], (record["digest"] or "-")[:16], status))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(PACKAGE, "__init__.py")):
        print("benchmark error: no nformpde sources under %s" % SOURCE, file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end

    os.makedirs(RUNS, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=RUNS)
    try:
        runner = Runner(args.workload, args.seed, work_dir)
        if args.trace:
            instances, metrics, checks = traced_run(runner)
        else:
            instances, metrics, checks = timed_run(runner, args.seconds)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = sorted(set(declared) - set(metrics))
    if missing or set(metrics) - set(declared):
        checks.append("metrics %s missing, %s undeclared"
                      % (missing, sorted(set(metrics) - set(declared))))
    failed = sum(1 for r in instances if not verified(r))
    meta = metadata()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "metadata": meta, "checks": checks,
              "instances": [{k: v for k, v in r.items() if k not in ("out", "layers")}
                            for r in runner.records],
              "metrics": metrics}
    with open(os.path.join(RUNS, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print("# metadata %s" % json.dumps(meta, sort_keys=True))
    for r in runner.records:
        print("# " + describe(r))
    for note in runner.notes:
        print("# " + note)
    for check in checks:
        print("# CHECK FAILED: " + check)
    values = instances[0].get("values", {})
    if "sup_error" in values and not args.trace:
        print("# sup_error %.10e (max |phi - phi*|)" % values["sup_error"])
    for name in sorted(metrics):
        if name in declared:
            print("# %s = %r %s" % (name, metrics[name], declared[name]))
    result = {
        "correct": failed == 0 and not checks,
        "attempted": len(instances),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
