"""One workload instance in a process of its own.

    python3 perfbench/instance.py --workload solve-N24 --seed 0 --out DIR \
        [--spawned-at T] [--trace] [--workers K] [--setup-only]

Needs the checkout's ``src`` and ``perfbench`` directories on PYTHONPATH
(``run.py`` sets them).  Prints one JSON object as its last line: set-up
and wall time, peak resident memory, failed checks, checked values, the
artifact's sha256 and, with ``--trace``, the per-layer metrics and the
tracer's count-invariant failures (the spans go to ``DIR/spans.json``).

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux both read the system-wide monotonic clock,
so ``setup_s`` then includes interpreter start-up and ``import nformpde``.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import nformpde
import tracer as tracing
import workloads

SPANS_FILE = "spans.json"


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_instance(workload, seed, out_dir, traced=False, workers=1, setup_only=False,
                 started=None):
    """Set up and run one instance; returns the record ``main`` prints.

    ``started`` is the perf_counter value set-up time counts from; by
    default the call itself.
    """
    if started is None:
        started = time.perf_counter()
    tracer = tracing.Tracer().install() if traced else None
    try:
        inputs = workloads.make_inputs(workload, seed)
        state = workloads.setup(workload, inputs)
        ready = time.perf_counter()
        record = {"workload": workload, "seed": seed, "traced": traced, "workers": workers,
                  "setup_s": ready - started}
        if setup_only:
            return record
        if tracer is not None:
            tracer.phase = "run"
        failures, values = workloads.run(workload, state, out_dir, workers=workers)
        wall_s = time.perf_counter() - ready
    finally:
        if tracer is not None:
            tracer.restore()
    artifact = os.path.join(out_dir, workloads.ARTIFACT[workload])
    record.update({
        "wall_s": wall_s,
        "failures": failures,
        "values": values,
        "artifact": workloads.ARTIFACT[workload],
        "digest": sha256(artifact) if os.path.exists(artifact) else None,
    })
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, wall_s)
        record["invariants"] = tracer.invariants()
        with open(os.path.join(out_dir, SPANS_FILE), "w") as handle:
            json.dump(tracer.span_dicts(), handle)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    source = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.commonpath([os.path.abspath(nformpde.__file__), source]) != source:
        print("nformpde was imported from %s, not from %s" % (nformpde.__file__, source),
              file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    record = run_instance(args.workload, args.seed, args.out, traced=args.trace,
                          workers=args.workers, setup_only=args.setup_only,
                          started=args.spawned_at)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
