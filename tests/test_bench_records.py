"""Every committed BENCH_*.json record carries what a performance claim needs:
paired parent/change runs per workload with medians and quartiles of each
end-to-end metric, the run metadata, and the traced seed-0 counts."""

import glob
import json
import os
import re

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [w["name"] for w in spec["workloads"]], [m["name"] for m in spec["end_to_end"]]


def test_bench_records_hold_pairs_quartiles_metadata_and_traced_counts():
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths, "no BENCH_*.json at the repository root"
    workloads, metrics = declared()
    for path in paths:
        with open(path) as handle:
            record = json.load(handle)
        meta = record["metadata"]
        for key in ("parent_sha", "change_sha"):
            assert re.fullmatch(r"[0-9a-f]{40}", meta[key]), (path, key)
        assert meta["parent_sha"] != meta["change_sha"], path
        assert isinstance(meta["nproc"], int) and meta["nproc"] >= 1, path
        assert meta["numpy"] and meta["scipy"], path
        assert isinstance(meta["blas_threads"], int) and meta["blas_threads"] >= 1, path
        for name in workloads:
            entry = record["workloads"][name]
            runs = entry["runs"]
            assert entry["pairs"] == len(runs) >= 10, (path, name)
            # the side that runs first alternates
            firsts = [run["first"] for run in runs]
            assert set(firsts) == set(SIDES) and all(a != b for a, b in zip(firsts, firsts[1:]))
            for metric in metrics:
                summary = entry["metrics"][metric]
                for side in SIDES:
                    values = [run[side][metric] for run in runs]
                    q1, median, q3 = np.percentile(values, [25, 50, 75])
                    stats = summary[side]
                    assert stats["q1"] <= stats["median"] <= stats["q3"], (path, name, metric)
                    assert np.allclose([stats["q1"], stats["median"], stats["q3"]],
                                       [q1, median, q3], rtol=1e-12, atol=0.0), (path, name)
            traced = record["traced_seed0"][name]
            for side in SIDES:
                counts = traced[side]
                assert counts["correct"] is True and counts["check_failed"] == [], (path, name)
                for key in ("solver.newton_steps", "solver.krylov.matvecs",
                            "auxiliary.krylov.matvecs", "grid.complex_hessian.calls"):
                    assert isinstance(counts[key], int) and counts[key] >= 0, (path, name, key)
        claim = record["claim"]
        assert claim["metric"] in metrics and claim["workload"] in workloads, path
        assert isinstance(claim["met"], bool), path
