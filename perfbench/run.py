"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload restore-youtube-rc500 --seed 1 \\
        --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``ops_per_s``,
``peak_rss_mb``, ``l1_proposed``) of whole passes over the workload's fixed
ops, as many as it takes for the timed rounds to reach ``--seconds`` (one
pass at today's speed); ``--trace 1`` prints the per-layer
metrics of a separate traced run and writes its spans under
``.perfbench/``.  ``--tiny`` shrinks every input for the self-test.  The
last line of standard output is the result object; a ``machine-speed``
line before it times a fixed Python and numpy loop before and after the
workload, so drift of the machine can be told apart from the program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time

# Steadiness hygiene, before numpy is first imported: one BLAS/OpenMP
# thread, and no global override of the library's ``auto`` dispatch.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
os.environ.pop("REPRO_BACKEND", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("restore-youtube-rc500", "evaluate-table3", "serve-youtube-rc50")

# (name, unit) of every per-layer metric; op-phase spans are per traced op,
# set-up spans (load, truth) per set-up
SPAN_METRICS = {
    "engine.freeze_s": "engine.freeze",
    "sampling.random_walk_s": "sampling.random_walk",
    "sampling.bfs_s": "sampling.bfs",
    "sampling.snowball_s": "sampling.snowball",
    "sampling.forest_fire_s": "sampling.forest_fire",
    "sampling.subgraph_s": "sampling.subgraph",
    "estimators.local_s": "estimators.local",
    "restore.degree_vector_s": "restore.degree_vector",
    "restore.jdm_s": "restore.jdm",
    "dk.construction_s": "dk.construction",
    "dk.rewiring_s": "dk.rewiring",
    "metrics.degree_distribution_s": "metrics.degree_distribution",
    "metrics.neighbor_connectivity_s": "metrics.neighbor_connectivity",
    "metrics.clustering_s": "metrics.clustering",
    "metrics.degree_clustering_s": "metrics.degree_clustering",
    "metrics.shared_partners_s": "metrics.shared_partners",
    "metrics.paths_s": "metrics.paths",
    "metrics.betweenness_s": "metrics.betweenness",
    "metrics.eigenvalue_s": "metrics.eigenvalue",
    "experiments.aggregate_s": "experiments.aggregate",
    "trace.residual_s": "op",
}
COUNT_METRICS = (
    "sampling.queried_nodes",
    "dk.rewiring_attempts",
    "dk.rewiring_accepted",
    "dk.rewiring_python_runs",
    "dk.rewiring_csr_runs",
    "experiments.truth_hits",
    "experiments.truth_misses",
)
# figures a workload measures itself, outside the spans (median of samples)
SAMPLED_METRICS = {
    "trace.overhead_s": "s",
    "api.sweep_overhead_s": "s",
    "service.hit_p50_s": "s",
    "service.miss_p50_s": "s",
    "service.overhead_s": "s",
    "service.cache_hits": "count",
    "service.cache_misses": "count",
    "service.coalesced": "count",
}


def machine_speed() -> dict[str, float]:
    """Seconds for a fixed pure-Python loop and a fixed numpy loop."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    data = np.arange(1_000_000, dtype=np.float64)[::-1].copy()
    for _ in range(10):
        np.sort(data)
    t2 = time.perf_counter()
    return {"python_s": t1 - t0, "numpy_s": t2 - t1}


def per_layer(tracer, extra: dict, import_s: float) -> dict[str, tuple[float, str]]:
    ops = tracer.totals(ops=True)
    setup = tracer.totals(ops=False)
    n = max(1, extra["ops"])
    out = {
        "repro.import_s": (import_s, "s"),
        "graph.load_dataset_s": (setup.get("graph.load_dataset", 0.0), "s"),
        "metrics.truth_s": (setup.get("metrics.truth", 0.0), "s"),
    }
    for metric, span in SPAN_METRICS.items():
        out[metric] = (ops.get(span, 0.0) / n, "s")
    for name in COUNT_METRICS:
        out[name] = (tracer.counts.get(name, 0) / n, "count")
    attempts = tracer.counts.get("dk.rewiring_attempts", 0)
    accepted = tracer.counts.get("dk.rewiring_accepted", 0)
    rewiring = ops.get("dk.rewiring", 0.0)
    out["dk.rewiring_accept_ratio"] = (accepted / attempts if attempts else 0.0, "ratio")
    out["dk.rewiring_us_per_attempt"] = (1e6 * rewiring / attempts if attempts else 0.0, "us")
    for metric, unit in SAMPLED_METRICS.items():
        key = "overheads" if metric == "trace.overhead_s" else metric
        samples = extra.get(key) or [0.0]
        out[metric] = (statistics.median(samples), unit)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, import_s: float):
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS, Ledger, NullTracer, peak_rss_mb

    ledger = Ledger()
    w = WORKLOADS[workload](seed, ledger, tiny=tiny)
    try:
        if trace:
            tracer = Tracer()
            w.reset()
            w.setup(tracer)
            extra = w.trace(seconds, tracer, time.perf_counter())
            os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
            tracer.write(os.path.join(ROOT, ".perfbench", f"trace-{workload}-{seed}.jsonl"))
            metrics = per_layer(tracer, extra, import_s)
            completed = extra["ops"]
        else:
            # set-ups alternate with timed rounds, so the timed ops are spread
            # over the whole run instead of one stretch of the host's speed;
            # whole passes only, so every run times the same ops
            setups, timed, completed, i = [], 0.0, 0, 0
            while i == 0 or timed < seconds:
                for _ in range(w.rounds_per_pass):
                    w.reset()
                    t0 = time.perf_counter()
                    w.setup(NullTracer())
                    t1 = time.perf_counter()
                    completed += w.round(i)
                    timed += time.perf_counter() - t1
                    setups.append(t1 - t0)
                    i += 1
            rss = peak_rss_mb()
            l1 = w.verify()
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (completed / timed, "1/s"),
                "peak_rss_mb": (rss, "MB"),
                "l1_proposed": (l1, "L1"),
            }
    finally:
        w.close()
    ledger.report()
    correct = ledger.failed == 0 and not ledger.run_errors and completed > 0
    out_metrics = {}
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            correct = False
            value = None
        out_metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": out_metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    t0 = time.perf_counter()
    try:
        import repro  # noqa: F401
        import repro.api  # noqa: F401
        import repro.service  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the repro package from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    before = machine_speed()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, import_s)
    after = machine_speed()
    print("machine-speed " + json.dumps({"before": before, "after": after}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
