"""Quick self-test of the benchmark (about a minute on two CPUs)::

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and requires zero
failed ops, every check passing, traced outputs equal to untraced ones, and
exactly the metrics ``BENCHMARK.json`` declares.  Then corrupts one output
on purpose (one subgraph edge removed from a restored graph) and requires
that op to be reported failed.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run as bench  # noqa: E402  (sets thread env before numpy)
from perfbench.workloads import Ledger, NullTracer, RestoreWorkload  # noqa: E402


def declared() -> dict[bool, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {
        trace: {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for trace in (False, True)
    }


def check_tiny_runs() -> None:
    metrics = declared()
    for name in bench.WORKLOAD_NAMES:
        for trace in (False, True):
            result = bench.run(name, seed=3, seconds=0, trace=trace, tiny=True, import_s=0.0)
            label = f"{name} trace={int(trace)}"
            assert result["correct"], f"{label}: run-level check failed"
            assert result["failed"] == 0, f"{label}: {result['failed']} failed ops"
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == metrics[trace], f"{label}: metrics differ from BENCHMARK.json"
            print(f"ok  {label}: {result['attempted']} ops")


def check_corrupted_output_fails() -> None:
    ledger = Ledger()
    workload = RestoreWorkload(3, ledger, tiny=True)
    workload.reset()
    workload.setup(NullTracer())
    for i in range(len(workload.seeds)):
        workload.round(i)
    op_id, _, result = workload.results[0]
    u, v = next(iter(result.subgraph.graph.edges()))
    result.graph.remove_edge(u, v)
    workload.verify()
    messages = ledger.failures.get(op_id, [])
    assert any("subgraph edges missing" in m for m in messages), messages
    assert ledger.failed == 1, ledger.failures
    print(f"ok  corrupted output: {op_id} reported failed")


def main() -> int:
    check_tiny_runs()
    check_corrupted_output_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
