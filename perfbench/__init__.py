"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload per invocation through ``perfbench/run.py``; see
``perfbench/README.md`` for the workloads, metrics and reference figures.
"""
