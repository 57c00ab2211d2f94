"""The repository benchmark: workloads, span tracing and output checks.

Run it with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/README.md`` for the workloads, the metrics and their units.
"""
