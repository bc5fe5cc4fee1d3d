"""End-to-end and per-layer benchmark of sievelab, driven from outside.

Run ``python3 -m sievebench.run --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see BENCHMARK.json for the
workloads and metrics and RECORD.md for the first measured record.
"""
