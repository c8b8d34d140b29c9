"""Benchmark for qbound: seeded workloads, correctness gates, and tracing.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md here.
"""
