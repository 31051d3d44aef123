"""Benchmark of the spintorus command line: workloads, oracle gates and a span tracer.

Run it from the repository root as ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
