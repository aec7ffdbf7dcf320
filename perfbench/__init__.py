"""The dtalloc benchmark: seeded workloads, known answers and span tracing.

Run one workload with ``python3 perfbench/run.py --workload corpus --seed 1
--seconds 30 --trace 0`` from the repository root; ``BENCHMARK.json`` lists
the workloads and the metrics the last output line carries.
"""
