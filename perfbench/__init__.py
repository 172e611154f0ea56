"""The repository benchmark: seeded campaign workloads through the public API.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints its metrics; ``BENCHMARK.json`` at the
repository root lists the workloads and metrics.  Nothing here is
imported by the library: the benchmark drives ``repro`` from the outside
and, in a traced run, wraps calls into each layer from these files.
"""
