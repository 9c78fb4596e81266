"""The repository benchmark: seeded workloads, end-to-end and layer metrics.

Run ``python3 catebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics.  See ``catebench/run.py`` for what one run does.
"""
