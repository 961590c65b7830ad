"""Benchmark for setmeet: time to verdict end to end, split by module.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a checkout.  See ``WORKLOADS.md`` for
why each workload exists and which layer metric should move which
end-to-end metric.
"""
