"""Algorithm 1 benchmark: workloads, correctness gate and per-layer probes."""
