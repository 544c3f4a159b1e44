"""Benchmark of posetzeta: workloads, output checks and tracing."""
