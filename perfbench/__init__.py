"""Benchmark of the mrlab laboratory: workloads, output checker, tracer and layer sweep."""
