"""Benchmark of the slimadapt pipeline: closed-loop workloads, output
checks, and per-layer spans recorded from outside the library."""
