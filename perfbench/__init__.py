"""Benchmark for paralie: three workloads, end-to-end metrics and a traced
per-module run.  See perfbench/README.md; entry point perfbench/run.py."""
