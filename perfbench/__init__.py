"""End-to-end and per-layer benchmark of the contention simulator.

``python3 perfbench/run.py`` is the entry point; ``perfbench/README.md``
documents the workloads, the metrics and how to read a traced run.
"""
