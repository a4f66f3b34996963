"""The RF-IDraw end-to-end benchmark: workloads, tracing and statistics.

``perfbench/run.py`` is the entry point; see ``perfbench/README.md``.
"""
