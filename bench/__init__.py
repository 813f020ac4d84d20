"""The repo's benchmark: ``python -m bench`` (see ``bench/README.md``).

Four fixed-operation-count workloads, five speed-corrected end-to-end metrics
each, and a traced run plus kernel probes for the per-layer metrics.  The
contract of record (names, units, bounds) is ``BENCHMARK.json`` at the root.
"""
