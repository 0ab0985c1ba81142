"""The performance ledger: absolute end-to-end numbers, attributed to layers.

``python -m benchmarks.ledger`` runs the whole suite; ``run.py`` is the
single-workload entry point named in ``BENCHMARK.json``.  See ``README.md``.
"""
