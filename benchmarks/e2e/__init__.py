"""End-to-end runtime benchmark: five DOALL/pipeline workloads.

Run it with ``python3 benchmarks/e2e/run.py``; see ``README.md`` here.
"""
