"""The repo's end-to-end benchmark (see README.md and BENCHMARK.json).

Run ``python -m benchmarks.e2e --help`` from the repository root.
"""
