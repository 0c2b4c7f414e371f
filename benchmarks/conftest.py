"""Benchmark-suite configuration.

Run with ``pytest benchmarks/ --benchmark-only``.  Each ``bench_*.py``
module also has a ``main()`` printing the paper-style scaling series
(fitted log-log slopes); ``python benchmarks/run_all.py`` prints them
all.  The end-to-end benchmark with absolute numbers is declared by
``BENCHMARK.json`` and documented in ``benchmarks/e2e/README.md``.
"""

collect_ignore = ["run_all.py"]
