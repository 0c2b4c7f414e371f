"""Print every experiment's table: the paper-shape scaling series and
the pinned ratio gates.  (Absolute end-to-end and per-layer numbers are
the job of ``BENCHMARK.json`` / ``benchmarks/e2e/README.md``.)

Usage::

    python benchmarks/run_all.py          # print all experiment tables
    python benchmarks/run_all.py --smoke  # CI smoke: run everything, fast

Smoke mode (also reachable via ``REPRO_BENCH_SMOKE=1``) truncates every
series to its two smallest sizes and drops repeats to 1 -- the numbers
are meaningless, but every script still executes end to end, so CI
catches perf-script rot without minutes of timing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

MODULES = [
    "bench_model_navigation",
    "bench_prop1_det_eval",
    "bench_prop2_sat3",
    "bench_prop3_recursive_eval",
    "bench_prop4_counter_machines",
    "bench_prop5_nondet_sat",
    "bench_prop6_jsl_eval",
    "bench_prop7_qbf",
    "bench_prop9_recursive_eval",
    "bench_prop10_recursive_sat",
    "bench_theorem1_schema_jsl",
    "bench_theorem2_translations",
    "bench_streaming",
    "bench_frontends",
    "bench_compiled_queries",
    "bench_schema_validation",
    "bench_collection_queries",
    "bench_aggregation",
    "bench_updates",
    "bench_durability",
    "bench_sharded",
    "bench_server",
    "bench_ablations",
    "bench_optimizer",
]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: tiny sizes, single repeats, meaningless numbers",
    )
    parser.add_argument(
        "--check-targets",
        action="store_true",
        help="run every registered benchmark's pinned-target check "
        "(real timings) and exit non-zero on any regression",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="with --check-targets: also write the gate's verdict "
        "(checked modules, failures) as JSON (uploaded as a CI artifact)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        # Must be set before the bench modules import (module-level
        # setup) and call into repro.reference.harness.
        os.environ["REPRO_BENCH_SMOKE"] = "1"

    import importlib

    here = __file__.rsplit("/", 1)[0]
    sys.path.insert(0, here)
    try:  # installed package, or PYTHONPATH already set
        importlib.import_module("repro")
    except ImportError:  # clean checkout: fall back to the src/ layout
        sys.path.insert(0, f"{here}/../src")

    if args.check_targets:
        # A benchmark registers a pinned target by defining
        # ``check_targets() -> list[str]`` (failure messages, empty when
        # the target holds).  A miss is re-measured once before failing,
        # so one noisy-neighbour timing on a shared CI runner cannot
        # sink the build while a persistent regression still does.
        failures: list[str] = []
        checked: list[str] = []
        remeasured: list[str] = []
        speedups: dict[str, dict[str, float]] = {}
        for name in MODULES:
            module = importlib.import_module(name)
            check = getattr(module, "check_targets", None)
            if check is None:
                continue
            checked.append(name)
            first_try = check()
            if first_try:
                for failure in first_try:
                    print(f"target missed, re-measuring: {failure}")
                remeasured.append(name)
                failures.extend(check())
            # Benchmarks expose the ratios their last check measured
            # via LAST_SPEEDUPS; the artifact records them so CI can
            # diff speedups against the previous run (warn-only).
            measured = getattr(module, "LAST_SPEEDUPS", None)
            if measured:
                speedups[name] = dict(measured)
        if args.json:
            # The artifact records exactly the verdict this gate
            # reached -- never a separate re-measurement, which would
            # double the runtime and could disagree with the gate.
            import json

            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "mode": "check-targets",
                        "checked": checked,
                        "remeasured": remeasured,
                        "failures": failures,
                        "ok": not failures,
                        "speedups": speedups,
                    },
                    handle,
                    indent=2,
                )
            print(f"(wrote {args.json})")
        if failures:
            for failure in failures:
                print(f"TARGET REGRESSION: {failure}")
            sys.exit(1)
        print(f"all pinned benchmark targets hold ({len(checked)} checked)")
        return

    started = time.perf_counter()
    for name in MODULES:
        module = importlib.import_module(name)
        print(module.main())
        print()
    print(f"(total wall time: {time.perf_counter() - started:.1f} s)")


if __name__ == "__main__":
    main()
