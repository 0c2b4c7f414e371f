"""Command line of the benchmark.

``--workload NAME`` runs one workload and prints a report followed, as
the last line of stdout, by the result object BENCHMARK.json describes:
with ``--trace 0`` every end-to-end metric, with ``--trace 1`` every
per-layer metric.  Without ``--workload`` each workload runs in its
own process (peak RSS is per process); ``--self-check`` runs each
twice and compares the two against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.e2e import workloads

DOCS = 20_000
QUICK_DOCS = 2_000
QUICK_SECONDS = 2.0


def _parser(default_seconds: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds",
        type=float,
        help=f"length of the timed phase (default {default_seconds:g}, "
        f"the run_seconds of BENCHMARK.json; {QUICK_SECONDS:g} with --quick)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: the traced run, reporting the per-layer metrics",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"{QUICK_DOCS} documents instead of {DOCS}: a smoke test, "
        "not a measurement",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="run every workload twice and compare against the bounds",
    )
    return parser


def _format(value: float) -> str:
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def _print_report(outcome: workloads.Outcome, metrics: dict, units: dict) -> None:
    report = outcome.report
    print(
        f"{report['workload']}: seed {report['seed']}, {report['docs']} documents, "
        f"{report['seconds']:g} s timed, {report['callers']} closed-loop caller(s)"
    )
    print(
        f"  machine: nproc {report['nproc']}, Python {report['python']}, "
        f"{report['platform']}"
    )
    print(f"  documents sha256 {report['documents_sha256']}")
    print(f"  op stream sha256 {report['stream_sha256']} (first 1000 ops)")
    for index, setup in enumerate(report["setups"]):
        parts = ", ".join(f"{key} {value:.3f}" for key, value in setup.items())
        print(f"  set-up {index + 1}: {parts}")
    print(
        f"  timed ops {report['timed_ops']}; tail_ms is "
        f"p{report['tail_percentile'] * 100:g}; per template:"
    )
    for template, row in report["templates"].items():
        p50 = "-" if row["p50_ms"] is None else _format(row["p50_ms"])
        print(
            f"    {template:18} {row['class']:7} {row['samples']:6d} samples  "
            f"p50 {p50} ms"
        )
    print(f"  ops attempted {outcome.attempted}, failed {outcome.failed}, "
          f"fail_ratio {outcome.failed / outcome.attempted:.6f}")
    for message in report["mismatches"]:
        print(f"  MISMATCH {message}")
    for name, value in metrics.items():
        print(f"  {name:40} {_format(value):>16} {units[name]}")


def run_one(args: argparse.Namespace, root: Path, seconds: float, declared: dict) -> int:
    scratch = root / ".bench_e2e"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        outcome = workloads.run(
            workloads.Config(
                workload=args.workload,
                seed=args.seed,
                seconds=seconds,
                trace=bool(args.trace),
                docs=QUICK_DOCS if args.quick else DOCS,
                workdir=workdir,
            )
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Units come from BENCHMARK.json: a metric it does not declare is a bug.
    if args.trace:
        metrics = outcome.per_layer
        units = {metric["name"]: metric["unit"] for metric in declared["per_layer"]}
        trace_path = scratch / f"trace-{args.workload}.json"
        trace_path.write_text(
            json.dumps({**outcome.report, "per_layer": metrics}, indent=1)
        )
        print(f"trace written to {trace_path.relative_to(root)}")
    else:
        metrics = outcome.end_to_end
        units = {metric["name"]: metric["unit"] for metric in declared["end_to_end"]}
    _print_report(outcome, metrics, units)
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if outcome.failed == 0 else 1


def _spawn(root: Path, args: argparse.Namespace, workload: str, seconds: float) -> dict:
    """One workload in a process of its own; returns its result object
    (and lets its report through)."""
    command = [
        sys.executable,
        str(Path(__file__).with_name("__main__.py")),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if done.returncode:
        print(lines[-1] if lines else "")
        raise SystemExit(f"{workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def self_check(root: Path, args: argparse.Namespace, seconds: float, bounds: dict) -> int:
    """Two runs of the same code must agree within the benchmark's own
    bounds on every end-to-end metric of every workload."""
    rows = []
    for workload in sorted(workloads.SPECS):
        first = _spawn(root, args, workload, seconds)
        second = _spawn(root, args, workload, seconds)
        for name, bound in bounds.items():
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            rows.append((workload, name, a, b, abs(a - b) / min(a, b), bound))
    print(f"{'workload':20} {'metric':20} {'first':>14} {'second':>14} spread bound")
    worst = 0
    for workload, name, a, b, spread, bound in rows:
        flag = "" if spread <= bound else "  EXCEEDS"
        worst += spread > bound
        print(
            f"{workload:20} {name:20} {_format(a):>14} {_format(b):>14} "
            f"{spread:6.1%} {bound:5.0%}{flag}"
        )
    return 1 if worst else 0


def main(root: Path) -> int:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    args = _parser(declared["run_seconds"]).parse_args()
    seconds = args.seconds or (QUICK_SECONDS if args.quick else declared["run_seconds"])
    if args.self_check:
        args.trace = 0
        bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
        return self_check(root, args, seconds, bounds)
    if args.workload:
        return run_one(args, root, seconds, declared)
    for workload in sorted(workloads.SPECS):
        _spawn(root, args, workload, seconds)
    return 0
