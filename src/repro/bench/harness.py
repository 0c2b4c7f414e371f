"""Shared benchmark harness: timing series, slope fits, tables.

Every experiment in ``benchmarks/`` reports a *series* -- runtime
against a size parameter -- and, where the paper states an asymptotic,
the fitted log-log slope (1.0 = linear, 2.0 = quadratic, ...).  The
absolute numbers are machine-dependent; the *shape* is the
reproduction target.  (Absolute end-to-end numbers belong to the
benchmark ``BENCHMARK.json`` declares; see ``benchmarks/e2e/README.md``.)
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = [
    "SeriesPoint",
    "smoke_mode",
    "measure",
    "measure_amortised",
    "run_series",
    "loglog_slope",
    "format_table",
]


@dataclass
class SeriesPoint:
    x: int
    seconds: float


def smoke_mode() -> bool:
    """Is the suite running in CI smoke mode (``REPRO_BENCH_SMOKE=1``)?

    Smoke mode exists so CI can *execute* every benchmark script end to
    end -- catching import errors, renamed APIs and broken workloads --
    without paying for statistically meaningful timings: repeats drop
    to 1 and series are truncated to their two smallest sizes.
    """
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def measure(fn: Callable[[], object], *, repeat: int = 3) -> float:
    """Best-of-``repeat`` wall time of ``fn()`` in seconds."""
    if smoke_mode():
        repeat = 1
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_amortised(
    fn: Callable[[], object], *, calls: int = 200, repeat: int = 3
) -> float:
    """Best-of-``repeat`` *per-call* wall time over a loop of ``calls``.

    The amortised figure is what a compiled/cached execution path is
    judged on: one-time costs (parsing, automaton construction) divide
    out across the loop, per-call costs do not.
    """
    if smoke_mode():
        calls, repeat = min(calls, 5), 1
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / calls


def run_series(
    sizes: Iterable[int],
    make_input: Callable[[int], object],
    run: Callable[[object], object],
    *,
    repeat: int = 3,
) -> list[SeriesPoint]:
    """Time ``run`` over inputs of growing size (setup not timed)."""
    sizes = list(sizes)
    if smoke_mode():
        sizes, repeat = sizes[:2], 1
    points: list[SeriesPoint] = []
    for size in sizes:
        prepared = make_input(size)
        seconds = measure(lambda: run(prepared), repeat=repeat)
        points.append(SeriesPoint(size, seconds))
    return points


def loglog_slope(points: Sequence[SeriesPoint]) -> float:
    """Least-squares slope of log(time) against log(size).

    Uses numpy when available, otherwise a closed-form fit.
    """
    xs = [math.log(point.x) for point in points if point.seconds > 0]
    ys = [math.log(point.seconds) for point in points if point.seconds > 0]
    if len(xs) < 2:
        return float("nan")
    try:
        import numpy

        slope, _intercept = numpy.polyfit(xs, ys, 1)
        return float(slope)
    except Exception:  # pragma: no cover - numpy is installed in CI
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        den = sum((x - mean_x) ** 2 for x in xs)
        return num / den if den else float("nan")


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """An aligned plain-text table (the bench scripts' output format)."""
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells))
        if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)
