"""Latency arithmetic shared by every workload.

A timed phase yields ``(template, start offset, latency)`` samples and
is cut into ``WINDOWS`` equal windows.  Every statistic is computed per
window and the **fastest window** is reported.

Why not the median of the windows: on a shared box a neighbour slows
everything by 10-30% for tens of seconds at a time (measured: a fixed
pure-Python loop shows the same swings), which is longer than a window
and often longer than half a run, so the median window is a disturbed
one in a third of all runs.  Interference only ever adds time; the
fastest window is the best estimate of the undisturbed program, and it
repeats across runs where the median does not (README, "Steadiness").
A window still holds every kind of op many times over, so costs the
program causes itself (snapshot re-pins, collector pauses) stay in.
"""

from __future__ import annotations

import resource
import statistics
from typing import Callable

WINDOWS = 10

Sample = tuple[str, float, float]  # template, seconds into the phase, seconds
Mix = dict[str, tuple[int, str]]  # template -> (ops per lap, latency class)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def fastest_window(
    samples: list[Sample], span: float, statistic: Callable[[list[float]], float]
) -> float:
    """``statistic`` of each window's latencies; the smallest of them."""
    windows: list[list[float]] = [[] for _ in range(WINDOWS)]
    for _, offset, latency in samples:
        windows[min(WINDOWS - 1, int(WINDOWS * offset / span))].append(latency)
    return min(statistic(window) for window in windows if window)


def per_template(
    samples: list[Sample],
    mix: Mix,
    klass: str | None,
    span: float,
    statistic: Callable[[list[float]], float],
) -> float:
    """One class's typical latency: ``statistic`` of each template (in
    its fastest window), averaged with the mix weights; ``klass=None``
    takes every template.

    Pooling a class first would let one template speak for all: the
    pooled median sits inside whichever template straddles the 50%
    mark, and halving the cost of ``find{user}`` would not move it.
    """
    total = weights = 0.0
    for template, (weight, template_class) in mix.items():
        if klass is None or template_class == klass:
            own = [sample for sample in samples if sample[0] == template]
            total += weight * fastest_window(own, span, statistic)
            weights += weight
    return total / weights


def class_p50(samples: list[Sample], mix: Mix, klass: str, span: float) -> float:
    return per_template(samples, mix, klass, span, statistics.median)


def class_tail(
    samples: list[Sample], mix: Mix, klass: str, q: float, span: float
) -> float:
    """The ``q``-quantile of one class, pooled, in its fastest window."""
    pooled = [sample for sample in samples if mix[sample[0]][1] == klass]
    return fastest_window(pooled, span, lambda window: quantile(window, q))


def closed_loop_rate(samples: list[Sample], mix: Mix, span: float, callers: int) -> float:
    """Ops per second of ``callers`` closed loops: callers over the mean
    latency of a lap.  Built from per-template means so that a window
    which happened to hold the cheap templates cannot win."""
    return callers / per_template(samples, mix, None, span, statistics.fmean)


def peak_rss_mb() -> float:
    """This process's high-water resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
