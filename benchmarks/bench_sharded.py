"""F6 -- Sharded scatter-gather: 4-shard parallel vs one collection.

Reproduction target: hash-partitioning a collection across a worker
pool must buy near-linear scaling on the workloads that dominate bulk
document serving -- ingest (per-shard index builds run concurrently)
and selective ``$match`` + ``$group`` aggregation (each shard prunes
through its own postings, folds survivors map-side, and only partial
accumulator states cross the process boundary).  Over >= 1M documents
the 4-shard pool must be >= 2.5x faster than the single-collection
path on both -- with results differentially identical, pinned by
``tests/test_sharded.py`` and re-asserted here.

The floor only binds where the hardware can show it: comparing 4-way
parallelism against one core measures the machine, not the code, so
the gate requires >= 4 CPUs and a started worker pool (CI's runners
have 4).  The identity checks always run.
"""

from __future__ import annotations

import gc
import os
import random
import time

import pytest

from repro.mongo.aggregate import compile_pipeline
from repro.reference.harness import format_table, measure, smoke_mode
from repro.store import ShardedCollection
from repro import api

DOCS = 2_000 if smoke_mode() else 1_000_000
SHARDS = 4

#: The pinned scaling floor (4 shards vs the single-collection path).
FLOOR = 2.5

_CITIES = [f"city{index:02d}" for index in range(20)]


def _documents(count: int) -> list[dict]:
    """Flat 4-field records: heavy enough to index, cheap to pickle
    (the batches cross the worker pipes during sharded ingest)."""
    rng = random.Random(97)
    return [
        {
            "user": index,
            "age": rng.randrange(18, 90),
            "city": _CITIES[rng.randrange(len(_CITIES))],
            "score": rng.randrange(10_000),
        }
        for index in range(count)
    ]


# A 1-in-20 equality: the city postings prune ~95% of every shard
# before any value-space work, the $group folds survivors map-side and
# only ~70 partial states per shard reach the coordinator.
GROUP_PIPELINE = [
    {"$match": {"city": "city07"}},
    {
        "$group": {
            "_id": "$age",
            "n": {"$count": {}},
            "avg_score": {"$avg": "$score"},
        }
    },
    {"$sort": {"_id": 1}},
]

# Order-sensitive merge: per-shard sorted runs, k-way heap merge, with
# the $skip+$limit window truncating each run map-side.
TOPK_PIPELINE = [
    {"$match": {"city": "city07"}},
    {"$sort": {"score": -1, "user": 1}},
    {"$skip": 5},
    {"$limit": 25},
]


def _gate_active(parallel: bool) -> bool:
    return parallel and (os.cpu_count() or 1) >= SHARDS


def _measure_all() -> dict:
    """Build both sides sequentially (never resident together -- the
    1M-doc index is the memory hog), timing ingest and the pipelines.
    """
    docs = _documents(DOCS)
    repeat = 1 if smoke_mode() else 3
    group = compile_pipeline(GROUP_PIPELINE)
    topk = compile_pipeline(TOPK_PIPELINE)

    started = time.perf_counter()
    single = api.collection(docs)
    single_ingest = time.perf_counter() - started
    single_group = measure(lambda: group.execute(single), repeat=repeat)
    expected_group = group.execute(single)
    expected_topk = topk.execute(single)
    del single
    gc.collect()

    started = time.perf_counter()
    sharded = ShardedCollection(docs, shards=SHARDS)
    sharded_ingest = time.perf_counter() - started
    try:
        parallel = sharded.parallel
        sharded_group = measure(lambda: group.execute(sharded), repeat=repeat)
        # Differential identity: scatter-gather is an execution
        # strategy, never a semantics change.
        assert group.execute(sharded) == expected_group
        assert topk.execute(sharded) == expected_topk
        assert len(sharded) == DOCS
        report = sharded.explain_aggregate(GROUP_PIPELINE)
        assert report.merge == "group-merge", report
        assert len(report.shards) == SHARDS, report
        # Every shard must prune through its own postings.
        assert all(shard.used_indexes for shard in report.shards), report
        assert all(shard.scanned < shard.total for shard in report.shards)
    finally:
        sharded.close()
    return {
        "parallel": parallel,
        "single_ingest": single_ingest,
        "sharded_ingest": sharded_ingest,
        "single_group": single_group,
        "sharded_group": sharded_group,
    }


#: Measured ratios of the last speedups call (recorded by
#: ``run_all.py --check-targets --json`` for the CI delta table).
LAST_SPEEDUPS: dict[str, float] = {}

#: Whether the last speedups call ran with an enforceable gate
#: (worker pool up, >= SHARDS CPUs).
LAST_GATE_ACTIVE = False


def speedups() -> dict[str, float]:
    """Single-collection / 4-shard ratios (used by tests and CI)."""
    global LAST_GATE_ACTIVE
    timings = _measure_all()
    measured = {
        f"bulk ingest ({DOCS} docs, {SHARDS} shards)": (
            timings["single_ingest"] / timings["sharded_ingest"]
        ),
        f"$match+$group ({DOCS} docs, {SHARDS} shards)": (
            timings["single_group"] / timings["sharded_group"]
        ),
    }
    LAST_GATE_ACTIVE = _gate_active(timings["parallel"])
    LAST_SPEEDUPS.clear()
    LAST_SPEEDUPS.update(measured)
    return measured


def check_targets() -> list[str]:
    """Pinned-target regression check (``run_all.py --check-targets``)."""
    measured = speedups()  # identity checks run unconditionally
    if not LAST_GATE_ACTIVE:
        return []
    return [
        f"bench_sharded: {label} sharded speedup "
        f"{ratio:.1f}x < {FLOOR}x target"
        for label, ratio in measured.items()
        if ratio < FLOOR
    ]


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (pytest benchmarks/ --benchmark-only).
# The entries cap the corpus so an interactive pytest run stays quick;
# the pinned 1M-doc gate lives in check_targets/CI.
# ---------------------------------------------------------------------------

_BENCH_DOCS = min(DOCS, 20_000)


@pytest.fixture(scope="module")
def _bench_pair():
    docs = _documents(_BENCH_DOCS)
    single = api.collection(docs)
    sharded = ShardedCollection(docs, shards=SHARDS)
    yield single, sharded
    sharded.close()


def test_single_collection_aggregate(benchmark, _bench_pair):
    single, _ = _bench_pair
    compiled = compile_pipeline(GROUP_PIPELINE)
    results = benchmark(lambda: compiled.execute(single))
    assert results


def test_sharded_aggregate(benchmark, _bench_pair):
    single, sharded = _bench_pair
    compiled = compile_pipeline(GROUP_PIPELINE)
    results = benchmark(lambda: compiled.execute(sharded))
    assert results == compiled.execute(single)


@pytest.mark.skipif(smoke_mode(), reason="timings are meaningless in smoke mode")
def test_sharded_speedup_target():
    assert not check_targets(), LAST_SPEEDUPS


def main() -> str:
    timings = _measure_all()
    rows = [
        (
            f"bulk ingest ({DOCS} docs)",
            timings["single_ingest"],
            timings["sharded_ingest"],
        ),
        (
            f"$match+$group, 1-in-20 eq ({DOCS} docs)",
            timings["single_group"],
            timings["sharded_group"],
        ),
    ]
    table = format_table(
        f"F6 / sharded scatter-gather: {SHARDS}-shard worker pool vs the "
        f"single-collection path (target: >= {FLOOR}x on >= 4 CPUs)",
        ["workload", "1 collection", f"{SHARDS} shards", "speedup"],
        [
            [label, f"{cold:.3f} s", f"{warm:.3f} s", f"{cold / warm:.1f}x"]
            for label, cold, warm in rows
        ],
    )
    mode = "parallel" if timings["parallel"] else "serial fallback"
    table += f"\n(worker pool: {mode}; cpus: {os.cpu_count()})"
    if not _gate_active(timings["parallel"]):
        table += (
            f"\n(gate inactive: needs a started pool and >= {SHARDS} CPUs "
            "-- identity checks still enforced)"
        )
    return table


if __name__ == "__main__":
    print(main())
