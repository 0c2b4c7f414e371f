"""Per-layer metrics of a traced run, derived from the tracer's cells.

A layer is a ``repro`` module; each metric is named after it and says,
in README.md, which end-to-end metric it should move.  A workload that
never crosses a layer reports 0 for it -- that is a measurement too:
it is how the four workloads are shown to separate the layers.

Units are per call, per document or per byte wherever a seam is
called a varying number of times, so a value does not change merely
because a faster build fitted more ops into the phase.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any

from repro.mongo.aggregate import compile_pipeline
from repro.query.stages import run_stages

from benchmarks.e2e import datagen
from benchmarks.e2e.trace import per_us

#: Every per-layer metric, in report order (units: BENCHMARK.json).
NAMES = (
    "ingest.docs_per_s",
    "model.from_values_us_per_doc",
    "model.to_value_us_per_doc",
    "indexes.add_us_per_doc",
    "indexes.entries_per_doc",
    "indexes.delta_us_per_update",
    "summary.observe_us_per_doc",
    "first_query_ms",
    "validate.bulk_us_per_doc",
    "frontend.compile_us",
    "cache.hit_ratio",
    "optimizer.plan_us",
    "optimizer.share_of_op",
    "optimizer.verdict_empty_share",
    "optimizer.verdict_all_share",
    "optimizer.verdict_residual_share",
    "optimizer.verdict_none_share",
    "optimizer.verify_calls_per_result",
    "prover.unsat_us",
    "planner.candidates_us",
    "planner.candidates_per_result",
    "planner.survivor_walk_us",
    "planner.verify_us_per_survivor",
    "aggregate.compile_us",
    "aggregate.execute_ms",
    "aggregate.rows_into_stages_ratio",
    "stages.group_us_per_row",
    "stages.sort_us_per_row",
    "stages.unwind_us_per_row",
    "stages.project_us_per_row",
    "update.compile_us",
    "update.select_us",
    "update.apply_us_per_doc",
    "wal.append_us",
    "wal.bytes_per_user_byte",
    "wal.fsyncs_per_write",
    "wal.fsync_us",
    "io.writes_per_write",
    "io.bytes_per_write",
    "io.fsync_dirs",
    "durable.reopen_wal_s",
    "durable.replay_docs_per_s",
    "durable.recover_share",
    "durable.checkpoint_s",
    "durable.snapshot_bytes_per_doc",
    "durable.reopen_snapshot_s",
    "durable.stored_bytes_per_user_byte",
    "durability.lost_acked",
    "snapshot.pin_us",
    "snapshot.pins_per_write",
    "protocol.decode_us",
    "protocol.encode_us_per_kb",
    "protocol.response_bytes_mean",
    "server.rtt_floor_us",
    "server.overhead_ms",
    "server.write_wait_ms",
    "server.group_commit_batch_mean",
    "trace.overhead_ratio",
    "trace.coverage",
)

_WRITE_CLASSES = ("write", "multi")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _cell(cells: dict, name: str) -> dict:
    return cells.get(name) or {"calls": 0, "units": 0, "total_s": 0.0, "self_s": 0.0}


def metrics(
    *, spec: Any, docs: int, setup: dict, setup_cells: dict, timed: Any, extras: dict
) -> dict[str, float]:
    """Every name in :data:`NAMES`, from one traced run.

    ``setup_cells`` cover ingest and the first query, ``extras["cells"]``
    the traced half of the timed phase (for ``served-mixed``: the
    server child's side of it).
    """
    cells = extras["cells"]
    out = dict.fromkeys(NAMES, 0.0)
    op_wall = sum(latency for _, _, latency in timed.samples)
    writes = sum(
        1 for template, _, _ in timed.samples if spec.mix[template][1] in _WRITE_CLASSES
    )

    # Ingest and the first query (set-up).
    out["ingest.docs_per_s"] = docs / setup["ingest_s"]
    out["model.from_values_us_per_doc"] = per_us(setup_cells, "model.from_values", "units")
    out["indexes.add_us_per_doc"] = per_us(setup_cells, "indexes.add")
    out["summary.observe_us_per_doc"] = per_us(setup_cells, "summary.observe")
    out["validate.bulk_us_per_doc"] = per_us(setup_cells, "validate.bulk", "units")
    out["first_query_ms"] = 1e3 * setup["first_query_s"]
    out["indexes.entries_per_doc"] = extras.get("entries_per_doc", 0.0)

    # The read path.
    out["model.to_value_us_per_doc"] = per_us(cells, "model.to_value")
    out["frontend.compile_us"] = per_us(cells, "frontend.compile")
    hits, misses = extras["cache"]
    out["cache.hit_ratio"] = _ratio(hits, hits + misses)
    plan = _cell(cells, "optimizer.plan")
    out["optimizer.plan_us"] = per_us(cells, "optimizer.plan")
    out["optimizer.share_of_op"] = _ratio(plan["total_s"], op_wall)
    verdicts = plan.get("tally", {})
    planned = sum(n for kind, n in verdicts.items() if kind != "unplanned")
    for kind in ("empty", "all", "residual", "none"):
        out[f"optimizer.verdict_{kind}_share"] = _ratio(verdicts.get(kind, 0), planned)
    out["prover.unsat_us"] = per_us(cells, "prover.unsat")
    walk = _cell(cells, "planner.walk")
    out["optimizer.verify_calls_per_result"] = _ratio(
        extras["verify_calls"], walk["units"]
    )
    out["planner.candidates_us"] = per_us(cells, "planner.candidates")
    out["planner.candidates_per_result"] = _ratio(
        _cell(cells, "planner.candidates")["units"], walk["units"]
    )
    out["planner.survivor_walk_us"] = _ratio(walk["self_s"], walk["calls"]) * 1e6
    out["planner.verify_us_per_survivor"] = per_us(cells, "planner.verify")

    # Aggregation.
    execute = _cell(cells, "aggregate.execute")
    out["aggregate.compile_us"] = per_us(cells, "aggregate.compile")
    out["aggregate.execute_ms"] = per_us(cells, "aggregate.execute") / 1e3
    rows_in = _cell(cells, "model.to_value").get("callers", {}).get(
        "aggregate.execute", 0
    )
    out["aggregate.rows_into_stages_ratio"] = _ratio(rows_in, execute["calls"] * docs)
    for stage, cost in extras.get("stages", {}).items():
        out[f"stages.{stage}_us_per_row"] = cost

    # The write path.
    apply = _cell(cells, "update.apply")
    select = _cell(cells, "update.select")
    out["indexes.delta_us_per_update"] = per_us(cells, "indexes.delta")
    out["update.compile_us"] = per_us(cells, "update.compile")
    out["update.select_us"] = _ratio(select["self_s"], select["calls"]) * 1e6
    out["update.apply_us_per_doc"] = _ratio(apply["self_s"], apply["units"]) * 1e6
    out["wal.append_us"] = per_us(cells, "wal.append")
    io = extras.get("io", {})
    out["wal.fsyncs_per_write"] = _ratio(io.get("fsyncs", 0), writes)
    out["io.writes_per_write"] = _ratio(io.get("writes", 0), writes)
    out["io.bytes_per_write"] = _ratio(io.get("bytes_written", 0), writes)
    out["io.fsync_dirs"] = float(io.get("fsync_dirs", 0))
    if extras.get("fsync_seconds"):
        out["wal.fsync_us"] = 1e6 * statistics.median(extras["fsync_seconds"])
    if "user_bytes" in extras:
        out["wal.bytes_per_user_byte"] = _ratio(extras["wal_bytes"], extras["user_bytes"])

    # Durable lifecycle.
    if "reopen_wal_s" in setup:
        out["durable.reopen_wal_s"] = setup["reopen_wal_s"]
        out["durable.replay_docs_per_s"] = docs / setup["reopen_wal_s"]
        out["durable.recover_share"] = _ratio(
            _cell(setup_cells, "durable.recover")["total_s"], setup["reopen_wal_s"]
        )
    if "checkpoint_s" in extras:
        out["durable.checkpoint_s"] = extras["checkpoint_s"]
        out["durable.reopen_snapshot_s"] = extras["reopen_snapshot_s"]
        out["durable.snapshot_bytes_per_doc"] = extras["snapshot_bytes"] / docs
        out["durable.stored_bytes_per_user_byte"] = _ratio(
            extras["stored_bytes"], extras["user_bytes"]
        )
    out["durability.lost_acked"] = float(extras.get("lost_acked", 0))

    # Serving.
    out["snapshot.pin_us"] = per_us(cells, "snapshot.pin")
    out["protocol.decode_us"] = per_us(cells, "protocol.decode")
    encode = _cell(cells, "protocol.encode")
    out["protocol.encode_us_per_kb"] = _ratio(encode["total_s"] * 1e6, encode["units"] / 1024)
    out["protocol.response_bytes_mean"] = _ratio(encode["units"], encode["calls"])
    if "server" in extras:
        server = extras["server"]
        out["snapshot.pins_per_write"] = _ratio(server["snapshot_pins"], server["writes"])
        out["server.group_commit_batch_mean"] = _ratio(
            server["batched_writes"], server["group_commits"]
        )
        out["server.rtt_floor_us"] = 1e6 * extras["rtt_floor_s"]
        reads = [s for s in timed.samples if spec.mix[s[0]][1] == "point"]
        updates = [s for s in timed.samples if s[0] == "update_inc_set"]
        out["server.overhead_ms"] = 1e3 * (
            statistics.median(latency for _, _, latency in reads)
            - _cell(cells, "snapshot.read").get("p50_s", 0.0)
        )
        out["server.write_wait_ms"] = 1e3 * (
            statistics.median(latency for _, _, latency in updates)
            - select.get("p50_s", 0.0)
        )

    out["trace.overhead_ratio"] = extras["overhead_ratio"]
    if timed.wall:
        out["trace.coverage"] = timed.covered / timed.wall
    else:  # served: the child's busy time against what the clients waited
        busy = sum(entry["self_s"] for entry in cells.values())
        out["trace.coverage"] = _ratio(busy, op_wall)
    return out


def served_extras(before: dict, after: dict, stats_before: dict, stats_after: dict) -> dict:
    """Deltas over the traced half of a served phase: the child's
    counters (``before``/``after`` answers of its control pipe) and the
    server's own ``stats`` op."""
    counters_before, counters_after = before["counters"], after["counters"]
    return {
        "cells": after["cells"],
        "cache": (
            counters_after["cache_hits"] - counters_before["cache_hits"],
            counters_after["cache_misses"] - counters_before["cache_misses"],
        ),
        "verify_calls": counters_after["verify_calls"] - counters_before["verify_calls"],
        "io": {
            key: counters_after["io"][key] - counters_before["io"][key]
            for key in counters_after["io"]
        },
        "fsync_seconds": after["fsync_seconds"],
        "entries_per_doc": after["entries_per_doc"],
        "server": {
            key: stats_after[key] - stats_before[key]
            for key in ("snapshot_pins", "writes", "batched_writes", "group_commits")
        },
    }


def entries_per_doc(collection: Any, sample: int = 100) -> float:
    """Mean index entries held per document (first ``sample`` ids)."""
    indexes = collection.indexes
    ids = collection.doc_ids()[:sample]
    return _ratio(sum(len(indexes.entry_counts(doc_id)) for doc_id in ids), len(ids))


def stage_costs(collection: Any) -> dict[str, float]:
    """Microseconds per input row of each blocking/reshaping stage,
    driven directly over materialised rows (no planner, no to_value)."""
    rows = collection.find({})
    stages = {
        "group": compile_pipeline(datagen.PIPELINES["group_city"]).stages[0],
        "unwind": compile_pipeline(datagen.PIPELINES["unwind_tags"]).stages[0],
        "project": compile_pipeline(datagen.PIPELINES["city_top_scores"]).stages[0],
        "sort": compile_pipeline(
            [{"$sort": {"score": -1, "user": 1}}]
        ).stages[0],
    }
    costs = {}
    for name, stage in stages.items():
        started = perf_counter()
        for _ in run_stages([stage], iter(rows)):
            pass
        costs[name] = (perf_counter() - started) / len(rows) * 1e6
    return costs
