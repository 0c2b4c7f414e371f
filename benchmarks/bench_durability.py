"""F7 -- Durable storage engine: WAL overhead, replay, compaction.

Reproduction target: durability must be a bounded tax, not a rewrite of
the performance story.  Three measurements:

* **WAL ingest overhead** -- per-commit inserts through a
  :class:`~repro.store.durable.DurableEngine` (``sync="flush"``: the
  process-crash durability point) vs the same commits on a memory
  engine.  Pinned ceiling: <= 5x the memory engine.  Since the
  fault-injection PR every byte routes through an
  :class:`~repro.store.faults.IOAdapter`; that indirection is part of
  the measured hot path and must fit inside the same unchanged gate.
* **Replay throughput** -- reopening a collection whose entire state
  lives in the WAL (no snapshot); reported as documents/second,
  unpinned (absolute numbers are machine noise).
* **Compaction win** -- reopening from a checkpointed snapshot vs
  replaying the equivalent long WAL (inserts plus update churn).
  Pinned floor: snapshot-open >= 3x faster.
* **Fresh data (no churn)** -- the case the churn scenario hides: the
  same documents ingested in one batch, reopened by WAL replay and
  reopened from a checkpoint.  All three rebuild trees and postings
  from plain values (the one recovery path), so the timings are
  reported, not pinned; what is pinned is the snapshot's size --
  values only, <= 2x the documents as raw JSON lines.

Recovered state is re-checked against the memory-engine result and the
from-scratch index oracle before any timing is trusted --
``tests/test_durability.py`` pins the same equivalences exhaustively.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import tempfile

import pytest

from repro.reference.harness import format_table, measure, smoke_mode
from repro.reference.workloads import people_collection
from repro.store import Collection, DocumentIndexes, DurableEngine
from repro import api

DOCS = 60 if smoke_mode() else 2_000

#: The compaction scenario: modest live state behind a long log of
#: update churn.  Replay cost scales with log length, snapshot-open
#: cost with live state -- the gap *is* what compaction buys.
CHURN_DOCS = 20 if smoke_mode() else 150
CHURN_ROUNDS = 3 if smoke_mode() else 150

_PEOPLE = people_collection(DOCS, seed=31)
_CHURN = people_collection(CHURN_DOCS, seed=13)

#: Pinned ratios: ingest overhead is a ceiling (durable may cost at
#: most this multiple of memory), compaction win is a floor.
INGEST_OVERHEAD_CEILING = 5.0
COMPACTION_WIN_FLOOR = 3.0
SNAPSHOT_BYTES_CEILING = 2.0

#: Measured ratios of the last check_targets()/speedups() call.
LAST_SPEEDUPS: dict[str, float] = {}


def _durable(directory: str, **kwargs) -> Collection:
    kwargs.setdefault("sync", "flush")
    return Collection(engine=DurableEngine(directory, "main", **kwargs))


def _ingest_per_commit(collection: Collection) -> None:
    for doc in _PEOPLE:
        collection.insert(copy.deepcopy(doc))


def _measure_ingest() -> tuple[float, float]:
    memory = measure(
        lambda: _ingest_per_commit(api.collection()), repeat=3
    )

    def durable_run() -> None:
        with tempfile.TemporaryDirectory() as scratch:
            collection = _durable(scratch)
            _ingest_per_commit(collection)
            collection.close()

    return memory, measure(durable_run, repeat=3)


def _churn(collection: Collection) -> None:
    for _ in range(CHURN_ROUNDS):
        collection.update_many({}, {"$inc": {"counters.visits": 1}})


def _build_wal_only(directory: str) -> None:
    """State carried entirely by the log: one insert, heavy churn."""
    collection = _durable(directory)
    collection.insert_many(copy.deepcopy(_CHURN))
    _churn(collection)
    collection.close()


def _reopen(directory: str, documents: int = CHURN_DOCS) -> Collection:
    collection = _durable(directory)
    assert len(collection) == documents
    collection.close()
    return collection


def _measure_recovery() -> tuple[float, float, float]:
    """(replay seconds, snapshot-open seconds, values/sec replayed)."""
    with tempfile.TemporaryDirectory() as scratch:
        wal_dir = os.path.join(scratch, "wal-only")
        snap_dir = os.path.join(scratch, "compacted")
        _build_wal_only(wal_dir)
        shutil.copytree(wal_dir, snap_dir)
        compacted = _durable(snap_dir)
        report = compacted.compact()
        assert report.wal_records == 1 + CHURN_ROUNDS
        compacted.close()

        replay = measure(lambda: _reopen(wal_dir), repeat=3)
        snapshot = measure(lambda: _reopen(snap_dir), repeat=3)
    # Replay folds one post-image per document per churn round.
    replayed_values = CHURN_DOCS * (1 + CHURN_ROUNDS)
    return replay, snapshot, replayed_values / replay


def _ingest_batch(directory: str) -> None:
    collection = _durable(directory)
    collection.insert_many(copy.deepcopy(_PEOPLE))
    collection.close()


def _measure_fresh() -> tuple[float, float, float, float]:
    """(ingest s, WAL-replay open s, snapshot open s, snapshot bytes /
    raw JSON-lines bytes) over the same ``DOCS`` never-updated documents."""

    def ingest() -> None:
        with tempfile.TemporaryDirectory() as fresh:
            _ingest_batch(fresh)

    with tempfile.TemporaryDirectory() as scratch:
        wal_dir = os.path.join(scratch, "wal-only")
        snap_dir = os.path.join(scratch, "compacted")
        _ingest_batch(wal_dir)
        shutil.copytree(wal_dir, snap_dir)
        compacted = _durable(snap_dir)
        snapshot_bytes = compacted.compact().snapshot_bytes
        compacted.close()
        timings = (
            measure(ingest, repeat=3),
            measure(lambda: _reopen(wal_dir, DOCS), repeat=3),
            measure(lambda: _reopen(snap_dir, DOCS), repeat=3),
        )
    raw_bytes = sum(
        len(json.dumps(doc, separators=(",", ":"))) + 1 for doc in _PEOPLE
    )
    return (*timings, snapshot_bytes / raw_bytes)


def _check_recovered_state_identical() -> None:
    """The durable collection must reopen to exactly the state the
    memory engine computes, with oracle-consistent indexes."""
    reference = api.collection(copy.deepcopy(_CHURN))
    _churn(reference)
    with tempfile.TemporaryDirectory() as scratch:
        _build_wal_only(scratch)
        recovered = _durable(scratch)
        assert [tree.to_value() for _, tree in recovered.documents()] == [
            tree.to_value() for _, tree in reference.documents()
        ]
        fresh = DocumentIndexes()
        for doc_id, tree in recovered.documents():
            fresh.add(doc_id, tree)
        assert recovered.indexes.snapshot() == fresh.snapshot()
        recovered.close()


def speedups() -> dict[str, float]:
    """Measured ratios (overhead is durable/memory, win is
    replay/snapshot, bytes is snapshot file/raw JSON lines)."""
    _check_recovered_state_identical()
    memory, durable_time = _measure_ingest()
    replay, snapshot, _rate = _measure_recovery()
    measured = {
        "wal ingest overhead (x memory)": durable_time / memory,
        "compaction win (x replay)": replay / snapshot,
        "snapshot bytes (x raw json lines)": _measure_fresh()[3],
    }
    LAST_SPEEDUPS.clear()
    LAST_SPEEDUPS.update(measured)
    return measured


def check_targets() -> list[str]:
    """Pinned-target regression check (``run_all.py --check-targets``)."""
    measured = speedups()
    failures = []
    overhead = measured["wal ingest overhead (x memory)"]
    if overhead > INGEST_OVERHEAD_CEILING:
        failures.append(
            f"bench_durability: WAL ingest overhead {overhead:.1f}x > "
            f"{INGEST_OVERHEAD_CEILING:.0f}x ceiling"
        )
    win = measured["compaction win (x replay)"]
    if win < COMPACTION_WIN_FLOOR:
        failures.append(
            f"bench_durability: compacted-snapshot open {win:.1f}x < "
            f"{COMPACTION_WIN_FLOOR:.0f}x floor over WAL replay"
        )
    size = measured["snapshot bytes (x raw json lines)"]
    if size > SNAPSHOT_BYTES_CEILING:
        failures.append(
            f"bench_durability: snapshot is {size:.2f}x the raw JSON lines "
            f"> {SNAPSHOT_BYTES_CEILING:.0f}x ceiling"
        )
    return failures


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (pytest benchmarks/ --benchmark-only).
# ---------------------------------------------------------------------------


def test_durable_ingest(benchmark):
    def run():
        with tempfile.TemporaryDirectory() as scratch:
            _ingest_batch(scratch)

    benchmark(run)


def test_replay_on_open(benchmark, tmp_path):
    _build_wal_only(str(tmp_path))
    benchmark(lambda: _reopen(str(tmp_path)))


@pytest.mark.skipif(smoke_mode(), reason="timings are meaningless in smoke mode")
def test_durability_targets():
    assert not check_targets(), speedups()


def main() -> str:
    _check_recovered_state_identical()
    memory, durable_time = _measure_ingest()
    replay, snapshot, rate = _measure_recovery()
    fresh_ingest, fresh_replay, fresh_snapshot, size = _measure_fresh()
    assert size <= SNAPSHOT_BYTES_CEILING, f"snapshot {size:.2f}x raw JSON lines"
    commits = DOCS
    table = format_table(
        "F7 / durable engine: WAL ingest, replay-on-open, compaction "
        f"(ceilings: ingest <= {INGEST_OVERHEAD_CEILING:.0f}x memory; "
        f"snapshot open >= {COMPACTION_WIN_FLOOR:.0f}x replay; "
        f"snapshot <= {SNAPSHOT_BYTES_CEILING:.0f}x raw bytes)",
        ["measurement", "memory / snapshot", "durable / replay", "ratio"],
        [
            [
                f"per-commit ingest, {commits} commits",
                f"{memory * 1e3:.2f} ms",
                f"{durable_time * 1e3:.2f} ms",
                f"{durable_time / memory:.1f}x overhead",
            ],
            [
                f"open {CHURN_DOCS} docs, {CHURN_ROUNDS}-round churn log",
                f"{snapshot * 1e3:.2f} ms",
                f"{replay * 1e3:.2f} ms",
                f"{replay / snapshot:.1f}x win",
            ],
            [
                f"open {DOCS} fresh docs (no churn)",
                f"{fresh_snapshot * 1e3:.2f} ms",
                f"{fresh_replay * 1e3:.2f} ms",
                f"{fresh_replay / fresh_snapshot:.1f}x",
            ],
        ],
    )
    table += f"\n(WAL replay throughput: {rate:,.0f} post-images/s folded)"
    table += (
        f"\n(fresh data: one-batch ingest {fresh_ingest * 1e3:.2f} ms = "
        f"{DOCS / fresh_ingest:,.0f} docs/s; snapshot is {size:.2f}x the "
        "raw JSON lines)"
    )
    return table


if __name__ == "__main__":
    print(main())
