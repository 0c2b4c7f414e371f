"""Durability: the WAL + snapshot engine behind ``StorageEngine``.

Covers the tentpole acceptance criteria explicitly: a durable
collection survives a restart with every secondary-index table
identical to a from-scratch rebuild (the consistency oracle), and
truncating the WAL mid-frame recovers the longest committed prefix
without an error.  Around those: the frame format (CRC, torn tails,
foreign files), the commit ordering invariant (schema rejections leave
no disk trace), versioned snapshots, log compaction (including an
interrupted one), the :class:`repro.store.Database` factory, and the
deprecation shim on engineless ``Collection(...)`` construction.

The randomised crash-recovery suite scales with ``REPRO_DIFF_SCALE``
(the nightly CI job runs it at ~20x the per-PR iteration counts).
"""

from __future__ import annotations

import copy
import json
import os
import random
import struct
import zlib

import pytest

from repro.errors import DocumentRejectedError, StorageFormatError, StoreError
from repro.reference.workloads import people_collection
from repro.store import (
    Collection,
    Database,
    DocumentIndexes,
    DurableEngine,
    MemoryEngine,
    WriteAheadLog,
)
from repro.store.wal import WAL_MAGIC
from repro import api

_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))

PEOPLE = people_collection(40, seed=7)

SCHEMA = {
    "type": "object",
    "required": ["name"],
    "properties": {"age": {"type": "number", "maximum": 120}},
}


def durable(path, name="main", **kwargs):
    """A collection on a fresh DurableEngine (page-cache sync: the
    tests exercise process-crash recovery, not power loss)."""
    kwargs.setdefault("sync", "flush")
    documents = kwargs.pop("documents", ())
    schema = kwargs.pop("schema", None)
    engine = DurableEngine(os.fspath(path), name, **kwargs)
    return Collection(documents, schema=schema, engine=engine)


def values(collection: Collection) -> dict[int, object]:
    return {doc_id: tree.to_value() for doc_id, tree in collection.documents()}


def rebuilt(collection: Collection) -> DocumentIndexes:
    fresh = DocumentIndexes()
    for doc_id, tree in collection.documents():
        fresh.add(doc_id, tree)
    return fresh


def assert_oracle(collection: Collection) -> None:
    """Recovered indexes must equal a from-scratch rebuild, across all
    six posting tables (including per-document entry refcounts)."""
    assert collection.indexes.snapshot() == rebuilt(collection).snapshot()


def frame(payload: dict) -> bytes:
    """One wire-format WAL frame (for hand-crafting corrupt logs)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


class TestWALFormat:
    def test_append_reopen_replays_in_order(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, sync="flush")
        assert wal.lsn == 0
        assert wal.append({"op": "a"}) == 1
        assert wal.append({"op": "b", "n": 2}) == 2
        wal.close()
        reopened = WriteAheadLog(path, sync="flush")
        assert reopened.replayed == [
            {"lsn": 1, "op": "a"},
            {"lsn": 2, "op": "b", "n": 2},
        ]
        assert reopened.truncated_bytes == 0
        # The LSN sequence continues where the recovered tail left off.
        assert reopened.append({"op": "c"}) == 3
        reopened.close()

    def test_truncation_at_every_byte_offset(self, tmp_path):
        """Cutting the file at *any* offset recovers the longest
        committed prefix, silently."""
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, sync="flush")
        boundaries = [wal.size_bytes()]  # just the magic
        for index in range(4):
            wal.append({"op": "x", "i": index})
            boundaries.append(wal.size_bytes())
        wal.close()
        blob = open(path, "rb").read()
        assert len(blob) == boundaries[-1]
        for cut in range(len(blob) + 1):
            case = str(tmp_path / "cut.wal")
            with open(case, "wb") as handle:
                handle.write(blob[:cut])
            recovered = WriteAheadLog(case, sync="none")
            committed = sum(1 for edge in boundaries[1:] if edge <= cut)
            assert len(recovered.replayed) == committed, cut
            assert recovered.lsn == committed
            assert [r["i"] for r in recovered.replayed] == list(range(committed))
            recovered.close()
            # The torn tail was truncated away on disk, too.
            assert os.path.getsize(case) == max(
                boundaries[0], boundaries[committed]
            )

    def test_corrupt_middle_frame_drops_the_suffix(self, tmp_path):
        path = str(tmp_path / "log.wal")
        wal = WriteAheadLog(path, sync="flush")
        wal.append({"op": "keep"})
        second_starts = wal.size_bytes()
        wal.append({"op": "flipped"})
        wal.append({"op": "after"})
        wal.close()
        blob = bytearray(open(path, "rb").read())
        blob[second_starts + 12] ^= 0xFF  # a payload byte of frame 2
        with open(path, "wb") as handle:
            handle.write(blob)
        recovered = WriteAheadLog(path, sync="none")
        # Prefix semantics: the good frame *after* the corrupt one is
        # unreachable and is dropped with it.
        assert [r["op"] for r in recovered.replayed] == ["keep"]
        assert recovered.truncated_bytes > 0
        recovered.close()

    def test_foreign_file_is_refused_not_truncated(self, tmp_path):
        path = str(tmp_path / "notawal.bin")
        with open(path, "wb") as handle:
            handle.write(b"PNG\x89 definitely not ours, more than magic")
        with pytest.raises(StorageFormatError):
            WriteAheadLog(path)
        # Refusal must not have destroyed the foreign file.
        assert open(path, "rb").read().startswith(b"PNG\x89")

    def test_unknown_sync_mode_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            WriteAheadLog(str(tmp_path / "log.wal"), sync="eventually")


class TestDurableCollection:
    def test_restart_restores_documents_and_indexes(self, tmp_path):
        collection = durable(tmp_path, documents=copy.deepcopy(PEOPLE))
        collection.update_many(
            {"age": {"$gt": 30}}, {"$set": {"senior": "yes"}}
        )
        collection.remove(3)
        collection.insert({"name": "late", "age": 1})
        expected = values(collection)
        tables = collection.indexes.snapshot()
        collection.close()

        reopened = durable(tmp_path)
        assert values(reopened) == expected
        # Acceptance criterion: all index tables identical across the
        # restart, and equal to a from-scratch rebuild.
        assert reopened.indexes.snapshot() == tables
        assert_oracle(reopened)
        reopened.close()

    def test_doc_ids_and_tombstones_survive(self, tmp_path):
        collection = durable(tmp_path, documents=[{"k": 0}, {"k": 1}, {"k": 2}])
        collection.remove(1)
        collection.close()
        reopened = durable(tmp_path)
        assert reopened.doc_ids() == [0, 2]
        # Ids are never reused: the tombstone keeps its slot.
        assert reopened.insert({"k": 3}) == 3
        reopened.close()

    def test_queries_answer_identically_after_restart(self, tmp_path):
        collection = durable(tmp_path, documents=copy.deepcopy(PEOPLE))
        filter_doc = {"age": {"$gt": 25}, "hobbies": {"$size": 2}}
        before = collection.find(filter_doc)
        collection.close()
        reopened = durable(tmp_path)
        assert reopened.find(filter_doc) == before
        reopened.close()

    def test_schema_rejection_leaves_no_disk_trace(self, tmp_path):
        collection = durable(tmp_path, schema=SCHEMA)
        collection.insert({"name": "ok", "age": 10})
        clean = collection.engine.wal.size_bytes()
        with pytest.raises(DocumentRejectedError):
            collection.insert_many([{"name": "fine"}, {"age": 200}])
        # The WAL append happens *after* validation: the rejected batch
        # never touched the disk (nor, atomically, the first document).
        assert collection.engine.wal.size_bytes() == clean
        collection.close()
        reopened = durable(tmp_path, schema=SCHEMA)
        assert values(reopened) == {0: {"name": "ok", "age": 10}}
        reopened.close()

    def test_schema_enforced_against_recovered_state(self, tmp_path):
        collection = durable(tmp_path, schema=SCHEMA)
        collection.insert({"name": "ok"})
        collection.close()
        reopened = durable(tmp_path, schema=SCHEMA)
        with pytest.raises(DocumentRejectedError):
            reopened.insert({"age": 5})
        reopened.close()

    def test_engine_is_single_collection(self, tmp_path):
        engine = DurableEngine(str(tmp_path), sync="flush")
        first = Collection(engine=engine)
        with pytest.raises(StoreError):
            Collection(engine=engine)
        first.close()


class TestCompaction:
    def test_checkpoint_folds_wal_into_snapshot(self, tmp_path):
        collection = durable(tmp_path, documents=copy.deepcopy(PEOPLE))
        collection.update_many({}, {"$inc": {"age": 1}})
        expected = values(collection)
        report = collection.compact()
        assert report.wal_records == 2  # the insert batch + the update
        assert report.lsn == 2
        # The log is now empty (just the magic); state lives in the
        # snapshot.
        assert collection.engine.wal.size_bytes() == len(WAL_MAGIC)
        collection.close()
        reopened = durable(tmp_path)
        assert values(reopened) == expected
        assert_oracle(reopened)
        reopened.close()

    def test_auto_compaction_threshold(self, tmp_path):
        collection = durable(tmp_path, compact_threshold=5)
        for index in range(12):
            collection.insert({"n": index})
        # 12 commits with a threshold of 5: at least two checkpoints
        # happened and the log holds only the post-checkpoint tail.
        assert collection.engine.wal.records_since_reset < 5
        collection.close()
        reopened = durable(tmp_path)
        assert len(reopened) == 12
        assert_oracle(reopened)
        reopened.close()

    def test_replayed_backlog_counts_toward_threshold(self, tmp_path):
        collection = durable(tmp_path)
        for index in range(4):
            collection.insert({"n": index})
        collection.close()
        # Reopen with a threshold the existing backlog already exceeds:
        # the next commit must fold it.
        reopened = durable(tmp_path, compact_threshold=5)
        reopened.insert({"n": 4})
        assert reopened.engine.wal.records_since_reset == 0
        reopened.close()

    def test_interrupted_compaction_is_skipped_by_lsn(self, tmp_path):
        collection = durable(tmp_path, documents=[{"k": "a"}, {"k": "b"}])
        collection.update_many({"k": "a"}, {"$set": {"k": "z"}})
        stale_wal = open(str(tmp_path / "main.wal"), "rb").read()
        expected = values(collection)
        collection.compact()
        collection.close()
        # Simulate a crash between snapshot replace and WAL reset: the
        # old log (records the snapshot already covers) is still there.
        with open(str(tmp_path / "main.wal"), "wb") as handle:
            handle.write(stale_wal)
        reopened = durable(tmp_path)
        assert values(reopened) == expected
        assert_oracle(reopened)
        reopened.close()

    def test_lsn_continues_above_snapshot_after_reopen(self, tmp_path):
        """Regression: a freshly-reset WAL does not persist its base
        LSN, so a reopen must seed it from the snapshot's covering LSN
        -- or post-compaction commits get LSNs replay would skip as
        pre-snapshot, silently losing them on the *next* reopen."""
        collection = durable(tmp_path, documents=[{"k": 0}])
        collection.compact()  # snapshot covers LSN 1; WAL reset to empty
        collection.close()
        reopened = durable(tmp_path)
        assert reopened.engine.wal.lsn == 1
        reopened.insert({"k": 1})  # must be LSN 2, not a reissued LSN 1
        reopened.close()
        final = durable(tmp_path)
        assert values(final) == {0: {"k": 0}, 1: {"k": 1}}
        assert_oracle(final)
        final.close()

    def test_lsn_gap_in_committed_records_is_loud(self, tmp_path):
        with open(str(tmp_path / "main.wal"), "wb") as handle:
            handle.write(WAL_MAGIC)
            handle.write(frame({"lsn": 1, "op": "insert", "ids": [0], "docs": [{}]}))
            handle.write(frame({"lsn": 3, "op": "remove", "id": 0}))
        with pytest.raises(StorageFormatError):
            durable(tmp_path)

    def test_unknown_op_in_committed_record_is_loud(self, tmp_path):
        with open(str(tmp_path / "main.wal"), "wb") as handle:
            handle.write(WAL_MAGIC)
            handle.write(frame({"lsn": 1, "op": "defragment"}))
        with pytest.raises(StorageFormatError):
            durable(tmp_path)


class TestSnapshotVersioning:
    def test_snapshot_carries_format_and_version(self):
        collection = api.collection([{"a": 1}])
        snapshot = collection.snapshot()
        assert snapshot["format"] == "repro-collection-snapshot"
        assert snapshot["version"] == 1

    def test_roundtrip_through_from_snapshot(self):
        collection = api.collection(copy.deepcopy(PEOPLE))
        collection.remove(2)
        clone = Collection.from_snapshot(
            collection.snapshot(), engine=MemoryEngine()
        )
        assert values(clone) == values(collection)
        assert clone.doc_ids() == collection.doc_ids()
        assert clone.indexes.snapshot() == collection.indexes.snapshot()

    @pytest.mark.parametrize(
        "tamper",
        [
            {"version": 99},
            {"version": None},
            {"format": "repro-collection-snapshot-v2"},
            {"format": None},
        ],
    )
    def test_loader_refuses_unknown_format_or_version(self, tamper):
        snapshot = api.collection([{"a": 1}]).snapshot()
        snapshot.update(tamper)
        with pytest.raises(StorageFormatError):
            Collection.from_snapshot(snapshot, engine=MemoryEngine())

    # A version-1 payload as builds before the values-only snapshot
    # wrote it: per-document index refcounts ride along (document 2's
    # were never complete -- loaders always walked what was missing).
    OLD_PAYLOAD = {
        "format": "repro-collection-snapshot",
        "version": 1,
        "extended": False,
        "next_id": 3,
        "ops": 4,
        "docs": [[0, {"a": [5, 5], "b": "x"}], [2, {"a": [], "c": {"b": "x"}}]],
        "index_entries": {
            "0": [
                [["path", []], 1],
                [["kind", [], 0], 1],
                [["key", "a"], 1],
                [["path", ["a"]], 3],
                [["kind", ["a"], 1], 1],
                [["kind", ["a"], 3], 2],
                [["eq", ["a"], 5], 2],
                [["val", 5], 2],
                [["tail", "a", 5], 2],
                [["key", "b"], 1],
                [["path", ["b"]], 1],
                [["kind", ["b"], 2], 1],
                [["eq", ["b"], "x"], 1],
                [["val", "x"], 1],
                [["tail", "b", "x"], 1],
            ],
            "2": [[["path", []], 1]],
        },
    }

    def test_old_payload_with_index_entries_opens_like_one_without(self):
        bare = {
            key: value
            for key, value in self.OLD_PAYLOAD.items()
            if key != "index_entries"
        }
        opened = [
            Collection.from_snapshot(payload, engine=MemoryEngine())
            for payload in (self.OLD_PAYLOAD, bare, {**bare, "index_entries": None})
        ]
        for collection in opened:
            assert values(collection) == dict(self.OLD_PAYLOAD["docs"])
            assert collection.version == 4
            assert collection.insert({"n": 1}) == 3  # the tombstone layout held
            assert collection.indexes.snapshot() == opened[0].indexes.snapshot()
            assert_oracle(collection)

    def test_snapshot_is_values_only(self):
        collection = api.collection(copy.deepcopy(PEOPLE))
        snapshot = collection.snapshot()
        assert sorted(snapshot) == [
            "docs", "extended", "format", "next_id", "ops", "version",
        ]
        # What it costs on disk is the documents, give or take framing.
        raw = sum(len(json.dumps(doc, separators=(",", ":"))) for doc in PEOPLE)
        assert len(json.dumps(snapshot, separators=(",", ":"))) < 1.5 * raw

    def test_old_snapshot_file_checkpoint_reopen_fsck_roundtrip(self, tmp_path):
        from repro.store.durable import encode_snapshot_wrapper
        from repro.store.fsck import verify

        with open(str(tmp_path / "main.snapshot.json"), "wb") as handle:
            handle.write(encode_snapshot_wrapper(self.OLD_PAYLOAD, 4))
        assert verify(str(tmp_path)).ok  # (no WAL yet: a warning, not damage)
        collection = durable(tmp_path)
        assert values(collection) == dict(self.OLD_PAYLOAD["docs"])
        assert_oracle(collection)
        collection.update_many({}, {"$push": {"a": 5}})
        expected = values(collection)
        collection.compact()
        collection.close()
        wrapper = json.load(
            open(str(tmp_path / "main.snapshot.json"), encoding="utf-8")
        )
        assert "index_entries" not in wrapper["collection"]
        report = verify(str(tmp_path))
        assert report.ok and report.clean
        reopened = durable(tmp_path)
        assert values(reopened) == expected
        assert_oracle(reopened)
        reopened.close()

    def test_durable_snapshot_file_version_checked(self, tmp_path):
        collection = durable(tmp_path, documents=[{"a": 1}])
        collection.compact()
        collection.close()
        path = str(tmp_path / "main.snapshot.json")
        wrapper = json.load(open(path, encoding="utf-8"))
        wrapper["version"] = 2
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(wrapper, handle)
        with pytest.raises(StorageFormatError):
            durable(tmp_path)


class TestDatabase:
    def test_open_database_quickstart(self, tmp_path):
        with api.connect(tmp_path) as db:
            db.collection("people", documents=[{"name": "Sue"}, {"name": "Bob"}])
            db.collection("cities", documents=[{"city": "Oslo"}])
        with api.connect(tmp_path) as db:
            assert db.collection_names() == ["cities", "people"]
            assert len(db.collection("people")) == 2
            assert db.collection("cities").find({"city": "Oslo"})

    def test_memory_database_same_api(self):
        with Database() as db:
            assert not db.durable
            db.collection(documents=[{"a": 1}])
            assert db.collection_names() == ["main"]
            assert db.compact() == {}

    def test_handles_are_cached_per_name(self, tmp_path):
        with api.connect(tmp_path) as db:
            assert db.collection("x") is db.collection("x")
            with pytest.raises(StoreError):
                db.collection("x", schema=SCHEMA)

    def test_compact_sweeps_unopened_collections(self, tmp_path):
        with api.connect(tmp_path) as db:
            db.collection("a", documents=[{"n": 1}])
            db.collection("b", documents=[{"n": 2}])
        with api.connect(tmp_path) as db:
            reports = db.compact()
        assert sorted(reports) == ["a", "b"]
        assert all(report.lsn >= 1 for report in reports.values())

    def test_invalid_collection_name_rejected(self, tmp_path):
        with api.connect(tmp_path) as db:
            with pytest.raises(StoreError):
                db.collection("../escape")


class TestDeprecationShim:
    def test_blessed_spellings_do_not_warn(self, recwarn):
        api.collection([{"a": 1}])
        Collection([{"a": 1}], engine=MemoryEngine())
        # engine=None simply means a fresh MemoryEngine.
        assert isinstance(Collection([{"a": 1}]).engine, MemoryEngine)
        with api.connect() as db:
            db.collection(documents=[{"a": 1}])
        assert not [
            warning
            for warning in recwarn.list
            if issubclass(warning.category, DeprecationWarning)
        ]


def _random_op(rng, collection, mirror):
    """One committed mutation, applied to collection and mirror alike."""
    choice = rng.random()
    live = collection.doc_ids()
    if choice < 0.35 or not live:
        fresh = people_collection(rng.randrange(1, 4), seed=rng.randrange(9999))
        collection.insert_many(copy.deepcopy(fresh))
        mirror.extend(copy.deepcopy(fresh))
    elif choice < 0.55:
        victim = rng.choice(live)
        collection.remove(victim)
        mirror[victim] = None
    else:
        bound = rng.randrange(20, 60)
        result = collection.update_many(
            {"age": {"$gt": bound}},
            {"$inc": {"age": 1}, "$set": {"touched": "yes"}},
        )
        changed = 0
        for position, doc in enumerate(mirror):
            if doc is not None and doc.get("age", 0) > bound:
                doc["age"] += 1
                doc["touched"] = "yes"
                changed += 1
        assert result.matched_count == changed


class TestCrashRecovery:
    def test_truncation_at_every_frame_boundary(self, tmp_path):
        """The tentpole acceptance test: interrupt the workload at every
        WAL frame boundary; each cut recovers exactly the committed
        prefix of operations, with consistent indexes."""
        rng = random.Random(1234)
        workdir = tmp_path / "work"
        collection = durable(workdir)
        mirror: list = []
        boundaries = [collection.engine.wal.size_bytes()]
        states = [dict()]
        for _ in range(10 * _SCALE):
            _random_op(rng, collection, mirror)
            boundaries.append(collection.engine.wal.size_bytes())
            states.append(
                {
                    doc_id: copy.deepcopy(doc)
                    for doc_id, doc in enumerate(mirror)
                    if doc is not None
                }
            )
        collection.close()
        blob = open(str(workdir / "main.wal"), "rb").read()
        assert len(blob) == boundaries[-1]

        for step, edge in enumerate(boundaries):
            for cut in {edge, min(edge + 7, len(blob))}:
                casedir = tmp_path / f"case_{step}_{cut}"
                os.makedirs(casedir)
                with open(str(casedir / "main.wal"), "wb") as handle:
                    handle.write(blob[:cut])
                committed = max(
                    index
                    for index, boundary in enumerate(boundaries)
                    if boundary <= cut
                )
                recovered = durable(casedir)
                assert values(recovered) == states[committed], (step, cut)
                assert_oracle(recovered)
                recovered.close()

    def test_randomised_workload_with_restarts(self, tmp_path):
        """Many rounds of mutations with periodic restarts and
        compactions; the store must always equal the shadow model and
        pass the index oracle."""
        rng = random.Random(98)
        collection = durable(tmp_path, documents=copy.deepcopy(PEOPLE))
        mirror: list = copy.deepcopy(PEOPLE)
        for round_number in range(15 * _SCALE):
            _random_op(rng, collection, mirror)
            if rng.random() < 0.15:
                collection.compact()
            if rng.random() < 0.25:
                collection.close()
                collection = durable(tmp_path)
                expected = {
                    doc_id: doc
                    for doc_id, doc in enumerate(mirror)
                    if doc is not None
                }
                assert values(collection) == expected, round_number
                assert_oracle(collection)
        collection.close()
        reopened = durable(tmp_path)
        expected = {
            doc_id: doc for doc_id, doc in enumerate(mirror) if doc is not None
        }
        assert values(reopened) == expected
        assert_oracle(reopened)
        reopened.close()
