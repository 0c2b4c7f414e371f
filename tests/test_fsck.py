"""The offline integrity verifier and repairer (``repro db verify``).

Every corruption class fsck distinguishes, verified end to end:

* clean directories verify clean (including empty and legacy ones);
* torn WAL tails are a *warning* (recovery handles them) and repair
  truncates back to the committed prefix;
* a flipped bit inside the snapshot payload trips the CRC32 self-check
  -- the loader falls back to full WAL replay (with a warning) when
  the log reaches back to LSN 1, refuses loudly when it does not, and
  repair quarantines (never deletes) the damaged file;
* LSN gaps and content-level garbage in well-formed frames are errors,
  repaired by truncating at the first offending record;
* foreign WAL files (bad magic) and leftover ``.tmp`` files are set
  aside whole;
* the CLI surface: ``db verify`` exits 0/1 on clean/corrupt, ``db
  repair`` prints its actions and re-verifies.

Repair is required to converge: after ``repair()``, ``verify()`` must
be clean, and the engine must be able to open the directory.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import pytest

from repro.cli import main
from repro.errors import StorageFormatError, StoreError
from repro.store import Collection, DurableEngine
from repro.store.fsck import repair, verify
from repro.store.wal import WAL_MAGIC
from repro import api


def durable(path, name="main", **kwargs):
    kwargs.setdefault("sync", "flush")
    documents = kwargs.pop("documents", ())
    engine = DurableEngine(os.fspath(path), name, **kwargs)
    return Collection(documents, engine=engine)


def values(collection: Collection) -> dict[int, object]:
    return {doc_id: tree.to_value() for doc_id, tree in collection.documents()}


def frame(payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return struct.pack(">II", len(body), zlib.crc32(body)) + body


def seeded(tmp_path, *, extra_after_compact=True):
    """A directory with a snapshot (3 docs) and, optionally, one
    post-checkpoint WAL record (a 4th doc)."""
    collection = durable(tmp_path)
    collection.insert_many([{"n": 1}, {"n": 2}, {"n": 3}])
    collection.compact()
    if extra_after_compact:
        collection.insert_many([{"n": 4}])
    collection.close()
    return str(tmp_path)


def corrupt_snapshot_payload(path, name="main"):
    """Flip document content inside the snapshot without breaking its
    JSON -- exactly what the CRC self-check exists to catch."""
    snapshot_path = os.path.join(path, f"{name}.snapshot.json")
    blob = open(snapshot_path, "rb").read()
    assert b'"n":1' in blob
    with open(snapshot_path, "wb") as handle:
        handle.write(blob.replace(b'"n":1', b'"n":9', 1))
    return snapshot_path


class TestVerifyClean:
    def test_fresh_directory_is_clean(self, tmp_path):
        path = seeded(tmp_path, extra_after_compact=False)
        report = verify(path)
        assert report.ok and report.clean
        [check] = report.collections
        assert check.name == "main"
        assert check.documents == 3
        assert check.snapshot_lsn == 1  # one insert batch folded in

    def test_wal_records_are_replayed_into_the_shadow(self, tmp_path):
        path = seeded(tmp_path)
        report = verify(path)
        assert report.ok
        [check] = report.collections
        assert check.documents == 4
        assert check.wal_frames == 1
        assert check.wal_last_lsn == 2

    def test_multiple_collections_and_name_filter(self, tmp_path):
        a = durable(tmp_path, "alpha", documents=[{"a": 1}])
        b = durable(tmp_path, "beta", documents=[{"b": 1}, {"b": 2}])
        a.close()
        b.close()
        report = verify(str(tmp_path))
        assert [c.name for c in report.collections] == ["alpha", "beta"]
        only = verify(str(tmp_path), "beta")
        assert [c.name for c in only.collections] == ["beta"]
        assert only.collections[0].documents == 2

    def test_not_a_directory_is_refused(self, tmp_path):
        with pytest.raises(StoreError):
            verify(str(tmp_path / "missing"))

    def test_stale_pre_snapshot_records_are_informational(self, tmp_path):
        """An interrupted compaction legitimately leaves covered
        records in the log; fsck notes them without flagging."""
        collection = durable(tmp_path)
        collection.insert_many([{"n": 1}])
        collection.compact()
        collection.close()
        # Reconstruct the pre-reset log: records the snapshot covers.
        wal_path = os.path.join(str(tmp_path), "main.wal")
        with open(wal_path, "wb") as handle:
            handle.write(WAL_MAGIC)
            handle.write(
                frame({"lsn": 1, "op": "insert", "ids": [0], "docs": [{"n": 1}]})
            )
        report = verify(str(tmp_path))
        assert report.ok and report.clean  # info findings don't dirty it
        [check] = report.collections
        assert check.wal_stale_frames == 1
        assert {f.code for f in check.findings} == {"wal-stale-prefix"}
        assert check.documents == 1


class TestTornTail:
    def test_torn_tail_is_a_warning_and_repair_truncates(self, tmp_path):
        path = seeded(tmp_path)
        wal_path = os.path.join(path, "main.wal")
        with open(wal_path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x33garbage")
        report = verify(path)
        assert report.ok  # recoverable: not an error
        assert not report.clean
        assert {f.code for f in report.findings()} == {"wal-torn-tail"}
        result = repair(path)
        assert [a.code for a in result.actions] == ["truncate-torn-tail"]
        assert result.ok and result.verified.clean
        reopened = durable(tmp_path)
        assert len(reopened) == 4
        reopened.close()


class TestSnapshotBitRot:
    def test_checksum_mismatch_is_an_error(self, tmp_path):
        path = seeded(tmp_path, extra_after_compact=False)
        corrupt_snapshot_payload(path)
        report = verify(path)
        assert not report.ok
        codes = {f.code for f in report.findings()}
        assert "snapshot-checksum-mismatch" in codes
        assert "wal-unreachable" in codes  # post-compact WAL is empty

    def test_loader_falls_back_to_full_replay(self, tmp_path):
        """When the WAL still reaches LSN 1 (a checkpoint whose reset
        never landed), a rotten snapshot costs a warning, not data."""
        from repro.store import FaultPlan, FaultyIO
        from repro.errors import StorageIOError

        io = FaultyIO()
        collection = durable(tmp_path, io=io)
        collection.insert_many([{"n": 1}, {"n": 2}])
        io.arm(FaultPlan.fail("replace", nth=2))  # fail the WAL reset
        with pytest.raises(StorageIOError):
            collection.compact()
        collection.close()
        corrupt_snapshot_payload(str(tmp_path))
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            reopened = durable(tmp_path)
        assert values(reopened) == {0: {"n": 1}, 1: {"n": 2}}
        reopened.close()

    def test_loader_refuses_when_replay_cannot_reconstruct(self, tmp_path):
        path = seeded(tmp_path)  # post-compact WAL starts at LSN 2
        corrupt_snapshot_payload(path)
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            with pytest.raises(StorageFormatError, match="db repair"):
                durable(tmp_path)

    def test_repair_quarantines_and_converges(self, tmp_path):
        path = seeded(tmp_path)
        snapshot_path = corrupt_snapshot_payload(path)
        result = repair(path)
        codes = [a.code for a in result.actions]
        assert "quarantine-snapshot" in codes
        assert "quarantine-wal" in codes  # its records need the snapshot
        assert result.ok
        # Nothing was deleted: the corrupt bytes are set aside intact.
        assert os.path.exists(snapshot_path + ".quarantined")
        quarantined = open(snapshot_path + ".quarantined", "rb").read()
        assert b'"n":9' in quarantined
        # The engine can open the (now empty) collection again.
        reopened = durable(tmp_path)
        assert len(reopened) == 0
        reopened.insert_many([{"fresh": 1}])
        reopened.close()

    def test_quarantine_names_never_collide(self, tmp_path):
        path = seeded(tmp_path)
        snapshot_path = corrupt_snapshot_payload(path)
        open(snapshot_path + ".quarantined", "w").close()
        result = repair(path)
        assert result.ok
        assert os.path.exists(snapshot_path + ".quarantined.1")


class TestFrameLevelCorruption:
    def _write_wal(self, tmp_path, *frames_):
        wal_path = os.path.join(str(tmp_path), "main.wal")
        with open(wal_path, "wb") as handle:
            handle.write(WAL_MAGIC)
            for payload in frames_:
                handle.write(frame(payload))
        return wal_path

    def test_lsn_gap_is_an_error_repair_keeps_the_prefix(self, tmp_path):
        self._write_wal(
            tmp_path,
            {"lsn": 1, "op": "insert", "ids": [0], "docs": [{"n": 1}]},
            {"lsn": 3, "op": "insert", "ids": [1], "docs": [{"n": 3}]},
        )
        report = verify(str(tmp_path))
        assert not report.ok
        assert {f.code for f in report.findings()} == {"wal-replay-failed"}
        result = repair(str(tmp_path))
        assert [a.code for a in result.actions] == ["truncate-at-corrupt-record"]
        assert result.ok and result.verified.clean
        reopened = durable(tmp_path)
        assert values(reopened) == {0: {"n": 1}}
        reopened.close()

    def test_unknown_op_is_an_error_repair_truncates_before_it(
        self, tmp_path
    ):
        self._write_wal(
            tmp_path,
            {"lsn": 1, "op": "insert", "ids": [0], "docs": [{"n": 1}]},
            {"lsn": 2, "op": "frobnicate"},
            {"lsn": 3, "op": "insert", "ids": [1], "docs": [{"n": 3}]},
        )
        report = verify(str(tmp_path))
        assert not report.ok
        result = repair(str(tmp_path))
        assert result.ok
        # Truncation is at the offending frame, not the end: the good
        # record *after* it is gone too (no holes in the history).
        reopened = durable(tmp_path)
        assert values(reopened) == {0: {"n": 1}}
        reopened.close()

    def test_bad_magic_is_quarantined(self, tmp_path):
        wal_path = os.path.join(str(tmp_path), "main.wal")
        with open(wal_path, "wb") as handle:
            handle.write(b"NOTAWAL!" + b"junk" * 8)
        report = verify(str(tmp_path))
        assert not report.ok
        assert {f.code for f in report.findings()} == {"wal-bad-magic"}
        result = repair(str(tmp_path))
        assert [a.code for a in result.actions] == ["quarantine-wal"]
        assert result.ok
        assert os.path.exists(wal_path + ".quarantined")


class TestLegacyAndLeftovers:
    def test_unchecksummed_wrapper_is_a_warning_only(self, tmp_path):
        from repro import api

        payload = api.collection([{"a": 1}]).snapshot()
        snapshot_path = os.path.join(str(tmp_path), "main.snapshot.json")
        with open(snapshot_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "format": "repro-durable-snapshot",
                    "version": 1,
                    "lsn": 0,
                    "collection": payload,
                },
                handle,
            )
        report = verify(str(tmp_path))
        assert report.ok and not report.clean
        codes = {f.code for f in report.findings()}
        assert codes == {"snapshot-unchecksummed", "wal-absent"}
        assert report.collections[0].documents == 1
        # The live loader accepts it too (pre-checksum back-compat)...
        reopened = durable(tmp_path)
        assert values(reopened) == {0: {"a": 1}}
        # ...and the next checkpoint upgrades it to a checksummed file.
        reopened.insert_many([{"a": 2}])
        reopened.compact()
        reopened.close()
        wrapper = json.load(open(snapshot_path, encoding="utf-8"))
        assert isinstance(wrapper["crc32"], int)
        assert verify(str(tmp_path)).clean

    def test_leftover_temp_files_are_quarantined(self, tmp_path):
        path = seeded(tmp_path)
        temp = os.path.join(path, "main.snapshot.json.tmp")
        with open(temp, "wb") as handle:
            handle.write(b"half a snapshot")
        report = verify(path)
        assert report.ok
        assert {f.code for f in report.findings()} == {"leftover-temp"}
        result = repair(path)
        assert [a.code for a in result.actions] == ["quarantine-temp"]
        assert result.ok and result.verified.clean
        assert os.path.exists(temp + ".quarantined")


class TestCli:
    def test_verify_clean_exits_zero(self, tmp_path, capsys):
        path = seeded(tmp_path)
        assert main(["db", "verify", path]) == 0
        out = capsys.readouterr().out
        assert "verify: clean" in out
        assert "main\tok" in out

    def test_verify_corrupt_exits_one(self, tmp_path, capsys):
        path = seeded(tmp_path)
        corrupt_snapshot_payload(path)
        assert main(["db", "verify", path]) == 1
        out = capsys.readouterr().out
        assert "PROBLEMS" in out
        assert "snapshot-checksum-mismatch" in out

    def test_repair_converges_and_exits_zero(self, tmp_path, capsys):
        path = seeded(tmp_path)
        wal_path = os.path.join(path, "main.wal")
        with open(wal_path, "ab") as handle:
            handle.write(b"torn")
        assert main(["db", "repair", path]) == 0
        out = capsys.readouterr().out
        assert "truncate-torn-tail" in out
        assert "repair: clean" in out
        assert main(["db", "verify", path]) == 0
        capsys.readouterr()

    def test_repair_on_clean_directory_is_a_no_op(self, tmp_path, capsys):
        path = seeded(tmp_path, extra_after_compact=False)
        assert main(["db", "repair", path]) == 0
        out = capsys.readouterr().out
        assert "nothing to repair" in out

    def test_verify_name_filter(self, tmp_path, capsys):
        a = durable(tmp_path, "alpha", documents=[{"a": 1}])
        a.close()
        assert main(["db", "verify", str(tmp_path), "--name", "alpha"]) == 0
        out = capsys.readouterr().out
        assert "alpha\tok" in out


class TestSnapshotChecksumOverRawBytes:
    """The loader and fsck check the CRC over the payload bytes as read;
    re-serialising the parsed payload is only the fallback."""

    @staticmethod
    def snapshot(tmp_path):
        path = seeded(tmp_path, extra_after_compact=False)
        snapshot_path = os.path.join(path, "main.snapshot.json")
        return path, snapshot_path, open(snapshot_path, "rb").read()

    def test_writer_layout_is_checked_without_reserialising(
        self, tmp_path, monkeypatch
    ):
        from repro.store import durable as durable_module

        _, snapshot_path, raw = self.snapshot(tmp_path)
        wrapper = json.loads(raw)
        calls = []
        canonical = durable_module._canonical
        monkeypatch.setattr(
            durable_module,
            "_canonical",
            lambda payload: calls.append(payload) or canonical(payload),
        )
        lsn, ok = durable_module.verify_snapshot_wrapper(wrapper, snapshot_path, raw)
        assert (lsn, ok) == (1, True)
        # Only the small envelope head is serialised, never the payload.
        assert all("collection" not in call for call in calls)
        assert all(call is not wrapper["collection"] for call in calls)

    def test_a_flipped_payload_byte_is_still_detected(self, tmp_path):
        from repro.store.durable import verify_snapshot_wrapper

        path, snapshot_path, _ = self.snapshot(tmp_path)
        corrupt_snapshot_payload(path)
        raw = open(snapshot_path, "rb").read()
        _, ok = verify_snapshot_wrapper(json.loads(raw), snapshot_path, raw)
        assert not ok
        assert "snapshot-checksum-mismatch" in {
            finding.code for finding in verify(path).findings()
        }

    def test_a_pretty_printed_valid_snapshot_still_verifies(self, tmp_path):
        from repro.store.durable import verify_snapshot_wrapper

        path, snapshot_path, raw = self.snapshot(tmp_path)
        pretty = json.dumps(json.loads(raw), indent=2).encode("utf-8")
        with open(snapshot_path, "wb") as handle:
            handle.write(pretty)
        assert verify_snapshot_wrapper(json.loads(pretty), snapshot_path, pretty)[1]
        assert verify(path).ok
        reopened = durable(tmp_path)
        assert sorted(value["n"] for value in values(reopened).values()) == [1, 2, 3]
        reopened.close()
