"""The durable storage engine: WAL + snapshots behind ``StorageEngine``.

A :class:`DurableEngine` persists one collection as two files in a
database directory::

    <dir>/<name>.snapshot.json   last checkpoint (versioned snapshot
                                 payload wrapped with its covering LSN
                                 and a CRC32 self-check)
    <dir>/<name>.wal             every commit since that checkpoint

**Commit path.**  The collection calls the engine's commit hook after
staging and schema validation but before the in-memory apply; the hook
appends one frame (insert / remove / update post-images) and syncs per
the engine's policy.  A schema rejection therefore leaves no trace on
disk, and a crash after the append replays to exactly the state the
caller was acknowledged.

**Failure semantics.**  All file I/O routes through an
:class:`~repro.store.faults.IOAdapter` (``io=``), so every fsync,
write and rename is injectable.  A failed or partial append rolls the
log back to the pre-append offset and raises
:class:`~repro.errors.StorageIOError`; after *any* append or
checkpoint failure the engine enters **degraded read-only mode** --
reads, queries and explains keep answering from memory, further writes
raise :class:`~repro.errors.CollectionReadOnlyError` with the root
cause chained -- rather than silently diverging memory from disk.
Reopening the database recovers the acknowledged prefix and restores a
healthy engine.

**Recovery.**  ``bind`` loads the snapshot (format-, version- and
checksum-checked), replays WAL records with ``lsn`` greater than the
snapshot's covering LSN in sequence, and hands the collection a
:class:`~repro.store.engine.RecoveredState`.  Torn or corrupt WAL
tails were already truncated by :class:`~repro.store.wal.WriteAheadLog`;
a *well-formed* record that is malformed at the content level (unknown
op, missing fields) or breaks LSN contiguity is a writer bug or
targeted corruption and raises
:class:`~repro.errors.StorageFormatError` instead of being guessed at.
A snapshot whose checksum no longer matches its payload (bit rot) is
set aside with a warning when the WAL still reaches back to LSN 1 --
full replay reconstructs the state -- and refused loudly (pointing at
``repro db repair``) when it does not.  Snapshot and WAL both carry
document values only; trees and index postings are rebuilt from them.

**Compaction.**  ``checkpoint()`` folds the log into a fresh snapshot:
write-temp + fsync + ``replace`` + parent-directory fsync for the
snapshot, then an atomic WAL reset (same dance).  A crash between the
two leaves stale WAL records whose LSNs the new snapshot already
covers -- replay skips them.  A checkpoint that fails partway leaves
the old snapshot and WAL fully intact (the rename is the commit
point) and degrades the engine.  Passing ``compact_threshold=N``
checkpoints automatically every N commits.
"""

from __future__ import annotations

import json
import os
import re
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import (
    CollectionReadOnlyError,
    StorageFormatError,
    StorageIOError,
    StoreError,
)
from repro.store.engine import (
    EngineHealth,
    RecoveredState,
    StorageEngine,
    decode_snapshot,
)
from repro.store.faults import IOAdapter, RealIO
from repro.store.wal import WriteAheadLog

__all__ = [
    "DurableEngine",
    "CompactionReport",
    "ReplayFolder",
    "encode_snapshot_wrapper",
    "verify_snapshot_wrapper",
    "replay_records",
]

#: The ``format`` tag of the snapshot *file* (which wraps the
#: collection snapshot payload with the LSN it covers).
SNAPSHOT_FILE_FORMAT = "repro-durable-snapshot"
SNAPSHOT_FILE_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class CompactionReport:
    """What one checkpoint did: WAL bytes folded into the snapshot."""

    wal_records: int
    wal_bytes: int
    snapshot_bytes: int
    lsn: int


def _canonical(payload: Any) -> bytes:
    return json.dumps(
        payload, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def encode_snapshot_wrapper(collection_payload: dict, lsn: int) -> bytes:
    """Serialise a snapshot-file wrapper with its CRC32 self-check.

    The checksum covers the canonical serialisation of the collection
    payload, so any bit flipped inside the payload -- not just a torn
    file -- is detected by :func:`verify_snapshot_wrapper`, the loader
    and ``repro db verify``.
    """
    encoded = _canonical(collection_payload)
    head = _canonical(
        {
            "format": SNAPSHOT_FILE_FORMAT,
            "version": SNAPSHOT_FILE_VERSION,
            "lsn": lsn,
            "crc32": zlib.crc32(encoded),
        }
    )
    # Graft the already-serialised payload in, so the bytes the
    # checksum covers are exactly the bytes written (one serialisation,
    # no double dump).
    return head[:-1] + b',"collection":' + encoded + b"}"


def verify_snapshot_wrapper(
    wrapper: dict, path: str, raw: bytes | None = None
) -> tuple[int, bool]:
    """Validate a parsed snapshot wrapper's envelope and checksum.

    Returns ``(covering_lsn, checksum_ok)``.  Envelope problems --
    wrong format tag, unknown version, missing LSN -- raise
    :class:`~repro.errors.StorageFormatError`; a checksum mismatch (or
    a pre-checksum wrapper, reported as intact) is the caller's policy
    decision, so it is returned, not raised.

    ``raw`` is the file as read.  When it is laid out as
    :func:`encode_snapshot_wrapper` writes it, the checksum runs over
    the payload bytes as they stand in the file: one ``crc32`` pass
    instead of re-serialising the parsed payload, which is what any
    other layout (a pretty-printed file) and a mismatch fall back to --
    so the verdict is the one re-serialising alone would give.
    """
    if (
        not isinstance(wrapper, dict)
        or wrapper.get("format") != SNAPSHOT_FILE_FORMAT
    ):
        raise StorageFormatError(f"{path}: not a durable-collection snapshot")
    if wrapper.get("version") != SNAPSHOT_FILE_VERSION:
        raise StorageFormatError(
            f"{path}: unsupported snapshot file version "
            f"{wrapper.get('version')!r} (this build reads "
            f"{SNAPSHOT_FILE_VERSION})"
        )
    lsn = wrapper.get("lsn")
    if not isinstance(lsn, int) or lsn < 0:
        raise StorageFormatError(f"{path}: missing or invalid covering LSN")
    expected = wrapper.get("crc32")
    if expected is None:
        # A wrapper from before the self-check field: nothing to verify
        # against (fsck reports this as a warning).
        return lsn, True
    if raw is not None:
        head = _canonical(
            {
                "format": SNAPSHOT_FILE_FORMAT,
                "version": SNAPSHOT_FILE_VERSION,
                "lsn": lsn,
                "crc32": expected,
            }
        )[:-1] + b',"collection":'
        if raw.startswith(head) and raw.endswith(b"}"):
            if expected == zlib.crc32(memoryview(raw)[len(head) : -1]):
                return lsn, True
    actual = zlib.crc32(_canonical(wrapper.get("collection")))
    return lsn, expected == actual


class ReplayFolder:
    """Incremental WAL replay onto a snapshot, in value space.

    The single definition of replay semantics, shared by live recovery
    (:func:`replay_records` / :meth:`DurableEngine._recover`) and the
    offline verifier's shadow state (:mod:`repro.store.fsck`, which
    feeds records one at a time so it can pinpoint the offending
    frame).  Strict LSN discipline: records at or below the snapshot's
    covering LSN are stale leftovers of an interrupted compaction and
    are skipped; anything else must be contiguous, with a known op and
    well-formed fields, or :meth:`apply` raises
    :class:`~repro.errors.StorageFormatError`.
    """

    def __init__(
        self,
        snapshot: RecoveredState | None,
        snapshot_lsn: int,
        *,
        wal_path: str = "<wal>",
    ) -> None:
        self._wal_path = wal_path
        self.slots: dict[int, Any] = {}
        self.next_id = 0
        self.ops = 0
        self.extended = False
        if snapshot is not None:
            self.slots.update(snapshot.docs)
            self.next_id = snapshot.next_id
            self.ops = snapshot.version
            self.extended = snapshot.extended
        self.expected = snapshot_lsn

    def apply(self, record: dict) -> bool:
        """Fold one record; ``False`` when skipped as pre-snapshot stale."""
        lsn = record["lsn"]
        if lsn <= self.expected:
            return False  # pre-snapshot record from an interrupted compaction
        if lsn != self.expected + 1:
            raise StorageFormatError(
                f"{self._wal_path}: LSN gap in committed records "
                f"(expected {self.expected + 1}, found {lsn})"
            )
        try:
            op = record["op"]
            if op == "insert":
                for doc_id, value in zip(
                    record["ids"], record["docs"], strict=True
                ):
                    self.slots[doc_id] = value
                    self.next_id = max(self.next_id, doc_id + 1)
            elif op == "remove":
                del self.slots[record["id"]]
            elif op == "update":
                for doc_id, value in record["changes"]:
                    self.slots[doc_id] = value
            else:
                raise StorageFormatError(
                    f"{self._wal_path}: unknown WAL op {op!r} at LSN {lsn}"
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageFormatError(
                f"{self._wal_path}: malformed committed record at LSN "
                f"{lsn}: {exc}"
            ) from exc
        self.expected = lsn
        self.ops += 1
        return True

    def state(self) -> RecoveredState:
        """The folded state as the engine's recovery payload."""
        return RecoveredState(
            next_id=self.next_id,
            version=self.ops,
            extended=self.extended,
            docs=sorted(self.slots.items()),
        )


def replay_records(
    snapshot: RecoveredState | None,
    snapshot_lsn: int,
    records: Iterable[dict],
    *,
    wal_path: str = "<wal>",
) -> RecoveredState:
    """Fold WAL records onto a snapshot (see :class:`ReplayFolder`)."""
    folder = ReplayFolder(snapshot, snapshot_lsn, wal_path=wal_path)
    for record in records:
        folder.apply(record)
    return folder.state()


class DurableEngine(StorageEngine):
    """WAL + snapshot persistence for one named collection."""

    durable = True

    def __init__(
        self,
        directory: str,
        name: str = "main",
        *,
        sync: str = "fsync",
        compact_threshold: int | None = None,
        io: IOAdapter | None = None,
    ) -> None:
        super().__init__()
        if not _NAME_RE.match(name):
            raise StoreError(
                f"invalid collection name {name!r} (letters, digits, "
                "'._-' only, must not start with a separator)"
            )
        if compact_threshold is not None and compact_threshold < 1:
            raise StoreError("compact_threshold must be a positive integer")
        self._directory = os.fspath(directory)
        self._name = name
        self._sync = sync
        self._threshold = compact_threshold
        self._io = io if io is not None else RealIO()
        self._failed: StorageIOError | None = None
        os.makedirs(self._directory, exist_ok=True)
        self._snapshot_path = os.path.join(
            self._directory, f"{name}.snapshot.json"
        )
        self._wal_path = os.path.join(self._directory, f"{name}.wal")
        self._wal: WriteAheadLog | None = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def io(self) -> IOAdapter:
        return self._io

    @property
    def wal(self) -> WriteAheadLog:
        if self._wal is None:
            raise StoreError("engine is not bound to a collection yet")
        return self._wal

    @property
    def health(self) -> EngineHealth:
        if self._failed is None:
            return EngineHealth(ok=True)
        return EngineHealth(
            ok=False,
            degraded=True,
            reason=str(self._failed),
            error=self._failed,
        )

    # ------------------------------------------------------------------
    # Degraded mode.
    # ------------------------------------------------------------------

    def _fail(self, error: StorageIOError) -> StorageIOError:
        """Record the first I/O failure; the engine goes read-only."""
        if self._failed is None:
            self._failed = error
        return error

    def _check_writable(self) -> None:
        if self._failed is not None:
            raise CollectionReadOnlyError(
                f"collection {self._name!r} is in degraded read-only mode "
                f"after a storage failure: {self._failed} -- reads still "
                "answer from memory; reopen the database to recover the "
                "acknowledged prefix"
            ) from self._failed

    # ------------------------------------------------------------------
    # Recovery (bind-time).
    # ------------------------------------------------------------------

    def _recover(self) -> RecoveredState | None:
        snapshot, snapshot_lsn, damaged = self._load_snapshot_file()
        self._wal = WriteAheadLog(
            self._wal_path, sync=self._sync, base_lsn=snapshot_lsn, io=self._io
        )
        records = self._wal.replayed
        self._wal.drop_replayed()
        if damaged and not (records and records[0]["lsn"] == 1):
            # Fallback is only sound when the WAL reaches back to the
            # very first record; an empty or snapshot-anchored log would
            # silently replay to a truncated state.
            start = records[0]["lsn"] if records else "nothing"
            raise StorageFormatError(
                f"{self._snapshot_path}: snapshot checksum mismatch and the "
                f"WAL does not reach back to LSN 1 (it holds {start}), so "
                "full replay cannot reconstruct the state; run `repro db "
                "repair` to quarantine the damaged files"
            )
        if snapshot is None and not records:
            return None  # a genuinely fresh collection
        return replay_records(
            snapshot, snapshot_lsn, records, wal_path=self._wal_path
        )

    def _load_snapshot_file(self) -> tuple[RecoveredState | None, int, bool]:
        """Load the snapshot; ``(data, covering_lsn, damaged)``.

        ``damaged=True`` means the file exists but its checksum no
        longer matches -- it is set aside (``data=None``, LSN 0) so the
        caller can fall back to full WAL replay with a warning, or
        refuse if the WAL does not reach back far enough.
        """
        if not os.path.exists(self._snapshot_path):
            return None, 0, False
        try:
            with self._io.open(self._snapshot_path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise self._fail(
                StorageIOError(
                    f"{self._snapshot_path}: cannot read snapshot: {exc}"
                )
            ) from exc
        try:
            wrapper = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageFormatError(
                f"{self._snapshot_path}: not valid JSON ({exc})"
            ) from exc
        lsn, checksum_ok = verify_snapshot_wrapper(
            wrapper, self._snapshot_path, raw
        )
        if not checksum_ok:
            warnings.warn(
                f"{self._snapshot_path}: snapshot checksum mismatch (bit "
                "rot?); falling back to full WAL replay -- run `repro db "
                "verify` for a report and `repro db repair` to quarantine "
                "the damaged snapshot",
                RuntimeWarning,
                stacklevel=4,
            )
            return None, 0, True
        return decode_snapshot(wrapper.get("collection")), lsn, False

    # ------------------------------------------------------------------
    # Commit hooks.
    # ------------------------------------------------------------------

    def commit_insert(
        self, doc_ids: Sequence[int], values: Sequence[Any]
    ) -> None:
        self._append({"op": "insert", "ids": list(doc_ids), "docs": list(values)})

    def commit_remove(self, doc_id: int) -> None:
        self._append({"op": "remove", "id": doc_id})

    def commit_update(self, changes: Iterable[tuple[int, Any]]) -> None:
        self._append(
            {"op": "update", "changes": [[doc_id, value] for doc_id, value in changes]}
        )

    def _append(self, payload: dict) -> None:
        self._check_writable()
        try:
            self.wal.append(payload)
        except StorageIOError as exc:
            raise self._fail(exc)

    def commit_applied(self) -> None:
        # Inside a group commit the threshold check defers to the end
        # of the batch: a checkpoint mid-group would snapshot memory
        # ahead of the un-synced WAL suffix and then reset the log
        # under an open batch.
        if self._wal is not None and self._wal.in_batch:
            return
        # Auto-compaction must wait for the post-apply hook: a
        # checkpoint from inside a commit hook would snapshot memory
        # *without* the record just logged, then reset the WAL past it
        # -- silently dropping the acknowledged mutation.
        if (
            self._failed is None
            and self._threshold is not None
            and self.wal.records_since_reset >= self._threshold
        ):
            try:
                self.checkpoint()
            except StorageIOError:
                # The commit itself is already durable in the WAL; a
                # failed *auto*-checkpoint must not turn an acknowledged
                # write into an error.  The engine is degraded now, so
                # the next write raises CollectionReadOnlyError.
                pass

    # ------------------------------------------------------------------
    # Group commit.
    # ------------------------------------------------------------------

    @contextmanager
    def group(self) -> Iterator[None]:
        """One WAL sync for every commit made inside the block.

        The durable half of the serving tier's group commit: commits
        inside the block append their frames with the per-record sync
        deferred, and the block exit issues a single policy sync
        (``commit_batch``) covering all of them.  Failure semantics
        stay all-or-nothing *per batch*: an append failure inside the
        block rolls the whole batch off the log and degrades the
        engine (later commits in the block raise
        :class:`~repro.errors.CollectionReadOnlyError`); a failed final
        sync does the same.  Callers must not acknowledge any write in
        the group until the block has exited cleanly.

        The deferred auto-checkpoint check runs once per batch, after
        the sync -- matching the one-``commit_applied``-per-batch
        amortisation the server relies on.
        """
        self._check_writable()
        wal = self.wal
        if wal.in_batch:
            raise StoreError("group commits do not nest")
        wal.begin_batch()
        try:
            yield
        finally:
            # An append failure inside the block already rolled the
            # batch back (in_batch is False) -- nothing left to sync.
            if wal.in_batch:
                try:
                    wal.commit_batch()
                except StorageIOError as exc:
                    raise self._fail(exc) from exc
                self.commit_applied()

    # ------------------------------------------------------------------
    # Compaction.
    # ------------------------------------------------------------------

    def checkpoint(self) -> CompactionReport:
        """Fold the WAL into a fresh snapshot and reset the log.

        Failure-atomic: the old snapshot and WAL stay fully intact
        unless the snapshot rename commits, and any I/O failure
        degrades the engine and raises
        :class:`~repro.errors.StorageIOError`.
        """
        if self._collection is None:
            raise StoreError("engine is not bound to a collection yet")
        self._check_writable()
        wal = self.wal
        temp = self._snapshot_path + ".tmp"
        try:
            wal_records = wal.records_since_reset
            wal_bytes = wal.size_bytes()
            lsn = wal.lsn
            encoded = encode_snapshot_wrapper(
                self._collection.snapshot(), lsn
            )
            handle = self._io.open(temp, "wb")
            try:
                self._io.write(handle, encoded)
                self._io.flush(handle)
                self._io.fsync(handle)
            finally:
                handle.close()
            self._io.replace(temp, self._snapshot_path)
            # Make the rename durable before the WAL reset discards the
            # records the new snapshot covers.
            self._io.fsync_dir(self._directory)
        except OSError as exc:
            try:  # pragma: no cover - best-effort temp cleanup
                if os.path.exists(temp):
                    os.remove(temp)
            except OSError:
                pass
            raise self._fail(
                StorageIOError(
                    f"{self._snapshot_path}: checkpoint failed ({exc}); the "
                    "previous snapshot and WAL remain intact"
                )
            ) from exc
        try:
            wal.reset(base_lsn=lsn)
        except StorageIOError as exc:
            # The new snapshot is durable and covers the old log, whose
            # records replay will skip by LSN -- consistent, but the
            # engine cannot promise further progress on this disk.
            raise self._fail(exc)
        return CompactionReport(
            wal_records=wal_records,
            wal_bytes=wal_bytes,
            snapshot_bytes=os.path.getsize(self._snapshot_path),
            lsn=lsn,
        )

    def close(self) -> None:
        if self._wal is not None:
            try:
                self._wal.close()
            except StorageIOError as exc:
                # Closing a degraded engine must not mask the original
                # failure with a new raise; the handle is released
                # regardless.
                self._fail(exc)

    def __repr__(self) -> str:
        health = "" if self._failed is None else ", degraded"
        return (
            f"DurableEngine({self._directory!r}, {self._name!r}, "
            f"sync={self._sync!r}{health})"
        )
