"""Append-only write-ahead log: length-prefixed, CRC-checked frames.

The on-disk format is deliberately boring::

    file  = magic frame*
    magic = b"RPROWAL1"                 (8 bytes)
    frame = length:u32be crc:u32be payload
            where length = len(payload), crc = crc32(payload)
            and payload is one UTF-8 JSON object

Every payload carries a monotonically increasing ``lsn`` (log sequence
number, assigned by :meth:`WriteAheadLog.append`); the record body is
the engine's business (:mod:`repro.store.durable` logs insert/remove/
update records).

Recovery is prefix-truncation: :class:`WriteAheadLog` re-reads the file
on open and stops at the first frame that is short (torn write), fails
its CRC, or is not valid JSON -- everything before it is the committed
prefix, everything from it on is truncated away.  A torn or corrupt
tail is therefore *never* fatal: the log reopens to the longest
committed prefix.  A file that does not start with the magic is
refused loudly (:class:`~repro.errors.StorageFormatError`) -- that is
not a torn tail but a foreign or incompatibly-versioned file, and
truncating it would destroy data this code does not understand.

Durability is a per-log policy (``sync=``):

* ``"fsync"`` (default) -- flush + ``os.fsync`` after every append;
  a commit acknowledged is a commit on the platter.
* ``"flush"`` -- flush to the OS page cache; survives process crash,
  not power loss.
* ``"none"`` -- buffered; flushed on :meth:`sync`/:meth:`close`.

All file I/O goes through an :class:`~repro.store.faults.IOAdapter`
(``io=``), so :class:`~repro.store.faults.FaultyIO` can fail any
write, fsync or rename deterministically.  An I/O failure inside
:meth:`append` rolls the file back to the pre-append offset and raises
:class:`~repro.errors.StorageIOError` -- the caller was *not*
acknowledged, so nothing of the frame may survive to replay.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import IO, Any

from repro.errors import StorageFormatError, StorageIOError, StoreError
from repro.store.faults import IOAdapter, RealIO

__all__ = ["WAL_MAGIC", "SYNC_MODES", "WriteAheadLog", "scan_wal"]

WAL_MAGIC = b"RPROWAL1"

_FRAME_HEADER = struct.Struct(">II")  # payload length, payload crc32

#: Sanity ceiling on one frame (a length field beyond this is treated
#: as tail corruption, not an allocation request).
_MAX_FRAME_BYTES = 1 << 30

SYNC_MODES = ("fsync", "flush", "none")


def _dump(payload: dict) -> bytes:
    return json.dumps(
        payload, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def scan_wal(
    path: str, *, io: IOAdapter | None = None
) -> tuple[list[tuple[dict, int]], int, int, str | None]:
    """Read-only scan of a WAL file's committed prefix.

    Returns ``(frames, good_offset, file_size, tail_reason)`` where
    ``frames`` is ``(record, end_offset)`` per well-formed frame in
    order, ``good_offset`` is where the committed prefix ends, and
    ``tail_reason`` describes why scanning stopped before EOF (``None``
    on a clean end).  Shared by live recovery
    (:meth:`WriteAheadLog._recover_file`) and the offline verifier
    (:mod:`repro.store.fsck`) so both agree on what "committed" means.

    Raises :class:`~repro.errors.StorageFormatError` on a bad magic --
    a foreign file, never silently truncated -- and lets ``OSError``
    propagate for the caller to classify.
    """
    io = io if io is not None else RealIO()
    size = os.path.getsize(path)
    frames: list[tuple[dict, int]] = []
    with io.open(path, "rb") as handle:
        magic = handle.read(len(WAL_MAGIC))
        if magic != WAL_MAGIC:
            raise StorageFormatError(
                f"{path}: not a repro WAL file (bad magic {magic!r})"
            )
        good = handle.tell()
        reason: str | None = None
        while True:
            header = handle.read(_FRAME_HEADER.size)
            if not header and good == size:
                break  # clean EOF on a frame boundary
            if len(header) < _FRAME_HEADER.size:
                reason = "torn frame header"
                break
            length, crc = _FRAME_HEADER.unpack(header)
            if length > _MAX_FRAME_BYTES:
                reason = f"implausible frame length {length}"
                break
            payload = handle.read(length)
            if len(payload) < length:
                reason = "torn frame payload"
                break
            if zlib.crc32(payload) != crc:
                reason = "frame CRC mismatch"
                break
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                reason = "frame payload is not valid JSON"
                break
            if not isinstance(record, dict) or not isinstance(
                record.get("lsn"), int
            ):
                reason = "frame record has no integer lsn"
                break
            good = handle.tell()
            frames.append((record, good))
    return frames, good, size, reason


class WriteAheadLog:
    """One append-only log file with replay-on-open.

    Opening scans the existing file: well-formed frames become
    :attr:`replayed` (for the engine to apply), and the first torn or
    corrupt frame truncates the file back to the committed prefix.
    ``append`` then continues from the recovered tail LSN.
    """

    def __init__(
        self,
        path: str,
        *,
        sync: str = "fsync",
        base_lsn: int = 0,
        io: IOAdapter | None = None,
    ) -> None:
        if sync not in SYNC_MODES:
            raise StoreError(
                f"unknown WAL sync mode {sync!r} (expected one of {SYNC_MODES})"
            )
        self.path = os.fspath(path)
        self._sync_mode = sync
        self._io = io if io is not None else RealIO()
        self.replayed: list[dict] = []
        self.truncated_bytes = 0
        self._lsn = 0
        self._sync_count = 0
        # Group-commit state: while a batch is open, appends defer
        # their per-record flush/fsync to commit_batch() -- one sync
        # covers the whole batch (see begin_batch).
        self._batch_start: int | None = None
        self._batch_start_lsn = 0
        self._batch_start_records = 0
        try:
            self._recover_file()
            # The log file does not persist its base LSN (a
            # post-compaction reset leaves just the magic): the owner
            # passes the covering LSN of its snapshot so fresh appends
            # continue *above* it -- otherwise a reopened, freshly-reset
            # log would reissue LSNs the snapshot already covers and
            # replay would skip the new records as stale.
            self._lsn = max(self._lsn, base_lsn)
            # Replayed records count against the compaction threshold
            # too: a reopened log keeps its backlog.
            self._records_since_reset = len(self.replayed)
            self._handle: IO[bytes] = self._io.open(self.path, "ab")
        except OSError as exc:
            raise StorageIOError(
                f"{self.path}: cannot open write-ahead log: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def _recover_file(self) -> None:
        """Scan (or create) the log; truncate any torn/corrupt tail."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = -1
        if size < len(WAL_MAGIC):
            # Absent, or torn during creation before the magic landed:
            # either way there is no committed frame to preserve.
            handle = self._io.open(self.path, "wb")
            try:
                self._io.write(handle, WAL_MAGIC)
                self._io.flush(handle)
                self._io.fsync(handle)
            finally:
                handle.close()
            return
        frames, good, size, _reason = scan_wal(self.path, io=self._io)
        self.replayed = [record for record, _ in frames]
        if good < size:
            self.truncated_bytes = size - good
            handle = self._io.open(self.path, "r+b")
            try:
                self._io.truncate(handle, good)
                self._io.flush(handle)
                self._io.fsync(handle)
            finally:
                handle.close()
        if self.replayed:
            self._lsn = self.replayed[-1]["lsn"]

    def drop_replayed(self) -> None:
        """Free the replay buffer once the engine has consumed it."""
        self.replayed = []

    # ------------------------------------------------------------------
    # Appending.
    # ------------------------------------------------------------------

    def append(self, payload: dict[str, Any]) -> int:
        """Frame, write and (per policy) sync one record; returns its LSN.

        The ``lsn`` field is injected here -- callers supply only the
        record body.  When this method returns under ``sync="fsync"``,
        the record is durable.  When it raises
        :class:`~repro.errors.StorageIOError`, the file has been rolled
        back to the pre-append offset (or, if even the rollback failed,
        the error says so via ``rolled_back=False``) and the in-memory
        LSN counter is untouched -- the failed record never existed.
        """
        lsn = self._lsn + 1
        body = _dump({"lsn": lsn, **payload})
        frame = _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body
        batching = self._batch_start is not None
        start = self._batch_start if batching else self._handle.tell()
        try:
            self._io.write(self._handle, frame)
            if not batching:
                if self._sync_mode == "fsync":
                    self._io.flush(self._handle)
                    self._io.fsync(self._handle)
                    self._sync_count += 1
                elif self._sync_mode == "flush":
                    self._io.flush(self._handle)
        except OSError as exc:
            # In a batch, none of the batch's frames were acknowledged
            # yet, so the rollback removes the *whole* batch, not just
            # this frame (LSN and record counters rewind with it).
            if batching:
                self._abort_batch()
            self._rollback_append(start, exc)
        self._lsn = lsn
        self._records_since_reset += 1
        return lsn

    def _rollback_append(self, offset: int, cause: OSError) -> None:
        """Undo a failed append: truncate back to the pre-append offset.

        A failed write may still have landed a prefix -- or, worse, the
        *whole frame* with only the sync failing -- so the frame must
        be physically removed: the caller was not acknowledged, and a
        record that replays without an acknowledgement is a ghost
        write.  If the disk is too far gone even to truncate, the
        raised error carries ``rolled_back=False`` and recovery's
        prefix-truncation handles a torn tail on the next open (a fully
        written frame may then reappear as a ghost -- never a lost
        acknowledged write).
        """
        rolled_back = False
        try:
            try:
                self._handle.close()  # drop buffered garbage refs
            except OSError:
                pass
            handle = self._io.open(self.path, "r+b")
            try:
                self._io.truncate(handle, offset)
                self._io.flush(handle)
                self._io.fsync(handle)
            finally:
                handle.close()
            self._handle = self._io.open(self.path, "ab")
            rolled_back = True
        except OSError:
            pass
        raise StorageIOError(
            f"{self.path}: WAL append failed ({cause}); "
            + (
                "file rolled back to the pre-append offset"
                if rolled_back
                else "rollback also failed -- tail left for recovery "
                "truncation"
            ),
            rolled_back=rolled_back,
        ) from cause

    def sync(self) -> None:
        try:
            self._io.flush(self._handle)
            self._io.fsync(self._handle)
            self._sync_count += 1
        except OSError as exc:
            raise StorageIOError(
                f"{self.path}: WAL sync failed: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Group commit (batched appends, one sync).
    # ------------------------------------------------------------------

    def begin_batch(self) -> None:
        """Open a group-commit batch: subsequent appends write frames
        but defer the per-record flush/fsync to :meth:`commit_batch`.

        The amortisation behind the serving tier's group commit: N
        writes batched by the single writer task cost one ``fsync``
        instead of N.  No record of an open batch is durable (or
        acknowledged) until the commit; a failure anywhere rolls the
        file back to the batch start, so the batch is all-or-nothing on
        disk exactly like a single append.
        """
        if self._batch_start is not None:
            raise StoreError("a WAL batch is already open")
        self._batch_start = self._handle.tell()
        self._batch_start_lsn = self._lsn
        self._batch_start_records = self._records_since_reset

    def commit_batch(self) -> None:
        """Make the open batch durable with one policy sync.

        On failure the whole batch is rolled back -- the file truncates
        to the pre-batch offset and the LSN counter rewinds -- and
        :class:`~repro.errors.StorageIOError` is raised: none of the
        batch's records were acknowledged, so none may survive.
        """
        if self._batch_start is None:
            raise StoreError("no WAL batch is open")
        start = self._batch_start
        self._batch_start = None
        try:
            if self._sync_mode == "fsync":
                self._io.flush(self._handle)
                self._io.fsync(self._handle)
                self._sync_count += 1
            elif self._sync_mode == "flush":
                self._io.flush(self._handle)
        except OSError as exc:
            self._lsn = self._batch_start_lsn
            self._records_since_reset = self._batch_start_records
            self._rollback_append(start, exc)

    def _abort_batch(self) -> None:
        """Rewind the in-memory batch state (file handled by caller)."""
        self._batch_start = None
        self._lsn = self._batch_start_lsn
        self._records_since_reset = self._batch_start_records

    @property
    def in_batch(self) -> bool:
        return self._batch_start is not None

    # ------------------------------------------------------------------
    # Introspection and maintenance.
    # ------------------------------------------------------------------

    @property
    def lsn(self) -> int:
        """The LSN of the last record written (or recovered)."""
        return self._lsn

    @property
    def records_since_reset(self) -> int:
        """Appends since open/reset (the auto-compaction trigger)."""
        return self._records_since_reset

    @property
    def sync_count(self) -> int:
        """Physical ``fsync`` calls issued by this log since open.

        The group-commit bench reads this to assert the amortisation:
        N batched writes must cost ~1 sync, not N.
        """
        return self._sync_count

    @property
    def io(self) -> IOAdapter:
        return self._io

    def size_bytes(self) -> int:
        self._handle.flush()
        return os.path.getsize(self.path)

    def reset(self, *, base_lsn: int) -> None:
        """Replace the log with an empty one (post-compaction).

        Atomic via write-temp + ``replace`` + parent-directory fsync: a
        crash leaves either the old log (whose records the snapshot
        already covers and replay will skip by LSN) or the new empty
        one -- and the directory sync makes the rename itself durable,
        not merely staged in the directory's page cache.  On failure
        the old log is still intact (the replace is the commit point)
        and :class:`~repro.errors.StorageIOError` is raised.
        """
        temp = self.path + ".tmp"
        try:
            self._handle.close()
            handle = self._io.open(temp, "wb")
            try:
                self._io.write(handle, WAL_MAGIC)
                self._io.flush(handle)
                self._io.fsync(handle)
            finally:
                handle.close()
            self._io.replace(temp, self.path)
            # A rename is not durable until the directory entry is
            # synced; without this, a power cut after reset() could
            # resurrect the old (already-covered) log file.
            self._io.fsync_dir(os.path.dirname(self.path))
            self._handle = self._io.open(self.path, "ab")
        except OSError as exc:
            # Best effort: keep the log object usable for reads and
            # leave the old file authoritative.
            try:
                if self._handle.closed:
                    self._handle = self._io.open(self.path, "ab")
            except OSError:
                pass
            raise StorageIOError(
                f"{self.path}: WAL reset failed ({exc}); "
                "the previous log remains authoritative"
            ) from exc
        self._lsn = base_lsn
        self._records_since_reset = 0

    def close(self) -> None:
        if not self._handle.closed:
            try:
                if self._sync_mode != "none":
                    self.sync()
            finally:
                # The handle is released even when the final sync
                # fails: a degraded close must not leak it.
                self._handle.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.path!r}, lsn={self._lsn}, "
            f"sync={self._sync_mode!r})"
        )
