"""A counting I/O adapter and the durability probe built on it.

:class:`CountingIO` is passed to ``api.connect(io=)``: it performs the
real I/O, counts it (the device-level numbers of the traced run) and
remembers, per file, the length it had at its last ``fsync``.

Killing a process leaves the operating system's cache intact, so a
kill-and-reopen test passes even when a write was acknowledged before
it was flushed.  :func:`crash_copy` instead builds the directory a
power cut would leave: every file truncated to its last-fsynced length,
renames kept only once their directory was fsynced.
"""

from __future__ import annotations

import os
import shutil
from time import perf_counter
from typing import IO

from repro.store.faults import IOAdapter


class CountingIO(IOAdapter):
    def __init__(self) -> None:
        self.writes = 0
        self.bytes_written = 0
        self.fsync_dirs = 0
        self.fsync_seconds: list[float] = []
        self.device_seconds = 0.0  # total time inside write, flush and fsync
        #: path -> length at the last fsync of that file
        self.synced: dict[str, int] = {}
        #: destination -> source of renames whose directory is not synced yet
        self._pending_renames: dict[str, str] = {}

    def write(self, handle: IO[bytes], data: bytes) -> None:
        started = perf_counter()
        super().write(handle, data)
        self.device_seconds += perf_counter() - started
        self.writes += 1
        self.bytes_written += len(data)

    def flush(self, handle: IO[bytes]) -> None:
        started = perf_counter()
        super().flush(handle)
        self.device_seconds += perf_counter() - started

    def fsync(self, handle: IO[bytes]) -> None:
        started = perf_counter()
        super().fsync(handle)
        elapsed = perf_counter() - started
        self.fsync_seconds.append(elapsed)
        self.device_seconds += elapsed
        self.synced[os.path.abspath(handle.name)] = os.fstat(handle.fileno()).st_size

    def replace(self, source: str, destination: str) -> None:
        super().replace(source, destination)
        self._pending_renames[os.path.abspath(destination)] = os.path.abspath(source)

    def fsync_dir(self, directory: str) -> None:
        super().fsync_dir(directory)
        self.fsync_dirs += 1
        for destination, source in self._pending_renames.items():
            if source in self.synced:
                self.synced[destination] = self.synced.pop(source)
        self._pending_renames.clear()

    def counters(self) -> dict[str, int]:
        return {
            "writes": self.writes,
            "bytes_written": self.bytes_written,
            "fsyncs": len(self.fsync_seconds),
            "fsync_dirs": self.fsync_dirs,
        }


def crash_copy(directory: str, io: CountingIO, destination: str) -> None:
    """Copy ``directory`` as a power cut would leave it (see module
    docstring).  A file that was never fsynced does not survive."""
    shutil.copytree(directory, destination)
    for name in os.listdir(destination):
        durable = io.synced.get(os.path.abspath(os.path.join(directory, name)))
        path = os.path.join(destination, name)
        if durable is None:
            os.remove(path)
        else:
            os.truncate(path, durable)
