"""The server process of ``served-mixed``.

Usage: ``serve_child.py <directory> <trace 0|1> <cpu>`` (started by
``workloads.Child`` with ``PYTHONPATH`` set).  Pins itself to ``cpu``
and serves a durable,
schema-enforced database with :class:`repro.server.ReproServer` until a
client sends ``shutdown``.

stdout carries one JSON line per event: first ``{"port": N}``, then one
answer per command line read from stdin --

* ``report``     the counters below;
* ``trace-on``   the counters, then start tracing;
* ``trace-off``  stop tracing; the counters plus the cells and spans
  recorded since tracing began.

Commands are handled on the event loop, between requests, so patching
the seams never races a request in flight.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

import repro.api as api
from repro.cache import artifact_cache_stats
from repro.query import optimizer
from repro.server import ReproServer

from benchmarks.e2e import datagen, layers, measure
from benchmarks.e2e.probe_io import CountingIO
from benchmarks.e2e.trace import Tracer


def main(directory: str, trace: bool, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    tracer = Tracer()
    io = CountingIO()
    fsyncs_reported = 0
    if trace:  # from the first byte: recovery and ingest are set-up
        tracer.install()
    database = api.connect(directory, io=io, sync="fsync")
    collection = database.collection(datagen.COLLECTION, schema=datagen.SCHEMA)

    def answer(command: str) -> dict:
        nonlocal fsyncs_reported
        cache = artifact_cache_stats()
        reply = {
            "counters": {
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
                "verify_calls": optimizer.verify_calls(),
                "io": io.counters(),
            },
            "peak_rss_mb": measure.peak_rss_mb(),
            "missing_seams": sorted(tracer.missing),
        }
        if command == "trace-on":
            tracer.take()
            fsyncs_reported = len(io.fsync_seconds)
            tracer.install()
        elif command == "trace-off":
            tracer.uninstall()
            reply["cells"] = tracer.take()
            reply["spans"] = tracer.spans[:]
            tracer.spans.clear()
            reply["fsync_seconds"] = io.fsync_seconds[fsyncs_reported:]
            reply["entries_per_doc"] = layers.entries_per_doc(collection)
        return reply

    def on_command() -> None:
        command = sys.stdin.readline().strip()
        if command:
            print(json.dumps(answer(command)), flush=True)

    async def serve() -> None:
        server = ReproServer(database)
        await server.start()
        asyncio.get_running_loop().add_reader(sys.stdin, on_command)
        print(json.dumps({"port": server.address[1]}), flush=True)
        await server.serve_forever()  # aclose() closes the database

    asyncio.run(serve())


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1", int(sys.argv[3]))
