"""F7 -- Concurrent serving: snapshot reads, group-committed writes.

Reproduction targets for the asyncio serving tier
(:mod:`repro.server`), pinned by ``run_all.py --check-targets``:

1. **Reader concurrency** -- 8 client processes hammering ``find`` must
   push >= 3x the throughput of one sequential client.  A sequential
   client is round-trip bound (one request in flight); concurrent
   connections overlap framing, planning and socket I/O on the server's
   event loop.  The floor only binds on >= 4 CPUs (fewer cores measure
   the machine, not the code).

2. **Read isolation under writes** -- read p95 while a writer client
   streams updates must stay within 5x of the idle read p95.  Reads
   answer from pinned :class:`~repro.store.snapshot.CollectionSnapshot`
   views and never wait behind the writer queue, so a write burst must
   not stall them.

3. **Group commit** -- with 32 concurrent writer connections against a
   durable (``sync=fsync``) database, the WAL must spend **< 1.5
   fsyncs per 10 batched write requests**: the single writer task
   drains the queue into batches that share one sync
   (:meth:`~repro.store.wal.WriteAheadLog.commit_batch`).

The differential identity (server results == local planner results) is
asserted on every run, gate or not.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import random
import threading
import time

from repro.reference.harness import format_table, smoke_mode

DOCS = 500 if smoke_mode() else 5_000
READS = 80 if smoke_mode() else 2_000
READERS = 8
WRITER_CONNECTIONS = 32
GROUP_WRITES = 64 if smoke_mode() else 1_600

#: Pinned floors/ceilings (see the module docstring).
THROUGHPUT_FLOOR = 3.0
P95_CEILING = 5.0
FSYNCS_PER_10_CEILING = 1.5

_CITIES = [f"city{index:02d}" for index in range(20)]

FILTER = {"city": "city07"}


def _documents(count: int) -> list[dict]:
    rng = random.Random(23)
    return [
        {
            "user": index,
            "age": rng.randrange(18, 90),
            "city": _CITIES[rng.randrange(len(_CITIES))],
            "score": rng.randrange(10_000),
        }
        for index in range(count)
    ]


# ---------------------------------------------------------------------------
# In-process server on a dedicated event-loop thread.
# ---------------------------------------------------------------------------


class _ServerHandle:
    """A :class:`~repro.server.ReproServer` running on its own thread.

    Clients (this process's threads, or worker processes) connect over
    real TCP; the handle exposes the database for direct inspection
    (WAL sync counters) after the workload.
    """

    def __init__(self, path: "str | None" = None, sync: str = "fsync") -> None:
        from repro import api
        from repro.server import ReproServer

        if path is None:
            self.database = api.connect()
        else:
            self.database = api.connect(path, sync=sync)
        self.server = ReproServer(self.database)
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=runner, daemon=True)
        self._thread.start()
        started.wait()
        self.address = self.server.address

    def run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def stop(self) -> None:
        self.run(self.server.aclose())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


# ---------------------------------------------------------------------------
# Client workloads.
# ---------------------------------------------------------------------------


def _timed_reads(address: tuple, count: int) -> list[float]:
    """Sequential finds on one connection; per-request latencies."""
    from repro.client import connect

    latencies = []
    with connect(address) as remote:
        collection = remote.collection()
        for _ in range(count):
            started = time.perf_counter()
            collection.find(FILTER)
            latencies.append(time.perf_counter() - started)
    return latencies


def _reader_worker(address, count, out):
    """One concurrent reader process (spawn-safe top-level function)."""
    _timed_reads(tuple(address), count)
    out.put(count)


def _concurrent_read_throughput(address: tuple, total: int) -> float:
    """``total`` finds spread over READERS processes; ops/second."""
    context = multiprocessing.get_context()
    out = context.Queue()
    share = total // READERS
    workers = [
        context.Process(
            target=_reader_worker, args=(list(address), share, out)
        )
        for _ in range(READERS)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    done = sum(out.get() for _ in workers)
    elapsed = time.perf_counter() - started
    for worker in workers:
        worker.join()
    return done / elapsed


def _update_stream(address: tuple, stop: threading.Event) -> int:
    """A writer client streaming updates until told to stop."""
    from repro.client import connect

    writes = 0
    with connect(address) as remote:
        collection = remote.collection()
        while not stop.is_set():
            collection.update_many(
                {"user": {"$lt": 50}}, {"$inc": {"score": 1}}
            )
            writes += 1
    return writes


async def _async_write_burst(address: tuple, connections: int, total: int):
    """``total`` update requests over ``connections`` concurrent
    clients -- the arrival pattern group commit amortises."""
    from repro.client import aconnect

    share = total // connections

    async def one_writer(index: int) -> None:
        remote = await aconnect(address)
        try:
            collection = remote.collection()
            for step in range(share):
                await collection.update_one(
                    {"user": (index * share + step) % DOCS},
                    {"$inc": {"score": 1}},
                )
        finally:
            await remote.aclose()

    await asyncio.gather(*[one_writer(i) for i in range(connections)])


def _percentile(values: list[float], fraction: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(len(ranked) * fraction))]


# ---------------------------------------------------------------------------
# The measured experiment.
# ---------------------------------------------------------------------------


def _measure_all(tmp_dir: str) -> dict:
    from repro import api

    docs = _documents(DOCS)

    # -- volatile server: throughput + isolation --------------------------
    handle = _ServerHandle()
    try:
        handle.database.collection(documents=docs)
        expected = api.collection(docs).find(FILTER)

        from repro.client import connect

        with connect(handle.address) as remote:
            assert remote.collection().find(FILTER) == expected, (
                "server results diverge from the local planner"
            )

        idle_latencies = _timed_reads(handle.address, READS)
        seq_throughput = len(idle_latencies) / sum(idle_latencies)
        conc_throughput = _concurrent_read_throughput(handle.address, READS * READERS)

        stop = threading.Event()
        writer = threading.Thread(
            target=_update_stream, args=(handle.address, stop), daemon=True
        )
        writer.start()
        try:
            contended_latencies = _timed_reads(handle.address, READS)
        finally:
            stop.set()
            writer.join(timeout=10)
    finally:
        handle.stop()

    # -- durable server: group-commit amortisation ------------------------
    durable_dir = os.path.join(tmp_dir, "bench_server_db")
    handle = _ServerHandle(durable_dir, sync="fsync")
    try:
        collection = handle.database.collection(documents=docs)
        wal = collection.engine.wal
        synced_before = wal.sync_count
        metrics = handle.server.metrics
        batched_before = metrics.batched_writes
        asyncio.run(
            _async_write_burst(
                handle.address, WRITER_CONNECTIONS, GROUP_WRITES
            )
        )
        batched = metrics.batched_writes - batched_before
        fsyncs = wal.sync_count - synced_before
        groups = metrics.group_commits
    finally:
        handle.stop()

    return {
        "seq_throughput": seq_throughput,
        "conc_throughput": conc_throughput,
        "idle_p95": _percentile(idle_latencies, 0.95),
        "contended_p95": _percentile(contended_latencies, 0.95),
        "batched_writes": batched,
        "fsyncs": fsyncs,
        "group_commits": groups,
    }


#: Measured ratios of the last check (recorded by ``run_all.py
#: --check-targets --json`` for the CI delta table).
LAST_SPEEDUPS: dict[str, float] = {}

#: Whether the reader-throughput gate was enforceable (>= 4 CPUs).
LAST_GATE_ACTIVE = False


def _gate_active() -> bool:
    return (os.cpu_count() or 1) >= 4


def speedups() -> dict[str, float]:
    """Measured ratios (the differential identity always asserts)."""
    global LAST_GATE_ACTIVE
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        timings = _measure_all(tmp_dir)
    measured = {
        f"{READERS}-reader throughput vs sequential": (
            timings["conc_throughput"] / timings["seq_throughput"]
        ),
        "contended read p95 vs idle": (
            timings["contended_p95"] / max(timings["idle_p95"], 1e-9)
        ),
        "fsyncs per 10 batched writes": (
            10.0 * timings["fsyncs"] / max(timings["batched_writes"], 1)
        ),
    }
    LAST_GATE_ACTIVE = _gate_active()
    LAST_SPEEDUPS.clear()
    LAST_SPEEDUPS.update(measured)
    return measured


def check_targets() -> list[str]:
    """Pinned-target regression check (``run_all.py --check-targets``)."""
    measured = speedups()
    failures = []
    throughput = measured[f"{READERS}-reader throughput vs sequential"]
    if LAST_GATE_ACTIVE and throughput < THROUGHPUT_FLOOR:
        failures.append(
            f"bench_server: {READERS}-reader throughput {throughput:.1f}x "
            f"< {THROUGHPUT_FLOOR}x sequential target"
        )
    p95_ratio = measured["contended read p95 vs idle"]
    if p95_ratio > P95_CEILING:
        failures.append(
            f"bench_server: contended read p95 {p95_ratio:.1f}x idle "
            f"> {P95_CEILING}x ceiling"
        )
    amortised = measured["fsyncs per 10 batched writes"]
    if amortised >= FSYNCS_PER_10_CEILING:
        failures.append(
            f"bench_server: {amortised:.2f} fsyncs per 10 batched writes "
            f">= {FSYNCS_PER_10_CEILING} ceiling (group commit broken?)"
        )
    return failures


def main() -> str:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp_dir:
        timings = _measure_all(tmp_dir)
    speedup = timings["conc_throughput"] / timings["seq_throughput"]
    p95_ratio = timings["contended_p95"] / max(timings["idle_p95"], 1e-9)
    amortised = 10.0 * timings["fsyncs"] / max(timings["batched_writes"], 1)
    table = format_table(
        "F7 / concurrent serving: snapshot reads + group commit "
        f"(targets: >= {THROUGHPUT_FLOOR}x reader scaling, "
        f"<= {P95_CEILING}x contended p95, "
        f"< {FSYNCS_PER_10_CEILING} fsyncs/10 writes)",
        ["metric", "value"],
        [
            [
                "sequential read throughput",
                f"{timings['seq_throughput']:.0f} ops/s",
            ],
            [
                f"{READERS}-reader throughput",
                f"{timings['conc_throughput']:.0f} ops/s ({speedup:.1f}x)",
            ],
            ["idle read p95", f"{timings['idle_p95'] * 1e3:.2f} ms"],
            [
                "contended read p95",
                f"{timings['contended_p95'] * 1e3:.2f} ms ({p95_ratio:.1f}x)",
            ],
            [
                "group commit",
                f"{timings['batched_writes']} writes / "
                f"{timings['group_commits']} groups / "
                f"{timings['fsyncs']} fsyncs ({amortised:.2f} per 10)",
            ],
        ],
    )
    if not _gate_active():
        table += (
            "\n(throughput gate inactive: needs >= 4 CPUs -- identity and "
            "amortisation checks still enforced)"
        )
    return table


if __name__ == "__main__":
    print(main())
