"""The four workloads: set-up, closed-loop timed phase, checks.

Every workload drives the system through ``repro.api`` (and, for
``served-mixed``, ``repro.client`` against a ``ReproServer`` child) and
produces the same end-to-end metrics; what differs is which layers do
the work (see README.md, "Why these four").

A plain run (``--trace 0``) sets up ``SETUP_REPEATS`` times, keeps the
last, warms up, and times one phase of ``--seconds``.  A traced run
(``--trace 1``) sets up once under the tracer, times half a phase
plain and half traced (their ratio is ``trace.overhead_ratio``), and
derives the per-layer metrics from the traced half.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

import repro.api as api
from repro.cache import artifact_cache_stats
from repro.client import aconnect
from repro.query import optimizer

from benchmarks.e2e import datagen, layers, measure, oracle
from benchmarks.e2e.probe_io import CountingIO, crash_copy
from benchmarks.e2e.trace import Tracer

SETUP_REPEATS = 3
INGEST_BATCH = 1000
COLLECTION = datagen.COLLECTION


@dataclass(frozen=True)
class Spec:
    """What distinguishes one workload's numbers from another's."""

    mix: dict[str, tuple[int, str]]
    primary: str  # the class behind p50_ms and tail_ms
    secondary: str  # the class behind secondary_p50_ms
    tail_q: float  # highest percentile with >= 10 samples beyond it
    warmup_ops: int  # per caller


SPECS = {
    "embedded-read": Spec(datagen.READ_MIX, "point", "scan", 0.90, 24),
    "embedded-analytics": Spec(datagen.ANALYTICS_MIX, "scan", "pruned", 0.90, 6),
    "durable-write": Spec(datagen.WRITE_MIX, "write", "multi", 0.90, 20),
    "served-mixed": Spec(datagen.SERVED_MIX, "point", "write", 0.99, 200),
}


@dataclass
class Config:
    workload: str
    seed: int
    seconds: float
    trace: bool
    docs: int
    workdir: Path


@dataclass
class Phase:
    samples: list[measure.Sample] = field(default_factory=list)
    executed: list[tuple[dict, Any]] = field(default_factory=list)
    span: float = 0.0
    wall: float = 0.0  # traced phases: sum of the ops' root spans ...
    covered: float = 0.0  # ... and the part their child seams cover


@dataclass
class Outcome:
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    attempted: int
    failed: int
    report: dict[str, Any]


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------

_ARGUMENTS = {
    "find": ("filter",),
    "count": ("filter",),
    "aggregate": ("pipeline",),
    "insert": ("doc",),
    "update_one": ("filter", "update"),
    "update_many": ("filter", "update"),
    "replace_one": ("filter", "doc"),
}


async def run_phase(
    collection: Any,
    stream: Iterator[dict],
    *,
    seconds: float | None = None,
    ops: int | None = None,
    tracer: Tracer | None = None,
    io: CountingIO | None = None,
) -> Phase:
    """One caller, closed loop: the next op is sent when the previous
    answer has arrived.  Ends after ``seconds`` or ``ops``.

    With ``io``, latencies exclude the time the op spent inside the
    storage calls (write, flush, fsync): the sandbox's disk is shared,
    a flush swings between 0.3 and 5 ms from one run to the next, and a
    latency that is mostly a neighbour's I/O gates nothing.  Flush time
    and flushes per write are per-layer metrics (``wal.fsync_us``,
    ``wal.fsyncs_per_write``).

    Local collections answer synchronously (nothing is awaited, so the
    coroutine never yields); remote ones return awaitables.  The
    answers the oracle will check -- every 20th, the first of each
    template, every exception -- are kept; checking happens later.
    """
    phase = Phase()
    seen: set[str] = set()
    start = perf_counter()
    index = 0
    while ops is None or index < ops:
        op = next(stream)
        call = getattr(collection, op["op"])
        arguments = [op[name] for name in _ARGUMENTS[op["op"]]]
        began = perf_counter()
        if seconds is not None and began - start >= seconds:
            break
        flushing = io.device_seconds if io else 0.0
        if tracer is not None:
            tracer.begin_op(index, op["t"])
        try:
            result = call(*arguments)
            if inspect.isawaitable(result):
                result = await result
        except Exception as exc:  # a failed op is a counted failure, not a crash
            result = exc
        ended = perf_counter()
        if io:
            ended -= io.device_seconds - flushing
        if tracer is not None:
            wall, covered = tracer.end_op()
            phase.wall += wall
            phase.covered += covered
        phase.samples.append((op["t"], began - start, ended - began))
        keep = (
            op["t"] not in seen
            or index % oracle.CHECK_EVERY == 0
            or isinstance(result, Exception)
        )
        seen.add(op["t"])
        phase.executed.append((op, result if keep else oracle.NOT_KEPT))
        index += 1
    phase.span = perf_counter() - start
    return phase


async def ingest(collection: Any, documents: list[dict]) -> float:
    """Bulk-load in batches of ``INGEST_BATCH``; returns the seconds taken."""
    began = perf_counter()
    for low in range(0, len(documents), INGEST_BATCH):
        inserted = collection.insert_many(documents[low : low + INGEST_BATCH])
        if inspect.isawaitable(inserted):
            await inserted
    return perf_counter() - began


# ---------------------------------------------------------------------------
# Shared assembly.
# ---------------------------------------------------------------------------


def end_to_end(
    spec: Spec, callers: int, setups: list[dict], phase: Phase, rss_mb: float
) -> dict[str, float]:
    samples, span = phase.samples, phase.span
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": measure.closed_loop_rate(samples, spec.mix, span, callers),
        "p50_ms": 1e3 * measure.class_p50(samples, spec.mix, spec.primary, span),
        "tail_ms": 1e3
        * measure.class_tail(samples, spec.mix, spec.primary, spec.tail_q, span),
        "secondary_p50_ms": 1e3
        * measure.class_p50(samples, spec.mix, spec.secondary, span),
        "peak_rss_mb": rss_mb,
    }


def describe(
    config: Config, spec: Spec, callers: int, documents: list[dict],
    stream: Iterator[dict], setups: list[dict], timed: Phase, messages: list[str],
) -> dict[str, Any]:
    """The human-readable side of a run: inputs (with digests, so two
    runs can prove they were fed the same ops), machine, per-template
    medians with their sample counts, and any oracle complaints."""
    templates = {}
    for template, (_, klass) in spec.mix.items():
        own = [s for s in timed.samples if s[0] == template]
        templates[template] = {
            "class": klass,
            "samples": len(own),
            "p50_ms": 1e3
            * measure.fastest_window(own, timed.span, statistics.median)
            if own
            else None,
        }
    return {
        "workload": config.workload,
        "seed": config.seed,
        "docs": config.docs,
        "seconds": config.seconds,
        "callers": callers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "documents_sha256": datagen.digest(documents),
        "stream_sha256": datagen.stream_digest(stream),
        "setups": setups,
        "timed_ops": len(timed.samples),
        "tail_percentile": spec.tail_q,
        "templates": templates,
        "mismatches": messages,
    }


def check(
    model: oracle.Model, phases: list[Phase], final_documents: list[dict]
) -> tuple[int, int, list[str]]:
    """Replay the phases (in execution order) against the model, then
    compare the final state.  Returns ``(attempted, failed, messages)``."""
    attempted = failed = 0
    messages: list[str] = []
    for phase in phases:
        attempted += len(phase.executed)
        mismatches = oracle.replay(model, phase.executed)
        failed += len(mismatches)
        messages.extend(mismatches[:5])
    wrong = oracle.final_state_mismatches(model, final_documents)
    if wrong:
        failed += wrong
        messages.append(f"final state: {wrong} documents differ from the model")
    return attempted, failed, messages


# ---------------------------------------------------------------------------
# In-process workloads (one caller).
# ---------------------------------------------------------------------------


class EmbeddedRead:
    """``api.collection()``: memory backend, schemaless (the optimizer's
    premise is the inferred structural summary).  Base of the other
    one-caller workloads: ``setup`` leaves ``collection`` ready,
    ``discard`` drops that state again."""

    io: CountingIO | None = None

    def __init__(self, config: Config) -> None:
        self.config = config
        self.collection: Any = None
        self.documents: list[dict] = []

    async def setup(self) -> dict[str, float]:
        config = self.config
        started = perf_counter()
        self.documents = datagen.people(config.seed, config.docs)
        self.collection = api.collection()
        ingest_s = await ingest(self.collection, self.documents)
        ingested = perf_counter()
        # The structural summary is built lazily by the first query:
        # that cost belongs to set-up, wherever a later change moves it.
        self.collection.find({"user": self.documents[0]["user"]})
        done = perf_counter()
        return {
            "setup_s": done - started,
            "ingest_s": ingest_s,
            "first_query_s": done - ingested,
        }

    def discard(self) -> None:
        self.collection = None
        gc.collect()  # collection and engine reference each other

    def stream(self) -> Iterator[dict]:
        return datagen.read_stream(self.config.seed, self.config.docs)

    def after_phases(self, model: oracle.Model, tracer: Tracer | None) -> dict:
        """Workload-specific probes after the checks: extras for the
        per-layer metrics."""
        return {}


class EmbeddedAnalytics(EmbeddedRead):
    """The same collection, driven by the six pipelines."""

    def stream(self) -> Iterator[dict]:
        return datagen.analytics_stream(self.config.seed, self.config.docs)

    def after_phases(self, model: oracle.Model, tracer: Tracer | None) -> dict:
        if tracer is None:
            return {}
        return {"stages": layers.stage_costs(self.collection)}


class DurableWrite(EmbeddedRead):
    """``api.connect(dir)``: WAL with ``sync="fsync"`` (a write is
    flushed before its call returns), schema enforced, and a restart
    (close, recover from the WAL) before the first query -- so
    recovery time is part of ``setup_s``."""

    def __init__(self, config: Config) -> None:
        super().__init__(config)
        self.database: Any = None
        self.directory = ""

    def _open(self) -> Any:
        self.database = api.connect(self.directory, io=self.io, sync="fsync")
        return self.database.collection(COLLECTION, schema=datagen.SCHEMA)

    async def setup(self) -> dict[str, float]:
        config = self.config
        started = perf_counter()
        self.documents = datagen.people(config.seed, config.docs)
        self.io = CountingIO()
        self.directory = tempfile.mkdtemp(prefix="durable-", dir=config.workdir)
        ingest_s = await ingest(self._open(), self.documents)
        ingested = perf_counter()
        self.database.close()
        gc.collect()  # drop the ingested copy before recovery builds its own
        self.collection = self._open()
        reopened = perf_counter()
        self.collection.find({"user": self.documents[0]["user"]})
        done = perf_counter()
        return {
            "setup_s": done - started,
            "ingest_s": ingest_s,
            "reopen_wal_s": reopened - ingested,
            "first_query_s": done - reopened,
            "storage_s": self.io.device_seconds,
        }

    def discard(self) -> None:
        self.database.close()
        super().discard()
        shutil.rmtree(self.directory)

    def stream(self) -> Iterator[dict]:
        return datagen.write_stream(self.config.seed, self.config.docs)

    def after_phases(self, model: oracle.Model, tracer: Tracer | None) -> dict:
        """The durability probe and, traced, the checkpoint lifecycle."""
        wal_path = os.path.join(self.directory, f"{COLLECTION}.wal")
        extras: dict[str, Any] = {
            "user_bytes": sum(
                len(json.dumps(doc, separators=(",", ":")))
                for doc in model.docs.values()
            ),
            "wal_bytes": os.path.getsize(wal_path),
        }
        # What a power cut now would leave must still hold every
        # acknowledged write.
        crashed = os.path.join(self.config.workdir, "crashed")
        crash_copy(self.directory, self.io, crashed)
        with api.connect(crashed) as recovered:
            survivors = recovered.collection(COLLECTION, schema=datagen.SCHEMA).find({})
        extras["lost_acked"] = oracle.final_state_mismatches(model, survivors)
        del survivors
        shutil.rmtree(crashed)
        if tracer is not None:
            tracer.install()
            started = perf_counter()
            report = self.database.compact()[COLLECTION]
            extras["checkpoint_s"] = perf_counter() - started
            extras["snapshot_bytes"] = report.snapshot_bytes
            extras["stored_bytes"] = report.snapshot_bytes + os.path.getsize(wal_path)
            self.database.close()
            self.collection = None
            gc.collect()
            started = perf_counter()
            self.collection = self._open()
            extras["reopen_snapshot_s"] = perf_counter() - started
            extras["lifecycle_cells"] = tracer.take()
            tracer.uninstall()
            extras["lost_acked"] += oracle.final_state_mismatches(
                model, self.collection.find({})
            )
        return extras


IN_PROCESS = {
    "embedded-read": EmbeddedRead,
    "embedded-analytics": EmbeddedAnalytics,
    "durable-write": DurableWrite,
}


async def _run_in_process(config: Config) -> Outcome:
    spec = SPECS[config.workload]
    workload = IN_PROCESS[config.workload](config)
    tracer = Tracer() if config.trace else None
    setups = []
    setup_cells: dict = {}
    if tracer is not None:
        tracer.install()
        setups.append(await workload.setup())
        setup_cells = tracer.take()
        tracer.uninstall()
    else:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.discard()
            setups.append(await workload.setup())
    collection = workload.collection
    model = oracle.Model(workload.documents)
    stream = workload.stream()
    io = workload.io
    phases = [await run_phase(collection, stream, ops=spec.warmup_ops)]
    extras: dict[str, Any] = {}
    if tracer is None:
        timed = await run_phase(collection, stream, seconds=config.seconds, io=io)
        phases.append(timed)
    else:
        plain = await run_phase(collection, stream, seconds=config.seconds / 2, io=io)
        tracer.install()
        cache_before = artifact_cache_stats()
        verifies = optimizer.verify_calls()
        io_before = io.counters() if io else {}
        timed = await run_phase(
            collection, stream, seconds=config.seconds / 2, tracer=tracer, io=io
        )
        extras["cells"] = tracer.take()
        tracer.uninstall()
        cache = artifact_cache_stats()
        extras["cache"] = (
            cache.hits - cache_before.hits,
            cache.misses - cache_before.misses,
        )
        extras["verify_calls"] = optimizer.verify_calls() - verifies
        extras["overhead_ratio"] = measure.closed_loop_rate(
            plain.samples, spec.mix, plain.span, 1
        ) / measure.closed_loop_rate(timed.samples, spec.mix, timed.span, 1)
        extras["entries_per_doc"] = layers.entries_per_doc(collection)
        if io:
            extras["io"] = {
                key: count - io_before[key] for key, count in io.counters().items()
            }
            extras["fsync_seconds"] = io.fsync_seconds[io_before["fsyncs"] :]
        phases += [plain, timed]
    rss_mb = measure.peak_rss_mb()  # before the checks load second copies
    attempted, failed, messages = check(model, phases, collection.find({}))
    extras.update(workload.after_phases(model, tracer))
    if extras.get("lost_acked"):
        failed += extras["lost_acked"]
        messages.append(f"durability: {extras['lost_acked']} acknowledged writes lost")
    report = describe(
        config, spec, 1, workload.documents, workload.stream(), setups, timed, messages
    )
    per_layer = {}
    if tracer is not None:
        per_layer = layers.metrics(
            spec=spec, docs=config.docs, setup=setups[0], setup_cells=setup_cells,
            timed=timed, extras=extras,
        )
        report["trace"] = {
            "missing_seams": sorted(tracer.missing),
            "setup_cells": setup_cells,
            "timed_cells": extras["cells"],
            "lifecycle_cells": extras.get("lifecycle_cells", {}),
            "spans": tracer.spans,
        }
    workload.discard()
    return Outcome(
        end_to_end=end_to_end(spec, 1, setups, timed, rss_mb),
        per_layer=per_layer,
        attempted=attempted,
        failed=failed,
        report=report,
    )


# ---------------------------------------------------------------------------
# served-mixed: a ReproServer child, C closed-loop connections.
# ---------------------------------------------------------------------------


class Child:
    """The server process (``serve_child.py``) and its control pipe:
    one command line in, one JSON line out."""

    def __init__(self, directory: str, trace: bool, cpu: int) -> None:
        root = Path(__file__).resolve().parents[2]
        environ = dict(os.environ)
        environ["PYTHONPATH"] = os.pathsep.join([str(root), str(root / "src")])
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                str(Path(__file__).with_name("serve_child.py")),
                directory,
                str(int(trace)),
                str(cpu),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=environ,
        )
        self.port = self._read()["port"]

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child exited with code {self.process.wait()} "
                "before answering"
            )
        return json.loads(line)

    def command(self, name: str) -> dict:
        """``report`` | ``trace-on`` | ``trace-off``; each answers with
        the child's counters (and what it traced since the last one)."""
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        return self._read()

    def reap(self) -> None:
        """Wait for the child to exit (it was asked to shut down); kill
        it if it does not go on its own."""
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


class Served:
    """A durable (``sync="fsync"``), schema-enforced database behind a
    ``ReproServer`` child; this process is one asyncio thread holding
    ``min(nproc, 4)`` connections, each a closed loop."""

    def __init__(self, config: Config, server_cpu: int) -> None:
        self.config = config
        self.server_cpu = server_cpu
        self.connections = min(os.cpu_count() or 1, 4)
        self.child: Any = None
        self.directory = ""
        self.databases: list[Any] = []
        self.collections: list[Any] = []
        self.documents: list[dict] = []

    async def setup(self) -> dict[str, float]:
        config = self.config
        started = perf_counter()
        self.documents = datagen.people(config.seed, config.docs)
        generated = perf_counter()
        self.directory = tempfile.mkdtemp(prefix="served-", dir=config.workdir)
        self.child = Child(self.directory, config.trace, self.server_cpu)
        address = ("127.0.0.1", self.child.port)
        self.databases = [await aconnect(address) for _ in range(self.connections)]
        self.collections = [db.collection(COLLECTION) for db in self.databases]
        connected = perf_counter()
        ingest_s = await ingest(self.collections[0], self.documents)
        ingested = perf_counter()
        await self.collections[0].find({"user": self.documents[0]["user"]})
        done = perf_counter()
        return {
            "setup_s": done - started,
            "server_start_s": connected - generated,
            "ingest_s": ingest_s,
            "first_query_s": done - ingested,
        }

    async def discard(self) -> None:
        """Stop the child and delete its directory.  Also the error
        path: a child that was never asked to shut down is killed when
        :meth:`Child.reap` times out."""
        if self.child is None:
            return
        try:
            for index, database in enumerate(self.databases):
                if index == 0:
                    await database.shutdown()
                await database.aclose()
        finally:
            self.child.reap()
            self.child = None
            self.databases = []
            shutil.rmtree(self.directory)

    def streams(self) -> list[Iterator[dict]]:
        return [
            datagen.served_stream(
                self.config.seed, self.documents, index, self.connections
            )
            for index in range(self.connections)
        ]

    def rate(self, spec: Spec, phases: list[Phase]) -> float:
        pooled = _pooled(phases)
        return measure.closed_loop_rate(
            pooled.samples, spec.mix, pooled.span, self.connections
        )

    async def phase(self, streams: list, **limit: Any) -> list[Phase]:
        return list(
            await asyncio.gather(
                *(
                    run_phase(collection, stream, **limit)
                    for collection, stream in zip(self.collections, streams)
                )
            )
        )


def _pooled(phases: list[Phase]) -> Phase:
    """The connections' phases as one: samples pooled, span the longest."""
    pooled = Phase(span=max(phase.span for phase in phases))
    for phase in phases:
        pooled.samples += phase.samples
    return pooled


async def _run_served(config: Config, server_cpu: int) -> Outcome:
    spec = SPECS[config.workload]
    served = Served(config, server_cpu)
    setups = []
    try:
        for repeat in range(1 if config.trace else SETUP_REPEATS):
            await served.discard()
            setups.append(await served.setup())
        child = served.child
        extras: dict[str, Any] = {}
        traced: dict[str, Any] = {}
        setup_cells = child.command("trace-off")["cells"] if config.trace else {}
        model = oracle.Model(served.documents)
        streams = served.streams()
        rounds = [await served.phase(streams, ops=spec.warmup_ops)]
        if not config.trace:
            rounds.append(await served.phase(streams, seconds=config.seconds))
        else:
            pings = []
            for _ in range(200):
                began = perf_counter()
                await served.databases[0].ping()
                pings.append(perf_counter() - began)
            extras["rtt_floor_s"] = statistics.median(pings)
            plain = await served.phase(streams, seconds=config.seconds / 2)
            before = child.command("trace-on")
            stats_before = (await served.databases[0].stats())["metrics"]
            rounds += [plain, await served.phase(streams, seconds=config.seconds / 2)]
            stats_after = (await served.databases[0].stats())["metrics"]
            traced = child.command("trace-off")
            extras.update(layers.served_extras(before, traced, stats_before, stats_after))
            extras["overhead_ratio"] = served.rate(spec, plain) / served.rate(
                spec, rounds[-1]
            )
        timed = _pooled(rounds[-1])
        final = child.command("report")
        # Connections write disjoint documents and no read ever sees a
        # written one, so replaying connection by connection is exact.
        phases = [
            connection_phases[index]
            for index in range(served.connections)
            for connection_phases in rounds
        ]
        attempted, failed, messages = check(
            model, phases, await served.collections[0].find({})
        )
    finally:
        await served.discard()
    report = describe(
        config, spec, served.connections, served.documents, served.streams()[0],
        setups, timed, messages,
    )
    per_layer = {}
    if config.trace:
        per_layer = layers.metrics(
            spec=spec, docs=config.docs, setup=setups[0], setup_cells=setup_cells,
            timed=timed, extras=extras,
        )
        report["trace"] = {
            "missing_seams": final["missing_seams"],
            "setup_cells": setup_cells,
            "timed_cells": extras["cells"],
            "spans": traced["spans"],
        }
    return Outcome(
        end_to_end=end_to_end(
            spec, served.connections, setups, timed, final["peak_rss_mb"]
        ),
        per_layer=per_layer,
        attempted=attempted,
        failed=failed,
        report=report,
    )


def run(config: Config) -> Outcome:
    """Run one workload with each busy process pinned to a CPU of its
    own: the program under test on the last CPU this process may use,
    the served workload's load generator on the first.  On two shared
    vCPUs an unpinned server and client keep displacing each other
    (README, "Steadiness")."""
    cpus = sorted(os.sched_getaffinity(0))
    if config.workload == "served-mixed":
        os.sched_setaffinity(0, {cpus[0]})
        return asyncio.run(_run_served(config, cpus[-1]))
    os.sched_setaffinity(0, {cpus[-1]})
    return asyncio.run(_run_in_process(config))
