"""The serving tier: wire round-trips, typed error rehydration,
snapshot-isolated concurrent reads, group commit, and crash recovery.

``TestConcurrencyDifferential`` is scaled by ``REPRO_DIFF_SCALE`` (the
nightly CI job sweeps it at 20x) and pins the concurrency contract:
every read request is answered from one immutable
:class:`~repro.store.snapshot.CollectionSnapshot` -- a reader racing
the writer task never observes a torn write, and the final state is
identical to the same operations applied to a local collection.

``TestGroupCommitCrash`` drives ``engine.group()`` (the seam the
server's writer task batches through) into programmed crash points and
checks the recovery oracle: acknowledged writes survive, unacknowledged
group writes recover to a prefix, never anything else.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time

import pytest

from repro import api
from repro.client import aconnect, connect
from repro.errors import (
    CollectionReadOnlyError,
    ParseError,
    ReproError,
    ServerError,
    StoreError,
    WireProtocolError,
    error_code,
    from_wire,
    to_wire,
)
from repro.mongo import UpdateResult
from repro.reference.workloads import people_collection
from repro.server import PROTOCOL_VERSION, ReproServer
from repro.store import Collection, DurableEngine
from repro.store.faults import FaultPlan, FaultyIO, SimulatedCrash

_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))

PEOPLE = people_collection(60, seed=7)


class ServerThread:
    """A :class:`ReproServer` on its own event-loop thread.

    Sync-client tests need the server loop running concurrently with
    the test body; asyncio tests instead start the server inside their
    own ``asyncio.run`` coroutine.
    """

    def __init__(self, database) -> None:
        self.database = database
        self.server = ReproServer(database)
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

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop.is_closed():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self._loop
        )
        future.result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


@pytest.fixture()
def served():
    database = api.connect()
    database.collection(documents=PEOPLE)
    with ServerThread(database) as handle:
        with connect(handle.address) as remote:
            yield remote, handle


def durable_collection(path, **kwargs):
    kwargs.setdefault("sync", "fsync")
    documents = kwargs.pop("documents", ())
    engine = DurableEngine(os.fspath(path), "main", **kwargs)
    return Collection(documents, engine=engine)


# ---------------------------------------------------------------------------
# Wire round-trips: remote results == local planner results.
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_reads_match_the_local_planner(self, served):
        remote, _ = served
        local = api.collection(PEOPLE)
        collection = remote.collection()
        for filter_doc in [
            {},
            {"age": {"$gt": 40}},
            {"address.city": "Talca"},
            {"$or": [{"age": {"$lt": 25}}, {"age": {"$gt": 60}}]},
        ]:
            assert collection.find(filter_doc) == local.find(filter_doc)
            assert collection.count(filter_doc) == local.count(filter_doc)
        pipeline = [
            {"$match": {"age": {"$gt": 30}}},
            {"$group": {"_id": "$address.city", "n": {"$sum": 1}}},
            {"$sort": {"n": -1, "_id": 1}},
        ]
        assert collection.aggregate(pipeline) == local.aggregate(pipeline)
        assert len(collection) == len(local)

    def test_get_select_and_explain(self, served):
        remote, _ = served
        local = api.collection(PEOPLE)
        collection = remote.collection()
        assert collection.get(3) == local.get(3).to_value()
        assert collection.select("$.name") == list(local.select("$.name"))
        remote_report = collection.explain({"age": {"$gt": 50}})
        local_report = local.explain({"age": {"$gt": 50}})
        assert remote_report.kind == "find"
        assert remote_report.dialect == local_report.dialect
        assert remote_report.matched == local_report.matched
        assert remote_report.candidates == local_report.candidates
        remote_json = remote_report.to_json()
        local_json = local_report.to_json()
        # Proof latency is wall-clock; everything else matches exactly.
        remote_json["semantics"].pop("proof_ms")
        local_json["semantics"].pop("proof_ms")
        assert remote_json == local_json

    def test_writes_round_trip(self, served):
        remote, _ = served
        collection = remote.collection()
        before = len(collection)
        doc_id = collection.insert({"name": "Zoe", "age": 31})
        assert collection.get(doc_id) == {"name": "Zoe", "age": 31}
        ids = collection.insert_many([{"name": "Ana"}, {"name": "Bo"}])
        assert len(ids) == 2 and len(collection) == before + 3

        result = collection.update_one(
            {"name": "Zoe"}, {"$inc": {"age": 1}}
        )
        assert result == UpdateResult(1, 1)
        assert collection.get(doc_id)["age"] == 32

        result = collection.update_many(
            {"name": {"$in": ["Ana", "Bo"]}}, {"$set": {"seen": 1}}
        )
        assert result == UpdateResult(2, 2)

        result = collection.update_one(
            {"name": "Nix"}, {"$set": {"name": "Nix"}}, upsert=True
        )
        assert result.matched_count == 0
        assert collection.get(result.upserted_id) == {"name": "Nix"}

        assert collection.replace_one(
            {"name": "Nix"}, {"name": "Pix"}
        ) == UpdateResult(1, 1)
        removed = collection.remove(doc_id)
        assert removed["name"] == "Zoe"
        assert collection.count({"name": "Zoe"}) == 0

    def test_validate_against_inline_schema(self, served):
        remote, _ = served
        collection = remote.collection()
        schema = {
            "type": "object",
            "required": ["name"],
            "properties": {"age": {"type": "number", "maximum": 120}},
        }
        assert collection.validate({"name": "Sue", "age": 9}, schema)
        assert not collection.validate({"age": 9}, schema)
        assert not collection.validate({"name": "Sue", "age": 200}, schema)

    def test_multiple_named_collections(self, served):
        remote, handle = served
        handle.database.collection("aux", documents=[{"k": 1}])
        assert set(remote.collection_names()) >= {"main", "aux"}
        assert remote.collection("aux").find({}) == [{"k": 1}]


# ---------------------------------------------------------------------------
# Typed errors: server serialises, client rehydrates the same class.
# ---------------------------------------------------------------------------


class TestErrorRehydration:
    def test_bad_filter_rehydrates_parse_error(self, served):
        remote, _ = served
        with pytest.raises(ParseError) as excinfo:
            remote.collection().find({"age": {"$bogus": 1}})
        assert "unsupported operator" in str(excinfo.value)
        assert error_code(excinfo.value) == "parse.error"

    def test_validate_without_schema_is_a_store_error(self, served):
        remote, _ = served
        with pytest.raises(StoreError):
            remote.collection().validate({"name": "Sue"})

    def test_unknown_op_is_a_wire_protocol_error(self, served):
        remote, _ = served
        with pytest.raises(WireProtocolError):
            remote.request("frobnicate")

    def test_a_sharded_database_is_refused(self, tmp_path):
        # Reads answer from pinned snapshots, which sharded collections
        # do not pin: refuse up front, not with an opaque error per read.
        with api.connect(tmp_path, shards=2, parallel=False) as database:
            with pytest.raises(StoreError, match="sharded"):
                ReproServer(database)

    def test_explain_of_a_pipeline_and_an_update_is_refused(self, served):
        """One explain request names one thing to explain; both at once
        used to answer the pipeline and silently drop the update."""
        remote, _ = served
        with pytest.raises(WireProtocolError, match="not both"):
            remote.request(
                "explain",
                pipeline=[{"$match": {"age": {"$gt": 30}}}],
                update={"$inc": {"age": 1}},
            )
        # Either alone still answers, on the same connection.
        assert remote.request("explain", pipeline=[])["kind"] == "aggregate"
        assert (
            remote.request("explain", update={"$inc": {"age": 1}})["kind"]
            == "update"
        )

    def test_malformed_line_is_answered_then_dropped(self, served):
        _, handle = served
        with socket.create_connection(handle.address) as raw:
            stream = raw.makefile("rwb")
            greeting = json.loads(stream.readline())
            assert greeting["protocol"] == PROTOCOL_VERSION
            stream.write(b"this is not json\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "wire.protocol"

    def test_schema_rejection_crosses_the_wire(self, tmp_path):
        database = api.connect(str(tmp_path))
        database.collection(
            schema={"type": "object", "required": ["name"]}
        )
        from repro.errors import DocumentRejectedError

        with ServerThread(database) as handle:
            with connect(handle.address) as remote:
                collection = remote.collection()
                collection.insert({"name": "ok"})
                with pytest.raises(DocumentRejectedError):
                    collection.insert({"nope": 1})
                # The failed write poisons nothing: the next one lands.
                collection.insert({"name": "still ok"})
                assert len(collection) == 2

    def test_wire_taxonomy_is_stable_and_total(self):
        """Every public exception class carries a distinct code, and
        ``from_wire(to_wire(exc))`` rehydrates the exact class."""
        classes = set()
        frontier = [ReproError]
        while frontier:
            cls = frontier.pop()
            classes.add(cls)
            frontier.extend(cls.__subclasses__())
        codes = {}
        for cls in classes:
            assert isinstance(cls.code, str) and cls.code, cls
            assert cls.code not in codes, (
                f"{cls.__name__} shares code {cls.code!r} "
                f"with {codes[cls.code].__name__}"
            )
            codes[cls.code] = cls
        # ParseError has the simple one-message constructor shape every
        # rehydratable class must support through its from_payload hook.
        wired = to_wire(ParseError("boom"))
        back = from_wire(wired)
        assert type(back) is ParseError and "boom" in str(back)

    def test_unregistered_code_degrades_to_server_error(self):
        exc = from_wire({"code": "no.such.code", "message": "hi"})
        assert isinstance(exc, ServerError)
        assert exc.remote_code == "no.such.code"

    def test_non_repro_exception_maps_to_server_error(self):
        wired = to_wire(RuntimeError("surprise"))
        assert wired["code"] == "server.error"
        assert isinstance(from_wire(wired), ServerError)


# ---------------------------------------------------------------------------
# Admin plane: ping, stats, shutdown.
# ---------------------------------------------------------------------------


class TestAdmin:
    def test_ping_stats_and_metrics(self, served):
        remote, _ = served
        assert remote.ping()
        remote.collection().find({"age": {"$gt": 40}})
        stats = remote.stats()
        health = stats["health"]["main"]
        assert health["ok"] and not health["degraded"]
        assert stats["collections"]["main"]["documents"] == len(PEOPLE)
        assert stats["metrics"]["reads"] >= 1
        assert stats["durable"] is False

    def test_shutdown_op_stops_the_server(self):
        database = api.connect()
        database.collection(documents=[{"a": 1}])
        handle = ServerThread(database)
        try:
            with connect(handle.address) as remote:
                remote.shutdown()
            deadline = 50
            while deadline:
                try:
                    socket.create_connection(handle.address, timeout=0.2).close()
                except OSError:
                    break
                deadline -= 1
                time.sleep(0.05)
            with pytest.raises(OSError):
                socket.create_connection(handle.address, timeout=0.2).close()
        finally:
            handle._loop.call_soon_threadsafe(handle._loop.stop)
            handle._thread.join(timeout=10)
            handle._loop.close()


# ---------------------------------------------------------------------------
# Degraded mode over the wire: reads keep working, writes are typed
# rejections.
# ---------------------------------------------------------------------------


class TestDegradedMode:
    def test_faulted_engine_serves_reads_rejects_writes(self, tmp_path):
        io = FaultyIO()
        database = api.connect(str(tmp_path), sync="flush", io=io)
        database.collection(documents=[{"n": 1}, {"n": 2}])
        with ServerThread(database) as handle:
            with connect(handle.address) as remote:
                collection = remote.collection()
                io.arm(FaultPlan.fail("write"))
                with pytest.raises(StoreError) as excinfo:
                    collection.insert({"n": 3})
                assert error_code(excinfo.value) in (
                    "storage.io",
                    "store.read-only",
                )
                # Engine is read-only now: the typed rejection is stable.
                with pytest.raises(CollectionReadOnlyError):
                    collection.insert({"n": 4})
                # Reads still answer, from the unpoisoned snapshot.
                assert collection.count({}) == 2
                assert collection.find({"n": 2}) == [{"n": 2}]
                health = remote.stats()["health"]["main"]
                assert health["degraded"] and not health["ok"]


# ---------------------------------------------------------------------------
# Concurrency differential: N async readers racing the writer task.
# ---------------------------------------------------------------------------

ACCOUNTS = 8
BALANCE = 100


class TestConcurrencyDifferential:
    def test_readers_never_observe_torn_writes(self):
        """Readers race a stream of multi-document write requests.

        Invariants checked on *every* read response:

        * ``update_many`` bumps every account in one request -- all
          account balances are equal in any snapshot (a torn write
          would expose a half-applied batch);
        * pairs are inserted two-at-a-time in one request -- the pair
          count is even in any snapshot;
        * the aggregate sum equals ``accounts * balance`` for the
          balance implied by any single account (snapshot-internal
          consistency between find and aggregate is per-request).
        """
        rounds = 20 * _SCALE
        readers = 4
        violations: list[str] = []

        async def scenario() -> tuple[int, int]:
            database = api.connect()
            database.collection(
                documents=[
                    {"kind": "acct", "acct": i, "balance": BALANCE}
                    for i in range(ACCOUNTS)
                ]
            )
            server = ReproServer(database)
            await server.start()
            try:
                done = asyncio.Event()

                async def writer() -> tuple[int, int]:
                    remote = await aconnect(server.address)
                    try:
                        collection = remote.collection()
                        pairs = 0
                        for round_no in range(rounds):
                            await collection.update_many(
                                {"kind": "acct"},
                                {"$inc": {"balance": 1}},
                            )
                            if round_no % 3 == 0:
                                await collection.insert_many(
                                    [
                                        {"kind": "pair", "round": round_no},
                                        {"kind": "pair", "round": round_no},
                                    ]
                                )
                                pairs += 2
                        return rounds, pairs
                    finally:
                        await remote.aclose()
                        done.set()

                async def reader(index: int) -> None:
                    remote = await aconnect(server.address)
                    try:
                        collection = remote.collection()
                        while not done.is_set():
                            balances = [
                                doc["balance"]
                                for doc in await collection.find(
                                    {"kind": "acct"}
                                )
                            ]
                            if len(set(balances)) != 1:
                                violations.append(
                                    f"reader {index}: torn balances {balances}"
                                )
                            pair_count = await collection.count(
                                {"kind": "pair"}
                            )
                            if pair_count % 2:
                                violations.append(
                                    f"reader {index}: odd pair count "
                                    f"{pair_count}"
                                )
                            rows = await collection.aggregate(
                                [
                                    {"$match": {"kind": "acct"}},
                                    {
                                        "$group": {
                                            "_id": None,
                                            "total": {"$sum": "$balance"},
                                        }
                                    },
                                ]
                            )
                            total = rows[0]["total"]
                            if total % ACCOUNTS:
                                violations.append(
                                    f"reader {index}: torn sum {total}"
                                )
                    finally:
                        await remote.aclose()

                results = await asyncio.gather(
                    writer(), *[reader(i) for i in range(readers)]
                )
                increments, pairs = results[0]

                # Final-state differential against the local planner.
                remote = await aconnect(server.address)
                try:
                    collection = remote.collection()
                    final = await collection.find({})
                    metrics = (await remote.stats())["metrics"]
                finally:
                    await remote.aclose()
                local = api.collection(
                    [
                        {"kind": "acct", "acct": i, "balance": BALANCE}
                        for i in range(ACCOUNTS)
                    ]
                )
                for round_no in range(increments):
                    local.update_many(
                        {"kind": "acct"}, {"$inc": {"balance": 1}}
                    )
                    if round_no % 3 == 0:
                        local.insert_many(
                            [
                                {"kind": "pair", "round": round_no},
                                {"kind": "pair", "round": round_no},
                            ]
                        )
                assert final == local.find({})
                assert metrics["writes"] == increments + (pairs // 2)
                return increments, pairs
            finally:
                await server.aclose()

        increments, pairs = asyncio.run(scenario())
        assert increments == rounds and pairs == 2 * ((rounds + 2) // 3)
        assert violations == []

    def test_snapshot_pins_track_generations(self):
        """The server re-pins a snapshot only when the generation moved:
        reads between writes reuse one immutable view."""

        async def scenario() -> None:
            database = api.connect()
            database.collection(documents=[{"n": 1}])
            server = ReproServer(database)
            await server.start()
            try:
                remote = await aconnect(server.address)
                try:
                    collection = remote.collection()
                    for _ in range(5):
                        await collection.find({})
                    pins_idle = server.metrics.snapshot_pins
                    await collection.insert({"n": 2})
                    await collection.find({})
                    assert server.metrics.snapshot_pins == pins_idle + 1
                finally:
                    await remote.aclose()
            finally:
                await server.aclose()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Group commit: one sync per batch, crash points recover the
# acknowledged prefix.
# ---------------------------------------------------------------------------


class TestGroupCommitCrash:
    def test_group_defers_to_one_sync(self, tmp_path):
        collection = durable_collection(tmp_path)
        wal = collection.engine.wal
        before = wal.sync_count
        with collection.engine.group():
            for n in range(10):
                collection.insert({"n": n})
        assert wal.sync_count == before + 1
        collection.close()

    def test_crash_at_group_sync_loses_only_unacknowledged(self, tmp_path):
        io = FaultyIO()
        collection = durable_collection(tmp_path, io=io)
        collection.insert({"n": 0})  # acknowledged before the group
        io.arm(FaultPlan.crash("fsync"))
        with pytest.raises(SimulatedCrash):
            with collection.engine.group():
                collection.insert({"n": 1})
                collection.insert({"n": 2})
        # Nothing in the group was acknowledged.  The reopened state is
        # the acknowledged prefix plus possibly fully-landed frames of
        # the in-flight group -- in order, never a gap.
        reopened = durable_collection(tmp_path)
        recovered = [doc.to_value()["n"] for _, doc in reopened.documents()]
        assert recovered[0] == 0
        assert recovered == list(range(len(recovered)))
        reopened.close()

    @pytest.mark.parametrize("crash_op", ["write", "fsync"])
    def test_crash_sweep_inside_group_commit(self, tmp_path, crash_op):
        """Crash at each I/O op index inside a group-committed batch;
        the recovery oracle holds at every point."""
        for nth in range(1, 4 * _SCALE):
            directory = tmp_path / f"{crash_op}-{nth}"
            io = FaultyIO()
            collection = durable_collection(directory, io=io)
            collection.insert({"n": 0})
            io.arm(FaultPlan.crash(crash_op, nth=nth))
            try:
                with collection.engine.group():
                    for n in range(1, 5):
                        collection.insert({"n": n})
                acknowledged = 5  # group exited cleanly: all acked
            except SimulatedCrash:
                acknowledged = 1  # only the pre-group insert was acked
            reopened = durable_collection(directory)
            recovered = [
                doc.to_value()["n"] for _, doc in reopened.documents()
            ]
            assert len(recovered) >= acknowledged, (
                f"lost acknowledged write at {crash_op} #{nth}: {recovered}"
            )
            assert recovered == list(range(len(recovered))), (
                f"non-prefix recovery at {crash_op} #{nth}: {recovered}"
            )
            reopened.close()

    def test_server_batches_concurrent_writes(self, tmp_path):
        """Concurrent writer clients against a durable server share WAL
        syncs: strictly fewer syncs than write requests."""

        async def scenario() -> tuple[int, int, int]:
            database = api.connect(str(tmp_path), sync="fsync")
            collection = database.collection(documents=[{"n": 0}])
            wal = collection.engine.wal
            server = ReproServer(database)
            await server.start()
            try:
                before = wal.sync_count

                async def one_writer(index: int) -> None:
                    remote = await aconnect(server.address)
                    try:
                        handle = remote.collection()
                        for step in range(6):
                            await handle.insert(
                                {"writer": index, "step": step}
                            )
                    finally:
                        await remote.aclose()

                await asyncio.gather(*[one_writer(i) for i in range(8)])
                return (
                    wal.sync_count - before,
                    server.metrics.batched_writes,
                    server.metrics.group_commits,
                )
            finally:
                await server.aclose()

        syncs, batched, groups = asyncio.run(scenario())
        assert batched == 48
        assert groups >= 1
        assert syncs < batched, (
            f"no batching: {syncs} syncs for {batched} writes"
        )
        # Durability still holds for every acknowledged write.
        with api.connect(str(tmp_path)) as database:
            assert len(database.collection()) == 49
