"""The asyncio serving tier: snapshot reads, one writer, group commit.

:class:`ReproServer` exposes a :class:`~repro.store.database.Database`
(memory or durable) over TCP with the JSON-lines protocol of
:mod:`repro.server.protocol` and a **multi-reader/single-writer**
concurrency model:

* **Reads pin snapshots.**  Every read request answers against a
  :class:`~repro.store.snapshot.CollectionSnapshot` pinned at the
  collection's current generation -- the server keeps one cached pin
  per collection and re-pins only after the generation moves, so a
  read request never observes a half-applied write and pinning costs
  nothing on a read-mostly workload.  Reads execute directly in the
  connection handler; they never wait behind the writer queue.

* **Writes funnel through one writer task.**  Write requests enqueue
  ``(request, future)`` pairs; the single writer task drains the queue
  into batches and executes each batch inside the storage engine's
  ``group()`` block -- the PR-5 two-phase stage/validate/commit runs
  per request, but the batch shares **one WAL sync** (group commit).
  No client is acknowledged until the group's sync has returned, so an
  acknowledged write is a durable write, and a crash can only lose
  writes that were never acknowledged.

* **Degraded engines keep serving.**  A collection whose engine hit a
  storage failure (PR 7) keeps answering reads from memory; its writes
  fail with the typed ``store.read-only`` wire error the client
  rehydrates to :class:`~repro.errors.CollectionReadOnlyError`.

Request/response examples live in :mod:`repro.server.protocol`; the
counterpart client is :mod:`repro.client`.
"""

from __future__ import annotations

import asyncio
import dataclasses
from contextlib import nullcontext
from typing import Any

from repro.errors import (
    ReproError,
    StoreError,
    WireProtocolError,
)
from repro.server import protocol
from repro.store.database import Database

__all__ = ["ReproServer", "ServerMetrics", "serve"]


@dataclasses.dataclass
class ServerMetrics:
    """Monotonic counters the ``stats`` operation reports.

    ``group_commits``/``batched_writes`` expose the amortisation the
    bench gates on: ``batched_writes / group_commits`` is the mean
    batch size, and on a durable engine each group costs one WAL sync.
    """

    connections: int = 0
    requests: int = 0
    reads: int = 0
    writes: int = 0
    admin: int = 0
    errors: int = 0
    group_commits: int = 0
    batched_writes: int = 0
    max_batch: int = 0
    snapshot_pins: int = 0
    ops: dict[str, int] = dataclasses.field(default_factory=dict)

    def count_op(self, op: str) -> None:
        self.ops[op] = self.ops.get(op, 0) + 1

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def _jsonable(value: Any) -> Any:
    """Reports (dataclasses, exceptions) as plain JSON values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            key: _jsonable(item)
            for key, item in dataclasses.asdict(value).items()
        }
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, BaseException):
        return str(value)
    return value


class ReproServer:
    """One database served over asyncio TCP (see module docstring).

    ``database`` may be shared with in-process code: the server's
    writer task is the only writer *through the server*, and in-process
    writers would race it -- hand the database over exclusively, as a
    real server process does.  A sharded database is refused: its
    collections pin no snapshots, which every read here answers from.
    """

    def __init__(
        self,
        database: Database,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 256,
    ) -> None:
        if max_batch < 1:
            raise StoreError("max_batch must be a positive integer")
        if getattr(database, "shards", 1) != 1:
            raise StoreError(
                "ReproServer cannot serve a sharded database: sharded "
                "collections pin no read snapshots; serve shards=1"
            )
        self._database = database
        self._host = host
        self._port = port
        self._max_batch = max_batch
        self._server: asyncio.AbstractServer | None = None
        self._writer_task: asyncio.Task | None = None
        # Created in start(), on the serving loop.
        self._queue: "asyncio.Queue[tuple[dict, asyncio.Future]] | None" = None
        self._snapshots: dict[str, Any] = {}
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closing = False
        self._closed = asyncio.Event()
        self.metrics = ServerMetrics()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the writer task."""
        if self._server is not None:
            raise StoreError("server is already started")
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self._writer_task = asyncio.create_task(self._writer_loop())

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemerals)."""
        if self._server is None or not self._server.sockets:
            raise StoreError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        """Serve until :meth:`aclose` (or a ``shutdown`` request)."""
        if self._server is None:
            await self.start()
        await self._closed.wait()

    async def aclose(self) -> None:
        """Stop accepting, drain the writer queue, close the database."""
        if self._closing:
            await self._closed.wait()
            return
        self._closing = True
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        # Drain acknowledged work: everything already queued commits
        # (and its clients get their responses) before the writer dies.
        if self._writer_task is not None:
            await self._queue.join()
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        # Unblock connections parked in readline and wait the handlers
        # out, so no cleanup outlives the loop this server ran on.
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(
                set(self._connections), timeout=5
            )
        self._database.close()
        self._closed.set()

    # ------------------------------------------------------------------
    # Connections.
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
        writer.write(protocol.encode(protocol.greeting()))
        try:
            await writer.drain()
            while True:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break
                except ValueError as exc:  # longer than the stream limit
                    raise WireProtocolError(
                        "frame exceeds the line limit"
                    ) from exc
                if not line:
                    break
                if line.strip() == b"":
                    continue
                response = await self._respond(line)
                writer.write(protocol.encode(response))
                await writer.drain()
                if self._closing:
                    break
        except (ConnectionError, WireProtocolError, ValueError) as exc:
            # A protocol-level failure poisons the framing; answer once
            # (best effort, no id to echo) and drop the connection.
            if isinstance(exc, WireProtocolError):
                self.metrics.errors += 1
                try:
                    writer.write(
                        protocol.encode(protocol.error_response(None, exc))
                    )
                    await writer.drain()
                except ConnectionError:
                    pass
        finally:
            if task is not None:
                self._connections.pop(task, None)
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _respond(self, line: bytes) -> dict[str, Any]:
        """One request line to one response envelope."""
        self.metrics.requests += 1
        request_id: Any = None
        try:
            message = protocol.decode(line)
            request_id, op = protocol.parse_request(message)
            self.metrics.count_op(op)
            if op in protocol.WRITE_OPS:
                self.metrics.writes += 1
                result = await self._enqueue_write(message)
            elif op in protocol.ADMIN_OPS:
                self.metrics.admin += 1
                result = await self._execute_admin(op, message)
            else:
                self.metrics.reads += 1
                result = self._execute_read(op, message)
            return protocol.ok_response(request_id, result)
        except Exception as exc:
            # ReproError serialises to its own code; anything else
            # answers as an opaque ``server.error`` rather than
            # tearing the connection down.
            self.metrics.errors += 1
            return protocol.error_response(request_id, exc)

    # ------------------------------------------------------------------
    # Reads: pin a snapshot, answer from it.
    # ------------------------------------------------------------------

    def _collection(self, message: dict[str, Any]):
        name = message.get("collection", "main")
        if not isinstance(name, str):
            raise WireProtocolError("collection name must be a string")
        return self._database.collection(name)

    def _snapshot(self, message: dict[str, Any]):
        """The cached snapshot for a collection, re-pinned when stale.

        Writes only happen on this loop (the writer task), so a cached
        pin at the live generation is exactly the current state; after
        a group commit the next read re-pins once.
        """
        name = message.get("collection", "main")
        collection = self._collection(message)
        pinned = self._snapshots.get(name)
        if pinned is None or pinned.generation != collection.generation:
            pinned = collection.snapshot_view()
            self._snapshots[name] = pinned
            self.metrics.snapshot_pins += 1
        return pinned

    def _execute_read(self, op: str, message: dict[str, Any]) -> Any:
        snapshot = self._snapshot(message)
        hint = message.get("hint")
        if hint is not None and not isinstance(hint, dict):
            raise WireProtocolError("hint must be a JSON object")
        if op == "find":
            return snapshot.find(
                _require_dict(message, "filter", default={}),
                message.get("projection"),
                hint=hint,
            )
        if op == "count":
            return snapshot.count(
                _require_dict(message, "filter", default={}), hint=hint
            )
        if op == "aggregate":
            return snapshot.aggregate(
                _require_list(message, "pipeline"), hint=hint
            )
        if op == "select":
            dialect = message.get("dialect", "jsonpath")
            if not isinstance(dialect, str):
                raise WireProtocolError("dialect must be a string")
            query = message.get("query")
            if not isinstance(query, str):
                raise WireProtocolError("select needs a textual 'query'")
            return [
                [doc_id, values]
                for doc_id, values in snapshot.select(query, dialect)
            ]
        if op == "get":
            doc_id = message.get("doc_id")
            if not isinstance(doc_id, int):
                raise WireProtocolError("get needs an integer 'doc_id'")
            return snapshot.get(doc_id).to_value()
        if op == "validate":
            return self._execute_validate(message)
        if op == "explain":
            if "pipeline" in message and "update" in message:
                raise WireProtocolError(
                    "explain takes a 'pipeline' or an 'update', not both"
                )
            if "pipeline" in message:
                report = snapshot.explain_aggregate(
                    _require_list(message, "pipeline"), hint=hint
                )
            elif "update" in message:
                # A dry run only reads; it answers from the live
                # collection because snapshots hold no write planner.
                report = self._collection(message).explain_update(
                    _require_dict(message, "filter", default={}),
                    _require_dict(message, "update"),
                    first_only=bool(message.get("first_only")),
                    hint=hint,
                )
            else:
                report = snapshot.explain(
                    _require_dict(message, "filter", default={}), hint=hint
                )
            return report.to_json()
        raise WireProtocolError(f"unhandled read operation {op!r}")

    def _execute_validate(self, message: dict[str, Any]) -> bool:
        """Validate a document against an inline schema or the
        collection's enforced one."""
        if "document" not in message:
            raise WireProtocolError("validate needs a 'document'")
        document = message["document"]
        schema = message.get("schema")
        if schema is not None:
            from repro.schema.parser import parse_schema
            from repro.validate.compiled import compile_schema_validator

            validator = compile_schema_validator(parse_schema(schema))
            extended = False
        else:
            collection = self._collection(message)
            validator = collection.validator
            extended = collection.extended
            if validator is None:
                raise StoreError(
                    "collection enforces no schema; pass an inline 'schema' "
                    "to validate against"
                )
        return validator.validate_value(document, extended=extended)

    # ------------------------------------------------------------------
    # Writes: the single writer task and its group commits.
    # ------------------------------------------------------------------

    async def _enqueue_write(self, message: dict[str, Any]) -> Any:
        if self._closing:
            raise StoreError("server is shutting down; write rejected")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((message, future))
        return await future

    async def _writer_loop(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self._max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                self._commit_group(batch)
            except Exception as exc:  # pragma: no cover - defensive
                # The writer task must survive anything: an unhandled
                # failure here would silently hang every later write.
                for _, future in batch:
                    if not future.done() and not future.cancelled():
                        future.set_exception(
                            StoreError(f"writer task failed: {exc}")
                        )
            finally:
                for _ in batch:
                    self._queue.task_done()

    def _commit_group(self, batch: list[tuple[dict, asyncio.Future]]) -> None:
        """Execute one drained batch as per-collection group commits.

        Requests are partitioned by collection (preserving queue order
        within each), every partition runs inside its engine's
        ``group()`` block, and futures resolve only after the block --
        i.e. after the batch's single WAL sync -- so acknowledgements
        imply durability.  An individually-failed request (schema
        rejection, read-only engine) answers its own error without
        poisoning the rest of the batch; a failed group *sync* fails
        every request that had staged into that group.
        """
        self.metrics.group_commits += 1
        self.metrics.batched_writes += len(batch)
        self.metrics.max_batch = max(self.metrics.max_batch, len(batch))
        by_collection: dict[str, list[tuple[dict, asyncio.Future]]] = {}
        outcomes: list[tuple[asyncio.Future, BaseException | None, Any]] = []
        for message, future in batch:
            name = message.get("collection", "main")
            if not isinstance(name, str):
                outcomes.append(
                    (
                        future,
                        WireProtocolError("collection name must be a string"),
                        None,
                    )
                )
                continue
            by_collection.setdefault(name, []).append((message, future))
        for name, items in by_collection.items():
            try:
                collection = self._database.collection(name)
            except ReproError as exc:
                outcomes.extend((future, exc, None) for _, future in items)
                continue
            engine = getattr(collection, "engine", None)
            group = getattr(engine, "group", None)
            staged: list[tuple[asyncio.Future, BaseException | None, Any]] = []
            try:
                with group() if group is not None else nullcontext():
                    for message, future in items:
                        try:
                            result = self._apply_write(collection, message)
                            staged.append((future, None, result))
                        except Exception as exc:
                            staged.append((future, exc, None))
            except Exception as exc:
                # The group itself failed -- at entry (read-only
                # engine) or at the commit sync.  Nothing staged in
                # this block was made durable, so nothing staged may
                # be acknowledged; requests the loop never reached
                # fail with the same error.  Individually-failed
                # requests keep their own errors.
                reached = {id(future) for future, _, _ in staged}
                staged = [
                    (future, error if error is not None else exc, None)
                    for future, error, _ in staged
                ]
                staged.extend(
                    (future, exc, None)
                    for _, future in items
                    if id(future) not in reached
                )
            outcomes.extend(staged)
        for future, error, result in outcomes:
            if future.cancelled():
                continue
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)

    def _apply_write(self, collection: Any, message: dict[str, Any]) -> Any:
        op = message["op"]
        if op == "insert":
            documents = message.get("documents")
            if not isinstance(documents, list):
                raise WireProtocolError("insert needs a 'documents' array")
            return collection.insert_many(documents)
        if op == "update":
            filter_doc = _require_dict(message, "filter", default={})
            update_doc = _require_dict(message, "update")
            upsert = bool(message.get("upsert", False))
            run = (
                collection.update_one
                if message.get("one", False)
                else collection.update_many
            )
            return run(filter_doc, update_doc, upsert=upsert).to_json()
        if op == "replace":
            return collection.replace_one(
                _require_dict(message, "filter", default={}),
                _require_dict(message, "replacement"),
                upsert=bool(message.get("upsert", False)),
            ).to_json()
        if op == "remove":
            doc_id = message.get("doc_id")
            if not isinstance(doc_id, int):
                raise WireProtocolError("remove needs an integer 'doc_id'")
            return collection.remove(doc_id).to_value()
        if op == "compact":
            return _jsonable(collection.compact())
        raise WireProtocolError(f"unhandled write operation {op!r}")

    # ------------------------------------------------------------------
    # Admin.
    # ------------------------------------------------------------------

    async def _execute_admin(self, op: str, message: dict[str, Any]) -> Any:
        if op == "ping":
            return "pong"
        if op == "collections":
            return self._database.collection_names()
        if op == "stats":
            health = {
                name: {
                    "ok": status.ok,
                    "degraded": status.degraded,
                    "reason": status.reason,
                }
                for name, status in self._database.health().items()
            }
            collections = {
                name: {
                    "documents": len(collection),
                    "generation": collection.generation,
                }
                for name, collection in (
                    (name, self._database.collection(name))
                    for name in self._database.collection_names()
                )
            }
            return {
                "metrics": self.metrics.as_dict(),
                "collections": collections,
                "health": health,
                "durable": self._database.durable,
            }
        if op == "shutdown":
            # Acknowledge first, then close: the requesting client gets
            # its response before the listening socket goes away.
            asyncio.get_running_loop().create_task(self.aclose())
            return "shutting down"
        raise WireProtocolError(f"unhandled admin operation {op!r}")


_MISSING = object()


def _require_dict(
    message: dict[str, Any], field: str, default: Any = _MISSING
) -> dict[str, Any]:
    value = message.get(field, default)
    if value is _MISSING:
        raise WireProtocolError(f"request needs a {field!r} object")
    if not isinstance(value, dict):
        raise WireProtocolError(f"{field!r} must be a JSON object")
    return value


def _require_list(message: dict[str, Any], field: str) -> list:
    value = message.get(field)
    if not isinstance(value, list):
        raise WireProtocolError(f"{field!r} must be a JSON array")
    return value


async def serve(
    database: Database,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch: int = 256,
    on_ready=None,
) -> None:
    """Start a server and run it until shutdown (the CLI entry point).

    ``on_ready`` (when given) is called with the started
    :class:`ReproServer` once the socket is bound -- the ``repro
    serve`` command prints the address at that point, and tests use it
    to learn the ephemeral port without polling.
    """
    server = ReproServer(database, host=host, port=port, max_batch=max_batch)
    await server.start()
    if on_ready is not None:
        on_ready(server)
    await server.serve_forever()
