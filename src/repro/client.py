"""Clients for the JSON-lines serving tier (sync and async).

:func:`connect` opens a blocking socket client; :func:`aconnect` the
asyncio counterpart.  Both speak the protocol of
:mod:`repro.server.protocol` and expose remote collections through the
same uniform surface as local ones (``find``/``count``/``aggregate``/
``select``/``get``/``validate``/``explain``/``explain_aggregate``/
``explain_update``/``insert``/``insert_many``/``update_one``/
``update_many``/``replace_one``/``remove``/``compact``), returning the
same types (:class:`~repro.mongo.update.UpdateResult`,
:class:`~repro.explain.Explain`), so code written against
:func:`repro.api.connect` works unchanged against a server::

    import repro.client

    with repro.client.connect("127.0.0.1:4321") as db:
        people = db.collection("people")
        people.insert_many([{"name": "Sue", "age": 35}])
        rows = people.find({"age": {"$gt": 30}})

Every operation is written once, on a base class whose methods build
the request and hand it to ``_call``; the blocking and asyncio classes
differ only in how they connect, send one request and close (an
asyncio method returns an awaitable of what the blocking one returns).

Server-side failures rehydrate to the *same* exception classes local
code raises -- a write against a degraded engine raises
:class:`~repro.errors.CollectionReadOnlyError` here exactly as it
would in-process -- via the stable wire ``code`` taxonomy of
:mod:`repro.errors`.
"""

from __future__ import annotations

import asyncio
import socket
from operator import itemgetter
from typing import Any, Callable

from repro.errors import StoreError, WireProtocolError, from_wire
from repro.explain import Explain
from repro.mongo.update import UpdateResult
from repro.server import protocol

__all__ = [
    "connect",
    "aconnect",
    "RemoteDatabase",
    "RemoteCollection",
    "AsyncRemoteDatabase",
    "AsyncRemoteCollection",
    "parse_address",
]


def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """``"host:port"``, ``"tcp://host:port"`` or ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return host, int(port)
    if not isinstance(address, str):
        raise StoreError(f"unsupported server address {address!r}")
    text = address.strip()
    if text.startswith("tcp://"):
        text = text[len("tcp://") :]
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise StoreError(
            f"server address {address!r} is not of the form 'host:port'"
        )
    return host or "127.0.0.1", int(port)


def _check_greeting(line: bytes) -> None:
    if not line:
        raise WireProtocolError("server closed the connection")
    greeting = protocol.decode(line)
    if greeting.get("server") != "repro":
        raise WireProtocolError(
            f"remote end is not a repro server (greeting {greeting!r})"
        )
    version = greeting.get("protocol")
    if version != protocol.PROTOCOL_VERSION:
        raise WireProtocolError(
            f"server speaks protocol {version!r}; this client speaks "
            f"{protocol.PROTOCOL_VERSION}"
        )


def _unwrap(request_id: int, line: bytes) -> Any:
    """Check the envelope, rehydrate errors, return the result."""
    if not line:
        raise WireProtocolError("server closed the connection")
    response = protocol.decode(line)
    got = response.get("id")
    if got is not None and got != request_id:
        raise WireProtocolError(
            f"response id {got!r} does not match request id {request_id!r}"
        )
    if response.get("ok"):
        return response.get("result")
    error = response.get("error")
    if not isinstance(error, dict):
        raise WireProtocolError(f"malformed error response: {response!r}")
    raise from_wire(error)


def _select_rows(rows: list) -> list[tuple[int, list[Any]]]:
    return [(doc_id, values) for doc_id, values in rows]


# ---------------------------------------------------------------------------
# Every operation, once.  ``_call(op, fields, post)`` is the transport:
# one round trip, then ``post`` (when given) turns the wire result into
# the return type the local backends use.
# ---------------------------------------------------------------------------


class _RemoteCollectionOps:
    """The uniform collection surface, proxied over the wire."""

    def __init__(self, database: "_RemoteDatabaseOps", name: str) -> None:
        self._database = database
        self.name = name

    def _call(
        self,
        op: str,
        fields: dict[str, Any],
        post: Callable[[Any], Any] | None = None,
    ) -> Any:
        fields["collection"] = self.name
        return self._database._call(op, fields, post)

    @staticmethod
    def _read_fields(hint: "dict[str, Any] | None", **fields: Any) -> dict[str, Any]:
        """Request fields plus the per-request hint, when given."""
        if hint is not None:
            fields["hint"] = hint
        return fields

    # -- reads -------------------------------------------------------------

    def find(
        self,
        filter_doc: dict[str, Any],
        projection: dict[str, Any] | None = None,
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[Any]:
        fields = self._read_fields(hint, filter=filter_doc)
        if projection is not None:
            fields["projection"] = projection
        return self._call("find", fields)

    def count(
        self,
        filter_doc: dict[str, Any] | None = None,
        *,
        hint: dict[str, Any] | None = None,
    ) -> int:
        return self._call(
            "count", self._read_fields(hint, filter=filter_doc or {})
        )

    def aggregate(
        self, pipeline: list, *, hint: dict[str, Any] | None = None
    ) -> list[Any]:
        return self._call(
            "aggregate", self._read_fields(hint, pipeline=pipeline)
        )

    def select(
        self, query: str, dialect: str = "jsonpath"
    ) -> list[tuple[int, list[Any]]]:
        return self._call(
            "select", {"query": query, "dialect": dialect}, _select_rows
        )

    def get(self, doc_id: int) -> Any:
        return self._call("get", {"doc_id": doc_id})

    def validate(self, document: Any, schema: Any | None = None) -> bool:
        fields: dict[str, Any] = {"document": document}
        if schema is not None:
            fields["schema"] = schema
        return self._call("validate", fields)

    # The three explains share the one ``explain`` wire operation (the
    # server tells them apart by the field present) and all rehydrate
    # the server's :class:`~repro.explain.Explain`.

    def explain(
        self,
        filter_doc: dict[str, Any],
        *,
        hint: dict[str, Any] | None = None,
    ) -> Explain:
        return self._call(
            "explain",
            self._read_fields(hint, filter=filter_doc),
            Explain.from_json,
        )

    def explain_aggregate(
        self, pipeline: list, *, hint: dict[str, Any] | None = None
    ) -> Explain:
        return self._call(
            "explain",
            self._read_fields(hint, pipeline=pipeline),
            Explain.from_json,
        )

    def explain_update(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        first_only: bool = False,
        hint: dict[str, Any] | None = None,
    ) -> Explain:
        fields = self._read_fields(hint, filter=filter_doc, update=update_doc)
        if first_only:
            fields["first_only"] = True
        return self._call("explain", fields, Explain.from_json)

    # -- writes ------------------------------------------------------------

    def insert(self, document: Any) -> int:
        return self._call("insert", {"documents": [document]}, itemgetter(0))

    def insert_many(self, documents: list[Any]) -> list[int]:
        return self._call("insert", {"documents": list(documents)})

    def update_one(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return self._call(
            "update",
            {
                "filter": filter_doc,
                "update": update_doc,
                "one": True,
                "upsert": upsert,
            },
            UpdateResult.from_json,
        )

    def update_many(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return self._call(
            "update",
            {"filter": filter_doc, "update": update_doc, "upsert": upsert},
            UpdateResult.from_json,
        )

    def replace_one(
        self,
        filter_doc: dict[str, Any],
        replacement: dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return self._call(
            "replace",
            {
                "filter": filter_doc,
                "replacement": replacement,
                "upsert": upsert,
            },
            UpdateResult.from_json,
        )

    def remove(self, doc_id: int) -> Any:
        return self._call("remove", {"doc_id": doc_id})

    def compact(self) -> Any:
        return self._call("compact", {})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self._database!r})"


class _RemoteDatabaseOps:
    """One connection to a server; collection handles multiplex it.

    Requests run strictly in sequence on the one connection --
    concurrency comes from opening many clients, matching how separate
    processes would connect.  The transport subclasses supply
    ``request`` and ``_call``.
    """

    _collection_type: type[_RemoteCollectionOps]

    def __init__(self, address: tuple[str, int]) -> None:
        self._address = address
        self._next_id = 0
        self._closed = False

    def collection(self, name: str = "main") -> Any:
        return self._collection_type(self, name)

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    def collection_names(self) -> list[str]:
        return self._call("collections", {})

    def ping(self) -> bool:
        return self._call("ping", {}, lambda reply: reply == "pong")

    def stats(self) -> dict[str, Any]:
        return self._call("stats", {})

    def compact(self, name: str = "main") -> Any:
        return self._call("compact", {"collection": name})

    def shutdown(self) -> None:
        """Ask the server to stop serving (acknowledged, then closed)."""
        return self._call("shutdown", {}, lambda _: None)

    @property
    def durable(self) -> bool:
        return self._call("stats", {}, lambda stats: bool(stats["durable"]))

    def __repr__(self) -> str:
        host, port = self._address
        state = "closed" if self._closed else "open"
        return f"{type(self).__name__}({host}:{port}, {state})"


# ---------------------------------------------------------------------------
# Blocking transport.
# ---------------------------------------------------------------------------


class RemoteCollection(_RemoteCollectionOps):
    """A remote collection on a blocking connection."""

    def __len__(self) -> int:
        return self.count({})


class RemoteDatabase(_RemoteDatabaseOps):
    """The blocking client.  Not thread-safe: open one per thread, as
    with any connection handle."""

    _collection_type = RemoteCollection

    def __init__(self, address: "str | tuple[str, int]") -> None:
        super().__init__(parse_address(address))
        self._socket = socket.create_connection(self._address)
        self._file = self._socket.makefile("rwb")
        _check_greeting(self._readline())

    def _readline(self) -> bytes:
        return self._file.readline(protocol.MAX_LINE_BYTES + 2)

    def request(self, op: str, **fields: Any) -> Any:
        """One raw protocol round-trip (the escape hatch)."""
        if self._closed:
            raise StoreError("client is closed")
        self._next_id += 1
        request_id = self._next_id
        self._file.write(
            protocol.encode({"id": request_id, "op": op, **fields})
        )
        self._file.flush()
        return _unwrap(request_id, self._readline())

    def _call(
        self,
        op: str,
        fields: dict[str, Any],
        post: Callable[[Any], Any] | None = None,
    ) -> Any:
        result = self.request(op, **fields)
        return result if post is None else post(result)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def connect(address: "str | tuple[str, int]") -> RemoteDatabase:
    """Open a blocking client to a ``repro serve`` address.

    A read passed ``hint={"no_semantic": True}`` carries the hint to
    the server, which skips its semantic optimizer for that one query.
    """
    return RemoteDatabase(address)


# ---------------------------------------------------------------------------
# Asyncio transport (the differential tests' concurrent readers).
# ---------------------------------------------------------------------------


class AsyncRemoteCollection(_RemoteCollectionOps):
    """A remote collection on an asyncio connection: every operation
    returns an awaitable of what :class:`RemoteCollection` returns."""


class AsyncRemoteDatabase(_RemoteDatabaseOps):
    """The asyncio client: every operation returns an awaitable of what
    :class:`RemoteDatabase` returns (``await db.durable`` included).
    Open one with :func:`aconnect`."""

    _collection_type = AsyncRemoteCollection

    def __init__(
        self,
        address: tuple[str, int],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        super().__init__(address)
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    async def request(self, op: str, **fields: Any) -> Any:
        """One raw protocol round-trip (the escape hatch)."""
        if self._closed:
            raise StoreError("client is closed")
        async with self._lock:  # one in-flight request per connection
            self._next_id += 1
            request_id = self._next_id
            self._writer.write(
                protocol.encode({"id": request_id, "op": op, **fields})
            )
            await self._writer.drain()
            line = await self._reader.readline()
        return _unwrap(request_id, line)

    async def _call(
        self,
        op: str,
        fields: dict[str, Any],
        post: Callable[[Any], Any] | None = None,
    ) -> Any:
        result = await self.request(op, **fields)
        return result if post is None else post(result)

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass

    async def __aenter__(self) -> "AsyncRemoteDatabase":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


async def aconnect(address: "str | tuple[str, int]") -> AsyncRemoteDatabase:
    """Open an asyncio client to a ``repro serve`` address."""
    host, port = parse_address(address)
    reader, writer = await asyncio.open_connection(
        host, port, limit=protocol.MAX_LINE_BYTES
    )
    _check_greeting(await reader.readline())
    return AsyncRemoteDatabase((host, port), reader, writer)
