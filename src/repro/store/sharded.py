"""Sharded collections: hash partitioning + scatter-gather execution.

The third storage flavour behind the :class:`~repro.store.engine.
StorageEngine` seam (memory | durable | **sharded**): a
:class:`ShardedCollection` hash-partitions documents by doc-id across N
ordinary :class:`~repro.store.collection.Collection` shards -- each
with its own secondary indexes and (under a ``path``) its own durable
WAL + snapshot files -- and a :class:`ShardedEngine` coordinates them,
either **serially** in-process or **in parallel** through a persistent
``multiprocessing`` worker pool (one process per shard, spawn-safe,
with the serial path as the fallback for N=1 and for platforms whose
pool cannot start).

Document ids are *global*: the coordinator assigns monotonically
increasing ids and routes each to ``shard_of(doc_id)``; a shard stores
its documents under their global ids (sparse slots -- the WAL replay
and snapshot formats already support gaps), so query results merge by
doc-id into exactly the single-collection answer order.

Execution is scatter-gather throughout, each shard running the single
collection's read path.  ``find``/``count``/``match_ids`` call the
shard's own method and k-way merge the rows; ``aggregate`` fans out the
map-side share of a compiled pipeline (the rows ``stream`` would read,
or a covered group's table, through every per-row stage, with
``$group`` folded into mergeable partial accumulator states and
``$sort`` into locally sorted runs) and merges at the coordinator --
see :meth:`repro.mongo.aggregate.CompiledPipeline.execute_partial`.
Writes route too: ``update_many`` broadcasts (each shard maintains its
own index deltas), single-document writes scatter a first-match probe
and send the write to the owning shard, and upserts seed at the
coordinator and route through the normal insert path.

Both execution modes run the *same* shard-operation functions (the
``_WORKER_OPS`` table); the parallel mode merely moves them into the
worker processes, with plain picklable payloads -- filter/pipeline
JSON, never compiled objects -- crossing the pipe, and each worker
compiling through its own process-wide artifact cache.

On disk a sharded collection owns a directory::

    <path>/sharding.json      # shard count + format tag
    <path>/shard-00.wal       # one ordinary durable collection
    <path>/shard-00.snapshot.json
    <path>/shard-01.wal
    ...

so each shard recovers independently through the ordinary
:class:`~repro.store.durable.DurableEngine` replay, and
``fsck.verify``/``repair`` cover every shard via their normal
per-collection file discovery.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ParseError, StorageFormatError, StoreError
from repro.explain import Explain, fold_shards
from repro.model.tree import JSONTree, JSONValue
from repro.query import optimizer
from repro.query.compiled import CompiledQuery, compile_mongo_find
from repro.query.optimizer import SemanticContext
from repro.store.collection import (
    Collection,
    _compile_schema,
    _no_semantic,
    is_id_type,
)
from repro.store.durable import DurableEngine
from repro.store.engine import EngineHealth, MemoryEngine

__all__ = [
    "SHARDING_META",
    "SHARDING_FORMAT",
    "SHARDING_VERSION",
    "shard_of",
    "shard_name",
    "ShardedEngine",
    "ShardedCollection",
]

SHARDING_META = "sharding.json"
SHARDING_FORMAT = "repro-sharded-v1"
SHARDING_VERSION = 1


def shard_of(doc_id: int, shard_count: int) -> int:
    """The shard owning a document id (hash partitioning by id)."""
    return doc_id % shard_count


def shard_name(index: int) -> str:
    """The collection name of one shard (``shard-00``, ``shard-01``...)."""
    return f"shard-{index:02d}"


# ---------------------------------------------------------------------------
# Shard operations: one function per RPC op, shared by both modes.
# ---------------------------------------------------------------------------


def _op_insert(collection: Collection, payload: Any) -> None:
    collection.insert_many(payload["docs"], ids=payload["ids"])


def _op_remove(collection: Collection, payload: Any) -> JSONValue:
    return collection.remove(payload).to_value()


def _op_get(collection: Collection, payload: Any) -> JSONValue:
    return collection.get(payload).to_value()


def _op_contains(collection: Collection, payload: Any) -> bool:
    return payload in collection


def _op_meta(collection: Collection, payload: Any) -> dict[str, int]:
    ids = collection.doc_ids()
    return {
        "alive": len(collection),
        "next_id": ids[-1] + 1 if ids else 0,
    }


def _op_doc_ids(collection: Collection, payload: Any) -> list[int]:
    return collection.doc_ids()


def _op_values(collection: Collection, payload: Any) -> list:
    return [
        (doc_id, tree.to_value()) for doc_id, tree in collection.documents()
    ]


def _op_find(collection: Collection, payload: Any) -> list:
    return collection.find_rows(
        payload["filter"], payload["projection"], hint=payload["hint"]
    )


def _op_count(collection: Collection, payload: Any) -> int:
    return collection.count(payload["filter"], hint=payload["hint"])


def _op_match_ids(collection: Collection, payload: Any) -> list[int]:
    return collection.match_ids(payload["filter"], hint=payload["hint"])


def _op_explain(collection: Collection, payload: Any):
    return collection.explain(payload["filter"], hint=payload["hint"])


def _op_agg_partial(collection: Collection, payload: Any) -> dict[str, Any]:
    """The map side of the coordinator's ``{"pipeline", "semantic",
    "explain"}`` envelope (compiled through this process's cache)."""
    from repro.mongo.aggregate import compile_pipeline

    return compile_pipeline(payload["pipeline"]).execute_partial(
        collection, verdict=payload["semantic"], explain=payload["explain"]
    )


def _op_first_match(collection: Collection, payload: Any) -> int | None:
    from repro.mongo.update import first_match_id

    return first_match_id(collection, payload)


def _op_update_many(collection: Collection, payload: Any) -> tuple[int, int]:
    result = collection.update_many(payload["filter"], payload["update"])
    return result.matched_count, result.modified_count


def _op_update_one(collection: Collection, payload: Any) -> tuple[int, int]:
    result = collection.update_one(payload["filter"], payload["update"])
    return result.matched_count, result.modified_count


def _op_replace_one(collection: Collection, payload: Any) -> tuple[int, int]:
    result = collection.replace_one(payload["filter"], payload["replacement"])
    return result.matched_count, result.modified_count


def _op_explain_update(collection: Collection, payload: Any):
    return collection.explain_update(
        payload["filter"],
        payload["update"],
        first_only=payload["first_only"],
        hint=payload["hint"],
    )


def _op_checkpoint(collection: Collection, payload: Any):
    return collection.compact()


def _op_health(collection: Collection, payload: Any) -> EngineHealth:
    return collection.health


_WORKER_OPS: dict[str, Callable[[Collection, Any], Any]] = {
    "insert": _op_insert,
    "remove": _op_remove,
    "get": _op_get,
    "contains": _op_contains,
    "meta": _op_meta,
    "doc_ids": _op_doc_ids,
    "values": _op_values,
    "find": _op_find,
    "count": _op_count,
    "match_ids": _op_match_ids,
    "explain": _op_explain,
    "agg_partial": _op_agg_partial,
    "first_match": _op_first_match,
    "update_many": _op_update_many,
    "update_one": _op_update_one,
    "replace_one": _op_replace_one,
    "explain_update": _op_explain_update,
    "checkpoint": _op_checkpoint,
    "health": _op_health,
}


def _build_shard(config: dict[str, Any]) -> Collection:
    """One shard's ordinary Collection, from a picklable config."""
    if config["path"] is None:
        engine: Any = MemoryEngine()
    else:
        engine = DurableEngine(
            config["path"], config["name"], sync=config["sync"]
        )
    return Collection(
        engine=engine,
        schema=config["schema"],
        extended=config["extended"],
        indexed=config["indexed"],
    )


def _safe_error(exc: BaseException) -> Exception:
    """An exception that survives pickling (fall back to a summary)."""
    if not isinstance(exc, Exception):
        return StoreError(f"{type(exc).__name__}: {exc}")
    try:
        import pickle

        pickle.loads(pickle.dumps(exc))
    except Exception:
        return StoreError(f"{type(exc).__name__}: {exc}")
    return exc


def _worker_main(conn: Any, config: dict[str, Any]) -> None:
    """A shard worker: recover the shard, then serve ops until 'stop'.

    Module-level (not a closure) so the ``spawn`` start method can
    import it; the ready handshake surfaces recovery errors eagerly.
    """
    try:
        collection = _build_shard(config)
    except BaseException as exc:
        conn.send(("err", _safe_error(exc)))
        conn.close()
        return
    conn.send(("ok", None))
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            break
        if op == "stop":
            try:
                collection.close()
            except Exception:
                pass
            conn.send(("ok", None))
            break
        handler = _WORKER_OPS.get(op)
        try:
            if handler is None:
                raise StoreError(f"unknown shard op {op!r}")
            result = handler(collection, payload)
        except BaseException as exc:
            conn.send(("err", _safe_error(exc)))
        else:
            try:
                conn.send(("ok", result))
            except Exception as exc:  # unpicklable result
                conn.send(("err", _safe_error(exc)))
    conn.close()


class _WorkerHandle:
    """Coordinator-side handle on one shard worker process."""

    __slots__ = ("process", "conn")

    def __init__(self, context: Any, config: dict[str, Any]) -> None:
        parent_conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_conn, config), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.receive()  # the ready handshake (raises on recovery failure)

    def send(self, op: str, payload: Any) -> None:
        self.conn.send((op, payload))

    def receive(self) -> Any:
        try:
            kind, data = self.conn.recv()
        except (EOFError, OSError):
            raise StoreError(
                "shard worker died (connection closed mid-request)"
            ) from None
        if kind == "err":
            raise data
        return data

    def stop(self) -> None:
        try:
            self.send("stop", None)
            self.receive()
        except Exception:
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5)
        self.conn.close()


def _resolve_context(start_method: str | None) -> Any:
    """A multiprocessing context, preferring ``fork`` where available
    (cheap worker start, inherited imports); ``spawn`` elsewhere."""
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ShardedEngine:
    """The coordinator: one engine/worker per shard plus the routing.

    Owns the shard layout (the ``sharding.json`` meta under a durable
    ``path``), builds the per-shard collections -- in-process for the
    serial mode, inside persistent worker processes for the parallel
    mode -- and exposes the request/scatter primitives every
    :class:`ShardedCollection` operation is built from.  ``scatter``
    sends to all workers before receiving from any, so shard work
    genuinely overlaps in parallel mode.
    """

    def __init__(
        self,
        shard_count: int | None = None,
        *,
        path: str | None = None,
        schema: Any = None,
        extended: bool = False,
        indexed: bool = True,
        sync: str = "fsync",
        parallel: bool | str = "auto",
        start_method: str | None = None,
    ) -> None:
        self._path = os.fspath(path) if path is not None else None
        self._closed = False
        resolved = self._resolve_layout(shard_count, extended)
        if resolved < 1:
            raise StoreError(f"shard count must be >= 1, got {resolved}")
        self._shard_count = resolved
        self._configs = [
            {
                "path": self._path,
                "name": shard_name(index),
                "schema": schema,
                "extended": extended,
                "indexed": indexed,
                "sync": sync,
            }
            for index in range(resolved)
        ]
        if parallel == "auto":
            parallel = resolved > 1
        self._workers: list[_WorkerHandle] | None = None
        self._shards: list[Collection] | None = None
        if parallel:
            try:
                context = _resolve_context(start_method)
                workers: list[_WorkerHandle] = []
                try:
                    for config in self._configs:
                        workers.append(_WorkerHandle(context, config))
                except Exception:
                    for worker in workers:
                        worker.stop()
                    raise
                self._workers = workers
            except Exception:
                # No usable multiprocessing here (missing fork/spawn
                # support, an unimportable __main__, a sandboxed
                # platform): the serial in-process mode is the
                # documented fallback.  A genuine per-shard recovery
                # error reproduces on the serial build below and
                # surfaces from there.
                self._workers = None
        if self._workers is None:
            self._shards = [_build_shard(config) for config in self._configs]

    # ------------------------------------------------------------------

    def _resolve_layout(
        self, shard_count: int | None, extended: bool
    ) -> int:
        """Adopt or create the on-disk ``sharding.json`` meta."""
        if self._path is None:
            return 4 if shard_count is None else shard_count
        os.makedirs(self._path, exist_ok=True)
        meta_path = os.path.join(self._path, SHARDING_META)
        if os.path.exists(meta_path):
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
            except (OSError, ValueError) as exc:
                raise StorageFormatError(
                    f"unreadable sharding meta {meta_path}: {exc}"
                ) from exc
            if (
                not isinstance(meta, dict)
                or meta.get("format") != SHARDING_FORMAT
                or meta.get("version") != SHARDING_VERSION
                or not isinstance(meta.get("shards"), int)
            ):
                raise StorageFormatError(
                    f"unrecognised sharding meta in {meta_path}"
                )
            on_disk = meta["shards"]
            if shard_count is not None and shard_count != on_disk:
                raise StorageFormatError(
                    f"database at {self._path} has {on_disk} shards; "
                    f"rebalancing to {shard_count} is not supported"
                )
            return on_disk
        resolved = 4 if shard_count is None else shard_count
        if resolved >= 1:
            meta = {
                "format": SHARDING_FORMAT,
                "version": SHARDING_VERSION,
                "shards": resolved,
                "extended": extended,
            }
            with open(meta_path, "w", encoding="utf-8") as handle:
                json.dump(meta, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return resolved

    # ------------------------------------------------------------------
    # The RPC primitives.
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return self._shard_count

    @property
    def parallel(self) -> bool:
        return self._workers is not None

    @property
    def path(self) -> str | None:
        return self._path

    @property
    def shards(self) -> list[Collection] | None:
        """The in-process shard collections (serial mode only)."""
        return self._shards

    def request(self, index: int, op: str, payload: Any) -> Any:
        """Run one op on one shard, returning its result."""
        if self._workers is not None:
            worker = self._workers[index]
            worker.send(op, payload)
            return worker.receive()
        return _WORKER_OPS[op](self._shards[index], payload)

    def scatter(self, op: str, payloads: list[Any]) -> list[Any]:
        """Run one op on every shard (payloads aligned by index).

        Parallel mode sends every request before receiving any reply,
        so the shards execute concurrently; errors re-raise after all
        replies drain, keeping the pipes in lock-step.
        """
        if len(payloads) != self._shard_count:
            raise StoreError(
                f"scatter got {len(payloads)} payloads for "
                f"{self._shard_count} shards"
            )
        if self._workers is None:
            return [
                _WORKER_OPS[op](shard, payload)
                for shard, payload in zip(self._shards, payloads)
            ]
        for worker, payload in zip(self._workers, payloads):
            worker.send(op, payload)
        results: list[Any] = []
        first_error: BaseException | None = None
        for worker in self._workers:
            try:
                results.append(worker.receive())
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def broadcast(self, op: str, payload: Any = None) -> list[Any]:
        """Run one op with the same payload on every shard."""
        return self.scatter(op, [payload] * self._shard_count)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def health(self) -> list[EngineHealth]:
        return self.broadcast("health")

    def checkpoint(self) -> list[Any]:
        """Checkpoint every shard (per-shard CompactionReports)."""
        return self.broadcast("checkpoint")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._workers is not None:
            for worker in self._workers:
                worker.stop()
            return
        for shard in self._shards:
            shard.close()

    def __repr__(self) -> str:
        mode = "parallel" if self.parallel else "serial"
        where = f"path={self._path!r}" if self._path else "memory"
        return (
            f"ShardedEngine(shards={self._shard_count}, {mode}, {where})"
        )


class ShardedCollection:
    """A hash-partitioned collection with scatter-gather execution.

    The public surface mirrors :class:`~repro.store.collection.
    Collection` -- ``insert_many``/``find``/``count``/``aggregate``/
    ``update_many``/``update_one``/``replace_one``/``explain_aggregate``
    -- with identical results (the randomised differential suite pits
    the two against each other), executed across the shards of a
    :class:`ShardedEngine`.  Global doc-ids are assigned here and
    routed by :func:`shard_of`; with schema enforcement on, batches
    validate at the coordinator *before* scattering, so a rejection
    leaves every shard untouched (shards re-validate defensively on
    their own write paths).
    """

    def __init__(
        self,
        documents: Iterable["JSONTree | JSONValue"] = (),
        *,
        shards: int | None = None,
        path: str | None = None,
        schema: Any = None,
        extended: bool = False,
        indexed: bool = True,
        sync: str = "fsync",
        parallel: bool | str = "auto",
        start_method: str | None = None,
        engine: ShardedEngine | None = None,
    ) -> None:
        if engine is None:
            engine = ShardedEngine(
                shards,
                path=path,
                schema=schema,
                extended=extended,
                indexed=indexed,
                sync=sync,
                parallel=parallel,
                start_method=start_method,
            )
        self._engine = engine
        self._extended = extended
        self._validator = None
        self._schema_context: SemanticContext | None = None
        if schema is not None:
            self._validator, self._schema_context = _compile_schema(schema)
        metas = engine.broadcast("meta")
        self._next_id = max(meta["next_id"] for meta in metas)
        documents = list(documents)
        if documents:
            self.insert_many(documents)

    # ------------------------------------------------------------------
    # Ingestion and removal.
    # ------------------------------------------------------------------

    def insert_many(
        self, documents: Iterable["JSONTree | JSONValue"]
    ) -> list[int]:
        """Ingest a batch: assign global ids, validate once at the
        coordinator, scatter each shard its slice."""
        values = [
            doc.to_value() if isinstance(doc, JSONTree) else doc
            for doc in documents
        ]
        if self._validator is not None and values:
            # Coordinator-side validation keeps the batch atomic
            # across shards: a rejection happens before any scatter.
            from repro.errors import DocumentRejectedError
            from repro.validate.bulk import validate_corpus

            trees = JSONTree.from_values(values, extended=self._extended)
            report = validate_corpus(self._validator, trees, early_exit=True)
            if not report.all_valid:
                assert report.first_invalid is not None
                raise DocumentRejectedError(report.first_invalid)
        ids = list(range(self._next_id, self._next_id + len(values)))
        count = self._engine.shard_count
        payloads = [{"ids": [], "docs": []} for _ in range(count)]
        for doc_id, value in zip(ids, values):
            payload = payloads[shard_of(doc_id, count)]
            payload["ids"].append(doc_id)
            payload["docs"].append(value)
        self._engine.scatter("insert", payloads)
        self._next_id += len(values)
        return ids

    def insert(self, document: "JSONTree | JSONValue") -> int:
        return self.insert_many([document])[0]

    def remove(self, doc_id: int) -> JSONValue:
        """Remove a document by id on its owning shard; returns its
        value (a sharded collection never materialises trees here)."""
        return self._engine.request(self._owner(doc_id), "remove", doc_id)

    def _owner(self, doc_id: int) -> int:
        """The shard a document id routes to; anything that is not an
        id (an ``int`` that is not a ``bool``) is unknown right here."""
        if not is_id_type(type(doc_id)):
            raise StoreError(f"unknown document id {doc_id}")
        return shard_of(doc_id, self._engine.shard_count)

    # ------------------------------------------------------------------
    # Inspection.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(
            meta["alive"] for meta in self._engine.broadcast("meta")
        )

    def __contains__(self, doc_id: int) -> bool:
        if not isinstance(doc_id, int) or doc_id < 0:
            return False
        owner = shard_of(doc_id, self._engine.shard_count)
        return self._engine.request(owner, "contains", doc_id)

    def get_value(self, doc_id: int) -> JSONValue:
        """The document under a global id, as a plain value."""
        return self._engine.request(self._owner(doc_id), "get", doc_id)

    def doc_ids(self) -> list[int]:
        return list(heapq.merge(*self._engine.broadcast("doc_ids")))

    def values(self) -> Iterator[tuple[int, JSONValue]]:
        """Live ``(doc_id, value)`` pairs in global id order."""
        return heapq.merge(*self._engine.broadcast("values"))

    @property
    def engine(self) -> ShardedEngine:
        return self._engine

    @property
    def shard_count(self) -> int:
        return self._engine.shard_count

    @property
    def parallel(self) -> bool:
        return self._engine.parallel

    @property
    def path(self) -> str | None:
        return self._engine.path

    @property
    def extended(self) -> bool:
        return self._extended

    @property
    def schema_enforced(self) -> bool:
        return self._validator is not None

    @property
    def semantic_context(self) -> SemanticContext | None:
        """The coordinator-side semantic premise: the enforced schema.

        The coordinator proves a verdict once per uncovered query and
        the shards inherit it through the scatter payloads; only schema
        premises apply here (a coordinator holds no documents, so there
        is no structural summary to infer -- shards keep their own).  The
        fingerprint is the canonical schema text, so coordinator and
        shard verdicts share one cache entry per schema.
        """
        return None if self._extended else self._schema_context

    @property
    def health(self) -> list[EngineHealth]:
        """Per-shard engine health (a degraded shard rejects writes)."""
        return self._engine.health()

    # ------------------------------------------------------------------
    # Querying (scatter the shards' own reads, merge by global doc-id).
    # ------------------------------------------------------------------

    def _decision(
        self, query: CompiledQuery | None, no_semantic: bool
    ) -> "optimizer.SemanticDecision | None":
        """The coordinator's one proof for a scatter read, for its
        shards to inherit -- only of a filter outside the index cover:
        each shard decides a covered-shaped one against its own live
        index.  A filter outside the find dialect gets none."""
        if query is None or query.plan.cover is not None:
            return None
        return optimizer.semantic_plan(self, query, no_semantic=no_semantic)

    def _read_kind(
        self, filter_doc: dict[str, Any], hint: dict[str, Any] | None
    ) -> str:
        """The verdict kind of :meth:`_decision` for a find filter."""
        try:
            query = compile_mongo_find(filter_doc)
        except ParseError:
            query = None
        return optimizer.effective_kind(self._decision(query, _no_semantic(hint)))

    def find_rows(
        self,
        filter_doc: dict[str, Any],
        projection: dict[str, Any] | None = None,
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[tuple[int, JSONValue]]:
        """``(doc_id, projected value)`` pairs across all shards, in
        global id order (ids are unique, so the merge is total)."""
        if self._read_kind(filter_doc, hint) == "empty":
            return []  # the schema refutes the filter: no scatter at all
        runs = self._engine.broadcast(
            "find", {"filter": filter_doc, "projection": projection, "hint": hint}
        )
        return list(heapq.merge(*runs))

    def find(
        self,
        filter_doc: dict[str, Any],
        projection: dict[str, Any] | None = None,
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[JSONValue]:
        """MongoDB's ``find``, scatter-gathered: identical rows and
        order to the single-collection planner path."""
        return [
            value
            for _, value in self.find_rows(filter_doc, projection, hint=hint)
        ]

    def count(
        self,
        filter_doc: dict[str, Any],
        *,
        hint: dict[str, Any] | None = None,
    ) -> int:
        kind = self._read_kind(filter_doc, hint)
        if kind == "empty":
            return 0
        if kind == "all":
            return len(self)  # one cheap meta scatter, no query work
        return sum(
            self._engine.broadcast("count", {"filter": filter_doc, "hint": hint})
        )

    def match_ids(
        self,
        filter_doc: dict[str, Any],
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[int]:
        """Ids matching a Mongo find filter, in global id order."""
        if self._read_kind(filter_doc, hint) == "empty":
            return []
        runs = self._engine.broadcast(
            "match_ids", {"filter": filter_doc, "hint": hint}
        )
        return list(heapq.merge(*runs))

    def explain(
        self,
        filter_doc: dict[str, Any],
        *,
        hint: dict[str, Any] | None = None,
    ) -> Explain:
        """The fleet-wide find :class:`~repro.explain.Explain`, each
        shard's share under ``shards`` (see
        :func:`~repro.explain.fold_shards`)."""
        reports = self._engine.broadcast(
            "explain", {"filter": filter_doc, "hint": hint}
        )
        return fold_shards(enumerate(reports))

    def aggregate(
        self, pipeline: list, *, hint: dict[str, Any] | None = None
    ) -> list[JSONValue]:
        """MongoDB's ``aggregate``, scatter-gathered: map-side partial
        stages per shard, merge-finalize at the coordinator."""
        from repro.mongo.aggregate import compile_pipeline

        return compile_pipeline(pipeline).execute(
            self, no_semantic=_no_semantic(hint)
        )

    def explain_aggregate(
        self, pipeline: list, *, hint: dict[str, Any] | None = None
    ):
        """The fleet-wide aggregation :class:`~repro.explain.Explain`:
        the shards' reports folded into one, under the coordinator's
        verdict when it proved one."""
        from repro.mongo.aggregate import compile_pipeline

        return compile_pipeline(pipeline).explain(
            self, no_semantic=_no_semantic(hint)
        )

    def scatter_partial_aggregate(
        self, pipeline: Any, *, no_semantic: bool = False, explain: bool = False
    ) -> tuple["optimizer.SemanticDecision | None", list[dict]]:
        """Fan a compiled pipeline's map-side share out to every shard:
        ``(decision, partials)``, one picklable partial per shard.

        The hook :meth:`CompiledPipeline.execute`/``explain`` detect.
        The coordinator decides the leading match once
        (:meth:`_decision`) and ships the pipeline *source* (workers
        compile through their own artifact caches) with the verdict
        the shards inherit: ``"empty"``/``"all"`` to enforce, ``"off"``
        under the ``no_semantic`` hint, ``None`` to decide locally.
        An ``"empty"`` verdict scatters nothing but an explain.
        """
        decision = self._decision(pipeline.lead_query, no_semantic)
        kind = optimizer.effective_kind(decision)
        if kind == "empty" and not explain:
            return decision, []
        semantic = kind if kind in ("empty", "all") else None
        payload = {
            "pipeline": pipeline.pipeline,
            "semantic": "off" if no_semantic else semantic,
            "explain": explain,
        }
        return decision, self._engine.broadcast("agg_partial", payload)

    # ------------------------------------------------------------------
    # Writes (shard-routed, per-shard delta index maintenance).
    # ------------------------------------------------------------------

    def update_many(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        upsert: bool = False,
    ):
        """Update every matching document, shard-local everywhere:
        each shard selects its own targets through its own indexes and
        maintains its own postings delta."""
        from repro.mongo.update import UpdateResult, compile_update, upsert_into

        counts = self._engine.broadcast(
            "update_many", {"filter": filter_doc, "update": update_doc}
        )
        matched = sum(pair[0] for pair in counts)
        modified = sum(pair[1] for pair in counts)
        if matched == 0 and upsert:
            return upsert_into(self, filter_doc, compile_update(update_doc))
        return UpdateResult(matched, modified)

    def update_one(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        upsert: bool = False,
    ):
        """Update the first match in *global* id order: scatter a
        first-match probe, route the write to the owning shard."""
        from repro.mongo.update import UpdateResult, compile_update, upsert_into

        owner = self._first_match_owner(filter_doc)
        if owner is None:
            if upsert:
                return upsert_into(
                    self, filter_doc, compile_update(update_doc)
                )
            return UpdateResult(0, 0)
        matched, modified = self._engine.request(
            owner, "update_one", {"filter": filter_doc, "update": update_doc}
        )
        return UpdateResult(matched, modified)

    def replace_one(
        self,
        filter_doc: dict[str, Any],
        replacement: dict[str, Any],
        *,
        upsert: bool = False,
    ):
        """Replace the first match in global id order wholesale."""
        from repro.mongo.update import UpdateResult, compile_replacement, upsert_into

        compiled = compile_replacement(replacement)  # validate eagerly
        owner = self._first_match_owner(filter_doc)
        if owner is None:
            if upsert:
                return upsert_into(self, filter_doc, compiled)
            return UpdateResult(0, 0)
        matched, modified = self._engine.request(
            owner,
            "replace_one",
            {"filter": filter_doc, "replacement": replacement},
        )
        return UpdateResult(matched, modified)

    def _first_match_owner(self, filter_doc: dict[str, Any]) -> int | None:
        """The shard holding the globally first matching document.

        The global minimum over per-shard first matches is that shard's
        local first match too, so the routed single-document write hits
        exactly the document the unsharded path would have.
        """
        firsts = self._engine.broadcast("first_match", filter_doc)
        best: tuple[int, int] | None = None
        for index, doc_id in enumerate(firsts):
            if doc_id is not None and (best is None or doc_id < best[0]):
                best = (doc_id, index)
        return None if best is None else best[1]

    def explain_update(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        first_only: bool = False,
        hint: dict[str, Any] | None = None,
    ) -> Explain:
        """The fleet-wide update dry run, each shard's share under
        ``shards``; ``first_only`` routes like :meth:`update_one`, to
        the shard holding the global first match (if any)."""
        payload = {
            "filter": filter_doc,
            "update": update_doc,
            "first_only": first_only,
            "hint": hint,
        }
        if first_only:
            owner = self._first_match_owner(filter_doc)
            if owner is not None:
                report = self._engine.request(owner, "explain_update", payload)
                return fold_shards([(owner, report)])
        reports = self._engine.broadcast("explain_update", payload)
        return fold_shards(enumerate(reports))

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def compact(self) -> list[Any]:
        """Checkpoint every shard; per-shard reports (None in memory)."""
        return self._engine.checkpoint()

    def close(self) -> None:
        self._engine.close()

    def __enter__(self) -> "ShardedCollection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedCollection(shards={self.shard_count}, "
            f"{'parallel' if self.parallel else 'serial'}, "
            f"next_id={self._next_id})"
        )
