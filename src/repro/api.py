"""The one front door: every backend behind ``connect`` and ``collection``.

**Two constructors** cover every backend -- volatile, durable, sharded
and remote -- and return objects that share one uniform collection
protocol, so call sites are written once and retargeted by
configuration::

    import repro.api as repro

    db = repro.connect()                  # volatile, in memory
    db = repro.connect("./mydb")          # durable (WAL + snapshots)
    db = repro.connect("./mydb", shards=4)  # durable and hash-partitioned
    db = repro.connect("tcp://10.0.0.5:4321")  # remote, via repro.client

    people = db.collection("people")
    people.insert_many([{"name": "Sue", "age": 35}])
    people.find({"age": {"$gt": 30}})

    scratch = repro.collection([{"n": 1}])     # one-off volatile collection
    big = repro.collection(docs, shards=4)     # volatile and partitioned

The protocol every collection handle answers, with the same signature
and the same return type whatever the backend (``tests/test_api.py::
TestUniformProtocol`` runs each against all four):

* reads -- ``find(filter, projection=None)``, ``count(filter)``,
  ``aggregate(pipeline)``, ``len(collection)``;
* writes -- ``insert(doc)``, ``insert_many(docs)``, ``remove(doc_id)``,
  and ``update_one``/``update_many``/``replace_one``, each called as
  ``(filter, doc, upsert=False)`` and returning an
  :class:`~repro.mongo.update.UpdateResult`;
* reports -- ``explain(filter)``, ``explain_aggregate(pipeline)`` and
  ``explain_update(filter, update, first_only=False)``, each an
  :class:`Explain` (a sharded ``explain``/``explain_update`` is a list
  of them, one per shard).

The in-process backends also answer ``find_rows(filter,
projection=None)`` -- ``find`` with document ids.  Every read takes a
per-query ``hint=``.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

from repro.errors import StoreError
from repro.explain import Explain
from repro.store.collection import Collection
from repro.store.database import Database
from repro.store.faults import IOAdapter
from repro.store.sharded import ShardedCollection

__all__ = ["connect", "collection", "Explain", "ShardedDatabase"]

_SHARDED_VALIDATOR = (
    "sharded collections compile their own validators; pass schema= "
    "instead of validator="
)


def connect(
    path: "str | os.PathLike | None" = None,
    *,
    shards: int = 1,
    io: IOAdapter | None = None,
    sync: str = "fsync",
    compact_threshold: int | None = None,
    parallel: "bool | str" = "auto",
    start_method: str | None = None,
):
    """Open a database handle over any backend.

    * ``connect()`` -- volatile in-memory collections;
    * ``connect(path)`` -- durable collections under ``path`` (WAL +
      snapshots, recovered on reopen);
    * ``connect(path, shards=N)`` -- hash-partitioned collections, one
      shard directory per name under ``path`` (``path=None`` keeps the
      shards in memory); ``parallel``/``start_method`` configure the
      worker pool as in :class:`~repro.store.sharded.ShardedCollection`;
    * ``connect("tcp://host:port")`` -- a client to a ``repro serve``
      process (see :mod:`repro.client`); the remote database accepts no
      local storage keywords.

    ``io`` swaps the filesystem adapter on durable backends (fault
    injection; see :mod:`repro.store.faults`).  Every return value is a
    context manager whose collections share the uniform protocol.  The
    semantic optimizer is always on; ``hint={"no_semantic": True}`` opts
    a single read out, on every backend.
    """
    if isinstance(path, str) and path.startswith("tcp://"):
        if shards != 1 or io is not None:
            raise StoreError(
                "a remote connection takes no shards/io keywords; "
                "configure the server process instead"
            )
        from repro.client import connect as client_connect

        return client_connect(path)
    if shards < 1:
        raise StoreError(f"shard count must be >= 1, got {shards}")
    if shards == 1:
        return Database(
            path,
            sync=sync,
            compact_threshold=compact_threshold,
            io=io,
        )
    if io is not None:
        raise StoreError(
            "fault injection (io=) is not plumbed through sharded "
            "engines; use shards=1 or inject per shard"
        )
    return ShardedDatabase(
        path,
        shards=shards,
        sync=sync,
        parallel=parallel,
        start_method=start_method,
    )


def collection(
    documents: Iterable[Any] = (),
    *,
    shards: int = 1,
    schema: Any | None = None,
    validator: Any | None = None,
    extended: bool = False,
    indexed: bool = True,
    parallel: "bool | str" = "auto",
) -> "Collection | ShardedCollection":
    """A one-off volatile collection (tests, benchmarks, scripts).

    Anything that should survive a restart belongs behind
    :func:`connect` with a path.  Per query, ``hint={"no_semantic":
    True}`` opts a single read out of the semantic optimizer.
    """
    if shards < 1:
        raise StoreError(f"shard count must be >= 1, got {shards}")
    if shards == 1:
        return Collection(
            documents,
            schema=schema,
            validator=validator,
            extended=extended,
            indexed=indexed,
        )
    if validator is not None:
        raise StoreError(_SHARDED_VALIDATOR)
    return ShardedCollection(
        documents,
        shards=shards,
        schema=schema,
        extended=extended,
        indexed=indexed,
        parallel=parallel,
    )


class ShardedDatabase(Database):
    """Named hash-partitioned collections under one root.

    A :class:`~repro.store.database.Database` whose handles are
    :class:`~repro.store.sharded.ShardedCollection` objects and whose
    collections are directories: the shard files of ``name`` live in
    ``<path>/<name>/`` (memory shards when ``path`` is ``None``).
    Handle caching, reopen rules and maintenance are the base class's.
    """

    def __init__(
        self,
        path: "str | os.PathLike | None" = None,
        *,
        shards: int,
        sync: str = "fsync",
        parallel: "bool | str" = "auto",
        start_method: str | None = None,
    ) -> None:
        super().__init__(path, sync=sync)
        self._shards = shards
        self._parallel = parallel
        self._start_method = start_method

    def _open(
        self,
        name: str,
        documents: Iterable[Any],
        *,
        validator: Any | None = None,
        **config: Any,
    ) -> ShardedCollection:
        if validator is not None:
            raise StoreError(_SHARDED_VALIDATOR)
        return ShardedCollection(
            documents,
            shards=self._shards,
            path=None if self._path is None else os.path.join(self._path, name),
            sync=self._sync,
            parallel=self._parallel,
            start_method=self._start_method,
            **config,
        )

    def _stored_names(self) -> set[str]:
        return {
            entry
            for entry in os.listdir(self._path)
            if os.path.isdir(os.path.join(self._path, entry))
        }

    @property
    def shards(self) -> int:
        return self._shards
