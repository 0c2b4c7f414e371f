"""Indexed document collections: the store layer over the query stack.

The architectural seam between one-tree evaluation and many-document
serving::

    front-ends (JSONPath / Mongo find / JNL)
        |  lower into
    logical-plan IR (repro.query.ir)
        |  pruned by                 \\  evaluated by
    secondary indexes (store.indexes)  compiled plans (repro.query)
        |
    Collection (store.collection): interned trees, incremental index
    maintenance, schema enforcement on ingest, planner-routed queries,
    delta-maintained in-place updates (store.update)
        |  commits through
    StorageEngine (store.engine): MemoryEngine | DurableEngine
        |                              | sharded across N collections by
    WAL + snapshots (store.wal,    ShardedEngine/ShardedCollection
    store.durable), owned per      (store.sharded): global doc-ids,
    named collection by a          scatter-gather queries, mergeable
    Database handle                partial aggregation, optional
    (store.database)               multiprocessing worker pool

* :class:`~repro.store.database.Database` -- the factory every layer
  acquires collections through (open one via :func:`repro.api.connect`);
* :class:`~repro.store.collection.Collection` -- the document store
  (:func:`repro.api.collection` is the volatile convenience
  constructor);
* :class:`~repro.store.engine.StorageEngine` -- the persistence seam:
  :class:`~repro.store.engine.MemoryEngine` (no-op),
  :class:`~repro.store.durable.DurableEngine` (write-ahead log +
  versioned values-only snapshots, replay-on-open, log compaction) and
  :class:`~repro.store.sharded.ShardedEngine` (N engine-backed shards
  behind one coordinator);
* :class:`~repro.store.sharded.ShardedCollection` -- the
  hash-partitioned collection with parallel scatter-gather execution
  (``repro.api.collection(..., shards=N)`` is the volatile convenience
  constructor);
* :class:`~repro.store.indexes.DocumentIndexes` -- path/value/kind/
  key-presence postings with counted, incremental maintenance (the
  postings are the per-document record; repeats live in one sparse
  table);
* :class:`~repro.store.update.CompiledUpdate` -- dialect-neutral update
  programs whose mutation records drive delta index maintenance;
* :mod:`repro.store.faults` -- the injectable I/O seam
  (:class:`~repro.store.faults.IOAdapter`,
  :class:`~repro.store.faults.FaultyIO`) every durable byte routes
  through, for deterministic fault and crash-point testing;
* :mod:`repro.store.fsck` -- the offline integrity verifier and
  repairer behind ``repro db verify`` / ``repro db repair``.
"""

from repro.store.collection import Collection
from repro.store.database import Database
from repro.store.durable import DurableEngine
from repro.store.engine import MemoryEngine
from repro.store.faults import (
    Fault,
    FaultPlan,
    FaultyIO,
    IOAdapter,
    RealIO,
    SimulatedCrash,
)
from repro.store.indexes import DocumentIndexes
from repro.store.sharded import ShardedCollection, shard_name, shard_of
from repro.store.wal import WriteAheadLog

__all__ = [
    "Collection",
    "Database",
    "MemoryEngine",
    "DurableEngine",
    "ShardedCollection",
    "shard_of",
    "shard_name",
    "WriteAheadLog",
    "IOAdapter",
    "RealIO",
    "FaultyIO",
    "Fault",
    "FaultPlan",
    "SimulatedCrash",
    "DocumentIndexes",
]
