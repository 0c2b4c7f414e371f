"""The process-wide LRU cache for compiled artifacts.

Compiling a query (parsing, path-automaton construction) or a validator
(definition resolution, key-set/regex prebuilding, closure generation)
is pure in its source, so the work can be shared across calls and
across documents.  This module provides a small instrumented LRU cache
plus the process-wide default instance shared by *every* compile-once
subsystem: :func:`repro.query.compile_query` and the query front-ends,
and :func:`repro.validate.compile_schema_validator` and the other
validator compilers.  One cache, one set of hit/miss/eviction counters.

Only *compilation artifacts* are cached -- never per-tree evaluation
results -- so a cached plan or validator can be run against any
document, including one that changed since the last call, without ever
returning stale results.  Keys are namespaced by a dialect string
(``"jnl"``, ``"jsonpath"``, ``"mongo-find"``, ``"schema-validator"``,
``"jsl-validator"``, ``"stream-validator"``) so the subsystems can
never collide.  Most are keyed on the canonical source text; a
``"mongo-find"`` plan is keyed on the filter's *shape* -- its int and
str constants as kind-typed holes -- plus the projection, so fresh
constants bind into one entry.  What can depend on a constant's value
stays literal: the filter's payload (``"mongo-payload"``, its JNL
formula and path automata) and the prover's ``"semantic-verdict"``
entries are keyed on the literal text, and made only for a read that
verifies or proves.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import RLock
from typing import Callable, Hashable, TypeVar

__all__ = [
    "CacheStats",
    "LRUCache",
    "DEFAULT_CAPACITY",
    "USE_DEFAULT_CACHE",
    "artifact_cache",
    "artifact_cache_stats",
    "clear_artifact_cache",
    "configure_artifact_cache",
    "resolve_cache",
]

T = TypeVar("T")

DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A thread-safe LRU mapping with instrumentation.

    >>> cache = LRUCache(capacity=2)
    >>> cache.get_or_compute("a", lambda: 1)
    1
    >>> cache.get_or_compute("a", lambda: 1)
    1
    >>> cache.stats().hits, cache.stats().misses
    (1, 1)
    """

    __slots__ = ("_capacity", "_entries", "_lock", "hits", "misses", "evictions")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> object | None:
        """The cached value, refreshing recency; ``None`` on a miss."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Return the cached value for ``key``, computing it on a miss."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]  # type: ignore[return-value]
            self.misses += 1
        # Compute outside the lock: compilation can be slow and reentrant
        # (a Mongo $elemMatch compiles a nested filter).
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def resize(self, capacity: int) -> None:
        """Change the capacity, evicting LRU entries if shrinking."""
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        with self._lock:
            self._capacity = capacity
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._entries),
                capacity=self._capacity,
            )


# ---------------------------------------------------------------------------
# The process-wide default compile cache.
# ---------------------------------------------------------------------------

_GLOBAL_CACHE = LRUCache(DEFAULT_CAPACITY)

# Sentinel distinguishing "use the global cache" from "no caching"
# (``cache=None``) in the compile entry points' signatures.
USE_DEFAULT_CACHE = object()


def artifact_cache() -> LRUCache:
    """The process-wide compiled-artifact cache shared by all subsystems."""
    return _GLOBAL_CACHE


def artifact_cache_stats() -> CacheStats:
    """Unified counters of the process-wide compiled-artifact cache."""
    return _GLOBAL_CACHE.stats()


def clear_artifact_cache() -> None:
    """Empty the process-wide artifact cache and reset its counters."""
    _GLOBAL_CACHE.clear()


def configure_artifact_cache(capacity: int) -> None:
    """Resize the process-wide artifact cache (evicting if shrinking)."""
    _GLOBAL_CACHE.resize(capacity)


def resolve_cache(cache: object) -> LRUCache | None:
    """Normalise a compile entry point's ``cache`` argument.

    ``USE_DEFAULT_CACHE`` resolves to the process-wide cache, ``None``
    disables caching, and an explicit :class:`LRUCache` is used as-is.
    """
    if cache is USE_DEFAULT_CACHE:
        return _GLOBAL_CACHE
    if cache is None or isinstance(cache, LRUCache):
        return cache
    raise TypeError(f"cache must be an LRUCache or None, got {cache!r}")
