"""The one explain report: every front-end, every backend, one shape.

:class:`Explain` is the report of every find, aggregation and update
dry run: one versioned structure (``format``/``version`` header, nested
stage tree, per-table posting stats, per-shard breakdowns)
constructed by every backend, carrying a
:class:`SemanticsExplain` section whenever the schema-aware optimizer
(:mod:`repro.query.optimizer`) examined the query, round-tripping
through :meth:`Explain.to_json`/:meth:`Explain.from_json` over the wire
protocol, and printed by the CLI as one uniform JSON document.

Field population by ``kind``:

* ``"find"`` -- ``dialect``/``source`` plus the pruning counters
  (``total``/``candidates``/``scanned``/``matched``), and
  ``shards`` under scatter-gather;
* ``"aggregate"`` -- the same counters for the leading ``$match``,
  plus ``results``, the ``stages`` tree, and (under scatter-gather)
  ``shards``/``merge``;
* ``"update"`` -- ``source`` is the filter, ``update_source`` the
  update program, plus the dry-run delta counters
  (``modified``/``entries_added``/``entries_removed``/
  ``refcount_adjusted``/``postings``), and ``shards`` under
  scatter-gather.

Under scatter-gather every shard reports for itself and
:func:`fold_shards` folds the reports into one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Iterable

__all__ = [
    "EXPLAIN_FORMAT",
    "EXPLAIN_VERSION",
    "Explain",
    "SemanticsExplain",
    "StageExplain",
    "ShardExplain",
    "fold_shards",
]

EXPLAIN_FORMAT = "repro-explain"
EXPLAIN_VERSION = 1


@dataclass(frozen=True)
class StageExplain:
    """One pipeline stage in an aggregation explain.

    ``mode`` is ``"index-pruned"``/``"streamed"``/``"materialised"``
    on a single collection, or ``"covered"`` for an unfiltered
    ``$group`` (and its ``$unwind``) folded from the index postings
    without reading a document; under sharded execution, stages
    executed on the shards report ``"map-side"`` and the boundary stage
    whose partial states the coordinator combines reports ``"merged"``
    -- except a group every shard folded from its own postings, which
    reports ``"covered"`` there too.
    """

    op: str
    mode: str


@dataclass(frozen=True)
class ShardExplain:
    """One shard's share of a scatter-gather explain (``returned`` is
    the rows the shard returned, or for an update the documents it
    would modify)."""

    shard: int
    total: int
    candidates: int | None
    scanned: int
    matched: int
    returned: int

    @property
    def pruned(self) -> int:
        """Documents of this shard the index fold eliminated."""
        return 0 if self.candidates is None else self.total - self.candidates

    @property
    def used_indexes(self) -> bool:
        return self.candidates is not None


@dataclass(frozen=True)
class SemanticsExplain:
    """What the schema-aware optimizer concluded about one query.

    ``verdict`` is the proof outcome -- ``"empty"`` (schema ^ query
    unsatisfiable), ``"all"`` (schema entails the query), ``"residual"``
    (some conjuncts entailed, the rest still verified) or ``"none"`` --
    or ``"covered"``, which is no proof at all: the planner found the
    filter's index predicate exact on this collection's paths as the
    live index shows them (array-free, or ending in one flat array)
    and took the postings as the answer (``source="index"``,
    nothing verified, nothing proved).  Execution acts on every verdict
    but ``"none"``; a read with ``hint={"no_semantic": True}`` reports
    no section at all.  ``source`` names the premise: ``"schema"`` for
    an enforced schema, ``"summary"`` for the inferred structural
    summary of a schemaless collection.  ``discharged`` lists the
    predicates whose per-document verification the proof eliminated;
    ``residual`` renders what still runs.  ``timed_out`` flags a prover
    that hit its budget (the query fell through unoptimized), and
    ``cached`` that the verdict came from the process-wide artifact
    cache rather than a fresh proof.  :meth:`from_json` ignores the
    ``mode`` field older documents carry.
    """

    verdict: str
    source: str | None
    discharged: tuple[str, ...] = ()
    residual: str | None = None
    proof_ms: float = 0.0
    timed_out: bool = False
    cached: bool = False

    def to_json(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "source": self.source,
            "discharged": list(self.discharged),
            "residual": self.residual,
            "proof_ms": self.proof_ms,
            "timed_out": self.timed_out,
            "cached": self.cached,
        }

    @staticmethod
    def from_json(document: dict[str, Any]) -> "SemanticsExplain":
        return SemanticsExplain(
            verdict=document["verdict"],
            source=document.get("source"),
            discharged=tuple(document.get("discharged", ())),
            residual=document.get("residual"),
            proof_ms=document.get("proof_ms", 0.0),
            timed_out=document.get("timed_out", False),
            cached=document.get("cached", False),
        )


@dataclass(frozen=True)
class Explain:
    """The versioned explain report (see the module docstring)."""

    kind: str
    dialect: str | None = None
    source: str | None = None
    total: int = 0
    candidates: int | None = None
    scanned: int = 0
    matched: int = 0
    results: int | None = None
    modified: int | None = None
    update_source: str | None = None
    entries_added: int = 0
    entries_removed: int = 0
    refcount_adjusted: int = 0
    postings: dict[str, int] = field(default_factory=dict)
    stages: tuple[StageExplain, ...] = ()
    shards: tuple[ShardExplain, ...] = ()
    merge: str | None = None
    semantics: SemanticsExplain | None = None
    format: str = EXPLAIN_FORMAT
    version: int = EXPLAIN_VERSION

    # ------------------------------------------------------------------
    # Derived views (shared by every kind).
    # ------------------------------------------------------------------

    @property
    def pruned(self) -> int:
        """Documents the secondary indexes (or a semantic ``empty``
        verdict) eliminated before any value-space work.

        Counted against ``candidates``, not ``scanned``: a covered read
        scans none of the documents it returns, and a ``first_only``
        update exits early, without either having pruned them.  Where
        no fold ran, an ``empty`` verdict pruned everything and
        anything else (an ``all`` verdict, a full scan) nothing.
        """
        if self.candidates is not None:
            return self.total - self.candidates
        semantics = self.semantics
        if (
            self.kind != "update"
            and semantics is not None
            and semantics.verdict == "empty"
        ):
            return self.total
        return 0

    @property
    def used_indexes(self) -> bool:
        return self.candidates is not None

    @property
    def touched_tables(self) -> tuple[str, ...]:
        """The index tables an update delta touches, sorted by name."""
        return tuple(sorted(self.postings))

    # ------------------------------------------------------------------
    # Wire encoding.
    # ------------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """A plain-JSON document, stable under ``format``/``version``."""
        return {
            "format": self.format,
            "version": self.version,
            "kind": self.kind,
            "dialect": self.dialect,
            "source": self.source,
            "total": self.total,
            "candidates": self.candidates,
            "scanned": self.scanned,
            "matched": self.matched,
            "results": self.results,
            "modified": self.modified,
            "update_source": self.update_source,
            "entries_added": self.entries_added,
            "entries_removed": self.entries_removed,
            "refcount_adjusted": self.refcount_adjusted,
            "postings": dict(self.postings),
            "stages": [
                {"op": stage.op, "mode": stage.mode} for stage in self.stages
            ],
            "shards": [
                {
                    "shard": shard.shard,
                    "total": shard.total,
                    "candidates": shard.candidates,
                    "scanned": shard.scanned,
                    "matched": shard.matched,
                    "returned": shard.returned,
                }
                for shard in self.shards
            ],
            "merge": self.merge,
            "semantics": (
                None if self.semantics is None else self.semantics.to_json()
            ),
        }

    @staticmethod
    def from_json(document: dict[str, Any]) -> "Explain":
        """Rehydrate a report encoded by :meth:`to_json`."""
        if not isinstance(document, dict):
            raise ValueError(f"an explain document is an object: {document!r}")
        if document.get("format") != EXPLAIN_FORMAT:
            raise ValueError(
                f"not an explain document (format="
                f"{document.get('format')!r}, expected {EXPLAIN_FORMAT!r})"
            )
        if document.get("version") != EXPLAIN_VERSION:
            raise ValueError(
                f"unsupported explain version {document.get('version')!r} "
                f"(this build reads version {EXPLAIN_VERSION})"
            )
        semantics = document.get("semantics")
        return Explain(
            kind=document["kind"],
            dialect=document.get("dialect"),
            source=document.get("source"),
            total=document.get("total", 0),
            candidates=document.get("candidates"),
            scanned=document.get("scanned", 0),
            matched=document.get("matched", 0),
            results=document.get("results"),
            modified=document.get("modified"),
            update_source=document.get("update_source"),
            entries_added=document.get("entries_added", 0),
            entries_removed=document.get("entries_removed", 0),
            refcount_adjusted=document.get("refcount_adjusted", 0),
            postings=dict(document.get("postings", {})),
            stages=tuple(
                StageExplain(op=stage["op"], mode=stage["mode"])
                for stage in document.get("stages", ())
            ),
            shards=tuple(
                ShardExplain(
                    shard=shard["shard"],
                    total=shard["total"],
                    candidates=shard.get("candidates"),
                    scanned=shard["scanned"],
                    matched=shard["matched"],
                    returned=shard["returned"],
                )
                for shard in document.get("shards", ())
            ),
            merge=document.get("merge"),
            semantics=(
                None if semantics is None
                else SemanticsExplain.from_json(semantics)
            ),
        )


def fold_shards(reports: Iterable[tuple[int, Explain]]) -> Explain:
    """One fleet report from the ``(shard, report)`` explains of one
    scatter: counters and posting touches add up, ``candidates`` stays
    only if every shard pruned, each shard's share lands in ``shards``
    (``returned``: the documents an update would modify, the rows an
    aggregation shard returned, else its matches), and the semantic
    section stays when every shard reached the same verdict.  What
    only the coordinator knows -- an aggregation's merged ``results``,
    ``stages`` and ``merge`` -- it sets on the folded report itself."""
    reports = list(reports)
    first = reports[0][1]
    update = first.kind == "update"
    pruning = [r.candidates for _, r in reports]
    verdicts = {r.semantics and r.semantics.verdict for _, r in reports}
    summed = ("total", "scanned", "matched", "entries_added", "entries_removed")
    folded: dict[str, Any] = {
        name: sum(getattr(r, name) for _, r in reports)
        for name in summed + ("refcount_adjusted",)
    }
    folded.update(
        candidates=None if None in pruning else sum(pruning),
        modified=sum(r.modified for _, r in reports) if update else None,
        postings=dict(sum((Counter(r.postings) for _, r in reports), Counter())),
        shards=tuple(
            ShardExplain(
                index,
                r.total,
                r.candidates,
                r.scanned,
                r.matched,
                (
                    r.modified if update
                    else r.matched if r.results is None
                    else r.results
                ),
            )
            for index, r in reports
        ),
        semantics=first.semantics if len(verdicts) == 1 else None,
    )
    return replace(first, **folded)
