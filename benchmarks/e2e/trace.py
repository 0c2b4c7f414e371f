"""Span tracing from outside the program: a seam table and a recorder.

The program has no instrumentation of its own yet (ROADMAP item 1a),
so the traced run wraps a fixed table of its public functions -- each
patched at the name where its callers look it up -- and records, from
the benchmark's side of the boundary:

* a **span** per call of a coarse seam: ``(name, start, end, parent,
  op id)``, kept in memory and written to ``trace.json`` at exit;
* an **aggregate cell** per seam: calls, units (documents, bytes --
  whatever the seam's ``units`` counts), total time and *self time*
  (the span minus the part of it its child spans cover).  Seams called
  once per document only aggregate; a span each would dwarf the work.

End-to-end numbers never come from a traced run; the traced run
reports its own overhead (``trace.overhead_ratio``).
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

@dataclass(frozen=True)
class Seam:
    """One wrapped boundary.  ``sites`` are the names to patch, each
    ``"module:attr"`` or ``"module:Class.attr"`` -- the name the
    *callers* resolve, which for ``from x import f`` is the importing
    module.  ``per_doc`` seams only aggregate.  ``units(args, result)``
    counts what the call processed (documents, bytes); ``tally(args,
    result)`` names the outcome bucket the call falls into."""

    sites: tuple[str, ...]
    per_doc: bool = False
    units: "Callable[[tuple, Any], int] | None" = None
    tally: "Callable[[tuple, Any], str] | None" = None


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


def _verdict(args: tuple, result: Any) -> str:
    return "unplanned" if result is None else result.verdict.kind


SEAMS: dict[str, Seam] = {
    "model.from_values": Seam(
        ("repro.model.tree:JSONTree.from_values",), units=_result_len
    ),
    "model.to_value": Seam(("repro.model.tree:JSONTree.to_value",), per_doc=True),
    "indexes.add": Seam(("repro.store.indexes:DocumentIndexes.add",), per_doc=True),
    "indexes.delta": Seam(
        ("repro.store.indexes:DocumentIndexes.apply_entry_delta",), per_doc=True
    ),
    "summary.observe": Seam(
        ("repro.store.summary:StructuralSummary.observe_tree",), per_doc=True
    ),
    "validate.bulk": Seam(
        ("repro.store.collection:validate_corpus",),
        units=lambda args, result: len(args[1]),
    ),
    "frontend.compile": Seam(
        (
            "repro.store.collection:compile_mongo_find",
            "repro.store.snapshot:compile_mongo_find",
            "repro.mongo.update:compile_mongo_find",
            "repro.mongo.aggregate:compile_mongo_find",
        )
    ),
    "optimizer.plan": Seam(("repro.query.optimizer:semantic_plan",), tally=_verdict),
    "prover.unsat": Seam(("repro.query.optimizer:unsat",)),
    "planner.candidates": Seam(
        ("repro.query.planner:candidate_ids",),
        units=lambda args, result: 0 if result is None else len(result),
    ),
    # Self time of the planner's entry points is the survivor walk.
    "planner.walk": Seam(
        ("repro.query.planner:find_documents", "repro.query.planner:count_matches"),
        units=lambda args, result: result if isinstance(result, int) else len(result),
    ),
    "planner.verify": Seam(
        ("repro.query.compiled:CompiledQuery.matches",), per_doc=True
    ),
    "aggregate.compile": Seam(("repro.mongo.aggregate:compile_pipeline",)),
    "aggregate.execute": Seam(
        ("repro.mongo.aggregate:CompiledPipeline.execute",), units=_result_len
    ),
    "update.compile": Seam(("repro.mongo.update:compile_update",)),
    # Self time of the update entry points is target selection.
    "update.select": Seam(
        (
            "repro.mongo.update:update_one",
            "repro.mongo.update:update_many",
            "repro.mongo.update:replace_one",
        )
    ),
    "update.apply": Seam(
        ("repro.store.collection:Collection.apply_update",),
        units=lambda args, result: len(result[0]),
    ),
    "collection.insert": Seam(
        ("repro.store.collection:Collection.insert_many",), units=_result_len
    ),
    "wal.append": Seam(("repro.store.wal:WriteAheadLog.append",)),
    "wal.commit_batch": Seam(("repro.store.wal:WriteAheadLog.commit_batch",)),
    "durable.recover": Seam(("repro.store.engine:StorageEngine.bind",)),
    "durable.decode": Seam(("repro.store.durable:decode_snapshot",)),
    "durable.checkpoint": Seam(("repro.store.durable:DurableEngine.checkpoint",)),
    "snapshot.pin": Seam(("repro.store.collection:Collection.snapshot_view",)),
    "snapshot.read": Seam(
        (
            "repro.store.snapshot:CollectionSnapshot.find",
            "repro.store.snapshot:CollectionSnapshot.count",
            "repro.store.snapshot:CollectionSnapshot.aggregate",
        )
    ),
    "protocol.decode": Seam(
        ("repro.server.protocol:decode",), units=lambda args, result: len(args[0])
    ),
    "protocol.encode": Seam(("repro.server.protocol:encode",), units=_result_len),
}


class Tracer:
    """Records spans and aggregate cells while :meth:`install` is in
    effect.  Not thread-safe: each process traces its one busy thread."""

    def __init__(self) -> None:
        #: name -> [calls, units, total seconds, self seconds]
        self.cells: dict[str, list] = {name: [0, 0, 0.0, 0.0] for name in SEAMS}
        #: name -> durations of every coarse-seam call (for medians)
        self.durations: dict[str, list[float]] = {
            name: [] for name, seam in SEAMS.items() if not seam.per_doc
        }
        #: name -> outcome bucket -> calls
        self.tallies: dict[str, dict[str, int]] = {
            name: {} for name, seam in SEAMS.items() if seam.tally
        }
        #: (parent seam or op, seam) -> calls: who crossed which boundary
        self.edges: dict[tuple[str | None, str], int] = {}
        self.spans: list[tuple[str, float, float, str | None, int]] = []
        self.op_id = -1
        self.missing: set[str] = set()
        self._stack: list[list] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, seam: Seam, function: Callable) -> Callable:
        stack = self._stack
        cell = self.cells[name]
        durations = self.durations.get(name)
        tallies = self.tallies.get(name)
        spans = self.spans
        edges = self.edges
        units, tally = seam.units, seam.tally

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - frame[1]
                parent = None
                if stack:
                    stack[-1][2] += elapsed
                    parent = stack[-1][0]
                edges[parent, name] = edges.get((parent, name), 0) + 1
                cell[0] += 1
                cell[2] += elapsed
                cell[3] += elapsed - frame[2]
                if durations is not None:
                    durations.append(elapsed)
                    spans.append((name, frame[1], end, parent, self.op_id))
            if units is not None:
                cell[1] += units(args, result)
            if tally is not None:
                bucket = tally(args, result)
                tallies[bucket] = tallies.get(bucket, 0) + 1
            return result

        return traced

    def begin_op(self, op_id: int, template: str) -> None:
        """Open the root span of one benchmark op (closed by
        :meth:`end_op`); seam spans nest under it."""
        self.op_id = op_id
        self._stack.append([f"op:{template}", perf_counter(), 0.0])

    def end_op(self) -> tuple[float, float]:
        """Close the root span; returns ``(wall, covered)`` seconds --
        how much of the op's wall time its child seams account for."""
        end = perf_counter()
        name, start, covered = self._stack.pop()
        self.spans.append((name, start, end, None, self.op_id))
        self.op_id = -1
        return end - start, covered

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        for name, seam in SEAMS.items():
            for site in seam.sites:
                module_name, _, attr_path = site.partition(":")
                *holders, attr = attr_path.split(".")
                try:
                    owner: Any = importlib.import_module(module_name)
                    for holder in holders:
                        owner = getattr(owner, holder)
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    # A later refactor moved the seam: the run goes on
                    # without it and says so in trace.json.
                    self.missing.add(site)
                    continue
                if isinstance(original, classmethod):
                    wrapper: Any = classmethod(
                        self._wrap(name, seam, original.__func__)
                    )
                else:
                    wrapper = self._wrap(name, seam, original)
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading -------------------------------------------------------

    def take(self) -> dict[str, dict[str, Any]]:
        """Everything recorded since the last call, as plain numbers:
        per seam its calls, units, total and self seconds, the median
        call (coarse seams) and the outcome tallies.  Resets the
        counters so phases do not mix; spans are kept."""
        out = {}
        for name, cell in self.cells.items():
            calls, units, total, self_time = cell
            entry: dict[str, Any] = {
                "calls": calls,
                "units": units,
                "total_s": total,
                "self_s": self_time,
            }
            durations = self.durations.get(name)
            if durations:
                entry["p50_s"] = statistics.median(durations)
                durations.clear()
            tallies = self.tallies.get(name)
            if tallies:
                entry["tally"] = dict(tallies)
                tallies.clear()
            entry["callers"] = {
                str(parent): calls
                for (parent, seam), calls in self.edges.items()
                if seam == name
            }
            out[name] = entry
            cell[:] = [0, 0, 0.0, 0.0]
        self.edges.clear()
        return out


def per_us(cells: dict, name: str, per: str = "calls") -> float:
    """Mean microseconds per call (or per unit) of one seam; 0 when the
    workload never crossed it."""
    entry = cells.get(name)
    if not entry or not entry[per]:
        return 0.0
    return entry["total_s"] / entry[per] * 1e6
