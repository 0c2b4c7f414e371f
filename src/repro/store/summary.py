"""Inferred structural summaries: a schema for schemaless collections.

For collections with an enforced schema the semantic optimizer
(:mod:`repro.query.optimizer`) gets its proof premise from Theorem 1.
This module closes the gap for schemaless collections -- "let the
datastore manage the schema": a :class:`StructuralSummary` observes
every document at ingest, and every update through the index-entry
delta the update already computes, and maintains, per stripped key
path,

* the set of **kinds** seen at that path,
* the set of **object keys** seen directly below it, and
* the **numeric envelope** ``[low, high]`` of number leaves,

then renders those facts as a recursive JSL premise every observed
document satisfies.

The summary is **widen-only**: facts only ever grow (removal is a
no-op), so the invariant "every live document satisfies the formula"
holds under any interleaving of inserts, updates and removals -- and
also for any snapshot pinned *after* the summary started observing,
because a pinned document was live (hence observed) at pin time.  The
price is precision, not soundness: a summary can only become weaker
than the live data, never wrong about it.

Rendering makes only **conditional** claims (``BOX`` modalities, kind
disjunctions) -- never an existential one -- because observing a
document with key ``k`` must not assert that *every* document has
``k``.  For a path ``p`` with facts ``F``::

    phi_p =  (Int ^ Min(low-1) ^ Max(high+1))   [if NUMBER seen]
          v  Str                                 [if STRING seen]
          v  (Obj ^ BOX_{~seen-keys} ~T
                  ^ BOX_k phi_{p.k} ...)         [if OBJECT seen]
          v  (Arr ^ BOX_{0:inf} phi_p)           [if ARRAY seen]

(array positions are stripped from key paths, so an array's elements
recurse through the path's own definition -- guarded, hence
well-formed recursive JSL).  A fresh summary with nothing observed
renders falsity: the collection is empty, so "no admissible document"
is exact.

``revision`` bumps only on actual widening; the fingerprint
``("summary", uid, revision)`` keys the optimizer's verdict cache, so
a widened summary invalidates exactly the verdicts it could change.
Tracking is capped at ``max_paths`` distinct paths: heterogeneous
collections past the cap disable themselves permanently (the optimizer
then treats the collection as schemaless-and-summaryless, which is
always sound).
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.automata.keylang import KeyLang
from repro.jsl import ast as jsl
from repro.logic import nodetests as nt
from repro.model.tree import JSONTree, Kind

__all__ = ["StructuralSummary", "DEFAULT_MAX_PATHS"]

DEFAULT_MAX_PATHS = 512

_uid_counter = itertools.count(1)


class _PathFacts:
    """Widen-only facts about one stripped key path.  ``children`` maps
    each object key seen directly below the path to the child path's
    facts -- its key set is the path's "keys seen", and it lets a
    document walk step from a node's facts to its child's by label."""

    __slots__ = ("path", "kinds", "children", "low", "high")

    def __init__(self, path: tuple[str, ...]) -> None:
        self.path = path
        self.kinds: set[Kind] = set()
        self.children: dict[str, _PathFacts] = {}
        self.low: int | None = None
        self.high: int | None = None


class StructuralSummary:
    """Per-path structural facts plus their JSL rendering (see module
    docstring).  Build one per schemaless collection, feed it every
    inserted document (``observe_tree``) and every update's entry delta
    (``observe_delta``); query through ``formula()``/``fingerprint``."""

    __slots__ = (
        "_facts",
        "_revision",
        "_uid",
        "_disabled",
        "_max_paths",
        "_formula",
        "_formula_revision",
    )

    def __init__(self, *, max_paths: int = DEFAULT_MAX_PATHS) -> None:
        self._facts: dict[tuple[str, ...], _PathFacts] = {}
        self._revision = 0
        self._uid = next(_uid_counter)
        self._disabled = False
        self._max_paths = max_paths
        self._formula: "jsl.Formula | jsl.RecursiveJSL | None" = None
        self._formula_revision = -1

    # ------------------------------------------------------------------
    # Observation (widen-only).
    # ------------------------------------------------------------------

    @property
    def disabled(self) -> bool:
        return self._disabled

    @property
    def revision(self) -> int:
        return self._revision

    @property
    def fingerprint(self) -> tuple:
        return ("summary", self._uid, self._revision)

    def _open(
        self, parent: "_PathFacts | None", key: str | None
    ) -> "_PathFacts | None":
        """Start tracking the root (``parent is None``) or the path one
        ``key`` below ``parent``; ``None`` (and disabled) past the cap."""
        if len(self._facts) >= self._max_paths:
            self._disabled = True
            return None
        facts = _PathFacts(() if parent is None else parent.path + (key,))
        if parent is not None:
            parent.children[key] = facts
        self._facts[facts.path] = facts
        self._revision += 1  # a new path (and key) is itself a widening
        return facts

    def _widen(self, facts: _PathFacts, kind: Kind, value: Any) -> None:
        """The slow path of an observation: it is news."""
        facts.kinds.add(kind)
        if kind is Kind.NUMBER:
            if facts.low is None or value < facts.low:
                facts.low = value
            if facts.high is None or value > facts.high:
                facts.high = value
        self._revision += 1

    def observe_tree(self, tree: JSONTree) -> None:
        """Fold one document (as a tree) into the summary: one pass
        over the arena arrays, each node's facts found from its
        parent's by edge label (array positions keep the parent's).
        ``revision`` moves only if the document widened something."""
        if self._disabled:
            return
        root = self._facts.get(()) or self._open(None, None)
        if root is None:
            return
        labels = tree.node_labels()
        parents = tree.node_parents()
        values = tree.node_values()
        number = Kind.NUMBER
        facts_of: list[_PathFacts] = []
        for node, kind in enumerate(tree.node_kinds()):
            if node:
                facts = facts_of[parents[node]]
                label = labels[node]
                if isinstance(label, str):
                    below = facts.children.get(label)
                    if below is None:
                        below = self._open(facts, label)
                        if below is None:
                            return
                    facts = below
            else:
                facts = root
            facts_of.append(facts)
            if kind not in facts.kinds:
                self._widen(facts, kind, values[node])
            elif kind is number:
                value = values[node]
                if value < facts.low or value > facts.high:
                    self._widen(facts, kind, value)

    def observe_delta(self, delta: dict[tuple, int]) -> None:
        """Fold one update into the summary from its counted index-entry
        delta (:func:`repro.store.update.mutation_delta`), walking no
        document.

        Sound because the pre-image was already observed: a fact of the
        post-image is either a fact of the pre-image or an entry whose
        count rose from zero, so the positive ``"path"`` entries name
        every new path (opened shortest first, so each parent exists),
        the positive ``"kind"`` entries every new kind but numbers, and
        the positive integer ``"eq"`` entries every number that may
        widen an envelope (or open it: a path's first number).
        ``revision`` moves only if something widened."""
        if self._disabled:
            return
        facts_of = self._facts
        fresh = [
            entry[1]
            for entry, count in delta.items()
            if count > 0 and entry[0] == "path" and entry[1] not in facts_of
        ]
        if fresh:
            fresh.sort(key=len)
            for path in fresh:
                if self._open(facts_of[path[:-1]], path[-1]) is None:
                    return
        number = Kind.NUMBER
        for entry, count in delta.items():
            if count <= 0:
                continue
            tag = entry[0]
            if tag == "eq":
                value = entry[2]
                if type(value) is int:
                    facts = facts_of[entry[1]]
                    # ``low`` is None until the path has seen a number.
                    if facts.low is None or not (facts.low <= value <= facts.high):
                        self._widen(facts, number, value)
            elif tag == "kind" and entry[2] is not number:
                facts = facts_of[entry[1]]
                if entry[2] not in facts.kinds:
                    self._widen(facts, entry[2], None)

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------

    def formula(self) -> "jsl.Formula | jsl.RecursiveJSL | None":
        """The JSL premise (``None`` once disabled), cached per revision."""
        if self._disabled:
            return None
        if self._formula_revision != self._revision:
            self._formula = self._render()
            self._formula_revision = self._revision
        return self._formula

    def _render(self) -> "jsl.Formula | jsl.RecursiveJSL":
        if not self._facts:
            # Nothing observed: the collection is empty, and falsity is
            # the exact premise for "no admissible document exists".
            return jsl.bottom()
        names = {
            path: f"n{position}"
            for position, path in enumerate(sorted(self._facts))
        }
        definitions = tuple(
            (names[path], self._render_path(path, facts, names))
            for path, facts in sorted(self._facts.items())
        )
        return jsl.RecursiveJSL(definitions, jsl.Ref(names[()]))

    def _render_path(
        self,
        path: tuple[str, ...],
        facts: _PathFacts,
        names: dict[tuple[str, ...], str],
    ) -> jsl.Formula:
        branches: list[jsl.Formula] = []
        if Kind.NUMBER in facts.kinds:
            parts: list[jsl.Formula] = [jsl.TestAtom(nt.IsNumber())]
            if facts.low is not None:
                parts.append(jsl.TestAtom(nt.MinVal(facts.low - 1)))
            if facts.high is not None:
                parts.append(jsl.TestAtom(nt.MaxVal(facts.high + 1)))
            branches.append(jsl.conj(parts))
        if Kind.STRING in facts.kinds:
            branches.append(jsl.TestAtom(nt.IsString()))
        if Kind.OBJECT in facts.kinds:
            parts = [jsl.TestAtom(nt.IsObject())]
            keys = sorted(facts.children)
            complement = KeyLang.union(map(KeyLang.word, keys)).complement()
            parts.append(jsl.BoxKey(complement, jsl.bottom()))
            parts.extend(
                jsl.BoxKey(KeyLang.word(key), jsl.Ref(names[path + (key,)]))
                for key in keys
            )
            branches.append(jsl.conj(parts))
        if Kind.ARRAY in facts.kinds:
            # Array positions are stripped from key paths: elements
            # recurse through this path's own (guarded) definition.
            branches.append(
                jsl.And(
                    jsl.TestAtom(nt.IsArray()),
                    jsl.BoxIdx(0, None, jsl.Ref(names[path])),
                )
            )
        return jsl.disj(branches)
