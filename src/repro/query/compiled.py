"""Compiled query plans: parse and build automata once, evaluate many times.

The paper's per-evaluation bounds (Propositions 1 and 3) assume the
formula is already in hand; a document store running the same query
over millions of documents pays parsing and automaton construction only
once.  A :class:`CompiledQuery` captures exactly the reusable,
tree-independent part of a query:

* the shared logical-plan IR (:mod:`repro.query.ir`) every front-end
  lowers into -- carrying the parsed JNL AST (a unary *filter* or a
  binary *selector* path) plus the sargable predicates the collection
  planner prunes with;
* the path automata of every ``[alpha]`` / ``EQ(alpha, .)`` subformula,
  built eagerly by the same Thompson construction the evaluator uses
  (:mod:`repro.jnl.paths`);
* for Mongo queries, the parsed projection.

Evaluation state (node sets, subtree hashes) is per-tree and is *never*
stored on the compiled object, so one plan can be shared freely across
documents, threads and mutations.

Three surface dialects compile to plans: JNL text (``jnl`` for unary
formulas, ``jnl-path`` for paths), JSONPath (``jsonpath``) and MongoDB
find filters (:func:`compile_mongo_find`).  The module-level entry
points consult the process-wide LRU cache of :mod:`repro.cache` keyed
on ``(dialect, canonical query text)``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.cache import USE_DEFAULT_CACHE, resolve_cache
from repro.errors import ParseError
from repro.jnl import ast as jnl
from repro.query import ir
from repro.jnl.efficient import JNLEvaluator
from repro.jnl.paths import PathAutomaton, compile_path
from repro.model.tree import JSONTree, JSONValue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (frontends)
    from repro.mongo.projection import Projection

__all__ = [
    "CompiledQuery",
    "DIALECTS",
    "compile_query",
    "compile_formula",
    "compile_path_query",
    "compile_mongo_find",
    "mongo_cache_key",
]

# Text dialects accepted by :func:`compile_query`.
DIALECT_JNL = "jnl"
DIALECT_JNL_PATH = "jnl-path"
DIALECT_JSONPATH = "jsonpath"
DIALECT_MONGO_FIND = "mongo-find"
DIALECTS = (DIALECT_JNL, DIALECT_JNL_PATH, DIALECT_JSONPATH)

# Sentinel distinguishing "use the global cache" from "no caching".
_DEFAULT_CACHE = USE_DEFAULT_CACHE


def _collect_paths(root: jnl.Unary | jnl.Binary) -> list[jnl.Binary]:
    """Every binary subformula the evaluator will compile to an automaton.

    These are the operands of ``[alpha]``, ``EQ(alpha, A)`` and
    ``EQ(alpha, beta)`` anywhere in the AST -- including inside ``<phi>``
    tests -- plus the root itself when the query *is* a path.
    """
    paths: list[jnl.Binary] = []
    if isinstance(root, jnl.Binary):
        paths.append(root)
    stack: list[jnl.Unary | jnl.Binary] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (jnl.Exists, jnl.EqDoc)):
            paths.append(node.path)
        elif isinstance(node, jnl.EqPath):
            paths.append(node.left)
            paths.append(node.right)
        stack.extend(jnl._children(node))
    return paths


class CompiledQuery:
    """An executable query plan, reusable across documents.

    Exactly one of ``formula`` (a unary node filter) and ``path`` (a
    binary node selector) is set; ``projection`` optionally post-
    processes matched documents (Mongo find's second argument).
    """

    __slots__ = (
        "dialect",
        "source",
        "formula",
        "path",
        "_plan",
        "projection",
        "automata",
    )

    def __init__(
        self,
        dialect: str,
        source: str,
        *,
        formula: jnl.Unary | None = None,
        path: jnl.Binary | None = None,
        projection: "Projection | None" = None,
    ) -> None:
        if (formula is None) == (path is None):
            raise ValueError("exactly one of formula/path must be given")
        self.dialect = dialect
        self.source = source
        self.formula = formula
        self.path = path
        self._plan: ir.LogicalPlan | None = None
        self.projection = projection
        # Eagerly build every path automaton the evaluator needs, so no
        # per-evaluation call ever pays the Thompson construction.
        self.automata: dict[jnl.Binary, PathAutomaton] = {}
        for subpath in _collect_paths(formula if formula is not None else path):
            if subpath not in self.automata:
                self.automata[subpath] = compile_path(subpath)

    @property
    def plan(self) -> ir.LogicalPlan:
        """The shared logical-plan IR this query lowers into.

        Lowered lazily on first use (only collection-level execution
        needs it; per-tree evaluation reads the payload directly) and
        registered in the process-wide artifact cache keyed on the AST,
        so structurally equal queries compiled through any front-end
        share one plan.
        """
        plan = self._plan
        if plan is None:
            plan = ir.plan_for(formula=self.formula, path=self.path)
            self._plan = plan
        return plan

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------

    def evaluator(self, tree: JSONTree) -> JNLEvaluator:
        """A fresh evaluator for ``tree`` sharing this plan's automata."""
        return JNLEvaluator(tree, automata=self.automata)

    def _selected(
        self, tree: JSONTree, evaluator: JNLEvaluator | None
    ) -> frozenset[int]:
        if evaluator is None:
            evaluator = self.evaluator(tree)
        if self.path is not None:
            return evaluator.target_nodes(self.path)
        assert self.formula is not None
        return evaluator.nodes_satisfying(self.formula)

    def select(
        self, tree: JSONTree, *, evaluator: JNLEvaluator | None = None
    ) -> list[int]:
        """Node ids selected in ``tree``, in document (preorder) order.

        Selector plans return the nodes reachable from the root through
        the path; filter plans return all nodes satisfying the formula.
        """
        return tree.document_order(self._selected(tree, evaluator))

    def values(
        self, tree: JSONTree, *, evaluator: JNLEvaluator | None = None
    ) -> list[JSONValue]:
        """The selected subdocuments, in document order."""
        return [tree.to_value(node) for node in self.select(tree, evaluator=evaluator)]

    def matches(
        self,
        tree: JSONTree,
        node: int | None = None,
        *,
        evaluator: JNLEvaluator | None = None,
    ) -> bool:
        """Does the query match at ``node`` (default: the root)?

        For filter plans this is the Evaluation problem; for selector
        plans it asks whether the path selects anything at all (``node``
        then names the origin of the traversal).
        """
        if evaluator is None:
            evaluator = self.evaluator(tree)
        if self.formula is not None:
            target = tree.root if node is None else node
            # Point evaluation: a root match only visits the nodes the
            # paths can reach, not the whole arena.
            return evaluator.satisfies_at(target, self.formula)
        assert self.path is not None
        return bool(evaluator.target_nodes(self.path, node))

    def apply(
        self, tree: JSONTree, *, evaluator: JNLEvaluator | None = None
    ) -> JSONValue | None:
        """Mongo ``find`` semantics: the (projected) document on a root
        match, ``None`` otherwise."""
        if not self.matches(tree, evaluator=evaluator):
            return None
        if self.projection is None:
            return tree.to_value()
        return self.projection.value_of(tree)

    def __repr__(self) -> str:
        source = self.source if len(self.source) <= 40 else self.source[:37] + "..."
        return f"CompiledQuery({self.dialect!r}, {source!r})"


# ---------------------------------------------------------------------------
# Per-dialect compilers (uncached).
# ---------------------------------------------------------------------------


def _compile_text(source: str, dialect: str) -> CompiledQuery:
    # Parsers are imported lazily: the front-end modules import this one
    # for their thin wrappers, and eager imports would form a cycle.
    if dialect == DIALECT_JNL:
        from repro.jnl.parser import parse_jnl

        return CompiledQuery(dialect, source, formula=parse_jnl(source))
    if dialect == DIALECT_JNL_PATH:
        from repro.jnl.parser import parse_jnl_path

        return CompiledQuery(dialect, source, path=parse_jnl_path(source))
    if dialect == DIALECT_JSONPATH:
        from repro.jsonpath.parser import parse_jsonpath

        return CompiledQuery(dialect, source, path=parse_jsonpath(source))
    raise ParseError(
        f"unknown query dialect {dialect!r}; expected one of {DIALECTS}"
    )


def mongo_cache_key(
    filter_doc: dict[str, Any], projection: dict[str, Any] | None = None
) -> str:
    """Canonical text of a Mongo find call, the compile-cache key."""
    return json.dumps(
        [filter_doc, projection], sort_keys=True, separators=(",", ":"), default=repr
    )


def _compile_mongo(
    filter_doc: dict[str, Any], projection: dict[str, Any] | None
) -> CompiledQuery:
    from repro.mongo.find import compile_filter
    from repro.mongo.projection import Projection

    return CompiledQuery(
        DIALECT_MONGO_FIND,
        mongo_cache_key(filter_doc, projection),
        formula=compile_filter(filter_doc),
        projection=Projection(projection) if projection else None,
    )


# ---------------------------------------------------------------------------
# Cached entry points.
# ---------------------------------------------------------------------------


_resolve_cache = resolve_cache


def compile_query(
    source: str, dialect: str = DIALECT_JNL, *, cache: object = _DEFAULT_CACHE
) -> CompiledQuery:
    """Compile query text into a reusable plan, through the LRU cache.

    ``dialect`` is ``"jnl"`` (unary formula), ``"jnl-path"`` (binary
    path) or ``"jsonpath"``.  Pass ``cache=None`` to force a fresh,
    uncached compilation (the old one-shot behaviour), or an explicit
    :class:`~repro.cache.LRUCache` to use a private cache.
    """
    resolved = _resolve_cache(cache)
    if resolved is None:
        return _compile_text(source, dialect)
    return resolved.get_or_compute(
        (dialect, source), lambda: _compile_text(source, dialect)
    )


def compile_formula(formula: jnl.Unary) -> CompiledQuery:
    """Wrap an already-parsed unary formula as a plan (not cached)."""
    return CompiledQuery(DIALECT_JNL, repr(formula), formula=formula)


def compile_path_query(path: jnl.Binary) -> CompiledQuery:
    """Wrap an already-parsed binary path as a plan (not cached)."""
    return CompiledQuery(DIALECT_JNL_PATH, repr(path), path=path)


def compile_mongo_find(
    filter_doc: dict[str, Any],
    projection: dict[str, Any] | None = None,
    *,
    cache: object = _DEFAULT_CACHE,
) -> CompiledQuery:
    """Compile a Mongo find filter (+ optional projection) into a plan.

    The cache key is the canonical (sorted-keys) JSON text of both
    arguments, so structurally equal filter documents share one plan.
    """
    resolved = _resolve_cache(cache)
    if resolved is None:
        return _compile_mongo(filter_doc, projection)
    key = (DIALECT_MONGO_FIND, mongo_cache_key(filter_doc, projection))
    return resolved.get_or_compute(
        key, lambda: _compile_mongo(filter_doc, projection)
    )
