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
on ``(dialect, canonical query text)`` -- except that a Mongo filter's
plan is keyed on its *shape*, the text with its constants as holes, and
bound to each call's constants; only its payload stays literal.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable

from repro.cache import USE_DEFAULT_CACHE, LRUCache, resolve_cache
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
    "Payload",
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


class Payload:
    """What per-tree evaluation runs: exactly one of ``formula`` (a
    unary node filter) and ``path`` (a binary node selector), plus the
    automaton of every path in it -- built eagerly, so no evaluation
    ever pays the Thompson construction."""

    __slots__ = ("formula", "path", "automata")

    def __init__(
        self, formula: jnl.Unary | None = None, path: jnl.Binary | None = None
    ) -> None:
        if (formula is None) == (path is None):
            raise ValueError("exactly one of formula/path must be given")
        self.formula = formula
        self.path = path
        self.automata: dict[jnl.Binary, PathAutomaton] = {}
        for subpath in _collect_paths(formula if formula is not None else path):
            if subpath not in self.automata:
                self.automata[subpath] = compile_path(subpath)


class CompiledQuery:
    """An executable query plan, reusable across documents.

    Exactly one of ``formula`` (a unary node filter) and ``path`` (a
    binary node selector) is set; ``projection`` optionally post-
    processes matched documents (Mongo find's second argument).

    A Mongo query is *bound* from its shape's plan template
    (:func:`compile_mongo_find`): it carries its plan from the start and
    builds its :class:`Payload` on first use, i.e. only when a read
    verifies a document or proves a verdict.
    """

    __slots__ = ("dialect", "projection", "_source", "_payload", "_plan", "_literal")

    def __init__(
        self,
        dialect: str,
        source: str,
        *,
        formula: jnl.Unary | None = None,
        path: jnl.Binary | None = None,
        projection: "Projection | None" = None,
    ) -> None:
        self.dialect = dialect
        self.projection = projection
        self._source: str | None = source
        self._payload: Payload | None = Payload(formula, path)
        self._plan: ir.LogicalPlan | None = None
        self._literal: _LiteralPayload | None = None

    @classmethod
    def bound(
        cls,
        literal: "_LiteralPayload",
        plan: ir.LogicalPlan,
        projection: "Projection | None",
    ) -> "CompiledQuery":
        """A Mongo query whose plan is already bound, and whose source
        and payload ``literal`` makes when first asked for."""
        query = cls.__new__(cls)
        query.dialect = DIALECT_MONGO_FIND
        query.projection = projection
        query._source = None
        query._payload = None
        query._plan = plan
        query._literal = literal
        return query

    @property
    def source(self) -> str:
        """The canonical query text (what caches and ``Explain`` show)."""
        source = self._source
        if source is None:
            assert self._literal is not None
            source = self._source = self._literal.source
        return source

    def _resolved(self) -> Payload:
        payload = self._payload
        if payload is None:
            assert self._literal is not None
            payload = self._payload = self._literal()
        return payload

    @property
    def formula(self) -> jnl.Unary | None:
        return self._resolved().formula

    @property
    def path(self) -> jnl.Binary | None:
        return self._resolved().path

    @property
    def automata(self) -> dict[jnl.Binary, PathAutomaton]:
        return self._resolved().automata

    @property
    def plan(self) -> ir.LogicalPlan:
        """The shared logical-plan IR this query lowers into.

        Lowered lazily on first use (only collection-level execution
        needs it; per-tree evaluation reads the payload directly) and
        registered in the process-wide artifact cache keyed on the AST,
        so structurally equal queries compiled through any front-end
        share one plan.  A bound Mongo query's plan is its shape's
        template with the call's constants substituted.
        """
        plan = self._plan
        if plan is None:
            payload = self._resolved()
            plan = ir.plan_for(formula=payload.formula, path=payload.path)
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
        payload = self._resolved()
        if evaluator is None:
            evaluator = JNLEvaluator(tree, automata=payload.automata)
        if payload.path is not None:
            return evaluator.target_nodes(payload.path)
        assert payload.formula is not None
        return evaluator.nodes_satisfying(payload.formula)

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
        payload = self._resolved()
        if evaluator is None:
            evaluator = JNLEvaluator(tree, automata=payload.automata)
        if payload.formula is not None:
            target = tree.root if node is None else node
            # Point evaluation: a root match only visits the nodes the
            # paths can reach, not the whole arena.
            return evaluator.satisfies_at(target, payload.formula)
        assert payload.path is not None
        return bool(evaluator.target_nodes(payload.path, node))

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


_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=repr
).encode


def mongo_cache_key(
    filter_doc: dict[str, Any], projection: dict[str, Any] | None = None
) -> str:
    """Canonical text of a Mongo find call: the query's ``source``, and
    the key its payload and the prover's verdicts are cached under."""
    return _canonical([filter_doc, projection])


def _mongo_shape(
    filter_doc: dict[str, Any],
    constants: list[str | int],
    projection: dict[str, Any] | None,
) -> "tuple[ir.PlanTemplate, Projection | None]":
    """What every filter of one shape shares: the plan template lowered
    from this instance, and the parsed projection."""
    from repro.mongo.find import compile_filter
    from repro.mongo.projection import Projection

    plan = ir.lower_formula(compile_filter(filter_doc))
    return (
        ir.PlanTemplate(plan, constants),
        Projection(projection) if projection else None,
    )


class _LiteralPayload:
    """A bound Mongo query's literal side: its source text and payload,
    both made on first use from the shape and the constants as written
    (never from the caller's dict, which may have changed since).  The
    payload is cached under the text: it is the one artifact a fresh
    constant still pays for, and only on a read that verifies or proves.
    Shared by the query and its plan, so they build it once."""

    __slots__ = ("shape", "raws", "projection", "cache", "_source", "_built")

    def __init__(
        self,
        shape: tuple,
        raws: list[str | int],
        projection: str | None,
        cache: "LRUCache | None",
    ) -> None:
        self.shape = shape
        self.raws = raws
        self.projection = projection  # canonical text, if any
        self.cache = cache
        self._source: str | None = None
        self._built: Payload | None = None

    @property
    def source(self) -> str:
        """The canonical text :func:`mongo_cache_key` gives the call."""
        if self._source is None:
            from repro.mongo.find import unshape

            filter_text = _canonical(unshape(self.shape, self.raws))
            self._source = f"[{filter_text},{self.projection or 'null'}]"
        return self._source

    def __call__(self) -> Payload:
        if self._built is None:
            if self.cache is None:
                self._built = self.build()
            else:
                key = ("mongo-payload", self.source)
                self._built = self.cache.get_or_compute(key, self.build)
        return self._built

    def build(self) -> Payload:
        from repro.mongo.find import compile_filter, unshape

        return Payload(formula=compile_filter(unshape(self.shape, self.raws)))

    def formula(self) -> jnl.Unary:
        formula = self().formula
        assert formula is not None
        return formula


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

    The plan is cached per *shape*
    (:func:`~repro.mongo.find.filter_shape`): the filter with its
    int/str constants as kind-typed holes, plus the canonical text of
    the projection.  A call looks
    its shape up and binds its own constants into the template's
    predicate; the cover is the template's.  Filters that differ only in
    such constants -- ``{"user": 5}`` and ``{"user": 6}`` -- therefore
    share one entry and cost a substitution each, not a compile.  The
    payload (formula and automata) is keyed on the literal text and
    built only if a read verifies or proves.
    """
    from repro.mongo.find import filter_shape

    resolved = _resolve_cache(cache)
    shape, constants, raws = filter_shape(filter_doc)
    projected = None if projection is None else _canonical(projection)

    def build() -> "tuple[ir.PlanTemplate, Projection | None]":
        return _mongo_shape(filter_doc, constants, projection)

    if resolved is None:
        template, parsed = build()
    else:
        key = (DIALECT_MONGO_FIND, shape, projected)
        template, parsed = resolved.get_or_compute(key, build)
    literal = _LiteralPayload(shape, raws, projected, resolved)
    return CompiledQuery.bound(
        literal, template.bind(constants, literal.formula), parsed
    )
