"""The shared logical-plan IR behind every query front-end.

PR 1 gave each front-end (JSONPath, Mongo ``find``, textual JNL) its
own compile path straight into a :class:`~repro.query.compiled.
CompiledQuery`.  That was enough for one-tree-at-a-time evaluation, but
a document *store* needs a representation it can reason about before
touching any tree: which documents can possibly match?  This module is
that middle layer.  Every front-end now lowers into a
:class:`LogicalPlan`, which carries

* the **evaluation payload** -- the JNL formula (filter plans) or path
  (selector plans) exactly as the front-end produced it, so per-tree
  execution is bit-for-bit identical to the pre-IR engines; and
* **sargable predicates** -- a tree of necessary conditions
  (:class:`Pred`) extracted from the payload, phrased in terms the
  secondary indexes of :mod:`repro.store.indexes` can answer: "a leaf
  with value ``v`` under key path ``a.b``", "key ``author`` occurs
  somewhere", "the node at ``age`` is a number greater than 29".

The predicate extraction is deliberately *lossy but sound*: every
predicate is implied by the payload (a document violating it cannot
match), and anything the analysis cannot classify contributes
:data:`TRUE` (no pruning) rather than an unsound restriction.  The
planner (:mod:`repro.query.planner`) intersects index postings along
the predicate tree to prune candidates, then runs the compiled payload
on the survivors only -- so pruning can never change results, only skip
documents that provably do not match.

Key paths are *stripped*: array positions are dropped, so the leaf of
``{"a": {"b": [5]}}`` lies under the key path ``("a", "b")``.  This is
what makes Mongo's array-containment equality (a scalar filter matching
arrays containing the value) and negative/sliced index axes indexable
with one table.

Lowered plans are registered in the process-wide artifact cache of
:mod:`repro.cache` (namespace ``"ir-plan"``, keyed on the AST itself),
so structurally equal formulas compiled through different entry points
share one plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cache import USE_DEFAULT_CACHE, resolve_cache
from repro.jnl import ast as jnl
from repro.logic import nodetests as nt
from repro.model.tree import JSONTree, Kind

__all__ = [
    "KeyPath",
    "Pred",
    "TruePred",
    "AndPred",
    "OrPred",
    "PathExists",
    "PathEq",
    "PathRange",
    "PathKind",
    "HasKey",
    "TailEq",
    "AnyEq",
    "TRUE",
    "and_",
    "or_",
    "LogicalPlan",
    "lower_formula",
    "lower_path",
    "plan_for",
    "strip_key_path",
]

# A *stripped* key path: the object keys along a root-to-node walk,
# with array positions dropped.
KeyPath = tuple[str, ...]


# ---------------------------------------------------------------------------
# Predicates: necessary conditions an index can answer.
# ---------------------------------------------------------------------------


class Pred:
    """Base class of sargable necessary-condition predicates.

    Semantics: a predicate *holds* of a document when the stated
    structure is present.  Lowering guarantees the implication
    "payload matches => predicate holds", never the converse.
    """

    __slots__ = ()


@dataclass(frozen=True)
class TruePred(Pred):
    """No information: every document is a candidate."""


TRUE = TruePred()


@dataclass(frozen=True)
class AndPred(Pred):
    """All parts must hold (candidates intersect)."""

    parts: tuple[Pred, ...]


@dataclass(frozen=True)
class OrPred(Pred):
    """Some part must hold (candidates union)."""

    parts: tuple[Pred, ...]


@dataclass(frozen=True)
class PathExists(Pred):
    """Some node lies under the stripped key path."""

    path: KeyPath


@dataclass(frozen=True)
class PathEq(Pred):
    """Some leaf under the stripped key path has exactly this value."""

    path: KeyPath
    value: str | int


@dataclass(frozen=True)
class PathRange(Pred):
    """Some number leaf under the path lies in the open interval.

    Bounds follow the NodeTest convention: ``low < value < high`` with
    ``None`` for an absent bound (``Min(i)``/``Max(i)`` are strict).
    """

    path: KeyPath
    low: int | None
    high: int | None


@dataclass(frozen=True)
class PathKind(Pred):
    """Some node under the stripped key path has this kind."""

    path: KeyPath
    kind: Kind


@dataclass(frozen=True)
class HasKey(Pred):
    """The object key occurs somewhere in the document."""

    key: str


@dataclass(frozen=True)
class TailEq(Pred):
    """Some leaf whose innermost key is ``key`` has exactly this value."""

    key: str
    value: str | int


@dataclass(frozen=True)
class AnyEq(Pred):
    """Some leaf anywhere in the document has exactly this value."""

    value: str | int


def and_(parts: Iterable[Pred]) -> Pred:
    """Conjunction with simplification: drops TRUE, dedupes, flattens,
    and drops ``PathExists(p)`` beside a ``PathEq``/``PathRange``/
    ``PathKind`` on the same ``p`` (each of them implies it)."""
    seen: list[Pred] = []
    for part in _flatten(parts, AndPred):
        if isinstance(part, TruePred):
            continue
        if part not in seen:
            seen.append(part)
    located = {
        part.path
        for part in seen
        if isinstance(part, (PathEq, PathRange, PathKind))
    }
    if located:
        seen = [
            part
            for part in seen
            if not (isinstance(part, PathExists) and part.path in located)
        ]
    if not seen:
        return TRUE
    if len(seen) == 1:
        return seen[0]
    return AndPred(tuple(seen))


def or_(parts: Iterable[Pred]) -> Pred:
    """Disjunction with simplification: TRUE absorbs, dedupes, flattens,
    and applies absorption (``A or (A and B)`` is ``A``)."""
    seen: list[Pred] = []
    for part in _flatten(parts, OrPred):
        if isinstance(part, TruePred):
            return TRUE
        if part not in seen:
            seen.append(part)
    alone = {part for part in seen if not isinstance(part, AndPred)}
    seen = [
        part
        for part in seen
        if not (isinstance(part, AndPred) and not alone.isdisjoint(part.parts))
    ]
    if not seen:
        return TRUE
    if len(seen) == 1:
        return seen[0]
    return OrPred(tuple(seen))


def _flatten(parts: Iterable[Pred], wrapper: type) -> Iterable[Pred]:
    for part in parts:
        if isinstance(part, wrapper):
            yield from part.parts
        else:
            yield part


def strip_key_path(labels: Iterable[str | int]) -> KeyPath:
    """Drop array positions from a label path (the index key space)."""
    return tuple(label for label in labels if isinstance(label, str))


# ---------------------------------------------------------------------------
# The logical plan.
# ---------------------------------------------------------------------------

MODE_FILTER = "filter"
MODE_SELECT = "select"


@dataclass(frozen=True)
class LogicalPlan:
    """A dialect-neutral query plan.

    ``mode`` is ``"filter"`` (a unary formula deciding a root match)
    or ``"select"`` (a binary path selecting nodes from the root).
    Exactly one of ``formula``/``path`` is set -- the evaluation
    payload, preserved verbatim from the front-end so compiled
    execution matches the pre-IR engines exactly.

    ``match_predicate`` is a necessary condition for a **root match**
    (filter plans) or for a **non-empty selection** (selector plans).
    ``node_predicate`` is the weaker necessary condition for *any*
    node of the document to satisfy a filter formula -- what pruning a
    node-set selection over a filter plan must use, since a nested node
    can satisfy a formula whose root-anchored condition fails.
    """

    mode: str
    formula: jnl.Unary | None
    path: jnl.Binary | None
    match_predicate: Pred
    node_predicate: Pred

    @property
    def payload(self) -> jnl.Unary | jnl.Binary:
        payload = self.formula if self.formula is not None else self.path
        assert payload is not None
        return payload


# ---------------------------------------------------------------------------
# Lowering contexts.
#
# A context tracks where in the document a subformula is being
# evaluated: anchored at a known stripped key path, or floating with at
# most the innermost key known ("tail").  Anchoring is lost when a path
# steps through a wildcard, regex key or Kleene star.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Ctx:
    anchored: bool
    path: KeyPath  # meaningful only when anchored
    tail: str | None  # innermost key, when known

    def with_key(self, key: str) -> "_Ctx":
        if self.anchored:
            return _Ctx(True, self.path + (key,), key)
        return _Ctx(False, (), key)

    def unanchor(self) -> "_Ctx":
        return _Ctx(False, (), None)


_ROOT = _Ctx(True, (), None)
_FLOATING = _Ctx(False, (), None)


def _flatten_compose(path: jnl.Binary) -> list[jnl.Binary]:
    """Left-to-right step sequence of a composition chain (iterative)."""
    steps: list[jnl.Binary] = []
    stack = [path]
    while stack:
        node = stack.pop()
        if isinstance(node, jnl.Compose):
            stack.append(node.right)
            stack.append(node.left)
        else:
            steps.append(node)
    return steps


def _index_only(path: jnl.Binary) -> bool:
    """Does the path move through array positions only?

    Such a path never changes the stripped key path, so anchoring
    survives it (``[0]``, slices, index unions, starred index axes).
    """
    stack = [path]
    while stack:
        node = stack.pop()
        if isinstance(node, (jnl.Index, jnl.IndexRange, jnl.Eps)):
            continue
        if isinstance(node, (jnl.Compose, jnl.Union)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, jnl.Star):
            stack.append(node.inner)
        else:
            return False
    return True


def _scalar_doc_value(doc: JSONTree) -> str | int | None:
    """The value of a single-leaf document, ``None`` for object/array."""
    kind = doc.kind(doc.root)
    if kind in (Kind.STRING, Kind.NUMBER):
        return doc.value(doc.root)
    return None


# Branch budget for the path analysis: unions and stars fork the walk,
# and deeply nested forks could blow up; past the budget a branch
# resolves to TRUE (no pruning), which is always sound.
_BRANCH_BUDGET = 64


def _lift_path(ctx: _Ctx, path: jnl.Binary, doc: JSONTree | None) -> Pred:
    """Necessary conditions for ``[path]`` / ``EQ(path, doc)`` at ``ctx``.

    Recursively walks the composition chain, keeping the stripped key
    path while steps stay deterministic in key space.  Branching axes
    fork the analysis: a union is the disjunction of its branch
    continuations, a star the disjunction of skipping it and of the
    floating (anywhere-below) continuation.  Descending an array axis
    pins the current node's kind to array, a key-regex axis to object
    -- so a wildcard over an array field prunes through the array
    branch while the object branch dies on the kind index.
    """
    budget = [_BRANCH_BUDGET]
    return _analyze(ctx, _flatten_compose(path), 0, doc, budget)


def _analyze(
    ctx: _Ctx,
    steps: list[jnl.Binary],
    at: int,
    doc: JSONTree | None,
    budget: list[int],
) -> Pred:
    if budget[0] <= 0:
        return TRUE
    conjuncts: list[Pred] = []
    while at < len(steps):
        step = steps[at]
        at += 1
        if isinstance(step, jnl.Eps):
            continue
        if isinstance(step, jnl.Key):
            if not ctx.anchored:
                conjuncts.append(HasKey(step.word))
            ctx = ctx.with_key(step.word)
        elif isinstance(step, (jnl.Index, jnl.IndexRange)):
            # Array positions are stripped from the index key space, so
            # the path (and its tail key) carry through -- but the node
            # descended *from* must be an array.
            if ctx.anchored:
                conjuncts.append(PathKind(ctx.path, Kind.ARRAY))
        elif isinstance(step, jnl.Test):
            conjuncts.append(_lift(ctx, step.condition))
        elif isinstance(step, jnl.Compose):
            # Nested compositions inside union/star branches.
            steps = steps[: at - 1] + _flatten_compose(step) + steps[at:]
            at -= 1
        elif isinstance(step, jnl.Union):
            budget[0] -= 1
            left = _analyze(ctx, [step.left] + steps[at:], 0, doc, budget)
            right = _analyze(ctx, [step.right] + steps[at:], 0, doc, budget)
            conjuncts.append(or_([left, right]))
            return and_(conjuncts)
        elif isinstance(step, jnl.Star):
            if _index_only(step.inner):
                if ctx.anchored:
                    # Zero iterations need no array; one or more do,
                    # but either way the stripped path is unchanged --
                    # no constraint to add.
                    pass
                continue
            budget[0] -= 1
            skipped = _analyze(ctx, steps, at, doc, budget)
            below = _analyze(ctx.unanchor(), steps, at, doc, budget)
            if ctx.anchored and ctx.path:
                conjuncts.append(PathExists(ctx.path))
            conjuncts.append(or_([skipped, below]))
            return and_(conjuncts)
        elif isinstance(step, jnl.KeyRegex):
            # Descends through some object key: the current node must
            # be an object, the landing key is unknown.
            if ctx.anchored:
                conjuncts.append(PathKind(ctx.path, Kind.OBJECT))
            ctx = ctx.unanchor()
        else:  # Unclassified axis: keep the prefix, lose anchoring.
            if ctx.anchored and ctx.path:
                conjuncts.append(PathExists(ctx.path))
            ctx = ctx.unanchor()
    if doc is None:
        if ctx.anchored and ctx.path:
            conjuncts.append(PathExists(ctx.path))
    else:
        value = _scalar_doc_value(doc)
        if ctx.anchored:
            if value is not None:
                conjuncts.append(PathEq(ctx.path, value))
            else:
                if ctx.path:
                    conjuncts.append(PathExists(ctx.path))
                conjuncts.append(PathKind(ctx.path, doc.kind(doc.root)))
        elif value is not None:
            conjuncts.append(
                TailEq(ctx.tail, value) if ctx.tail is not None
                else AnyEq(value)
            )
    return and_(conjuncts)


def _lift_atom(ctx: _Ctx, test: nt.NodeTest) -> Pred:
    """Necessary condition for a NodeTest holding at ``ctx``."""
    if not ctx.anchored:
        if isinstance(test, nt.EqDocTest):
            value = _scalar_doc_value(test.doc)
            if value is not None:
                if ctx.tail is not None:
                    return TailEq(ctx.tail, value)
                return AnyEq(value)
        return TRUE
    path = ctx.path
    if isinstance(test, nt.IsObject):
        return PathKind(path, Kind.OBJECT)
    if isinstance(test, nt.IsArray):
        return PathKind(path, Kind.ARRAY)
    if isinstance(test, nt.IsString):
        return PathKind(path, Kind.STRING)
    if isinstance(test, nt.IsNumber):
        return PathKind(path, Kind.NUMBER)
    if isinstance(test, nt.Unique):
        return PathKind(path, Kind.ARRAY)
    if isinstance(test, nt.Pattern):
        return PathKind(path, Kind.STRING)
    if isinstance(test, (nt.MultOf,)):
        return PathKind(path, Kind.NUMBER)
    if isinstance(test, nt.MinVal):
        return PathRange(path, test.bound, None)
    if isinstance(test, nt.MaxVal):
        return PathRange(path, None, test.bound)
    if isinstance(test, nt.EqDocTest):
        value = _scalar_doc_value(test.doc)
        if value is not None:
            return PathEq(path, value)
        return PathKind(path, test.doc.kind(test.doc.root))
    # MinCh/MaxCh and unknown tests: counting children prunes nothing
    # the kind indexes can answer soundly for MaxCh; MinCh >= 1 implies
    # an inner (object or array) node.
    if isinstance(test, nt.MinCh) and test.count >= 1:
        return or_([PathKind(path, Kind.OBJECT), PathKind(path, Kind.ARRAY)])
    return TRUE


def _lift_and(ctx: _Ctx, formula: jnl.And) -> Pred:
    """Necessary condition for a conjunction holding at ``ctx``.

    The conjunction is a node test: all its conjuncts hold of *one*
    node.  At an anchored context its own ``MinVal``/``MaxVal`` atoms
    therefore fold into a single :class:`PathRange` with the tightest
    bounds -- an empty interval stays an (unsatisfiable) interval.
    Atoms a conjunct reaches through a further axis, or atoms of a
    different conjunction, may be satisfied by different nodes under
    the same stripped path and are never merged.
    """
    low: int | None = None
    high: int | None = None
    parts: list[Pred] = []
    stack: list[jnl.Unary] = [formula]
    while stack:
        conjunct = stack.pop()
        if isinstance(conjunct, jnl.And):
            stack.append(conjunct.right)
            stack.append(conjunct.left)
            continue
        mergeable = ctx.anchored and isinstance(conjunct, jnl.Atom)
        test = conjunct.test if mergeable else None
        if isinstance(test, nt.MinVal):
            low = test.bound if low is None else max(low, test.bound)
        elif isinstance(test, nt.MaxVal):
            high = test.bound if high is None else min(high, test.bound)
        else:
            parts.append(_lift(ctx, conjunct))
    if low is not None or high is not None:
        parts.append(PathRange(ctx.path, low, high))
    return and_(parts)


def _lift(ctx: _Ctx, formula: jnl.Unary) -> Pred:
    """Necessary condition for ``formula`` holding at ``ctx``."""
    if isinstance(formula, jnl.Top):
        return TRUE
    if isinstance(formula, jnl.Not):
        # Negations prune nothing: the index records presence, and
        # "absence of X" cannot be answered as a superset soundly.
        return TRUE
    if isinstance(formula, jnl.And):
        return _lift_and(ctx, formula)
    if isinstance(formula, jnl.Or):
        return or_([_lift(ctx, formula.left), _lift(ctx, formula.right)])
    if isinstance(formula, jnl.Exists):
        return _lift_path(ctx, formula.path, None)
    if isinstance(formula, jnl.EqDoc):
        return _lift_path(ctx, formula.path, formula.doc)
    if isinstance(formula, jnl.EqPath):
        # Both paths must reach *something* for the equality to hold.
        return and_(
            [
                _lift_path(ctx, formula.left, None),
                _lift_path(ctx, formula.right, None),
            ]
        )
    if isinstance(formula, jnl.Atom):
        return _lift_atom(ctx, formula.test)
    return TRUE


# ---------------------------------------------------------------------------
# Public lowering entry points.
# ---------------------------------------------------------------------------


def lower_formula(formula: jnl.Unary) -> LogicalPlan:
    """Lower a unary JNL formula (filter) into a logical plan.

    Used by the textual-JNL and Mongo-find front-ends: both produce a
    unary formula, which stays the evaluation payload; the predicates
    are extracted at the root context (for root matches) and at the
    floating context (for node-set selections).
    """
    return LogicalPlan(
        mode=MODE_FILTER,
        formula=formula,
        path=None,
        match_predicate=_lift(_ROOT, formula),
        node_predicate=_lift(_FLOATING, formula),
    )


def lower_path(path: jnl.Binary) -> LogicalPlan:
    """Lower a binary JNL path (selector) into a logical plan.

    Used by the JSONPath and jnl-path front-ends.  Selection always
    starts at the root, so one root-anchored predicate covers both the
    "does anything match" and the node-selection questions.
    """
    predicate = _lift_path(_ROOT, path, None)
    return LogicalPlan(
        mode=MODE_SELECT,
        formula=None,
        path=path,
        match_predicate=predicate,
        node_predicate=predicate,
    )


def plan_for(
    formula: jnl.Unary | None = None,
    path: jnl.Binary | None = None,
    *,
    cache: object = USE_DEFAULT_CACHE,
) -> LogicalPlan:
    """The logical plan for a payload, through the artifact cache.

    Keys on the AST object itself (all JNL nodes hash structurally), in
    the ``"ir-plan"`` namespace of the process-wide artifact cache --
    so every compile path that lowers the same formula shares one plan.
    Pass ``cache=None`` to force a fresh lowering.
    """
    if (formula is None) == (path is None):
        raise ValueError("exactly one of formula/path must be given")
    if formula is not None:
        key = ("ir-plan", MODE_FILTER, formula)
        build = lambda: lower_formula(formula)  # noqa: E731
    else:
        assert path is not None
        key = ("ir-plan", MODE_SELECT, path)
        build = lambda: lower_path(path)  # noqa: E731
    resolved = resolve_cache(cache)
    if resolved is None:
        return build()
    return resolved.get_or_compute(key, build)
