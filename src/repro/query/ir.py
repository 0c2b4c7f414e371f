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
  somewhere", "the node at ``age`` is a number greater than 29"; and
* the **cover** -- whether those predicates are not just necessary but
  *equivalent* to the payload, and what each key path they name must
  look like in the live index for that to hold: array-free
  (*scalar*), or at most one array of non-array elements (*flat*).

The predicate extraction is *sound always, exact when the cover says
so*: every predicate is implied by the payload (a document violating
it cannot match), and anything the analysis cannot classify contributes
:data:`TRUE` (no pruning) rather than an unsound restriction.  The
planner (:mod:`repro.query.planner`) intersects index postings along
the predicate tree to prune candidates, then runs the compiled payload
on the survivors only -- so pruning can never change results, only skip
documents that provably do not match.

Key paths are *stripped*: array positions are dropped, so the leaf of
``{"a": {"b": [5]}}`` lies under the key path ``("a", "b")``.  This is
what makes Mongo's array-containment equality (a scalar filter matching
arrays containing the value) and negative/sliced index axes indexable
with one table -- and it is the only place the predicates lose
information.  JSON trees are deterministic (a key reaches at most one
child), so a stripped path that crosses no array names *one node per
document*, and "some node under ``a.b`` has value 5" is then the same
statement as "the node ``a.b`` has value 5".  One array at the end of
the path loses almost as little: the nodes under ``tags`` are then the
array and its elements, and "some leaf under ``tags`` is ``t``" is the
same statement as MongoDB's ``{"tags": t}`` -- equals it or is an array
containing it.  The walk that builds a predicate records whether each
step was such an equivalence, on which paths and at which of the two
strengths (:attr:`LogicalPlan.cover`); where the live index shows the
paths to be so the planner takes the fold as the answer.

Lowered plans are registered in the process-wide artifact cache of
:mod:`repro.cache` (namespace ``"ir-plan"``, keyed on the AST itself),
so structurally equal formulas compiled through different entry points
share one plan.  Mongo ``find`` filters go one step further: a
:class:`PlanTemplate` lowers one filter per *shape* (its constants as
kind-typed :class:`Param` holes) and binds each call's constants into
the predicate, so a fresh constant costs a substitution, not a lowering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

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
    "SCALAR",
    "FLAT",
    "LogicalPlan",
    "Param",
    "PlanTemplate",
    "lower_formula",
    "lower_path",
    "plan_for",
    "strip_key_path",
]

# A *stripped* key path: the object keys along a root-to-node walk,
# with array positions dropped.
KeyPath = tuple[str, ...]

# What a path must look like, in every live document, for a predicate
# to be equivalent to the formula it was lifted from.  SCALAR: no array
# at the path or at any prefix of it.  FLAT: no array at any proper
# prefix (the root included) and, at the path itself, at most an array
# whose elements are not arrays.  A cover is a set of ``(path, need)``
# entries -- never both needs for one path, SCALAR being the stronger --
# and ``None`` means the predicate is only a necessary condition.
SCALAR = "scalar"
FLAT = "flat"
Cover = frozenset[tuple[KeyPath, str]] | None


# ---------------------------------------------------------------------------
# Predicates: necessary conditions an index can answer.
# ---------------------------------------------------------------------------


class Pred:
    """Base class of sargable necessary-condition predicates.

    Semantics: a predicate *holds* of a document when the stated
    structure is present.  Lowering guarantees the implication
    "payload matches => predicate holds"; the converse only on
    documents that meet the plan's :attr:`LogicalPlan.cover`.
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
    and drops ``PathExists(p)`` beside a part that implies it -- a
    ``PathEq``/``PathRange``/``PathKind`` on the same ``p``, or a
    disjunction whose every branch has one (``$in``)."""
    seen: list[Pred] = []
    for part in _flatten(parts, AndPred):
        if isinstance(part, TruePred):
            continue
        if part not in seen:
            seen.append(part)
    seen = [
        part
        for part in seen
        if not (
            isinstance(part, PathExists)
            and any(
                other is not part and _locates(other, part.path)
                for other in seen
            )
        )
    ]
    if not seen:
        return TRUE
    if len(seen) == 1:
        return seen[0]
    return AndPred(tuple(seen))


def _locates(part: Pred, path: KeyPath) -> bool:
    """Does ``part`` imply ``PathExists(path)``?"""
    if isinstance(part, (PathExists, PathEq, PathRange, PathKind)):
        return part.path == path
    if isinstance(part, AndPred):
        return any(_locates(sub, path) for sub in part.parts)
    if isinstance(part, OrPred):
        return all(_locates(sub, path) for sub in part.parts)
    return False


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


class LogicalPlan:
    """A dialect-neutral query plan.

    ``mode`` is ``"filter"`` (a unary formula deciding a root match)
    or ``"select"`` (a binary path selecting nodes from the root).
    Exactly one of ``formula``/``path`` is set -- the evaluation
    payload, preserved verbatim from the front-end so compiled
    execution matches the pre-IR engines exactly.  The payload may be
    handed over as a zero-argument callable instead: a plan bound from
    a :class:`PlanTemplate` builds it only when a read verifies or
    proves, never for a read the cover answers.

    ``match_predicate`` is a necessary condition for a **root match**
    (filter plans) or for a **non-empty selection** (selector plans).
    ``node_predicate`` is the weaker necessary condition for *any*
    node of the document to satisfy a filter formula -- what pruning a
    node-set selection over a filter plan must use, since a nested node
    can satisfy a formula whose root-anchored condition fails.  Only
    :func:`repro.query.planner.select_nodes` reads it, so it is lowered
    on first use, not with the plan.

    ``cover`` says when ``match_predicate`` is *exact*: ``(path,
    need)`` entries over anchored stripped paths such that, on a
    document that shows every path as its need demands, the predicate
    holds if and only if the payload matches at the root.
    :data:`SCALAR` demands no array at the path or at any of its
    prefixes (the root included); :data:`FLAT` demands none at any
    *proper* prefix and lets the path itself hold one array of
    non-array elements -- the shape of ``{"tags": ["a", "b"]}``, on
    which ``{"tags": t}``, ``$in``, ``$exists``, ``$type: "array"`` and
    a one-comparison ``$elemMatch`` are answered by the postings.
    ``None`` means the predicate is only a necessary condition (every
    selector plan, and any filter the rules of the lowering walk cannot
    certify).
    """

    __slots__ = ("mode", "match_predicate", "cover", "_payload", "_node_predicate")

    def __init__(
        self,
        mode: str,
        payload: "jnl.Unary | jnl.Binary | Callable[[], jnl.Unary | jnl.Binary]",
        match_predicate: Pred,
        cover: Cover = None,
    ) -> None:
        self.mode = mode
        self.match_predicate = match_predicate
        self.cover = cover
        self._payload = payload
        self._node_predicate: Pred | None = None

    @property
    def payload(self) -> jnl.Unary | jnl.Binary:
        payload = self._payload
        if not isinstance(payload, (jnl.Unary, jnl.Binary)):
            payload = self._payload = payload()
        return payload

    @property
    def formula(self) -> jnl.Unary | None:
        return self.payload if self.mode == MODE_FILTER else None

    @property
    def path(self) -> jnl.Binary | None:
        return self.payload if self.mode == MODE_SELECT else None

    @property
    def node_predicate(self) -> Pred:
        if self.mode != MODE_FILTER:
            # Selection starts at the root: one predicate answers both.
            return self.match_predicate
        if self._node_predicate is None:
            self._node_predicate = _lift(_FLOATING, self.payload)[0]
        return self._node_predicate


# ---------------------------------------------------------------------------
# Plan templates: a filter lowered once per shape, bound per call.
#
# A Mongo filter's constants only sit at ``EQ(., c)``/``MinVal``/
# ``MaxVal`` leaves (the paper's Section 4.1 reading of ``find``), and
# the walk below branches on them only through their kind, through which
# of them are equal, and through the order of the range bounds a
# conjunction folds with ``max``/``min``.  A front-end that keys a plan
# on a *shape* fixing those three facts can therefore lower one instance
# and bind the constants of every other into the predicate's leaves; the
# cover does not mention a constant at all and is shared as it stands.
# ---------------------------------------------------------------------------


class Param(NamedTuple):
    """A hole of a plan template: the ``index``-th constant, of ``kind``.

    A tuple, so a shape key holding it hashes and compares at C speed on
    every lookup."""

    index: int
    kind: Kind


_HOLE_KINDS = {int: Kind.NUMBER, str: Kind.STRING}


class PlanTemplate:
    """A filter plan's predicate with :class:`Param` holes for its
    constants, and its cover, shared by every binding of one shape."""

    __slots__ = ("match_predicate", "cover")

    def __init__(self, plan: LogicalPlan, constants: Sequence[str | int]) -> None:
        holes = {
            value: Param(index, _HOLE_KINDS[value.__class__])
            for index, value in enumerate(constants)
        }
        self.match_predicate = _parameterize(plan.match_predicate, holes)
        self.cover = plan.cover

    def bind(
        self,
        constants: Sequence[str | int],
        payload: "Callable[[], jnl.Unary]",
    ) -> LogicalPlan:
        """The plan of the instance with these constants (in hole order)."""
        return LogicalPlan(
            MODE_FILTER, payload, _bind(self.match_predicate, constants), self.cover
        )


def _parameterize(pred: Pred, holes: dict) -> Pred:
    """``pred`` with every constant that is a hole's value replaced by
    that hole (the shape makes holes of distinct values distinct)."""
    if isinstance(pred, (AndPred, OrPred)):
        return type(pred)(tuple(_parameterize(part, holes) for part in pred.parts))
    if isinstance(pred, PathEq):
        return PathEq(pred.path, holes.get(pred.value, pred.value))
    if isinstance(pred, TailEq):
        return TailEq(pred.key, holes.get(pred.value, pred.value))
    if isinstance(pred, AnyEq):
        return AnyEq(holes.get(pred.value, pred.value))
    if isinstance(pred, PathRange):
        return PathRange(
            pred.path, holes.get(pred.low, pred.low), holes.get(pred.high, pred.high)
        )
    return pred


def _bind(pred: Pred, constants: Sequence[str | int]) -> Pred:
    """Substitute the constants into a template predicate's holes."""
    cls = pred.__class__
    if cls is PathEq:
        value = pred.value
        if value.__class__ is Param:
            return PathEq(pred.path, constants[value.index])
        return pred
    if cls is AndPred or cls is OrPred:
        return cls(tuple([_bind(part, constants) for part in pred.parts]))
    if cls is PathRange:
        low, high = pred.low, pred.high
        if low.__class__ is Param:
            low = constants[low.index]
        if high.__class__ is Param:
            high = constants[high.index]
        return PathRange(pred.path, low, high)
    if cls is TailEq:
        value = pred.value
        if value.__class__ is Param:
            return TailEq(pred.key, constants[value.index])
        return pred
    if cls is AnyEq:
        value = pred.value
        if value.__class__ is Param:
            return AnyEq(constants[value.index])
        return pred
    return pred


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


# ---------------------------------------------------------------------------
# The lowering walk.  Every function returns the predicate *and* its
# cover, decided together at the place the predicate is built.
#
# Exactness invariant, at an anchored context with stripped path ``P``:
# on a document that meets the cover, *if the node ``n`` the keys of
# ``P`` reach exists*, the predicate holds exactly when the formula
# holds at ``n``.  At the root ``n`` always exists.  Paths establish
# existence themselves (their end contributes ``PathExists``/``PathEq``,
# which puts ``P`` in the cover), so conjunction and disjunction
# compose, and absorption, dedupe, ``PathExists`` subsumption and range
# merging are equivalences of the predicate that cost nothing.
#
# What a predicate on ``P`` quantifies over is the nodes under stripped
# ``P``.  On a SCALAR ``P`` that is ``n`` alone (keys are deterministic
# and no array multiplies them), so every leaf-or-kind atom of ``n`` is
# exact.  On a FLAT ``P`` it is ``n`` and, if ``n`` is an array, its
# elements, none of them an array; three rules certify there:
#
# (a) ``PathExists(P)`` and ``PathKind(P, ARRAY)`` (``$exists``,
#     ``$type: "array"``): an element exists only below an ``n`` that
#     does, and only ``n`` can be the array.
# (b) The full axis ``X_{0:inf}`` taken at ``P`` and followed by one
#     *element atom* ``A`` -- ``PathEq``/``PathRange``/non-array
#     ``PathKind`` on ``P``, or a disjunction of such: the walk carries
#     ``PathKind(P, ARRAY)``, which pins ``n`` as the array, and no
#     array satisfies ``A``, so ``A``'s witness is an element.  The
#     formula behind the axis is exact at an element ``e`` because it
#     is exact on the SCALAR document that has ``e`` in ``n``'s place.
#     Two atoms behind the axis are not one: different elements may
#     witness each.
# (c) ``A`` at ``n``, or else the array step of (b) followed by the same
#     ``A`` (Mongo's "equals it or is an array containing it"), is
#     exact as the single atom ``A`` that ``or_``'s absorption leaves:
#     a witness is ``n`` itself, not an array, and the document SCALAR
#     -- or an element, and (b) applies.
#
# Any other array step at ``P`` *settles* the walk as exact on SCALAR
# ``P``: its predicate keeps ``PathKind(P, ARRAY)``, so on an array-free
# ``P`` predicate and formula are both false whatever else the path does.
# ---------------------------------------------------------------------------

_NO_PATHS: Cover = frozenset()
_ANY_INDEX = jnl.IndexRange(0, None)


def _needs(path: KeyPath, need: str) -> Cover:
    return frozenset(((path, need),))


def _join(*covers: Cover) -> Cover:
    """The cover of a connective: exact only when every part is, on
    documents meeting every part's needs (SCALAR implies FLAT)."""
    if None in covers:
        return None
    merged = _NO_PATHS.union(*covers)
    if len(merged) < 2:
        return merged
    return merged.difference(
        [(path, FLAT) for path, need in merged if need == SCALAR]
    )


def _rests_on(cover: Cover, path: KeyPath) -> bool:
    """Is the cover exact, and about ``path`` alone?"""
    return cover is not None and all(at == path for at, _ in cover)


def _element_atoms(pred: Pred, path: KeyPath) -> bool:
    """Is ``pred`` one atom on ``path`` that no array satisfies, or a
    disjunction of such?  (What rules (b) and (c) call ``A``.)"""
    if isinstance(pred, OrPred):
        return all(_element_atoms(part, path) for part in pred.parts)
    if isinstance(pred, PathKind):
        return pred.path == path and pred.kind is not Kind.ARRAY
    return isinstance(pred, (PathEq, PathRange)) and pred.path == path


def _lift_path(
    ctx: _Ctx, path: jnl.Binary, doc: JSONTree | None
) -> tuple[Pred, Cover]:
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
) -> tuple[Pred, Cover]:
    if budget[0] <= 0:
        return TRUE, None
    conjuncts: list[Pred] = []
    covers: list[Cover] = []
    # Set by an array step taken at an anchored path ``P``: the walk
    # now carries ``PathKind(P, ARRAY)``, so on an array-free ``P``
    # predicate and formula are both false whatever the other steps do.
    settled: Cover = None
    # How many conjuncts and covers the walk held when its first array
    # step was the full axis, i.e. where rule (b)'s element atom starts.
    axis: tuple[int, int, KeyPath] | None = None
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
                if settled is None and step == _ANY_INDEX:
                    axis = len(conjuncts), len(covers), ctx.path
                settled = _needs(ctx.path, SCALAR)
        elif isinstance(step, jnl.Test):
            condition, cover = _lift(ctx, step.condition)
            conjuncts.append(condition)
            covers.append(cover)
        elif isinstance(step, jnl.Compose):
            # Nested compositions inside union/star branches.
            steps = steps[: at - 1] + _flatten_compose(step) + steps[at:]
            at -= 1
        elif isinstance(step, jnl.Union):
            budget[0] -= 1
            left, _ = _analyze(ctx, [step.left] + steps[at:], 0, doc, budget)
            right, _ = _analyze(ctx, [step.right] + steps[at:], 0, doc, budget)
            conjuncts.append(or_([left, right]))
            return and_(conjuncts), settled
        elif isinstance(step, jnl.Star):
            if _index_only(step.inner):
                # Zero iterations need no array; one or more do, but
                # either way the stripped path is unchanged -- no
                # constraint to add, and nothing certified either.
                covers.append(None)
                continue
            budget[0] -= 1
            skipped, _ = _analyze(ctx, steps, at, doc, budget)
            below, _ = _analyze(ctx.unanchor(), steps, at, doc, budget)
            if ctx.anchored and ctx.path:
                conjuncts.append(PathExists(ctx.path))
            conjuncts.append(or_([skipped, below]))
            return and_(conjuncts), settled
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
    value = None if doc is None else _scalar_doc_value(doc)
    if not ctx.anchored:
        # Floating: "somewhere below" is never the one node of a path.
        covers.append(None)
        if value is not None:
            conjuncts.append(
                TailEq(ctx.tail, value) if ctx.tail is not None
                else AnyEq(value)
            )
    elif doc is None:
        if ctx.path:
            conjuncts.append(PathExists(ctx.path))
        covers.append(_needs(ctx.path, FLAT))  # rule (a)
    elif value is not None:
        conjuncts.append(PathEq(ctx.path, value))
        covers.append(_needs(ctx.path, SCALAR))
    else:
        # Equality against an object/array document lowers to a kind
        # test: necessary only.
        if ctx.path:
            conjuncts.append(PathExists(ctx.path))
        conjuncts.append(PathKind(ctx.path, doc.kind(doc.root)))
        covers.append(None)
    if settled is None:
        return and_(conjuncts), _join(*covers)
    if axis is not None:
        # Rule (b): the steps behind the axis stayed at its path, are
        # exact there and amount to one element atom; the steps before
        # it must be exact too.  (A second array step fails the shape:
        # its ``PathKind(P, ARRAY)`` is no element atom.)
        atom_at, cover_at, path = axis
        if _rests_on(_join(*covers[cover_at:]), path) and _element_atoms(
            and_(conjuncts[atom_at:]), path
        ):
            cover = _join(_needs(path, FLAT), *covers[:cover_at])
            if cover is not None:
                return and_(conjuncts), cover
    return and_(conjuncts), settled


def _lift_atom(ctx: _Ctx, test: nt.NodeTest) -> tuple[Pred, Cover]:
    """Necessary condition for a NodeTest holding at ``ctx``."""
    if not ctx.anchored:
        if isinstance(test, nt.EqDocTest):
            value = _scalar_doc_value(test.doc)
            if value is not None:
                if ctx.tail is not None:
                    return TailEq(ctx.tail, value), None
                return AnyEq(value), None
        return TRUE, None
    path = ctx.path
    located = _needs(path, SCALAR)
    if isinstance(test, nt.IsObject):
        return PathKind(path, Kind.OBJECT), located
    if isinstance(test, nt.IsArray):
        return PathKind(path, Kind.ARRAY), _needs(path, FLAT)  # rule (a)
    if isinstance(test, nt.IsString):
        return PathKind(path, Kind.STRING), located
    if isinstance(test, nt.IsNumber):
        return PathKind(path, Kind.NUMBER), located
    if isinstance(test, nt.Unique):
        return PathKind(path, Kind.ARRAY), None
    if isinstance(test, nt.Pattern):
        return PathKind(path, Kind.STRING), None
    if isinstance(test, (nt.MultOf,)):
        return PathKind(path, Kind.NUMBER), None
    if isinstance(test, nt.MinVal):
        return PathRange(path, test.bound, None), located
    if isinstance(test, nt.MaxVal):
        return PathRange(path, None, test.bound), located
    if isinstance(test, nt.EqDocTest):
        value = _scalar_doc_value(test.doc)
        if value is not None:
            return PathEq(path, value), located
        return PathKind(path, test.doc.kind(test.doc.root)), None
    # MinCh/MaxCh and unknown tests: counting children prunes nothing
    # the kind indexes can answer soundly for MaxCh; MinCh >= 1 implies
    # an inner (object or array) node.
    if isinstance(test, nt.MinCh) and test.count >= 1:
        return (
            or_([PathKind(path, Kind.OBJECT), PathKind(path, Kind.ARRAY)]),
            None,
        )
    return TRUE, None


def _lift_and(ctx: _Ctx, formula: jnl.And) -> tuple[Pred, Cover]:
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
    covers: list[Cover] = []
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
            part, cover = _lift(ctx, conjunct)
            parts.append(part)
            covers.append(cover)
    if low is not None or high is not None:
        parts.append(PathRange(ctx.path, low, high))
        covers.append(_needs(ctx.path, SCALAR))
    return and_(parts), _join(*covers)


def _lift(ctx: _Ctx, formula: jnl.Unary) -> tuple[Pred, Cover]:
    """Necessary condition for ``formula`` holding at ``ctx``, and the
    cover under which it is also sufficient."""
    if isinstance(formula, jnl.Top):
        return TRUE, _NO_PATHS
    if isinstance(formula, jnl.Not):
        # Negations prune nothing: the index records presence, and
        # "absence of X" cannot be answered as a superset soundly.
        return TRUE, None
    if isinstance(formula, jnl.And):
        return _lift_and(ctx, formula)
    if isinstance(formula, jnl.Or):
        left, left_cover = _lift(ctx, formula.left)
        right, right_cover = _lift(ctx, formula.right)
        if (
            right_cover == _needs(ctx.path, FLAT)
            and _rests_on(left_cover, ctx.path)
            and _element_atoms(left, ctx.path)
            and right == and_([PathKind(ctx.path, Kind.ARRAY), left])
        ):
            return left, right_cover  # rule (c)
        return or_([left, right]), _join(left_cover, right_cover)
    if isinstance(formula, jnl.Exists):
        return _lift_path(ctx, formula.path, None)
    if isinstance(formula, jnl.EqDoc):
        return _lift_path(ctx, formula.path, formula.doc)
    if isinstance(formula, jnl.EqPath):
        # Both paths must reach *something* for the equality to hold.
        left, _ = _lift_path(ctx, formula.left, None)
        right, _ = _lift_path(ctx, formula.right, None)
        return and_([left, right]), None
    if isinstance(formula, jnl.Atom):
        return _lift_atom(ctx, formula.test)
    return TRUE, None


# ---------------------------------------------------------------------------
# Public lowering entry points.
# ---------------------------------------------------------------------------


def lower_formula(formula: jnl.Unary) -> LogicalPlan:
    """Lower a unary JNL formula (filter) into a logical plan.

    Used by the textual-JNL and Mongo-find front-ends: both produce a
    unary formula, which stays the evaluation payload; the root-match
    predicate and its cover are extracted at the root context (the
    node-set predicate, at the floating context, when first asked for).
    """
    match_predicate, cover = _lift(_ROOT, formula)
    return LogicalPlan(MODE_FILTER, formula, match_predicate, cover)


def lower_path(path: jnl.Binary) -> LogicalPlan:
    """Lower a binary JNL path (selector) into a logical plan.

    Used by the JSONPath and jnl-path front-ends.  Selection always
    starts at the root, so one root-anchored predicate covers both the
    "does anything match" and the node-selection questions.
    """
    predicate, _ = _lift_path(_ROOT, path, None)
    return LogicalPlan(MODE_SELECT, path, predicate)


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
