"""Abstract syntax of the JSON Navigational Logic (Definition 1).

The grammar of the paper::

    alpha, beta :=  <phi>  |  X_w  |  X_i  |  alpha o beta  |  eps
    phi,  psi  :=  T  |  ~phi  |  phi ^ psi  |  phi v psi  |  [alpha]
                 |  EQ(alpha, A)  |  EQ(alpha, beta)

with two extensions from Section 4.3:

* **non-determinism** -- ``X_e`` for a regular key language and
  ``X_{i:j}`` for index intervals (``j`` may be ``+inf``);
* **recursion** -- the Kleene star ``(alpha)*``.

One further extension, flagged explicitly as such, mirrors Theorem 2's
observation that the two logics differ only in atomic predicates:
:class:`Atom` embeds a :class:`~repro.logic.nodetests.NodeTest` as a
unary JNL formula.  It is used by the MongoDB / JSONPath front-ends
(which need ``$gt``-style comparisons) and is excluded by
:func:`is_pure` for paper-faithful checks.

All nodes are frozen dataclasses: structurally equal formulas hash the
same, which the evaluators use for memoisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.automata.keylang import KeyLang
from repro.logic.hashing import cached_hash as _cached_hash
from repro.logic.nodetests import NodeTest
from repro.model.tree import JSONTree

__all__ = [
    "Unary",
    "Binary",
    "Top",
    "Not",
    "And",
    "Or",
    "Exists",
    "EqDoc",
    "EqPath",
    "Atom",
    "Eps",
    "Test",
    "Key",
    "Index",
    "KeyRegex",
    "IndexRange",
    "Compose",
    "Union",
    "Star",
    "is_deterministic",
    "is_recursive",
    "uses_eqpath",
    "uses_atoms",
    "is_pure",
    "formula_size",
    "axis_depth",
]


class Unary:
    """Base class of unary JNL formulas (node filters)."""

    __slots__ = ()

    def __and__(self, other: "Unary") -> "Unary":
        return And(self, other)

    def __or__(self, other: "Unary") -> "Unary":
        return Or(self, other)

    def __invert__(self) -> "Unary":
        return Not(self)


class Binary:
    """Base class of binary JNL formulas (path expressions)."""

    __slots__ = ()

    def __truediv__(self, other: "Binary") -> "Binary":
        """Composition ``alpha o beta`` written ``alpha / beta``."""
        return Compose(self, other)

    def star(self) -> "Binary":
        return Star(self)


# ---------------------------------------------------------------------------
# Unary formulas.
# ---------------------------------------------------------------------------


@_cached_hash
@dataclass(frozen=True)
class Top(Unary):
    """The formula ``T``, true at every node."""


@_cached_hash
@dataclass(frozen=True)
class Not(Unary):
    operand: Unary


@_cached_hash
@dataclass(frozen=True)
class And(Unary):
    left: Unary
    right: Unary


@_cached_hash
@dataclass(frozen=True)
class Or(Unary):
    left: Unary
    right: Unary


@_cached_hash
@dataclass(frozen=True)
class Exists(Unary):
    """``[alpha]``: some node is reachable through ``alpha``."""

    path: Binary


@_cached_hash
@dataclass(frozen=True)
class EqDoc(Unary):
    """``EQ(alpha, A)``: ``alpha`` reaches a node whose subtree equals ``A``."""

    path: Binary
    doc: JSONTree


@_cached_hash
@dataclass(frozen=True)
class EqPath(Unary):
    """``EQ(alpha, beta)``: the two paths reach equal subtrees."""

    left: Binary
    right: Binary


@_cached_hash
@dataclass(frozen=True)
class Atom(Unary):
    """Extension: a NodeTest as an atomic unary formula (see module doc)."""

    test: NodeTest


# ---------------------------------------------------------------------------
# Binary formulas.
# ---------------------------------------------------------------------------


@_cached_hash
@dataclass(frozen=True)
class Eps(Binary):
    """``eps``: the identity relation."""


@_cached_hash
@dataclass(frozen=True)
class Test(Binary):
    """``<phi>``: stay at the node if ``phi`` holds there."""

    condition: Unary


@_cached_hash
@dataclass(frozen=True)
class Key(Binary):
    """``X_w``: follow the object edge labelled with the word ``w``."""

    word: str


@_cached_hash
@dataclass(frozen=True)
class Index(Binary):
    """``X_i``: follow the array edge at position ``i``.

    Negative positions count from the end (``-1`` is the last element),
    the dual operator the paper notes can be added without changing any
    results.
    """

    position: int


@_cached_hash
@dataclass(frozen=True)
class KeyRegex(Binary):
    """``X_e``: follow any object edge whose key lies in ``e`` (non-det)."""

    lang: KeyLang


@_cached_hash
@dataclass(frozen=True)
class IndexRange(Binary):
    """``X_{i:j}``: follow any array edge at a position in ``[i, j]``.

    ``high=None`` encodes ``j = +inf``.  Positions are 0-based (the
    paper is 1-based).
    """

    low: int
    high: int | None


@_cached_hash
@dataclass(frozen=True)
class Compose(Binary):
    left: Binary
    right: Binary


@_cached_hash
@dataclass(frozen=True)
class Union(Binary):
    """Extension: union of two paths (``alpha u beta``).

    Not part of the paper's grammar -- its non-determinism unions keys
    *within* one ``X_e`` axis only.  The JSONPath front-end needs the
    mixed "any child" axis ``X_{Sigma*} u X_{0:inf}``, so we add the
    standard PDL union, excluded from :func:`is_pure` checks.
    """

    left: Binary
    right: Binary


@_cached_hash
@dataclass(frozen=True)
class Star(Binary):
    """``(alpha)*``: the reflexive-transitive closure (recursion)."""

    inner: Binary


# ---------------------------------------------------------------------------
# Classification and metrics.
# ---------------------------------------------------------------------------


def _children(formula: Unary | Binary) -> tuple[Unary | Binary, ...]:
    if isinstance(formula, (Top, Atom, Eps, Key, Index, KeyRegex, IndexRange)):
        return ()
    if isinstance(formula, Not):
        return (formula.operand,)
    if isinstance(formula, (And, Or)):
        return (formula.left, formula.right)
    if isinstance(formula, Exists):
        return (formula.path,)
    if isinstance(formula, EqDoc):
        return (formula.path,)
    if isinstance(formula, EqPath):
        return (formula.left, formula.right)
    if isinstance(formula, Test):
        return (formula.condition,)
    if isinstance(formula, (Compose, Union)):
        return (formula.left, formula.right)
    if isinstance(formula, Star):
        return (formula.inner,)
    raise TypeError(f"unknown JNL formula {formula!r}")


def _any_node(formula: Unary | Binary, predicate) -> bool:
    stack: list[Unary | Binary] = [formula]
    while stack:
        current = stack.pop()
        if predicate(current):
            return True
        stack.extend(_children(current))
    return False


def is_deterministic(formula: Unary | Binary) -> bool:
    """No ``X_e`` / ``X_{i:j}`` axes, no star, no union (Section 4.2 core)."""
    return not _any_node(
        formula, lambda f: isinstance(f, (KeyRegex, IndexRange, Star, Union))
    )


def is_recursive(formula: Unary | Binary) -> bool:
    """Does the formula use the Kleene star?"""
    return _any_node(formula, lambda f: isinstance(f, Star))


def uses_eqpath(formula: Unary | Binary) -> bool:
    """Does the formula use the binary equality ``EQ(alpha, beta)``?"""
    return _any_node(formula, lambda f: isinstance(f, EqPath))


def uses_atoms(formula: Unary | Binary) -> bool:
    """Does the formula use the NodeTest-atom extension?"""
    return _any_node(formula, lambda f: isinstance(f, Atom))


def is_pure(formula: Unary | Binary) -> bool:
    """Is the formula inside the paper's syntax (no Atom/Union extension)?"""
    return not _any_node(formula, lambda f: isinstance(f, (Atom, Union)))


def formula_size(formula: Unary | Binary) -> int:
    """Number of AST nodes -- the ``|phi|`` of the complexity bounds."""
    size = 0
    stack: list[Unary | Binary] = [formula]
    while stack:
        current = stack.pop()
        size += 1
        stack.extend(_children(current))
    return size


@lru_cache(maxsize=None)
def axis_depth(formula: Unary | Binary) -> int:
    """Maximal number of axes composed along any path of the formula.

    This bounds the height of minimal models of star-free formulas,
    which the NP satisfiability procedure of Proposition 2 exploits.
    """
    if isinstance(formula, (Key, Index, KeyRegex, IndexRange)):
        return 1
    if isinstance(formula, Compose):
        return axis_depth(formula.left) + axis_depth(formula.right)
    children = _children(formula)
    if not children:
        return 0
    return max(axis_depth(child) for child in children)
