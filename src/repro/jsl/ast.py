"""Abstract syntax of the JSON Schema Logic (Definition 2).

The grammar of the paper::

    phi, psi :=  T  |  ~phi  |  phi ^ psi  |  phi v psi
              |  psi in NodeTests
              |  BOX_e phi   |  BOX_{i:j} phi      (universal modalities)
              |  DIA_e phi   |  DIA_{i:j} phi      (existential modalities)

where ``e`` ranges over regular key languages and ``i <= j`` over index
intervals (``j`` may be ``+inf``).  Key modalities quantify over
object-child edges, index modalities over array-child edges.

Section 5.3 adds *recursive* JSL: a list of definitions
``gamma_i = phi_i`` over an extended syntax with reference symbols,
plus a base expression, subject to the well-formedness condition that
the precedence graph (edges to references **not** under a modal
operator) is acyclic.  That is :class:`RecursiveJSL` here; the
well-formedness machinery lives in :mod:`repro.jsl.recursion`.

Node tests are shared with JNL through :mod:`repro.logic.nodetests`.
Index intervals are 0-based (the paper is 1-based).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.automata.keylang import KeyLang
from repro.logic.hashing import cached_hash
from repro.logic.nodetests import NodeTest

__all__ = [
    "Formula",
    "Top",
    "Not",
    "And",
    "Or",
    "TestAtom",
    "DiaKey",
    "BoxKey",
    "DiaIdx",
    "BoxIdx",
    "Ref",
    "RecursiveJSL",
    "bottom",
    "conj",
    "disj",
    "formula_size",
    "subformulas",
    "refs_in",
    "uses_unique",
    "is_deterministic",
    "modal_depth",
]


class Formula:
    """Base class of JSL formulas."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@cached_hash
@dataclass(frozen=True)
class Top(Formula):
    """``T``: true everywhere."""


@cached_hash
@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@cached_hash
@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@cached_hash
@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@cached_hash
@dataclass(frozen=True)
class TestAtom(Formula):
    """An atomic predicate from NodeTests."""

    test: NodeTest


@cached_hash
@dataclass(frozen=True)
class DiaKey(Formula):
    """``DIA_e phi``: some key in ``e`` leads to a child satisfying phi."""

    lang: KeyLang
    body: Formula


@cached_hash
@dataclass(frozen=True)
class BoxKey(Formula):
    """``BOX_e phi``: every key in ``e`` leads to a child satisfying phi."""

    lang: KeyLang
    body: Formula


@cached_hash
@dataclass(frozen=True)
class DiaIdx(Formula):
    """``DIA_{i:j} phi``: some position in ``[i, j]`` satisfies phi."""

    low: int
    high: int | None  # None encodes +inf
    body: Formula


@cached_hash
@dataclass(frozen=True)
class BoxIdx(Formula):
    """``BOX_{i:j} phi``: every position in ``[i, j]`` satisfies phi."""

    low: int
    high: int | None
    body: Formula


@cached_hash
@dataclass(frozen=True)
class Ref(Formula):
    """A reference ``gamma`` to a recursive definition."""

    name: str


@dataclass(frozen=True)
class RecursiveJSL:
    """A recursive JSL expression: definitions plus a base expression.

    ``definitions`` maps each symbol to its defining formula; formulas
    may mention any symbol through :class:`Ref`.  Use
    :func:`repro.jsl.recursion.check_well_formed` before evaluating.
    """

    definitions: tuple[tuple[str, Formula], ...]
    base: Formula

    @staticmethod
    def make(definitions: dict[str, Formula], base: Formula) -> "RecursiveJSL":
        return RecursiveJSL(tuple(definitions.items()), base)

    def definition_map(self) -> dict[str, Formula]:
        return dict(self.definitions)

    @property
    def size(self) -> int:
        return formula_size(self.base) + sum(
            formula_size(body) for _name, body in self.definitions
        )


def bottom() -> Formula:
    """``~T`` -- falsity (the paper's ``K`` shorthand)."""
    return Not(Top())


def conj(formulas: Iterable[Formula]) -> Formula:
    items = list(formulas)
    if not items:
        return Top()
    result = items[0]
    for item in items[1:]:
        result = And(result, item)
    return result


def disj(formulas: Iterable[Formula]) -> Formula:
    items = list(formulas)
    if not items:
        return bottom()
    result = items[0]
    for item in items[1:]:
        result = Or(result, item)
    return result


def _children(formula: Formula) -> tuple[Formula, ...]:
    if isinstance(formula, (Top, TestAtom, Ref)):
        return ()
    if isinstance(formula, Not):
        return (formula.operand,)
    if isinstance(formula, (And, Or)):
        return (formula.left, formula.right)
    if isinstance(formula, (DiaKey, BoxKey, DiaIdx, BoxIdx)):
        return (formula.body,)
    raise TypeError(f"unknown JSL formula {formula!r}")


def subformulas(formula: Formula) -> Iterable[Formula]:
    """All subformulas, each once (pre-order)."""
    seen: set[Formula] = set()
    stack = [formula]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        yield current
        stack.extend(_children(current))


def formula_size(formula: Formula) -> int:
    """Number of AST nodes (``|phi|`` in the complexity bounds)."""
    size = 0
    stack = [formula]
    while stack:
        current = stack.pop()
        size += 1
        stack.extend(_children(current))
    return size


def refs_in(formula: Formula) -> set[str]:
    """Names of all referenced definitions."""
    return {
        sub.name for sub in subformulas(formula) if isinstance(sub, Ref)
    }


def uses_unique(formula: Formula) -> bool:
    """Does the formula use the ``Unique`` node test (``uniqueItems``)?"""
    from repro.logic.nodetests import Unique

    return any(
        isinstance(sub, TestAtom) and isinstance(sub.test, Unique)
        for sub in subformulas(formula)
    )


def is_deterministic(formula: Formula) -> bool:
    """Modalities restricted to single words / single positions.

    This is the deterministic fragment the paper obtains "by
    restricting the syntax to use only modal operators BOX_w and
    BOX_i, DIA_w and DIA_i" -- the fragment conjectured in Section 6
    to admit constant-memory streaming evaluation.
    """
    for sub in subformulas(formula):
        if isinstance(sub, (DiaKey, BoxKey)):
            if sub.lang.single_word is None:
                return False
        elif isinstance(sub, (DiaIdx, BoxIdx)):
            if sub.high != sub.low:
                return False
    return True


def modal_depth(formula: Formula) -> int:
    """Maximal nesting depth of modal operators."""
    if isinstance(formula, (DiaKey, BoxKey, DiaIdx, BoxIdx)):
        return 1 + modal_depth(formula.body)
    children = _children(formula)
    if not children:
        return 0
    return max(modal_depth(child) for child in children)
