"""Compilation of binary JNL formulas into *path automata*.

A binary formula denotes a set of node pairs connected by downward
paths.  Because JNL has composition, tests, and (with the recursion
extension) the Kleene star, the natural execution model is an NFA whose
transitions are labelled with

* ``eps``            -- stay at the node;
* ``test(phi)``      -- stay, provided the node satisfies ``phi``;
* ``key(w)``/``key(e)`` -- descend along an object edge with a matching
  key;
* ``index(i)``/``index(i:j)`` -- descend along a matching array edge.

Evaluating a formula then becomes reachability in the product of the
JSON tree with this automaton.  Since all axes move strictly downward,
the product graph restricted to moving transitions is acyclic, and both
the forward and the backward reachability used by
:mod:`repro.jnl.efficient` are linear in ``|J| * |automaton|`` -- this
is how Proposition 1's ``O(|J| x |phi|)`` bound and the linear part of
Proposition 3 are realised (the same idea as PDL model checking, which
the paper cites).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.keylang import KeyLang
from repro.jnl import ast
from repro.model.tree import JSONTree

__all__ = ["Transition", "PathAutomaton", "compile_path", "edge_matches"]

# Transition kinds.
EPS = "eps"
TEST = "test"
KEY = "key"
KEY_LANG = "key_lang"
INDEX = "index"
INDEX_RANGE = "index_range"


@dataclass(frozen=True)
class Transition:
    """One automaton transition: ``source --kind(payload)--> target``."""

    source: int
    kind: str
    payload: object
    target: int


class PathAutomaton:
    """An NFA over path labels with a single start and accept state."""

    __slots__ = (
        "num_states",
        "start",
        "accept",
        "outgoing",
        "incoming",
        "tests",
        "deterministic",
    )

    def __init__(self) -> None:
        self.num_states = 0
        self.start = 0
        self.accept = 0
        self.outgoing: list[list[Transition]] = []
        self.incoming: list[list[Transition]] = []
        # All distinct unary test formulas appearing on transitions.
        self.tests: list[ast.Unary] = []
        # Set by compile_path: a deterministic source formula lets the
        # evaluators follow unique targets instead of running the
        # product reachability (same asymptotics, smaller constants).
        self.deterministic = False

    def new_state(self) -> int:
        self.outgoing.append([])
        self.incoming.append([])
        self.num_states += 1
        return self.num_states - 1

    def add(self, source: int, kind: str, payload: object, target: int) -> None:
        transition = Transition(source, kind, payload, target)
        self.outgoing[source].append(transition)
        self.incoming[target].append(transition)
        if kind == TEST and payload not in self.tests:
            assert isinstance(payload, ast.Unary)
            self.tests.append(payload)

    @property
    def size(self) -> int:
        return self.num_states + sum(len(edges) for edges in self.outgoing)


def compile_path(path: ast.Binary) -> PathAutomaton:
    """Thompson-style construction from a binary formula."""
    automaton = PathAutomaton()

    def build(node: ast.Binary) -> tuple[int, int]:
        if isinstance(node, ast.Eps):
            start = automaton.new_state()
            end = automaton.new_state()
            automaton.add(start, EPS, None, end)
            return start, end
        if isinstance(node, ast.Test):
            start = automaton.new_state()
            end = automaton.new_state()
            automaton.add(start, TEST, node.condition, end)
            return start, end
        if isinstance(node, ast.Key):
            start = automaton.new_state()
            end = automaton.new_state()
            automaton.add(start, KEY, node.word, end)
            return start, end
        if isinstance(node, ast.Index):
            start = automaton.new_state()
            end = automaton.new_state()
            automaton.add(start, INDEX, node.position, end)
            return start, end
        if isinstance(node, ast.KeyRegex):
            start = automaton.new_state()
            end = automaton.new_state()
            automaton.add(start, KEY_LANG, node.lang, end)
            return start, end
        if isinstance(node, ast.IndexRange):
            start = automaton.new_state()
            end = automaton.new_state()
            automaton.add(start, INDEX_RANGE, (node.low, node.high), end)
            return start, end
        if isinstance(node, ast.Compose):
            left = build(node.left)
            right = build(node.right)
            automaton.add(left[1], EPS, None, right[0])
            return left[0], right[1]
        if isinstance(node, ast.Union):
            left = build(node.left)
            right = build(node.right)
            start = automaton.new_state()
            end = automaton.new_state()
            automaton.add(start, EPS, None, left[0])
            automaton.add(start, EPS, None, right[0])
            automaton.add(left[1], EPS, None, end)
            automaton.add(right[1], EPS, None, end)
            return start, end
        if isinstance(node, ast.Star):
            inner = build(node.inner)
            start = automaton.new_state()
            end = automaton.new_state()
            automaton.add(start, EPS, None, inner[0])
            automaton.add(start, EPS, None, end)
            automaton.add(inner[1], EPS, None, inner[0])
            automaton.add(inner[1], EPS, None, end)
            return start, end
        raise TypeError(f"unknown binary formula {node!r}")

    start, accept = build(path)
    automaton.start = start
    automaton.accept = accept
    automaton.deterministic = ast.is_deterministic(path)
    return automaton


def edge_matches(
    tree: JSONTree,
    source: int,
    label: str | int,
    kind: str,
    payload: object,
) -> bool:
    """Does the tree edge ``source --label--> child`` match an axis label?"""
    if kind == KEY:
        return isinstance(label, str) and label == payload
    if kind == KEY_LANG:
        assert isinstance(payload, KeyLang)
        return isinstance(label, str) and payload.matches(label)
    if kind == INDEX:
        if not isinstance(label, int):
            return False
        position = payload
        assert isinstance(position, int)
        if position < 0:
            position += tree.array_length(source)
        return label == position
    if kind == INDEX_RANGE:
        if not isinstance(label, int):
            return False
        low, high = payload  # type: ignore[misc]
        return low <= label and (high is None or label <= high)
    return False
