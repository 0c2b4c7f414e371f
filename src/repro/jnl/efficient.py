"""Efficient JNL evaluation (Propositions 1 and 3).

The evaluator computes, for a unary formula, the *set of nodes*
satisfying it, working bottom-up over the formula structure:

* boolean connectives are set operations over node sets;
* ``[alpha]`` and ``EQ(alpha, A)`` compile ``alpha`` into a path
  automaton (:mod:`repro.jnl.paths`) and run a **backward** reachability
  over the product of the tree with the automaton.  Because every axis
  moves strictly downward and each node has a unique parent, the
  product graph is traversed once, giving ``O(|J| * |alpha|)`` -- the
  bound of Proposition 1, and of Proposition 3 for formulas without
  ``EQ(alpha, beta)`` (the Kleene star only adds eps-loops to the
  automaton, not to the product's cost).  For ``EQ(alpha, A)`` the
  constant document ``A`` is hashed once and the accepting
  configurations are seeded with the nodes whose canonical hash
  matches, verified structurally: one extra linear hashing pass;
* ``EQ(alpha, beta)`` needs the *set of subtree values* reachable from
  each node, which the backward pass cannot provide.  For deterministic
  paths the unique targets are followed directly (linear); otherwise a
  forward reachability is run **per node**, which is where the paper's
  cubic bound for the full logic comes from (``O(|J|^3 * |phi|)``,
  Proposition 3; benchmark E3 shows the gap against the
  ``EQ(alpha, beta)``-free fragment).

All subtree comparisons use canonical hashes with structural
verification (see :mod:`repro.model.equality`), the "online" equality
the paper's Proposition 1 proof sketches.
"""

from __future__ import annotations

from typing import Iterable

from repro.jnl import ast
from repro.jnl.paths import (
    EPS,
    TEST,
    PathAutomaton,
    compile_path,
    edge_matches,
)
from repro.logic.nodetests import node_test_holds, nodes_satisfying_test
from repro.model.equality import canonical_hash, compute_all_hashes, subtree_equal
from repro.model.tree import JSONTree

__all__ = ["JNLEvaluator", "evaluate_unary", "satisfies", "target_nodes"]


class JNLEvaluator:
    """Evaluates unary JNL formulas over one JSON tree, with memoisation.

    Reuse one instance to evaluate many formulas over the same tree:
    node sets of shared subformulas and compiled path automata are
    cached.
    """

    def __init__(
        self,
        tree: JSONTree,
        *,
        exact_unique: bool = False,
        automata: dict[ast.Binary, PathAutomaton] | None = None,
    ) -> None:
        self.tree = tree
        self.exact_unique = exact_unique
        self._node_sets: dict[ast.Unary, frozenset[int]] = {}
        self._point_memo: dict[tuple[int, ast.Unary], bool] = {}
        # ``automata`` may be a shared cache (e.g. a CompiledQuery's):
        # path automata are tree-independent, so compiled ones can be
        # reused across evaluators, and new compilations flow back.
        self._automata: dict[ast.Binary, PathAutomaton] = (
            automata if automata is not None else {}
        )

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def nodes_satisfying(self, formula: ast.Unary) -> frozenset[int]:
        """All nodes ``n`` with ``n in [[formula]]_J``."""
        cached = self._node_sets.get(formula)
        if cached is not None:
            return cached
        result = self._evaluate(formula)
        self._node_sets[formula] = result
        return result

    def satisfies(self, node: int, formula: ast.Unary) -> bool:
        """The Evaluation problem: is ``node`` in ``[[formula]]_J``?"""
        return node in self.nodes_satisfying(formula)

    def satisfies_at(self, node: int, formula: ast.Unary) -> bool:
        """Point evaluation: like :meth:`satisfies`, but top-down.

        Instead of materialising the node set of every subformula,
        modal subformulas run the automaton *forward* from the probed
        node, so only the part of the tree actually reachable through
        the paths is visited.  Verdicts are memoised per ``(node,
        formula)``, and any full node set already computed by
        :meth:`nodes_satisfying` is reused, so interleaving both styles
        on one evaluator never repeats work.  This is what a compiled
        query's root-match (the document-store filter predicate) calls:
        on small selective queries it touches a handful of nodes where
        the bottom-up pass would scan ``|J| * |phi|``.

        Recursion depth follows the *unary* nesting of the formula
        (path composition stays iterative); for the adversarially deep
        formulas of the hardness reductions, prefer :meth:`satisfies`.
        """
        cached = self._node_sets.get(formula)
        if cached is not None:
            return node in cached
        key = (node, formula)
        verdict = self._point_memo.get(key)
        if verdict is None:
            verdict = self._compute_at(node, formula)
            self._point_memo[key] = verdict
        return verdict

    def target_nodes(
        self, path: ast.Binary, start: int | None = None
    ) -> frozenset[int]:
        """Nodes reachable from ``start`` through ``path`` (forward run)."""
        automaton = self._automaton(path)
        origin = self.tree.root if start is None else start
        return frozenset(self._forward_targets(automaton, origin))

    # ------------------------------------------------------------------
    # Formula dispatch.
    # ------------------------------------------------------------------

    def _evaluate(self, formula: ast.Unary) -> frozenset[int]:
        tree = self.tree
        if isinstance(formula, ast.Top):
            return frozenset(tree.nodes())
        if isinstance(formula, ast.Not):
            return frozenset(tree.nodes()) - self.nodes_satisfying(formula.operand)
        if isinstance(formula, ast.And):
            return self.nodes_satisfying(formula.left) & self.nodes_satisfying(
                formula.right
            )
        if isinstance(formula, ast.Or):
            return self.nodes_satisfying(formula.left) | self.nodes_satisfying(
                formula.right
            )
        if isinstance(formula, ast.Exists):
            return self._eval_reach(formula.path, None)
        if isinstance(formula, ast.EqDoc):
            return self._eval_reach(formula.path, formula.doc)
        if isinstance(formula, ast.EqPath):
            return self._eval_eqpath(formula)
        if isinstance(formula, ast.Atom):
            return nodes_satisfying_test(
                tree, formula.test, exact_unique=self.exact_unique
            )
        raise TypeError(f"unknown unary formula {formula!r}")

    def _compute_at(self, node: int, formula: ast.Unary) -> bool:
        """Uncached point verdict (see :meth:`satisfies_at`)."""
        tree = self.tree
        if isinstance(formula, ast.Top):
            return True
        if isinstance(formula, ast.Not):
            return not self.satisfies_at(node, formula.operand)
        if isinstance(formula, ast.And):
            return self.satisfies_at(node, formula.left) and self.satisfies_at(
                node, formula.right
            )
        if isinstance(formula, ast.Or):
            return self.satisfies_at(node, formula.left) or self.satisfies_at(
                node, formula.right
            )
        if isinstance(formula, ast.Exists):
            return bool(self._forward_targets(self._automaton(formula.path), node))
        if isinstance(formula, ast.EqDoc):
            targets = self._forward_targets(self._automaton(formula.path), node)
            if not targets:
                return False
            doc = formula.doc
            target_hash = canonical_hash(doc, doc.root)
            hashes = compute_all_hashes(tree)
            return any(
                hashes[target] == target_hash
                and subtree_equal(tree, target, doc, doc.root)
                for target in targets
            )
        if isinstance(formula, ast.EqPath):
            targets_left = self._forward_targets(
                self._automaton(formula.left), node
            )
            if not targets_left:
                return False
            targets_right = self._forward_targets(
                self._automaton(formula.right), node
            )
            if not targets_right:
                return False
            return self._value_sets_intersect(
                targets_left, targets_right, compute_all_hashes(tree)
            )
        if isinstance(formula, ast.Atom):
            return node_test_holds(
                tree, node, formula.test, exact_unique=self.exact_unique
            )
        raise TypeError(f"unknown unary formula {formula!r}")

    # ------------------------------------------------------------------
    # Reachability machinery.
    # ------------------------------------------------------------------

    def _automaton(self, path: ast.Binary) -> PathAutomaton:
        automaton = self._automata.get(path)
        if automaton is None:
            automaton = compile_path(path)
            self._automata[path] = automaton
        return automaton

    def _test_sets(
        self, automaton: PathAutomaton
    ) -> dict[ast.Unary, frozenset[int]]:
        return {test: self.nodes_satisfying(test) for test in automaton.tests}

    def _eval_reach(self, path: ast.Binary, doc: JSONTree | None) -> frozenset[int]:
        """Nodes from which ``path`` reaches an accepting node.

        ``doc=None`` computes ``[alpha]``; otherwise ``EQ(alpha, doc)``,
        i.e. acceptance additionally requires the reached subtree to
        equal ``doc``.
        """
        tree = self.tree
        automaton = self._automaton(path)
        if automaton.deterministic:
            return self._eval_reach_deterministic(path, doc)
        test_sets = self._test_sets(automaton)
        num_states = automaton.num_states
        accept = automaton.accept

        if doc is None:
            seed_nodes: Iterable[int] = tree.nodes()
        else:
            target_hash = canonical_hash(doc, doc.root)
            hashes = compute_all_hashes(tree)
            seed_nodes = [
                node
                for node in tree.nodes()
                if hashes[node] == target_hash
                and subtree_equal(tree, node, doc, doc.root)
            ]

        # Product configurations are packed as ``node * num_states +
        # state`` into a bytearray visited-map and an int worklist: the
        # loop below runs once per (config, incoming transition) and
        # tuple/set overhead dominated profiles on the compiled path.
        reached = bytearray(len(tree) * num_states)
        worklist: list[int] = []
        for node in seed_nodes:
            config = node * num_states + accept
            reached[config] = 1
            worklist.append(config)
        incoming = automaton.incoming
        parents = tree.node_parents()
        labels = tree.node_labels()
        while worklist:
            config = worklist.pop()
            node, state = divmod(config, num_states)
            for transition in incoming[state]:
                kind = transition.kind
                if kind == EPS:
                    target = config - state + transition.source
                    if not reached[target]:
                        reached[target] = 1
                        worklist.append(target)
                elif kind == TEST:
                    if node in test_sets[transition.payload]:  # type: ignore[index]
                        target = config - state + transition.source
                        if not reached[target]:
                            reached[target] = 1
                            worklist.append(target)
                else:
                    parent = parents[node]
                    if parent < 0:
                        continue
                    label = labels[node]
                    assert label is not None
                    if edge_matches(tree, parent, label, kind, transition.payload):
                        target = parent * num_states + transition.source
                        if not reached[target]:
                            reached[target] = 1
                            worklist.append(target)
        start = automaton.start
        return frozenset(
            node
            for node in tree.nodes()
            if reached[node * num_states + start]
        )

    def _eval_reach_deterministic(
        self, path: ast.Binary, doc: JSONTree | None
    ) -> frozenset[int]:
        """``[alpha]`` / ``EQ(alpha, A)`` for deterministic ``alpha``.

        A deterministic path has at most one target per origin, so each
        node is checked by following the unique chain of steps --
        ``O(|J| * |alpha|)`` like the product construction, but without
        materialising the product graph.
        """
        tree = self.tree
        if doc is None:
            return frozenset(
                node
                for node in tree.nodes()
                if self._follow_deterministic(node, path) is not None
            )
        target_hash = canonical_hash(doc, doc.root)
        hashes = compute_all_hashes(tree)
        result: set[int] = set()
        for node in tree.nodes():
            target = self._follow_deterministic(node, path)
            if (
                target is not None
                and hashes[target] == target_hash
                and subtree_equal(tree, target, doc, doc.root)
            ):
                result.add(node)
        return frozenset(result)

    def _forward_targets(self, automaton: PathAutomaton, origin: int) -> set[int]:
        """Nodes reachable at the accept state from ``(origin, start)``.

        Test transitions are decided lazily via :meth:`satisfies_at`,
        so only nodes the traversal actually visits are ever probed --
        a forward run from one origin touches the reachable part of the
        product, not the whole tree.
        """
        tree = self.tree
        num_states = automaton.num_states
        accept = automaton.accept
        outgoing = automaton.outgoing
        start_config = origin * num_states + automaton.start
        reached = bytearray(len(tree) * num_states)
        reached[start_config] = 1
        worklist = [start_config]
        results: set[int] = set()
        while worklist:
            config = worklist.pop()
            node, state = divmod(config, num_states)
            if state == accept:
                results.add(node)
            for transition in outgoing[state]:
                kind = transition.kind
                if kind == EPS:
                    target = config - state + transition.target
                    if not reached[target]:
                        reached[target] = 1
                        worklist.append(target)
                elif kind == TEST:
                    payload = transition.payload
                    if self.satisfies_at(node, payload):  # type: ignore[arg-type]
                        target = config - state + transition.target
                        if not reached[target]:
                            reached[target] = 1
                            worklist.append(target)
                else:
                    for label, child in tree.edges(node):
                        if edge_matches(tree, node, label, kind, transition.payload):
                            target = child * num_states + transition.target
                            if not reached[target]:
                                reached[target] = 1
                                worklist.append(target)
        return results

    # ------------------------------------------------------------------
    # EQ(alpha, beta).
    # ------------------------------------------------------------------

    def _eval_eqpath(self, formula: ast.EqPath) -> frozenset[int]:
        left, right = formula.left, formula.right
        if ast.is_deterministic(left) and ast.is_deterministic(right):
            return self._eval_eqpath_deterministic(left, right)
        tree = self.tree
        hashes = compute_all_hashes(tree)
        automaton_left = self._automaton(left)
        automaton_right = self._automaton(right)
        result: set[int] = set()
        for node in tree.nodes():
            targets_left = self._forward_targets(automaton_left, node)
            if not targets_left:
                continue
            targets_right = self._forward_targets(automaton_right, node)
            if not targets_right:
                continue
            if self._value_sets_intersect(
                targets_left, targets_right, hashes
            ):
                result.add(node)
        return frozenset(result)

    def _value_sets_intersect(
        self, left: set[int], right: set[int], hashes: list[int]
    ) -> bool:
        by_hash: dict[int, list[int]] = {}
        for node in left:
            by_hash.setdefault(hashes[node], []).append(node)
        for node in right:
            candidates = by_hash.get(hashes[node])
            if not candidates:
                continue
            for candidate in candidates:
                if candidate == node or subtree_equal(
                    self.tree, candidate, self.tree, node
                ):
                    return True
        return False

    def _eval_eqpath_deterministic(
        self, left: ast.Binary, right: ast.Binary
    ) -> frozenset[int]:
        """Linear fast path: deterministic paths have unique targets."""
        tree = self.tree
        hashes = compute_all_hashes(tree)
        result: set[int] = set()
        for node in tree.nodes():
            target_left = self._follow_deterministic(node, left)
            if target_left is None:
                continue
            target_right = self._follow_deterministic(node, right)
            if target_right is None:
                continue
            if target_left == target_right or (
                hashes[target_left] == hashes[target_right]
                and subtree_equal(tree, target_left, tree, target_right)
            ):
                result.add(node)
        return frozenset(result)

    def _follow_deterministic(self, node: int, path: ast.Binary) -> int | None:
        """The unique node reached via a deterministic path, if any."""
        tree = self.tree
        # Left-to-right sequence of steps (iterative flattening).
        stack: list[ast.Binary] = [path]
        current = node
        while stack:
            step = stack.pop()
            if isinstance(step, ast.Compose):
                stack.append(step.right)
                stack.append(step.left)
            elif isinstance(step, ast.Eps):
                continue
            elif isinstance(step, ast.Test):
                if current not in self.nodes_satisfying(step.condition):
                    return None
            elif isinstance(step, ast.Key):
                next_node = tree.object_child(current, step.word)
                if next_node is None:
                    return None
                current = next_node
            elif isinstance(step, ast.Index):
                next_node = tree.array_child(current, step.position)
                if next_node is None:
                    return None
                current = next_node
            else:
                raise TypeError(f"non-deterministic step {step!r} in fast path")
        return current


def evaluate_unary(
    tree: JSONTree, formula: ast.Unary, *, exact_unique: bool = False
) -> frozenset[int]:
    """One-shot evaluation of a unary formula over a tree."""
    return JNLEvaluator(tree, exact_unique=exact_unique).nodes_satisfying(formula)


def satisfies(
    tree: JSONTree, formula: ast.Unary, node: int | None = None
) -> bool:
    """Does ``node`` (default: the root) satisfy ``formula``?"""
    target = tree.root if node is None else node
    return target in evaluate_unary(tree, formula)


def target_nodes(
    tree: JSONTree, path: ast.Binary, start: int | None = None
) -> frozenset[int]:
    """Nodes reachable from ``start`` (default: root) through ``path``."""
    return JNLEvaluator(tree).target_nodes(path, start)
