"""Compile JSL formulas into a flat validator program.

The Proposition-6 evaluator is set-at-a-time: every subformula costs a
pass over the whole arena, which is the right shape for
``nodes_satisfying`` but wasteful for the boolean Evaluation problem
``J |= phi`` -- a root check only ever needs the nodes the modalities
can reach.  This compiler turns a formula (or a well-formed recursive
expression) into point-evaluation closures, one per subformula, with
everything tree-independent prebuilt:

* an ``And``/``Or`` chain becomes one loop over its operands' closures,
  and a conjunction's key modalities one record closure (a schema's
  ``required``/``properties``/``additionalProperties`` -> one pass);
* index modalities become range slices, diamonds the duals of boxes;
* node tests compile to specialised closures (no isinstance ladder per
  node per call);
* recursive definitions get slots, with per-call ``(slot, node)``
  memoisation; unguarded expansion terminates because the precedence
  graph is acyclic (Section 5.3).

Each subformula yields a tree closure and a raw-value closure, so
corpus validation can skip tree materialisation.  This is the only
validator program: JSON Schema reaches it through the Theorem-1
translation (:func:`repro.schema.to_jsl.schema_to_jsl`).  A value
closure that walks an object's keys raises
:class:`~repro.errors.UnsupportedValueError` on a non-string key.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import TranslationError
from repro.jsl import ast
from repro.jsl.recursion import check_well_formed
from repro.logic import nodetests as nt
from repro.model.equality import all_children_distinct, subtree_equal
from repro.model.tree import JSONTree, Kind
from repro.validate.values import (
    canonical_value,
    check_key,
    check_supported,
    children_count,
)

__all__ = ["compile_jsl_program", "TreeFn", "ValueFn"]

# The two backends' closure signatures.  ``ctx`` is the per-call memo.
TreeFn = Callable[[JSONTree, int, dict], bool]
ValueFn = Callable[[Any, dict], bool]

_OBJECT = Kind.OBJECT
_ARRAY = Kind.ARRAY
_STRING = Kind.STRING
_NUMBER = Kind.NUMBER

_MISSING = object()
_is_string = str.__instancecheck__


def compile_jsl_program(
    formula: ast.Formula | ast.RecursiveJSL,
    *,
    exact_unique: bool = False,
    check_keys: bool = False,
) -> tuple[TreeFn, ValueFn]:
    """Compile a (possibly recursive) JSL formula into its two closures.

    With ``check_keys`` an object that a word box looks into must have
    string keys only, as JSON Schema's ``properties`` requires; without
    it the box costs one lookup, not a sweep over the keys.
    """
    definitions = {}
    base = formula
    if isinstance(formula, ast.RecursiveJSL):
        check_well_formed(formula)
        definitions, base = formula.definition_map(), formula.base
    compiler = _JSLCompiler(definitions, exact_unique, check_keys)
    compiler.compile_definitions()
    return compiler.compile(base)


class _JSLCompiler:
    def __init__(
        self,
        definitions: dict[str, ast.Formula],
        exact_unique: bool,
        check_keys: bool,
    ) -> None:
        self.definitions = definitions
        self.exact_unique = exact_unique
        self.check_keys = check_keys
        self.slot_of = {name: i for i, name in enumerate(definitions)}
        self.tree_slots: list[TreeFn | None] = [None] * len(definitions)
        self.value_slots: list[ValueFn | None] = [None] * len(definitions)

    def compile_definitions(self) -> None:
        for name, body in self.definitions.items():
            slot = self.slot_of[name]
            self.tree_slots[slot], self.value_slots[slot] = self.compile(body)

    # ------------------------------------------------------------------

    def compile(self, formula: ast.Formula) -> tuple[TreeFn, ValueFn]:
        if isinstance(formula, ast.Top):
            return (lambda tree, node, ctx: True), (lambda value, ctx: True)
        if isinstance(formula, ast.Not):
            sub_tree, sub_value = self.compile(formula.operand)
            return (
                lambda tree, node, ctx: not sub_tree(tree, node, ctx),
                lambda value, ctx: not sub_value(value, ctx),
            )
        if isinstance(formula, (ast.And, ast.Or)):
            return self._compile_junction(formula)
        if isinstance(formula, ast.TestAtom):
            return self._compile_test(formula.test)
        if _in_record(formula):
            return self._compile_record([formula])
        if isinstance(formula, ast.DiaKey):
            # A search over a key language is the dual of its box.
            dual = ast.BoxKey(formula.lang, ast.Not(formula.body))
            return self.compile(ast.Not(dual))
        if isinstance(formula, (ast.DiaIdx, ast.BoxIdx)):
            return self._compile_idx_modal(formula)
        if isinstance(formula, ast.Ref):
            return self._compile_ref(formula)
        raise TypeError(f"unknown JSL formula {formula!r}")

    # ------------------------------------------------------------------

    def _compile_junction(
        self, formula: "ast.And | ast.Or"
    ) -> tuple[TreeFn, ValueFn]:
        """A whole ``And`` (``Or``) chain as one loop over its operands.

        A conjunction's key modalities share one record closure and a
        disjunction's ``EqDoc`` atoms (a schema's ``enum``) one lookup,
        compiled where the first of them stands.
        """
        conjunction = isinstance(formula, ast.And)
        operands: list[ast.Formula] = []
        stack = [formula]
        while stack:
            current = stack.pop()
            if type(current) is type(formula):
                stack += (current.right, current.left)
            elif not (conjunction and isinstance(current, ast.Top)):
                operands.append(current)
        if not operands:
            return self.compile(ast.Top())
        grouped_by = _in_record if conjunction else _is_eq_doc
        pairs: list[Any] = []
        grouped: list[Any] = []
        for operand in operands:
            if grouped_by(operand):
                if not grouped:
                    pairs.append(None)
                grouped.append(operand)
            else:
                pairs.append(self.compile(operand))
        if grouped:
            pairs[pairs.index(None)] = (
                self._compile_record(grouped)
                if conjunction
                else _compile_eq_docs([atom.test.doc for atom in grouped])
            )
        if len(pairs) == 1:
            return pairs[0]
        tree_fns = tuple(tree_fn for tree_fn, _ in pairs)
        value_fns = tuple(value_fn for _, value_fn in pairs)
        if conjunction:

            def tree_fn(tree: JSONTree, node: int, ctx: dict) -> bool:
                for fn in tree_fns:
                    if not fn(tree, node, ctx):
                        return False
                return True

            def value_fn(value: Any, ctx: dict) -> bool:
                for fn in value_fns:
                    if not fn(value, ctx):
                        return False
                return True

        else:

            def tree_fn(tree: JSONTree, node: int, ctx: dict) -> bool:
                for fn in tree_fns:
                    if fn(tree, node, ctx):
                        return True
                return False

            def value_fn(value: Any, ctx: dict) -> bool:
                for fn in value_fns:
                    if fn(value, ctx):
                        return True
                return False

        return tree_fn, value_fn

    def _compile_record(
        self, modals: "list[ast.DiaKey | ast.BoxKey]"
    ) -> tuple[TreeFn, ValueFn]:
        """A conjunction of key modalities (see :func:`_in_record`).

        Keys are unique, so the modalities on one language conjoin
        their bodies, and ``DIA_w phi & BOX_w psi`` is one lookup of
        ``w`` whose child must satisfy ``phi & psi``.  General languages
        need a pass over the keys, and so does the *rest* box, whose
        language is the complement of the other boxes' (a schema's
        ``additionalProperties``): it holds on exactly the keys no other
        box claims, so it costs no membership test.
        """
        required = {m.lang for m in modals if isinstance(m, ast.DiaKey)}
        boxed = {m.lang for m in modals if isinstance(m, ast.BoxKey)}
        bodies: dict[Any, list[ast.Formula]] = {}
        for modal in modals:
            parts = bodies.setdefault(modal.lang, [])
            if not isinstance(modal.body, ast.Top):
                parts.append(modal.body)
        rest = _rest_language(bodies, boxed)
        lookups_tree, lookups_value, lang_tree, lang_value = [], [], [], []
        rest_tree = rest_value = None
        for lang, parts in bodies.items():
            word = lang.single_word
            if not (parts or lang in required or (rest is not None and word is None)):
                continue  # BOX_L true, claiming no key from a rest box
            sub_tree, sub_value = (
                self.compile(ast.conj(parts)) if parts else (None, None)
            )
            if lang == rest:
                rest_tree, rest_value = sub_tree, sub_value
            elif word is not None:
                lookups_tree.append((word, lang in required, sub_tree))
                lookups_value.append((word, lang in required, sub_value))
            else:
                lang_tree.append((lang.matches, sub_tree))
                lang_value.append((lang.matches, sub_value))
        claimed_words = frozenset(lang.single_word for lang in boxed) - {None}
        walk = bool(lang_tree) or rest_tree is not None
        check_keys = self.check_keys and bool(boxed)
        needs_object = any(lang in required for lang in bodies)

        def tree_fn(tree: JSONTree, node: int, ctx: dict) -> bool:
            for word, needed, sub in lookups_tree:
                child = tree.object_child(node, word)
                if child is None:
                    if needed:
                        return False
                elif sub is not None and not sub(tree, child, ctx):
                    return False
            if walk and tree.kind(node) is _OBJECT:
                for label, child in tree.edges(node):
                    claimed = label in claimed_words
                    for matches, sub in lang_tree:
                        if matches(label):
                            claimed = True
                            if sub is not None and not sub(tree, child, ctx):
                                return False
                    if claimed or rest_tree is None:
                        continue
                    if not rest_tree(tree, child, ctx):
                        return False
            return True

        def value_fn(value: Any, ctx: dict) -> bool:
            if not isinstance(value, dict):
                return not needs_object
            if check_keys and not all(map(_is_string, value)):
                for key in value:
                    check_key(key)
            for word, needed, sub in lookups_value:
                child = value.get(word, _MISSING)
                if child is _MISSING:
                    if needed:
                        return False
                elif sub is not None and not sub(child, ctx):
                    return False
            if walk:
                for key, child in value.items():
                    claimed = key in claimed_words
                    if not claimed:
                        check_key(key)
                    for matches, sub in lang_value:
                        if matches(key):
                            claimed = True
                            if sub is not None and not sub(child, ctx):
                                return False
                    if claimed or rest_value is None:
                        continue
                    if not rest_value(child, ctx):
                        return False
            return True

        return tree_fn, value_fn

    # ------------------------------------------------------------------

    def _compile_test(self, test: nt.NodeTest) -> tuple[TreeFn, ValueFn]:
        if isinstance(test, nt.IsObject):
            return (
                lambda tree, node, ctx: tree.kind(node) is _OBJECT,
                lambda value, ctx: isinstance(value, dict)
                or (check_supported(value) or False),
            )
        if isinstance(test, nt.IsArray):
            return (
                lambda tree, node, ctx: tree.kind(node) is _ARRAY,
                lambda value, ctx: isinstance(value, (list, tuple))
                or (check_supported(value) or False),
            )
        if isinstance(test, nt.IsString):
            return (
                lambda tree, node, ctx: tree.kind(node) is _STRING,
                lambda value, ctx: isinstance(value, str)
                or (check_supported(value) or False),
            )
        if isinstance(test, nt.IsNumber):
            return (
                lambda tree, node, ctx: tree.kind(node) is _NUMBER,
                lambda value, ctx: (
                    isinstance(value, int) and not isinstance(value, bool)
                )
                or (check_supported(value) or False),
            )
        if isinstance(test, nt.Pattern):
            matches = test.lang.matches

            def tree_pattern(tree: JSONTree, node: int, ctx: dict) -> bool:
                return tree.kind(node) is _STRING and matches(tree.value(node))

            def value_pattern(value: Any, ctx: dict) -> bool:
                if isinstance(value, str):
                    return matches(value)
                check_supported(value)
                return False

            return tree_pattern, value_pattern
        if isinstance(test, (nt.MinVal, nt.MaxVal, nt.MultOf)):
            return self._compile_numeric_test(test)
        if isinstance(test, nt.MinCh):
            count = test.count
            return (
                lambda tree, node, ctx: tree.num_children(node) >= count,
                lambda value, ctx: children_count(value) >= count,
            )
        if isinstance(test, nt.MaxCh):
            count = test.count
            return (
                lambda tree, node, ctx: tree.num_children(node) <= count,
                lambda value, ctx: children_count(value) <= count,
            )
        if isinstance(test, nt.Unique):
            exact = self.exact_unique

            def tree_unique(tree: JSONTree, node: int, ctx: dict) -> bool:
                return tree.kind(node) is _ARRAY and all_children_distinct(
                    tree, node, exact_pairwise=exact
                )

            def value_unique(value: Any, ctx: dict) -> bool:
                if isinstance(value, (list, tuple)):
                    return _value_children_distinct(value, exact)
                check_supported(value)
                return False

            return tree_unique, value_unique
        if isinstance(test, nt.EqDocTest):
            return _compile_eq_docs([test.doc])
        raise TypeError(f"unknown node test {test!r}")

    @staticmethod
    def _compile_numeric_test(
        test: "nt.MinVal | nt.MaxVal | nt.MultOf",
    ) -> tuple[TreeFn, ValueFn]:
        if isinstance(test, nt.MinVal):
            bound = test.bound
            accepts = lambda value: value > bound  # noqa: E731 - tight closure
        elif isinstance(test, nt.MaxVal):
            bound = test.bound
            accepts = lambda value: value < bound  # noqa: E731
        else:
            divisor = test.divisor
            if divisor == 0:
                accepts = lambda value: value == 0  # noqa: E731
            else:
                accepts = lambda value: value % divisor == 0  # noqa: E731

        def tree_fn(tree: JSONTree, node: int, ctx: dict) -> bool:
            return tree.kind(node) is _NUMBER and accepts(tree.value(node))

        def value_fn(value: Any, ctx: dict) -> bool:
            if isinstance(value, int) and not isinstance(value, bool):
                return accepts(value)
            check_supported(value)
            return False

        return tree_fn, value_fn

    # ------------------------------------------------------------------

    def _compile_idx_modal(
        self, formula: "ast.DiaIdx | ast.BoxIdx"
    ) -> tuple[TreeFn, ValueFn]:
        low, high = formula.low, formula.high
        if isinstance(formula, ast.DiaIdx):
            if high != low or low < 0:
                # A search over a range is the dual of its box.
                dual = ast.BoxIdx(low, high, ast.Not(formula.body))
                return self.compile(ast.Not(dual))
            # Deterministic fragment: one position, one lookup.
            body_tree, body_value = self.compile(formula.body)

            def tree_fn(tree: JSONTree, node: int, ctx: dict) -> bool:
                child = tree.array_child(node, low)
                return child is not None and body_tree(tree, child, ctx)

            def value_fn(value: Any, ctx: dict) -> bool:
                if isinstance(value, (list, tuple)) and low < len(value):
                    return body_value(value[low], ctx)
                return False

            return tree_fn, value_fn

        body_tree, body_value = self.compile(formula.body)

        def positions(length: int) -> range:
            stop = length if high is None else min(high + 1, length)
            return range(max(low, 0), stop)

        def tree_fn(tree: JSONTree, node: int, ctx: dict) -> bool:
            children = tree.array_children(node)
            for index in positions(len(children)):
                if not body_tree(tree, children[index], ctx):
                    return False
            return True

        def value_fn(value: Any, ctx: dict) -> bool:
            if not isinstance(value, (list, tuple)):
                return True
            for index in positions(len(value)):
                if not body_value(value[index], ctx):
                    return False
            return True

        return tree_fn, value_fn

    def _compile_ref(self, formula: ast.Ref) -> tuple[TreeFn, ValueFn]:
        slot = self.slot_of.get(formula.name)
        if slot is None:
            raise TranslationError(
                f"reference {formula.name!r} in a non-recursive evaluation; "
                "use repro.jsl.bottom_up for recursive JSL expressions"
            )
        tree_slots = self.tree_slots
        value_slots = self.value_slots

        def tree_fn(tree: JSONTree, node: int, ctx: dict) -> bool:
            key = (slot, node)
            cached = ctx.get(key)
            if cached is None:
                cached = tree_slots[slot](tree, node, ctx)
                ctx[key] = cached
            return cached

        def value_fn(value: Any, ctx: dict) -> bool:
            key = (slot, id(value))
            cached = ctx.get(key)
            if cached is None:
                cached = value_slots[slot](value, ctx)
                ctx[key] = cached
            return cached

        return tree_fn, value_fn


def _in_record(formula: ast.Formula) -> bool:
    """Every box and every one-word diamond joins a record closure."""
    return isinstance(formula, ast.BoxKey) or (
        isinstance(formula, ast.DiaKey) and formula.lang.single_word is not None
    )


def _is_eq_doc(formula: ast.Formula) -> bool:
    return isinstance(formula, ast.TestAtom) and isinstance(
        formula.test, nt.EqDocTest
    )


def _compile_eq_docs(docs: list[JSONTree]) -> tuple[TreeFn, ValueFn]:
    """Equality with any of ``docs``: one canonical-form set lookup."""
    canons = frozenset(canonical_value(doc.to_value()) for doc in docs)

    def tree_fn(tree: JSONTree, node: int, ctx: dict) -> bool:
        for doc in docs:
            if subtree_equal(tree, node, doc, doc.root):
                return True
        return False

    def value_fn(value: Any, ctx: dict) -> bool:
        return canonical_value(value) in canons

    return tree_fn, value_fn


def _rest_language(bodies: dict[Any, list], boxed: set) -> Any:
    """The box language (with a body) that complements exactly the
    union of the other boxes' languages, or ``None``."""
    for lang in boxed:
        if not bodies[lang] or lang.op != "not":
            continue
        union = lang.children[0]
        members = union.children if union.op == "or" else (union,)
        if set(members) == boxed - {lang}:
            return lang
    return None


def _value_children_distinct(value: Any, exact_pairwise: bool) -> bool:
    """``Unique`` over raw values, via exact canonical forms."""
    if len(value) < 2:
        return True
    canons = [canonical_value(child) for child in value]
    if exact_pairwise:
        # The paper's quadratic pairwise comparison (ablation parity).
        for i, left in enumerate(canons):
            for right in canons[i + 1 :]:
                if left == right:
                    return False
        return True
    return len(set(canons)) == len(canons)
