"""Satisfiability of (recursive) JSL -- Propositions 7 and 10.

The engine implements the construction behind the paper's upper
bounds: a bottom-up fixpoint over *realizable goals*, where a goal is a
set of literals (polarised node tests plus existential/universal
modalities) that must hold simultaneously at one node.  This mirrors
the J-automata emptiness procedure of Proposition 10's proof -- goals
play the role of reachable state sets, and the ``Unique`` predicate is
handled by counting distinct witness trees per goal, the proof's
"how many different trees can be used to reach this state" counter.

Operation:

1. the input formula (after expanding unguarded references, which
   well-formedness makes acyclic) is decomposed into disjunctive
   normal form over literals;
2. rounds of a demand-driven fixpoint try to *realize* each goal as a
   number, string, object or array, consuming witnesses of child goals
   realized in earlier rounds; integer constraints are solved by a
   congruence-window scan, string constraints by DFA products over the
   ``Pattern`` languages, object keys are chosen from boolean
   combinations of the modality key languages, array lengths are
   enumerated within derived bounds;
3. every produced witness is **verified** against its goal (and the
   final witness against the whole input formula) with the evaluators,
   so a SAT answer is unconditionally sound;
4. UNSAT answers are exact whenever no resource bound was hit --
   ``SatResult.complete`` reports this.  The bounds exist because the
   problem is EXPTIME-hard (2EXPTIME with ``Unique``): no
   implementation can be uniformly fast, so the engine is *bounded
   complete* and says so, rather than silently wrong.

``EQ(alpha, beta)`` never reaches this engine: JSL cannot express it,
and JNL satisfiability routes here only for the EQ(alpha,beta)-free
fragment (with recursion, anything more is undecidable -- Prop. 4).

The engine is a :class:`ProverSession`: a *premise* solved once, whose
realized goals and decompositions stay resident, against which any
number of *payloads* are then decided as ``premise ^ payload``.  A
payload's run looks goals up in the resident tables first and keeps
whatever it has to add -- the goals that mix payload and premise
literals -- in an overlay that is dropped when the call returns, so a
session never grows with the queries it has seen.
:func:`jsl_satisfiable` is the one-shot use: the whole formula is the
premise and there is no payload.
"""

from __future__ import annotations

import json as _json
import math
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Iterable, Iterator

from repro.automata.keylang import KeyLang
from repro.errors import SolverLimitError
from repro.jsl import ast
from repro.jsl.bottom_up import RecursiveJSLEvaluator
from repro.jsl.recursion import check_well_formed
from repro.logic import nodetests as nt
from repro.logic.nodetests import node_test_holds
from repro.model.tree import JSONTree

__all__ = [
    "SolverConfig",
    "SatResult",
    "ProverSession",
    "jsl_satisfiable",
    "value_satisfies",
]


@dataclass
class SolverConfig:
    """Resource bounds of the bounded-complete solver."""

    max_rounds: int = 80
    dnf_limit: int = 1024          # max disjuncts per decomposition
    goal_limit: int = 20000        # max distinct goals explored
    int_scan_limit: int = 4096     # integer constraint scan window
    key_samples: int = 24          # candidate keys per flexible diamond
    max_children: int = 12         # array-length / padding exploration slack
    max_demand: int = 64           # max distinct witnesses tracked per goal


@dataclass
class SatResult:
    satisfiable: bool
    witness: JSONTree | None
    complete: bool
    rounds: int
    goals_explored: int

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.satisfiable


# Literal encodings (hashable tuples).
_TEST = "test"
_DIA_KEY = "dia_key"
_BOX_KEY = "box_key"
_DIA_IDX = "dia_idx"
_BOX_IDX = "box_idx"


class Goal:
    """A set of literals that must hold together at one node.

    Identity is the literal *set*; iteration is the order the literals
    were introduced in.  Everything the engine derives from a goal --
    which key a diamond claims, the order children are assembled in,
    hence the witness it finds -- follows that order, so a run never
    depends on how strings happen to hash in this process.
    """

    __slots__ = ("literals", "_set", "_hash", "_split")

    def __init__(self, literals: tuple = ()) -> None:
        self.literals = literals
        self._set = frozenset(literals)
        self._hash = hash(self._set)
        self._split: dict[str, list] | None = None

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.literals)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Goal) and self._set == other._set

    def merge(self, other: "Goal") -> "Goal":
        """``self ^ other``, keeping first-introduced order."""
        mine = self._set
        extra = tuple(lit for lit in other.literals if lit not in mine)
        return Goal(self.literals + extra) if extra else self

    def split(self) -> dict[str, list]:
        """The literals grouped by kind (computed once per goal)."""
        split = self._split
        if split is None:
            split = self._split = {
                _TEST: [],
                _DIA_KEY: [],
                _BOX_KEY: [],
                _DIA_IDX: [],
                _BOX_IDX: [],
            }
            for lit in self.literals:
                split[lit[0]].append(lit)
        return split


@dataclass(eq=False)
class _GoalState:
    # Distinct verified witnesses in the order found, keyed by their dump.
    witnesses: dict[str, Any] = field(default_factory=dict)
    demand: int = 1
    no_more: bool = False  # definitively no further distinct witnesses


def _dump(value: Any) -> str:
    return _json.dumps(value, sort_keys=True, separators=(",", ":"))


def value_satisfies(
    value: Any,
    formula: ast.Formula,
    definitions: tuple[tuple[str, ast.Formula], ...] = (),
) -> bool:
    """Does a Python JSON value satisfy a JSL formula (refs allowed)?"""
    tree = JSONTree.from_value(value)
    expression = ast.RecursiveJSL(definitions, formula)
    return RecursiveJSLEvaluator(tree, expression).satisfies()


class ProverSession:
    """``premise`` compiled once; ``premise ^ payload`` decided per call.

    Construction checks the premise's well-formedness, decomposes its
    base and runs the fixpoint for the premise alone; the goals that run
    registers, their witnesses and the decompositions of their child
    conjunctions are the session's **resident** state.
    :meth:`satisfiable` with a payload decomposes only the payload,
    conjoins it with the premise's top goals, and solves with resident
    goals looked up (and, when a payload demands more witnesses of one,
    extended) in place; every goal the payload adds lives in a per-call
    overlay.  The resident goal *set* is therefore fixed at construction
    -- a session's size is a function of its premise, not of its
    history.  Verification is not amortised: every new witness is
    checked against its goal, and a SAT answer's witness against the
    whole ``premise ^ payload``, with evaluators built for the occasion.

    A payload's recursive definitions share one namespace with the
    premise's: callers rename them apart first
    (:func:`repro.jsl.entailment.conjoin` does).  Calls are serialised
    by a lock, so a session may be shared through a process-wide cache.
    """

    def __init__(
        self,
        premise: ast.Formula | ast.RecursiveJSL,
        config: SolverConfig | None = None,
    ) -> None:
        self.config = config or SolverConfig()
        if isinstance(premise, ast.RecursiveJSL):
            check_well_formed(premise)
            self._premise_definitions = premise.definition_map()
            self._premise = premise.base
        else:
            self._premise_definitions = {}
            self._premise = premise
        self._lock = Lock()
        self._resident: dict[Goal, _GoalState] = {}
        self._resident_goalsets: dict[
            tuple[ast.Formula, ...], tuple[list[Goal], bool]
        ] = {}
        # The premise's own run writes straight into the resident tables.
        self._begin(self._premise_definitions, resident=True)
        self._premise_goals = self._pose(self._premise)
        self._premise_truncated = self._truncated
        self._premise_result = self._decide(
            self._premise_goals, self._premise, first_witness=False
        )
        self._begin(self._premise_definitions)

    @property
    def resident_goals(self) -> int:
        """How many goals the session keeps between calls."""
        return len(self._resident)

    def _begin(
        self, definitions: dict[str, ast.Formula], *, resident: bool = False
    ) -> None:
        """Reset the per-call state: fresh overlay tables (which is how
        the previous call's overlay is dropped), or, for the premise's
        own run, the resident tables themselves."""
        self.definitions = definitions
        self._def_tuple = tuple(definitions.items())
        # Goals this call has touched, resident or not; the agenda lists
        # them in the order the fixpoint attempts them.
        self._active: dict[Goal, _GoalState] = self._resident if resident else {}
        self._agenda: list[tuple[Goal, _GoalState]] = []
        self._goalsets = self._resident_goalsets if resident else {}
        self.incomplete = False
        self.rounds = 0
        self._dirty = False  # a demand was raised since the round started
        self._truncated = False  # a decomposition since the last reset hit dnf_limit

    def satisfiable(
        self, payload: ast.Formula | ast.RecursiveJSL | None = None
    ) -> SatResult:
        """Decide ``premise ^ payload`` (the premise alone without one)."""
        if payload is None or self._premise_goals is None:
            # (A premise that cannot be posed answers for every payload.)
            return self._premise_result
        if isinstance(payload, ast.RecursiveJSL):
            check_well_formed(payload)
            definitions = payload.definition_map()
            clashes = definitions.keys() & self._premise_definitions.keys()
            if clashes:
                raise ValueError(
                    "payload definitions clash with the premise's: "
                    f"{sorted(clashes)}"
                )
            definitions.update(self._premise_definitions)
            base = payload.base
        else:
            definitions = self._premise_definitions
            base = payload
        with self._lock:
            self._begin(definitions)
            try:
                self.incomplete = self._premise_truncated
                top_goals = self._pose(base)
                if top_goals is not None:
                    top_goals = self._product(self._premise_goals, top_goals)
                return self._decide(
                    top_goals, ast.And(self._premise, base), first_witness=True
                )
            finally:
                self._begin(self._premise_definitions)

    def _pose(self, formula: ast.Formula) -> list[Goal] | None:
        """The top goals of ``formula``; ``None`` when it cannot be posed."""
        try:
            return self.decompose(formula, True)
        except SolverLimitError:
            return None

    def _decide(
        self,
        top_goals: list[Goal] | None,
        formula: ast.Formula,
        *,
        first_witness: bool,
    ) -> SatResult:
        """Run the fixpoint for ``top_goals`` and read the answer off."""
        if top_goals is None:
            return SatResult(False, None, False, 0, 0)
        try:
            self.run(top_goals, first_witness)
        except SolverLimitError:
            self.incomplete = True
        explored = len(self._active)
        for goal in top_goals:
            state = self._active.get(goal)
            if state is None or not state.witnesses:
                continue
            value = next(iter(state.witnesses.values()))
            if not value_satisfies(value, formula, self._def_tuple):
                raise AssertionError(
                    "internal error: satisfiability witness failed verification"
                )
            return SatResult(
                True, JSONTree.from_value(value), True, self.rounds, explored
            )
        return SatResult(False, None, not self.incomplete, self.rounds, explored)

    # ==================================================================
    # DNF decomposition.
    # ==================================================================

    def decompose(self, formula: ast.Formula, positive: bool) -> list[Goal]:
        if isinstance(formula, ast.Top):
            return [Goal()] if positive else []
        if isinstance(formula, ast.Not):
            return self.decompose(formula.operand, not positive)
        if isinstance(formula, ast.And):
            if positive:
                return self._product(
                    self.decompose(formula.left, True),
                    self.decompose(formula.right, True),
                )
            return self._union(
                self.decompose(formula.left, False),
                self.decompose(formula.right, False),
            )
        if isinstance(formula, ast.Or):
            if positive:
                return self._union(
                    self.decompose(formula.left, True),
                    self.decompose(formula.right, True),
                )
            return self._product(
                self.decompose(formula.left, False),
                self.decompose(formula.right, False),
            )
        if isinstance(formula, ast.TestAtom):
            return [Goal(((_TEST, formula.test, positive),))]
        if isinstance(formula, ast.DiaKey):
            if positive:
                return [Goal(((_DIA_KEY, formula.lang, formula.body),))]
            return [Goal(((_BOX_KEY, formula.lang, ast.Not(formula.body)),))]
        if isinstance(formula, ast.BoxKey):
            if positive:
                return [Goal(((_BOX_KEY, formula.lang, formula.body),))]
            return [Goal(((_DIA_KEY, formula.lang, ast.Not(formula.body)),))]
        if isinstance(formula, ast.DiaIdx):
            bounds = (formula.low, formula.high)
            if positive:
                return [Goal(((_DIA_IDX, bounds, formula.body),))]
            return [Goal(((_BOX_IDX, bounds, ast.Not(formula.body)),))]
        if isinstance(formula, ast.BoxIdx):
            bounds = (formula.low, formula.high)
            if positive:
                return [Goal(((_BOX_IDX, bounds, formula.body),))]
            return [Goal(((_DIA_IDX, bounds, ast.Not(formula.body)),))]
        if isinstance(formula, ast.Ref):
            body = self.definitions.get(formula.name)
            if body is None:
                raise SolverLimitError(f"undefined symbol {formula.name!r}")
            # Well-formedness makes unguarded expansion acyclic.
            return self.decompose(body, positive)
        raise TypeError(f"unknown JSL formula {formula!r}")

    def _product(self, left: list[Goal], right: list[Goal]) -> list[Goal]:
        # Deduplicate *while* building: reductions like 3SAT produce
        # cross products whose raw size is exponential but whose set of
        # distinct goals stays small (options repeat literals).
        seen: set[Goal] = set()
        out: list[Goal] = []
        for a in left:
            for b in right:
                merged = a.merge(b)
                if merged in seen or self._contradictory(merged):
                    continue
                seen.add(merged)
                out.append(merged)
                if len(out) > self.config.dnf_limit:
                    self.incomplete = self._truncated = True
                    return out
        return out

    def _union(self, left: list[Goal], right: list[Goal]) -> list[Goal]:
        out = _dedup(left + right)
        if len(out) > self.config.dnf_limit:
            self.incomplete = self._truncated = True
            out = out[: self.config.dnf_limit]
        return out

    @staticmethod
    def _contradictory(goal: Goal) -> bool:
        tests = {(lit[1], lit[2]) for lit in goal if lit[0] == _TEST}
        return any((test, False) in tests for test, flag in tests if flag)

    # ==================================================================
    # Goal registration / demand.
    # ==================================================================

    def require(self, goal: Goal, demand: int = 1) -> _GoalState:
        state = self._active.get(goal)
        if state is None:
            state = self._resident.get(goal)
            if state is None:
                if len(self._active) >= self.config.goal_limit:
                    self.incomplete = True
                    raise SolverLimitError(
                        f"goal limit {self.config.goal_limit} exceeded"
                    )
                state = _GoalState()
            else:
                # A resident goal keeps its witnesses between calls but
                # owes each call only what that call demands.
                state.demand = 1
            self._active[goal] = state
            # The round in progress reaches the end of the agenda, so a
            # new goal needs no other prompt to be attempted.
            self._agenda.append((goal, state))
        if demand > state.demand:
            state.demand = min(demand, self.config.max_demand)
            if demand > self.config.max_demand:
                self.incomplete = True
            if len(state.witnesses) < state.demand and not state.no_more:
                self._dirty = True
        return state

    def goalset(self, bodies: tuple[ast.Formula, ...]) -> list[Goal]:
        """Decomposed goals of a conjunction of formulas (memoised)."""
        cached = self._goalsets.get(bodies) or self._resident_goalsets.get(bodies)
        if cached is None:
            self._truncated = False
            goals = self.decompose(ast.conj(bodies), True)
            cached = self._goalsets[bodies] = (goals, self._truncated)
        elif cached[1]:
            # The memoised decomposition was cut at dnf_limit.
            self.incomplete = True
        return cached[0]

    def witnesses_for(
        self, bodies: tuple[ast.Formula, ...], demand: int = 1
    ) -> list[Any]:
        """Distinct witnesses across the goals of a conjunction."""
        merged: dict[str, Any] = {}
        for goal in self.goalset(bodies):
            for key, value in self.require(goal, demand).witnesses.items():
                merged.setdefault(key, value)
        return list(merged.values())

    # ==================================================================
    # Fixpoint driver.
    # ==================================================================

    def run(self, top_goals: list[Goal], first_witness: bool) -> None:
        """Rounds of attempts over the active goals until nothing changes
        -- or, with ``first_witness``, until a top goal is realized."""
        top_states = {self.require(goal) for goal in top_goals}
        if first_witness and any(state.witnesses for state in top_states):
            return
        for round_index in range(self.config.max_rounds):
            self.rounds = round_index + 1
            changed = False
            self._dirty = False
            # The agenda grows while it is walked: a goal registered by
            # an attempt gets its own first attempt in the same round.
            for goal, state in self._agenda:
                if state.no_more or len(state.witnesses) >= state.demand:
                    continue
                try:
                    if self._attempt(goal, state):
                        if first_witness and state in top_states:
                            return
                        changed = True
                except SolverLimitError:
                    self.incomplete = True
            if not changed and not self._dirty:
                return
        # Fixpoint not reached within the round budget.
        self.incomplete = True

    def _attempt(self, goal: Goal, state: _GoalState) -> bool:
        need = state.demand - len(state.witnesses)
        produced = False
        finals: list[bool] = []
        for generator in (
            self._number_witnesses,
            self._string_witnesses,
            self._object_witnesses,
            self._array_witnesses,
        ):
            values, final = generator(goal, need)
            finals.append(final)
            for value in values:
                key = _dump(value)
                if key in state.witnesses:
                    continue
                if not self._check_goal_on_value(value, goal):
                    # A heuristic slipped; never accept an unverified
                    # witness.  (Soundness over completeness.)
                    self.incomplete = True
                    continue
                state.witnesses[key] = value
                produced = True
                need -= 1
            if need <= 0:
                return produced
        if all(finals) and not produced:
            state.no_more = True
        return produced

    # ------------------------------------------------------------------
    # Numbers.
    # ------------------------------------------------------------------

    def _number_witnesses(self, goal: Goal, need: int) -> tuple[list[int], bool]:
        split = goal.split()
        if split[_DIA_KEY] or split[_DIA_IDX]:
            return [], True  # numbers have no children
        low, high = 0, None  # naturals
        mods_pos: list[int] = []
        mods_neg: list[int] = []
        pinned: int | None = None
        excluded: set[int] = set()
        for _tag, test, positive in split[_TEST]:
            if isinstance(test, nt.IsNumber):
                if not positive:
                    return [], True
            elif isinstance(test, (nt.IsObject, nt.IsArray, nt.IsString)):
                if positive:
                    return [], True
            elif isinstance(test, (nt.Pattern, nt.Unique)):
                if positive:
                    return [], True
            elif isinstance(test, nt.MinVal):
                if positive:
                    low = max(low, test.bound + 1)
                else:
                    high = test.bound if high is None else min(high, test.bound)
            elif isinstance(test, nt.MaxVal):
                if positive:
                    bound = test.bound - 1
                    high = bound if high is None else min(high, bound)
                else:
                    low = max(low, test.bound)
            elif isinstance(test, nt.MultOf):
                (mods_pos if positive else mods_neg).append(test.divisor)
            elif isinstance(test, nt.MinCh):
                if positive and test.count > 0:
                    return [], True
                if not positive and test.count <= 0:
                    return [], True
            elif isinstance(test, nt.MaxCh):
                if not positive:
                    return [], True  # 0 children <= any natural bound
            elif isinstance(test, nt.EqDocTest):
                doc = test.doc
                if doc.is_number(doc.root):
                    doc_value = int(doc.value(doc.root))
                    if positive:
                        if pinned is not None and pinned != doc_value:
                            return [], True
                        pinned = doc_value
                    else:
                        excluded.add(doc_value)
                elif positive:
                    return [], True
            else:  # pragma: no cover - defensive
                return [], True
        if pinned is not None:
            feasible = (
                pinned >= low
                and (high is None or pinned <= high)
                and all(_is_multiple(pinned, m) for m in mods_pos)
                and not any(_is_multiple(pinned, m) for m in mods_neg)
                and pinned not in excluded
            )
            return ([pinned] if feasible else []), True
        if 0 in mods_pos:
            # MultOf(0) pins the value to 0.
            candidate = 0
            feasible = (
                candidate >= low
                and (high is None or candidate >= low and candidate <= high)
                and all(_is_multiple(candidate, m) for m in mods_pos)
                and not any(_is_multiple(candidate, m) for m in mods_neg)
                and candidate not in excluded
            )
            return ([candidate] if feasible else []), True
        period = 1
        for divisor in mods_pos + [m for m in mods_neg if m > 0]:
            if divisor > 0:
                period = _lcm(period, divisor)
        window = period + len(excluded) + need
        exact_window = window <= self.config.int_scan_limit
        scan_to = low + min(window, self.config.int_scan_limit)
        if high is not None:
            scan_end = min(high, scan_to) if not exact_window else high
            scan_end = min(scan_end, low + self.config.int_scan_limit)
        else:
            scan_end = scan_to
        values: list[int] = []
        value = low
        while value <= scan_end and len(values) < need:
            if (
                all(_is_multiple(value, m) for m in mods_pos)
                and not any(_is_multiple(value, m) for m in mods_neg)
                and value not in excluded
            ):
                values.append(value)
            value += 1
        if len(values) >= need:
            return values, False  # more may exist; irrelevant, demand met
        # Demand unmet: is that definitive?
        if high is not None and scan_end >= high:
            return values, True
        if high is None and exact_window and not values:
            # One full congruence period with no solutions: none exist.
            return values, True
        self.incomplete = True
        return values, False

    # ------------------------------------------------------------------
    # Strings.
    # ------------------------------------------------------------------

    def _string_witnesses(self, goal: Goal, need: int) -> tuple[list[str], bool]:
        split = goal.split()
        if split[_DIA_KEY] or split[_DIA_IDX]:
            return [], True
        parts: list[KeyLang] = []
        pinned: str | None = None
        excluded: set[str] = set()
        for _tag, test, positive in split[_TEST]:
            if isinstance(test, nt.IsString):
                if not positive:
                    return [], True
            elif isinstance(test, (nt.IsObject, nt.IsArray, nt.IsNumber)):
                if positive:
                    return [], True
            elif isinstance(test, (nt.MinVal, nt.MaxVal, nt.MultOf, nt.Unique)):
                if positive:
                    return [], True
            elif isinstance(test, nt.Pattern):
                parts.append(test.lang if positive else test.lang.complement())
            elif isinstance(test, nt.MinCh):
                if positive and test.count > 0:
                    return [], True
                if not positive and test.count <= 0:
                    return [], True
            elif isinstance(test, nt.MaxCh):
                if not positive:
                    return [], True
            elif isinstance(test, nt.EqDocTest):
                doc = test.doc
                if doc.is_string(doc.root):
                    word = str(doc.value(doc.root))
                    if not positive:
                        excluded.add(word)
                    elif pinned is not None and pinned != word:
                        return [], True
                    else:
                        pinned = word
                elif positive:
                    return [], True
            else:  # pragma: no cover - defensive
                return [], True
        # Constant words are tested against the pattern language, never
        # compiled into it: a filter's fresh string constant then costs
        # a membership test instead of a DFA product (and a DFA-cache
        # entry) of its own.
        lang = KeyLang.intersection(parts) if parts else KeyLang.any()
        if pinned is not None:
            feasible = pinned not in excluded and lang.matches(pinned)
            return ([pinned] if feasible else []), True
        budget = need + len(excluded)
        total = lang.count_words(budget + 1)
        sampled = lang.sample_words(min(budget, total))
        if len(sampled) < min(budget, total):
            # Sampling heuristic under-enumerated a non-empty language.
            self.incomplete = True
            return [word for word in sampled if word not in excluded][:need], False
        values = [word for word in sampled if word not in excluded][:need]
        # Fewer than demanded means the whole language was enumerated.
        return values, len(values) < need

    # ------------------------------------------------------------------
    # Common container bookkeeping.
    # ------------------------------------------------------------------

    def _container_bounds(
        self, tests: list, is_object: bool
    ) -> tuple[int, int | None, list[JSONTree], JSONTree | None, bool, bool] | None:
        """Shared MinCh/MaxCh/EqDoc/Unique handling for objects/arrays.

        Returns ``(cmin, cmax, excluded_docs, pinned_doc, unique_pos,
        unique_neg)`` or ``None`` when the kind is infeasible.
        """
        cmin, cmax = 0, None
        excluded: list[JSONTree] = []
        pinned: JSONTree | None = None
        unique_pos = False
        unique_neg = False
        for _tag, test, positive in tests:
            if isinstance(test, nt.IsObject):
                if positive != is_object:
                    return None
            elif isinstance(test, nt.IsArray):
                if positive == is_object:
                    return None
            elif isinstance(test, (nt.IsString, nt.IsNumber)):
                if positive:
                    return None
            elif isinstance(test, (nt.Pattern, nt.MinVal, nt.MaxVal, nt.MultOf)):
                if positive:
                    return None
            elif isinstance(test, nt.Unique):
                if positive:
                    if is_object:
                        return None
                    unique_pos = True
                else:
                    if not is_object:
                        unique_neg = True
                    # not-Unique on objects holds trivially.
            elif isinstance(test, nt.MinCh):
                if positive:
                    cmin = max(cmin, test.count)
                else:
                    bound = test.count - 1
                    if bound < 0:
                        return None
                    cmax = bound if cmax is None else min(cmax, bound)
            elif isinstance(test, nt.MaxCh):
                if positive:
                    cmax = test.count if cmax is None else min(cmax, test.count)
                else:
                    cmin = max(cmin, test.count + 1)
            elif isinstance(test, nt.EqDocTest):
                doc = test.doc
                doc_is_object = doc.is_object(doc.root)
                doc_is_array = doc.is_array(doc.root)
                matches_kind = doc_is_object if is_object else doc_is_array
                if positive:
                    if not matches_kind:
                        return None
                    pinned = doc
                elif matches_kind:
                    excluded.append(doc)
            else:  # pragma: no cover - defensive
                return None
        if cmax is not None and cmin > cmax:
            return None
        return cmin, cmax, excluded, pinned, unique_pos, unique_neg

    @staticmethod
    def _pad_language(box_langs: Iterable[KeyLang]) -> KeyLang:
        """Keys no box constrains (boxes taken in goal order)."""
        langs = tuple(dict.fromkeys(box_langs))
        return KeyLang.union(langs).complement() if langs else KeyLang.any()

    # ------------------------------------------------------------------
    # Objects.
    # ------------------------------------------------------------------

    def _object_witnesses(self, goal: Goal, need: int) -> tuple[list[Any], bool]:
        split = goal.split()
        if split[_DIA_IDX]:
            return [], True  # objects have no array edges
        bounds = self._container_bounds(split[_TEST], is_object=True)
        if bounds is None:
            return [], True
        cmin, cmax, excluded, pinned, _unique_pos, _unique_neg = bounds
        if pinned is not None:
            value = pinned.to_value()
            return ([value] if self._check_goal_on_value(value, goal) else []), True

        boxes = [(lit[1], lit[2]) for lit in split[_BOX_KEY]]
        diamonds = [(lit[1], lit[2]) for lit in split[_DIA_KEY]]
        box_langs = [lang for lang, _body in boxes]

        # key -> list of required body formulas.
        children: dict[str, list[ast.Formula]] = {}

        def applicable_boxes(key: str) -> list[ast.Formula]:
            return [body for lang, body in boxes if lang.matches(key)]

        # 1. Word diamonds: the key is forced.
        flexible: list[tuple[KeyLang, ast.Formula]] = []
        for lang, body in diamonds:
            word = lang.single_word
            if word is not None:
                children.setdefault(word, []).append(body)
            else:
                flexible.append((lang, body))
        for word in children:
            children[word].extend(applicable_boxes(word))

        # 2. Flexible diamonds: choose keys.
        exhaustive = True
        for lang, body in flexible:
            if lang.is_empty():
                return [], True
            chosen: str | None = None
            candidates: list[str] = []
            clean = KeyLang.intersection([lang, self._pad_language(box_langs)])
            clean_word = clean.witness()
            if clean_word is not None:
                candidates.append(clean_word)
            candidates.extend(lang.sample_words(self.config.key_samples))
            seen_candidates: set[str] = set()
            registered = 0
            for candidate in candidates:
                if candidate in seen_candidates:
                    continue
                seen_candidates.add(candidate)
                if candidate in children:
                    # Merge into the existing child (keys are unique).
                    trial = tuple(
                        children[candidate] + [body]
                    )
                else:
                    trial = tuple([body] + applicable_boxes(candidate))
                if self.witnesses_for(trial):
                    chosen = candidate
                    break
                registered += 1
                if registered >= 4:
                    break
            if chosen is None:
                # Child goals registered; retry next round.  Completeness
                # is lost only if candidates were truncated.
                if len(seen_candidates) < len(set(candidates)) or not candidates:
                    self.incomplete = True
                return [], False
            if chosen in children:
                children[chosen].append(body)
            else:
                children[chosen] = [body] + applicable_boxes(chosen)

        if cmax is not None and len(children) > cmax:
            # More required keys than allowed children; merging distinct
            # words is impossible.
            if not flexible:
                return [], True
            self.incomplete = True
            return [], False

        # 3. Padding up to cmin.
        pad_keys: list[str] = []
        if len(children) < cmin:
            pad_needed = cmin - len(children)
            pad_lang = self._pad_language(box_langs)
            pads = [
                word
                for word in pad_lang.sample_words(pad_needed + len(children) + 4)
                if word not in children
            ]
            if len(pads) < pad_needed:
                # Fall back to keys that hit some box; their goals must
                # then be realizable.
                extra = [
                    word
                    for word in KeyLang.any().sample_words(
                        pad_needed + len(children) + len(pads) + 8
                    )
                    if word not in children and word not in pads
                ]
                pads.extend(extra)
            if len(pads) < pad_needed:
                self.incomplete = True
                return [], False
            pad_keys = pads[:pad_needed]
            for key in pad_keys:
                children[key] = applicable_boxes(key)

        # 4. Assemble; all child conjunctions need a realized witness.
        assembly: dict[str, Any] = {}
        for key, bodies in children.items():
            options = self.witnesses_for(tuple(bodies))
            if options:
                assembly[key] = options[0]
        if len(assembly) < len(children):
            return [], False  # every missing child is registered; next round

        # 5. Produce distinct variants as demanded.
        del exhaustive
        results = self._object_variants(
            assembly, children, excluded, cmax, box_langs, need
        )
        return results, False

    def _object_variants(
        self,
        assembly: dict[str, Any],
        children: dict[str, list[ast.Formula]],
        excluded: list[JSONTree],
        cmax: int | None,
        box_langs: list[KeyLang],
        need: int,
    ) -> list[Any]:
        excluded_keys = {_dump(doc.to_value()) for doc in excluded}
        results: list[Any] = []
        seen: set[str] = set()

        def offer(value: dict[str, Any]) -> bool:
            key = _dump(value)
            if key in seen or key in excluded_keys:
                return False
            seen.add(key)
            results.append(value)
            return len(results) >= need

        if offer(dict(assembly)):
            return results
        # Variant A: swap child witnesses (raise demands as we go).
        for key, bodies in children.items():
            options = self.witnesses_for(tuple(bodies), min(need + 1, 8))
            for option in options[1:]:
                variant = dict(assembly)
                variant[key] = option
                if offer(variant):
                    return results
        # Variant B: add extra fresh-key children when allowed.
        if cmax is None or len(assembly) < cmax:
            pad_lang = self._pad_language(box_langs)
            fresh = [
                word
                for word in pad_lang.sample_words(need + len(assembly) + 4)
                if word not in assembly
            ]
            filler = self.witnesses_for(())
            if filler:
                for word in fresh:
                    variant = dict(assembly)
                    variant[word] = filler[0]
                    if offer(variant):
                        return results
        return results

    # ------------------------------------------------------------------
    # Arrays.
    # ------------------------------------------------------------------

    def _array_witnesses(self, goal: Goal, need: int) -> tuple[list[Any], bool]:
        split = goal.split()
        if split[_DIA_KEY]:
            return [], True  # arrays have no object edges
        bounds = self._container_bounds(split[_TEST], is_object=False)
        if bounds is None:
            return [], True
        cmin, cmax, excluded, pinned, unique_pos, unique_neg = bounds
        if pinned is not None:
            value = pinned.to_value()
            return ([value] if self._check_goal_on_value(value, goal) else []), True

        boxes = [(lit[1], lit[2]) for lit in split[_BOX_IDX]]
        diamonds = [(lit[1], lit[2]) for lit in split[_DIA_IDX]]

        length_min = cmin
        for (low, _high), _body in diamonds:
            length_min = max(length_min, low + 1)
        if unique_neg:
            length_min = max(length_min, 2)
        length_cap = (
            cmax
            if cmax is not None
            else length_min + self.config.max_children
        )
        if cmax is None and length_cap < length_min:
            length_cap = length_min

        excluded_keys = {_dump(doc.to_value()) for doc in excluded}
        results: list[Any] = []
        seen: set[str] = set()
        for length in range(length_min, length_cap + 1):
            built = self._build_array(
                length, boxes, diamonds, unique_pos, unique_neg, need
            )
            for value in built:
                key = _dump(value)
                if key in seen or key in excluded_keys:
                    continue
                seen.add(key)
                results.append(value)
                if len(results) >= need:
                    return results, False
        if cmax is None and length_cap < length_min + self.config.max_children:
            pass
        if cmax is None:
            # Longer arrays might exist beyond the exploration cap.
            if not results:
                self.incomplete = True
            return results, False
        return results, False

    def _build_array(
        self,
        length: int,
        boxes: list[tuple[tuple[int, int | None], ast.Formula]],
        diamonds: list[tuple[tuple[int, int | None], ast.Formula]],
        unique_pos: bool,
        unique_neg: bool,
        need: int,
    ) -> list[Any]:
        def covering_boxes(position: int) -> list[ast.Formula]:
            return [
                body
                for (low, high), body in boxes
                if low <= position and (high is None or position <= high)
            ]

        position_bodies: list[list[ast.Formula]] = [
            covering_boxes(position) for position in range(length)
        ]
        # Assign each diamond to a position in its window.
        for (low, high), body in diamonds:
            window = range(low, length if high is None else min(high + 1, length))
            chosen = None
            for position in window:
                trial = tuple(position_bodies[position] + [body])
                if self.witnesses_for(trial):
                    chosen = position
                    break
            if chosen is None:
                # Register the first window position's goal and retry later.
                for position in window:
                    self.witnesses_for(tuple(position_bodies[position] + [body]))
                    break
                return []
            position_bodies[chosen] = position_bodies[chosen] + [body]

        # Pick witnesses per position.
        if unique_pos:
            used: set[str] = set()
            items: list[Any] = []
            for position in range(length):
                bodies = tuple(position_bodies[position])
                options = self.witnesses_for(bodies, length + 1)
                choice = None
                for option in options:
                    if _dump(option) not in used:
                        choice = option
                        break
                if choice is None:
                    self.require_more(bodies, length + 1)
                    return []
                used.add(_dump(choice))
                items.append(choice)
            return [items]
        items = []
        for position in range(length):
            options = self.witnesses_for(tuple(position_bodies[position]))
            if not options:
                return []
            items.append(options[0])
        if unique_neg:
            # Force a duplicate pair.
            duplicated = self._force_duplicate(position_bodies, items)
            if duplicated is None:
                return []
            items = duplicated
        base = [items]
        # Variants: swap single positions.
        if need > 1 and not unique_neg:
            for position in range(length):
                options = self.witnesses_for(
                    tuple(position_bodies[position]), min(need + 1, 8)
                )
                for option in options[1:]:
                    variant = list(items)
                    variant[position] = option
                    base.append(variant)
        return base

    def require_more(self, bodies: tuple[ast.Formula, ...], demand: int) -> None:
        for goal in self.goalset(bodies):
            self.require(goal, demand)

    def _force_duplicate(
        self,
        position_bodies: list[list[ast.Formula]],
        items: list[Any],
    ) -> list[Any] | None:
        length = len(items)
        if length < 2:
            return None
        # Already duplicated?
        keys = [_dump(item) for item in items]
        if len(set(keys)) < length:
            return items
        for i in range(length):
            for j in range(i + 1, length):
                merged = tuple(position_bodies[i] + position_bodies[j])
                options = self.witnesses_for(merged)
                if options:
                    updated = list(items)
                    updated[i] = options[0]
                    updated[j] = options[0]
                    return updated
        return None

    # ==================================================================
    # Verification.
    # ==================================================================

    def _check_goal_on_value(self, value: Any, goal: Goal) -> bool:
        tree = JSONTree.from_value(value)
        root = tree.root
        for lit in goal:
            tag = lit[0]
            if tag == _TEST:
                if node_test_holds(tree, root, lit[1]) != lit[2]:
                    return False
            elif tag == _DIA_KEY:
                lang, body = lit[1], lit[2]
                if not any(
                    isinstance(label, str)
                    and lang.matches(label)
                    and self._subtree_satisfies(tree, child, body)
                    for label, child in tree.edges(root)
                ):
                    return False
            elif tag == _BOX_KEY:
                lang, body = lit[1], lit[2]
                if not all(
                    self._subtree_satisfies(tree, child, body)
                    for label, child in tree.edges(root)
                    if isinstance(label, str) and lang.matches(label)
                ):
                    return False
            elif tag == _DIA_IDX:
                (low, high), body = lit[1], lit[2]
                if not any(
                    isinstance(label, int)
                    and low <= label
                    and (high is None or label <= high)
                    and self._subtree_satisfies(tree, child, body)
                    for label, child in tree.edges(root)
                ):
                    return False
            elif tag == _BOX_IDX:
                (low, high), body = lit[1], lit[2]
                if not all(
                    self._subtree_satisfies(tree, child, body)
                    for label, child in tree.edges(root)
                    if isinstance(label, int)
                    and low <= label
                    and (high is None or label <= high)
                ):
                    return False
        return True

    def _subtree_satisfies(
        self, tree: JSONTree, node: int, body: ast.Formula
    ) -> bool:
        subtree = tree.subtree(node)
        expression = ast.RecursiveJSL(self._def_tuple, body)
        return RecursiveJSLEvaluator(subtree, expression).satisfies()


def _is_multiple(value: int, divisor: int) -> bool:
    if divisor == 0:
        return value == 0
    return value % divisor == 0


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b) if a and b else max(a, b)


def _dedup(goals: list[Goal]) -> list[Goal]:
    seen: set[Goal] = set()
    out: list[Goal] = []
    for goal in goals:
        if goal not in seen:
            seen.add(goal)
            out.append(goal)
    return out


def jsl_satisfiable(
    formula: ast.Formula | ast.RecursiveJSL,
    config: SolverConfig | None = None,
) -> SatResult:
    """Decide satisfiability of a (recursive) JSL formula.

    SAT answers carry a witness tree re-validated by the evaluator;
    ``complete=False`` flags that an UNSAT answer (or a failed witness
    hunt) ran into a configured resource bound.
    """
    return ProverSession(formula, config).satisfiable()
