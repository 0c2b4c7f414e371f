"""The schema-aware semantic optimizer: satisfiability-driven pruning.

The pass sits between IR extraction and physical planning.  A filter
query carries its evaluation payload (a unary JNL formula); a
collection that enforces a schema -- or, schemaless, maintains an
inferred structural summary (:mod:`repro.store.summary`) -- exposes a
:class:`SemanticContext` whose ``formula`` is a JSL premise every live
document satisfies (Theorem 1 for schemas).  Translating the payload
into JSL (Theorem 2, :mod:`repro.translate.jnl_to_jsl`) turns planning
questions into satisfiability questions for the bounded solver of
:mod:`repro.jsl.satisfiability`:

* ``premise ^ payload`` unsatisfiable  ==>  verdict ``"empty"``: no
  admissible document can match; answer ``[]``/``0`` without touching
  an index or materialising a document;
* ``premise ^ ~payload`` unsatisfiable  ==>  verdict ``"all"``: every
  admissible document matches; skip index probing *and* per-document
  verification;
* otherwise, try each top-level conjunct of the payload: the entailed
  ones are discharged and only the **residual** conjunction is
  verified on index survivors (verdict ``"residual"``);
* anything else -- including payloads outside Theorem 2's fragment,
  prover timeouts and plain unprovable queries -- is verdict
  ``"none"``: execution proceeds exactly as without this module.

Every verdict is memoised in the process-wide artifact cache under the
``"semantic-verdict"`` namespace, keyed on the context fingerprint
(schema text, or summary identity + revision) and the query's dialect +
source, so a hot query pays the prover once per schema generation.  A
per-query wall-clock budget plus the solver's own resource bounds make
the pass safe on adversarial schemas: an unfinished proof is recorded
as ``"none"`` with ``timed_out=True`` and execution falls through.

Soundness note: verdicts are only ever produced for collections whose
documents live in the non-``extended`` value universe (objects, arrays,
strings, naturals) -- exactly the model class of the JSL solver -- and
only when the **whole payload** (or a conjunct of it) is proven, never
from the lossy sargable-predicate layer, whose predicates are necessary
but not sufficient conditions.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field
from functools import cached_property
from time import perf_counter
from typing import Any

from repro.cache import USE_DEFAULT_CACHE, LRUCache, resolve_cache
from repro.errors import UnsupportedFragmentError
from repro.jnl import ast as jnl
from repro.jsl.entailment import conjoin, negate, premise_session, unsat
from repro.jsl.satisfiability import ProverSession, SolverConfig
from repro.query import ir
from repro.query.compiled import CompiledQuery, compile_formula
from repro.translate.jnl_to_jsl import jnl_to_jsl

__all__ = [
    "OptimizerConfig",
    "SemanticContext",
    "SemanticVerdict",
    "SemanticDecision",
    "semantic_plan",
    "effective_kind",
    "describe_formula",
    "count_verify",
    "reset_verify_calls",
    "verify_calls",
]


# ---------------------------------------------------------------------------
# The verification-call counter (benchmark instrumentation).
#
# Incremented by the execution paths at every per-document verification
# of a filter (compiled ``matches`` / value-space predicate) -- the work
# an ``"all"``/``"residual"`` verdict exists to eliminate.
# ---------------------------------------------------------------------------

VERIFY_CALLS = 0


def count_verify() -> None:
    global VERIFY_CALLS
    VERIFY_CALLS += 1


def reset_verify_calls() -> None:
    global VERIFY_CALLS
    VERIFY_CALLS = 0


def verify_calls() -> int:
    return VERIFY_CALLS


# ---------------------------------------------------------------------------
# Configuration and the context collections expose.
# ---------------------------------------------------------------------------


def _proof_solver() -> SolverConfig:
    """Solver bounds for optimizer proofs: tighter than the default
    satisfiability entry point, so a single obligation stays well under
    the per-query budget even on adversarial ``not``-heavy schemas."""
    return SolverConfig(
        max_rounds=48,
        dnf_limit=512,
        goal_limit=6000,
        int_scan_limit=2048,
        key_samples=16,
        max_children=10,
        max_demand=48,
    )


@dataclass(frozen=True)
class OptimizerConfig:
    """Resource bounds for one query's worth of proof obligations.

    ``budget_ms`` is a wall-clock deadline checked **between**
    obligations (each obligation is itself bounded by ``solver``): once
    exceeded, the remaining obligations are skipped and the verdict
    falls through as ``"none"``/partial-``"residual"`` with
    ``timed_out=True``.
    """

    budget_ms: float = 25.0
    solver: SolverConfig = field(default_factory=_proof_solver)

    @cached_property
    def solver_key(self) -> tuple:
        """The solver bounds as a cache-key component, built once per
        config (``astuple`` deep-copies on every call)."""
        return astuple(self.solver)


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class SemanticContext:
    """What a collection tells the optimizer about its documents.

    ``formula`` is a JSL premise satisfied by **every live document**
    (and every document a snapshot of the collection can pin);
    ``source`` names where it came from (``"schema"``/``"summary"``);
    ``fingerprint`` is a hashable identity that changes whenever the
    premise does -- the verdict-cache key component.
    """

    source: str
    fingerprint: tuple
    formula: Any


@dataclass(frozen=True)
class SemanticVerdict:
    """The (cacheable) outcome of the proof obligations for one query."""

    # "empty" | "all" | "residual" | "none" from the proofs below;
    # "covered" (source "index") is the planner's own, never proved.
    kind: str
    source: str
    discharged: tuple[str, ...] = ()
    residual: str | None = None
    residual_query: CompiledQuery | None = None
    proof_ms: float = 0.0
    timed_out: bool = False


@dataclass(frozen=True)
class SemanticDecision:
    """A verdict for one read, always enforced: ``"empty"``/``"all"``
    short-circuit execution, ``"residual"`` verifies only what the
    proof left over.  ``cached`` says the verdict came from the
    artifact cache.  A read that must not act on a proof passes
    ``hint={"no_semantic": True}`` and gets no decision at all.
    """

    verdict: SemanticVerdict
    cached: bool

    def semantics_explain(self):
        from repro.explain import SemanticsExplain

        return SemanticsExplain(
            verdict=self.verdict.kind,
            source=self.verdict.source,
            discharged=self.verdict.discharged,
            residual=self.verdict.residual,
            proof_ms=self.verdict.proof_ms,
            timed_out=self.verdict.timed_out,
            cached=self.cached,
        )


def effective_kind(decision: SemanticDecision | None) -> str:
    """The verdict kind of a possibly-absent decision."""
    return "none" if decision is None else decision.verdict.kind


# ---------------------------------------------------------------------------
# Rendering JNL formulas for explain output.
# ---------------------------------------------------------------------------


def describe_formula(formula: jnl.Unary | jnl.Binary) -> str:
    """A compact, stable rendering of a JNL payload (paper notation)."""
    if isinstance(formula, jnl.Top):
        return "T"
    if isinstance(formula, jnl.Not):
        return f"~{describe_formula(formula.operand)}"
    if isinstance(formula, jnl.And):
        return (
            f"({describe_formula(formula.left)} ^ "
            f"{describe_formula(formula.right)})"
        )
    if isinstance(formula, jnl.Or):
        return (
            f"({describe_formula(formula.left)} v "
            f"{describe_formula(formula.right)})"
        )
    if isinstance(formula, jnl.Exists):
        return f"[{describe_formula(formula.path)}]"
    if isinstance(formula, jnl.EqDoc):
        return (
            f"EQ({describe_formula(formula.path)}, "
            f"{json.dumps(formula.doc.to_value(), separators=(',', ':'))})"
        )
    if isinstance(formula, jnl.EqPath):
        return (
            f"EQ({describe_formula(formula.left)}, "
            f"{describe_formula(formula.right)})"
        )
    if isinstance(formula, jnl.Atom):
        return formula.test.describe()
    if isinstance(formula, jnl.Eps):
        return "eps"
    if isinstance(formula, jnl.Test):
        return f"<{describe_formula(formula.condition)}>"
    if isinstance(formula, jnl.Key):
        return f"X_{formula.word}"
    if isinstance(formula, jnl.Index):
        return f"X_{formula.position}"
    if isinstance(formula, jnl.KeyRegex):
        return f"X_{formula.lang.describe()}"
    if isinstance(formula, jnl.IndexRange):
        high = "inf" if formula.high is None else formula.high
        return f"X_{{{formula.low}:{high}}}"
    if isinstance(formula, jnl.Compose):
        return f"{describe_formula(formula.left)}.{describe_formula(formula.right)}"
    if isinstance(formula, jnl.Union):
        return (
            f"({describe_formula(formula.left)} u "
            f"{describe_formula(formula.right)})"
        )
    if isinstance(formula, jnl.Star):
        return f"({describe_formula(formula.inner)})*"
    return repr(formula)


# ---------------------------------------------------------------------------
# The proof obligations.
# ---------------------------------------------------------------------------


def _conjuncts(formula: jnl.Unary) -> list[jnl.Unary]:
    """Top-level conjuncts, left to right (the And tree flattened)."""
    out: list[jnl.Unary] = []
    stack: list[jnl.Unary] = [formula]
    while stack:
        current = stack.pop()
        if isinstance(current, jnl.And):
            stack.append(current.right)
            stack.append(current.left)
        else:
            out.append(current)
    return out


def _conjoin_jnl(conjuncts: list[jnl.Unary]) -> jnl.Unary:
    result = conjuncts[0]
    for part in conjuncts[1:]:
        result = jnl.And(result, part)
    return result


def _session(
    context: SemanticContext, config: OptimizerConfig, cache: LRUCache | None
) -> ProverSession:
    """The warm prover session of a premise.

    It lives in the artifact cache beside the verdicts proved with it,
    under the same context fingerprint: collections sharing a schema
    text share it, and a summary that widens -- a new fingerprint --
    starts a new one while the old ages out of the LRU.
    """

    def build() -> ProverSession:
        return premise_session(context.formula, config.solver)

    if cache is None:
        return build()
    key = ("prover-session", context.fingerprint, config.solver_key)
    return cache.get_or_compute(key, build)


def _prove(
    context: SemanticContext,
    payload: jnl.Unary,
    config: OptimizerConfig,
    cache: LRUCache | None,
) -> SemanticVerdict:
    """Run the obligation ladder for one payload against one premise."""
    started = perf_counter()
    deadline = started + config.budget_ms / 1000.0

    def elapsed_ms() -> float:
        return (perf_counter() - started) * 1000.0

    def out_of_budget() -> bool:
        return perf_counter() >= deadline

    try:
        payload_jsl = jnl_to_jsl(payload)
    except UnsupportedFragmentError:
        return SemanticVerdict(
            kind="none", source=context.source, proof_ms=elapsed_ms()
        )
    premise = _session(context, config, cache)
    timed_out = False

    # (a) unsat => empty.
    proved, complete = unsat(conjoin(premise, payload_jsl), config.solver)
    timed_out = timed_out or not complete
    if proved:
        return SemanticVerdict(
            kind="empty",
            source=context.source,
            discharged=(describe_formula(payload),),
            proof_ms=elapsed_ms(),
        )
    if out_of_budget():
        return SemanticVerdict(
            kind="none",
            source=context.source,
            proof_ms=elapsed_ms(),
            timed_out=True,
        )

    # (b) implied => verify-free.
    proved, complete = unsat(
        conjoin(premise, negate(payload_jsl)), config.solver
    )
    timed_out = timed_out or not complete
    if proved:
        return SemanticVerdict(
            kind="all",
            source=context.source,
            discharged=(describe_formula(payload),),
            proof_ms=elapsed_ms(),
        )

    # (c) conjunct-wise: discharge the entailed parts, verify the rest.
    conjuncts = _conjuncts(payload)
    if len(conjuncts) > 1:
        discharged: list[jnl.Unary] = []
        residual: list[jnl.Unary] = []
        for position, conjunct in enumerate(conjuncts):
            if out_of_budget():
                timed_out = True
                residual.extend(conjuncts[position:])
                break
            try:
                conjunct_jsl = jnl_to_jsl(conjunct)
            except UnsupportedFragmentError:
                residual.append(conjunct)
                continue
            proved, complete = unsat(
                conjoin(premise, negate(conjunct_jsl)), config.solver
            )
            timed_out = timed_out or not complete
            if proved:
                discharged.append(conjunct)
            else:
                residual.append(conjunct)
        if discharged:
            names = tuple(describe_formula(part) for part in discharged)
            if not residual:
                return SemanticVerdict(
                    kind="all",
                    source=context.source,
                    discharged=names,
                    proof_ms=elapsed_ms(),
                    timed_out=timed_out,
                )
            residual_formula = _conjoin_jnl(residual)
            return SemanticVerdict(
                kind="residual",
                source=context.source,
                discharged=names,
                residual=describe_formula(residual_formula),
                residual_query=compile_formula(residual_formula),
                proof_ms=elapsed_ms(),
                timed_out=timed_out,
            )
    return SemanticVerdict(
        kind="none",
        source=context.source,
        proof_ms=elapsed_ms(),
        timed_out=timed_out,
    )


# ---------------------------------------------------------------------------
# The entry point execution paths consult.
# ---------------------------------------------------------------------------


def semantic_plan(
    collection: Any,
    query: CompiledQuery | None,
    *,
    no_semantic: bool = False,
    config: OptimizerConfig | None = None,
    cache: object = USE_DEFAULT_CACHE,
) -> SemanticDecision | None:
    """The semantic decision for one query over one collection.

    Returns ``None`` -- proceed exactly as before -- when the
    collection exposes no :class:`SemanticContext` (no schema/summary,
    extended values, a duck-typed source), when the
    per-query ``hint={"no_semantic": True}`` escape hatch is set, or
    when the payload is not a filter formula.  Verdicts are memoised on
    ``(context fingerprint, dialect, source)`` in the process-wide
    artifact cache; ``cache=None`` forces a fresh proof.
    """
    if no_semantic or query is None:
        return None
    context = getattr(collection, "semantic_context", None)
    if context is None:
        return None
    plan = query.plan
    if plan.mode != ir.MODE_FILTER:
        return None
    config = config or DEFAULT_CONFIG
    resolved = resolve_cache(cache)
    computed = False

    def build() -> SemanticVerdict:
        nonlocal computed
        computed = True
        return _prove(context, plan.formula, config, resolved)

    if resolved is None:
        verdict = build()
    else:
        key = (
            "semantic-verdict",
            context.fingerprint,
            query.dialect,
            query.source,
            config.budget_ms,
            config.solver_key,
        )
        verdict = resolved.get_or_compute(key, build)
    return SemanticDecision(verdict=verdict, cached=not computed)
