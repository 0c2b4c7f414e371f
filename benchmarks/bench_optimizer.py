"""The semantic optimizer's three pinned wins, measured honestly.

(a) *Unsat => empty*: a filter the schema refutes answers without
    touching an index or a document.  The baseline cannot hide behind
    postings -- ``$not`` lifts to TRUE in the Pred layer, so the
    unoptimized path full-scans every document.
(b) *Implied => verify-free*: a filter the schema entails drops every
    per-document verification call (counted, not timed).
(c) *Timeout fall-through*: a prover starved to a zero budget must
    cost (almost) nothing -- the optimizer is a pure performance
    question, never a tax.

Pinned gates (``run_all.py --check-targets``): (a) >= 20x on 100k
docs, (b) >= 90% of verify calls dropped, (c) <= 5% overhead vs the
same read with ``hint={"no_semantic": True}`` -- the optimizer's only
off switch, and the unoptimised reference of every row here.

Reported, not gated -- the ``fresh-constants`` rows: what the prover
costs in absolute microseconds for a filter it has never seen (no
verdict-cache hit possible), under a schema premise and under a summary
premise, on the first obligation of a cold prover session (which
compiles and solves the premise) and in steady state against the warm
one.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro import api
from repro.cache import LRUCache
from repro.query import compile_mongo_find, optimizer
from repro.reference.harness import format_table, measure, smoke_mode

DOCS = 2_000 if smoke_mode() else 100_000

#: Pinned floors/ceilings (the CI gate).
FLOOR_UNSAT_SPEEDUP = 20.0
FLOOR_VERIFY_DROP = 0.90
CEIL_TIMEOUT_OVERHEAD = 1.05

SCHEMA = {
    "type": "object",
    "required": ["age", "name"],
    "properties": {
        "age": {"type": "number", "minimum": 0, "maximum": 120},
        "name": {"type": "string"},
    },
}

#: Schema-refuted, postings-proof filter: the Pred layer lifts ``$not``
#: to TRUE, so without the semantic verdict every document is scanned.
UNSAT_FILTER = {"age": {"$not": {"$lte": 200}}}

#: Schema-entailed filter: matches everything, and the proof discharges
#: the per-document verification entirely.  Negated on purpose: a plain
#: ``{"age": {"$gte": 0}}`` is answered by the planner's exact index
#: cover before any proof, and gate (b) would stop measuring ``"all"``.
IMPLIED_FILTER = {"age": {"$not": {"$gt": 200}}}

_OFF = {"no_semantic": True}


def _documents(count: int) -> list[dict]:
    return [{"age": index % 120, "name": f"u{index}"} for index in range(count)]


def _collection():
    return api.collection(_documents(DOCS), schema=SCHEMA)


def _timeout_filters(pivots: list[int]) -> list[dict]:
    """Satisfiable, postings-proof filters with distinct texts.

    Distinct texts => distinct verdict-cache keys, so every query pays
    a fresh proof attempt; satisfiable (the schema admits ``age`` above
    the pivot), so the emptiness obligation fails and the zero budget
    trips *between* obligations -- the starved fall-through under test.
    """
    return [{"age": {"$not": {"$lte": pivot}}} for pivot in pivots]


def _measure_all() -> dict:
    people = _collection()
    repeat = 1 if smoke_mode() else 5

    # (a) unsat => empty: proved short-circuit vs forced full scan.
    assert people.count(UNSAT_FILTER) == 0
    assert people.count(UNSAT_FILTER, hint=_OFF) == 0
    unsat_on = measure(lambda: people.count(UNSAT_FILTER), repeat=repeat)
    unsat_off = measure(
        lambda: people.count(UNSAT_FILTER, hint=_OFF), repeat=repeat
    )

    # (b) implied => verify-free, counted per document.
    implied = optimizer.semantic_plan(people, compile_mongo_find(IMPLIED_FILTER))
    assert implied is not None and implied.verdict.kind == "all", implied
    optimizer.reset_verify_calls()
    matched = len(people.find(IMPLIED_FILTER))
    verify_on = optimizer.verify_calls()
    optimizer.reset_verify_calls()
    assert len(people.find(IMPLIED_FILTER, hint=_OFF)) == matched == DOCS
    verify_off = optimizer.verify_calls()
    drop = 1.0 - (verify_on / verify_off) if verify_off else 0.0

    # (c) timeout fall-through.  The starved path *is* the classic
    # path plus exactly one (instantly deadline-tripped) proof
    # attempt, so the overhead is the attempt's cost over the scan's
    # -- measured separately, because a full-verification scan of
    # ``DOCS`` documents is seconds of work with run-to-run noise far
    # above the 5% ceiling, while the attempt itself is microseconds.
    starved = optimizer.OptimizerConfig(budget_ms=0.0)
    starved_filter = _timeout_filters([119])[0]
    starved_query = compile_mongo_find(starved_filter)
    probe = optimizer.semantic_plan(
        people, starved_query, config=starved, cache=None
    )
    assert probe is not None and probe.verdict.timed_out, probe

    def starved_attempt() -> None:
        # cache=None: every call pays the full cache-miss attempt.
        optimizer.semantic_plan(people, starved_query, config=starved, cache=None)

    calls = 5 if smoke_mode() else 50
    started = perf_counter()
    for _ in range(calls):
        starved_attempt()
    attempt = (perf_counter() - started) / calls
    scan = measure(
        lambda: people.count(starved_filter, hint=_OFF),
        repeat=min(repeat, 2),
    )

    return {
        "unsat_on": unsat_on,
        "unsat_off": unsat_off,
        "verify_on": verify_on,
        "verify_off": verify_off,
        "drop": drop,
        "timeout_attempt": attempt,
        "timeout_scan": scan,
    }


def fresh_constant_costs() -> dict[str, tuple[float, float]]:
    """``premise -> (cold, steady)`` proof microseconds per fresh filter.

    Every filter names a constant no earlier filter did, so each call
    runs the whole obligation ladder.  *cold* is the first such call on
    an empty cache, session construction included (median of five
    caches); *steady* is the mean over the calls that follow on the
    last of them.
    """
    documents = _documents(2_000)
    premises = {
        "schema": api.collection(documents, schema=SCHEMA),
        "summary": api.collection(documents),
    }
    steady_calls = 20 if smoke_mode() else 400
    fresh = iter(range(10**9))

    def prove(collection, cache) -> float:
        query = compile_mongo_find({"name": f"fresh-{next(fresh)}"})
        started = perf_counter()
        decision = optimizer.semantic_plan(collection, query, cache=cache)
        elapsed = perf_counter() - started
        assert decision is not None and not decision.cached
        return elapsed * 1e6

    costs = {}
    for source, collection in premises.items():
        assert collection.semantic_context.source == source
        colds = []
        for _ in range(5):
            cache = LRUCache(steady_calls + 8)
            colds.append(prove(collection, cache))
        steady = sum(prove(collection, cache) for _ in range(steady_calls))
        costs[source] = (sorted(colds)[2], steady / steady_calls)
    return costs


#: Measured ratios of the last speedups call (recorded by
#: ``run_all.py --check-targets --json`` for the CI delta table).
LAST_SPEEDUPS: dict[str, float] = {}


def speedups() -> dict[str, float]:
    """The three gated ratios (used by tests and CI)."""
    timings = _measure_all()
    measured = {
        f"unsat count short-circuit ({DOCS} docs)": (
            timings["unsat_off"] / timings["unsat_on"]
        ),
        f"implied verify-call drop ({DOCS} docs)": timings["drop"],
        "timeout fall-through overhead (on/off)": (
            (timings["timeout_scan"] + timings["timeout_attempt"])
            / timings["timeout_scan"]
        ),
    }
    LAST_SPEEDUPS.clear()
    LAST_SPEEDUPS.update(measured)
    return measured


def check_targets() -> list[str]:
    """Pinned-target regression check (``run_all.py --check-targets``)."""
    measured = speedups()
    unsat_label = f"unsat count short-circuit ({DOCS} docs)"
    drop_label = f"implied verify-call drop ({DOCS} docs)"
    overhead_label = "timeout fall-through overhead (on/off)"
    failures = []
    if measured[unsat_label] < FLOOR_UNSAT_SPEEDUP:
        failures.append(
            f"bench_optimizer: unsat speedup {measured[unsat_label]:.1f}x "
            f"< {FLOOR_UNSAT_SPEEDUP}x target"
        )
    if measured[drop_label] < FLOOR_VERIFY_DROP:
        failures.append(
            f"bench_optimizer: verify-call drop {measured[drop_label]:.0%} "
            f"< {FLOOR_VERIFY_DROP:.0%} target"
        )
    if measured[overhead_label] > CEIL_TIMEOUT_OVERHEAD:
        failures.append(
            "bench_optimizer: timeout fall-through overhead "
            f"{measured[overhead_label]:.2f}x > "
            f"{CEIL_TIMEOUT_OVERHEAD}x ceiling"
        )
    return failures


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (pytest benchmarks/ --benchmark-only).
# The pinned 100k-doc gate lives in check_targets/CI.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def people():
    return _collection()


def test_unsat_semantic(benchmark, people):
    benchmark(lambda: people.count(UNSAT_FILTER))


def test_unsat_classic(benchmark, people):
    benchmark(lambda: people.count(UNSAT_FILTER, hint=_OFF))


def test_implied_semantic(benchmark, people):
    benchmark(lambda: people.count(IMPLIED_FILTER))


@pytest.mark.skipif(smoke_mode(), reason="timings are meaningless in smoke mode")
def test_targets():
    assert not check_targets(), LAST_SPEEDUPS


def main() -> str:
    measured = speedups()
    rows = [[label, f"{value:.2f}x"] for label, value in measured.items()]
    gated = format_table(
        "Semantic optimizer: unsat short-circuit, verify-free implied "
        f"filters, starved-prover fall-through ({DOCS} docs; targets: "
        f">= {FLOOR_UNSAT_SPEEDUP:.0f}x, >= {FLOOR_VERIFY_DROP:.0%}, "
        f"<= {CEIL_TIMEOUT_OVERHEAD:.2f}x)",
        ["measurement", "ratio"],
        rows,
    )
    fresh = format_table(
        "fresh-constants: proof cost of a never-seen filter (not gated)",
        ["premise", "cold session, first obligation (us)", "steady state (us)"],
        [
            [source, f"{cold:.0f}", f"{steady:.0f}"]
            for source, (cold, steady) in fresh_constant_costs().items()
        ],
    )
    return gated + "\n\n" + fresh


if __name__ == "__main__":
    print(main())
