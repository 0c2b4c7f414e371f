"""F4 -- Indexed collections: prune with indexes, scan only survivors.

Reproduction target: the store layer must make *selective* queries over
a many-document collection cheap.  The PR-1 batch APIs already amortise
compilation, but still evaluate every document; the store's secondary
indexes (path/value/kind/key-presence postings over the stripped key
paths of :mod:`repro.query.ir`) let the planner intersect a handful of
postings and run the compiled evaluation on the few candidate
documents only.  On a 10k-document collection, selective queries must
run >= 10x faster index-backed than the PR-1 full batch scan -- with
identical results, pinned by the differential tests in
``tests/test_planner.py`` and re-asserted here.

A second, *scaling* row times one point ``find`` over N and 10*N
documents.  The speedup rows cannot see an O(N) term in the indexed
path (the full scan they divide by is O(N) too, and slower); the
latency ratio can: a read that costs its postings plus its survivors
answers in the same time at both sizes, and the ratio is gated <= 2x.

The *covered* rows run over the larger corpus, where the planner's
exact index cover answers from the postings alone.  Two counts are
gated >= 10x against the same call under ``hint={"no_semantic": True}``
(prune and verify every survivor): an equality on an array-free path
with a few hundred matches, and an array membership -- ``hobbies`` is a
flat array, a third of the documents match.  The last row times a
point ``find`` with a fresh constant on every call -- no cached verdict,
and a plan bound from its shape's template -- on the corpus as is, then
with one stray document carrying a *flat* array on the filtered path
(asserted still covered: no cliff), then with one carrying a *nested*
array; the cover declines there and the prover runs, so the row shows
what that costs.  The fresh-constant read on the clean corpus is gated
at <= 3x the same read with one constant repeated (a cached plan), so
the shape cache cannot silently stop binding.

The ingest row's resident bytes per document are gated <= 4 000: a
posting that holds one id is stored as the id, one that holds every id
as the live-id set itself, and the gate keeps posting memory from
creeping back unnoticed.
"""

from __future__ import annotations

import pytest

from repro.query import compile_mongo_find, compile_query, filter_many
from repro.reference.harness import (
    format_table,
    measure,
    measure_amortised,
    smoke_mode,
)
from repro.reference.workloads import people_collection
from repro import api

DOCS = 300 if smoke_mode() else 10_000

_PEOPLE = people_collection(DOCS, seed=11)
COLLECTION = api.collection(_PEOPLE)
TREES = COLLECTION.trees  # The PR-1 view: same trees, no indexes.

# Selective workloads: equality postings cut 10k documents to a few
# dozen candidates before any tree is evaluated.  The JSONPath one
# looks up a near-unique zip code through a wildcard filter (pruned by
# the anywhere-value posting).
MONGO_FILTER = {
    "name.first": "Sue",
    "name.last": "Chen",
    "address.city": "Santiago",
}
_ZIP = _PEOPLE[DOCS // 2]["address"]["zip"]
JSONPATH_TEXT = f'$.address[?(@ == "{_ZIP}")]'
JNL_TEXT = 'matches(.address.city, "Talca") and has(.age<test(min(84))>)'


def _rows():
    rows = []
    for label, query, batch_scan in [
        (
            f"Mongo find, 3-way eq ({DOCS} docs)",
            compile_mongo_find(MONGO_FILTER),
            lambda query: filter_many(query, TREES),
        ),
        (
            f"JNL filter, eq + range ({DOCS} docs)",
            compile_query(JNL_TEXT, "jnl"),
            lambda query: [tree.to_value() for tree in TREES if query.matches(tree)],
        ),
        (
            f"JSONPath tail filter ({DOCS} docs)",
            compile_query(JSONPATH_TEXT, "jsonpath"),
            lambda query: [values for tree in TREES if (values := query.values(tree))],
        ),
    ]:
        from repro.query import planner

        def indexed(query=query):
            return planner.find_documents(COLLECTION, query)

        def scan(query=query, batch_scan=batch_scan):
            return batch_scan(query)

        cold = measure(scan)
        warm = measure(indexed)
        rows.append((label, cold, warm, cold / warm))
    return rows


# The scaling row: the same point find over N and 10*N documents.
SCALING_DOCS = (300, 3_000) if smoke_mode() else (2_000, 20_000)
SCALING_CEILING = 2.0


def scaling() -> tuple[float, float, float]:
    """``(latency at N, latency at 10*N, their ratio)`` of one point
    ``find`` answering one document at either size."""
    small, large = SCALING_DOCS
    filter_doc = {"id": small // 2}
    latencies = []
    for docs in (small, large):
        collection = api.collection(people_collection(docs, seed=11))
        assert len(collection.find(filter_doc)) == 1
        latencies.append(
            measure_amortised(lambda: collection.find(filter_doc), repeat=5)
        )
    return latencies[0], latencies[1], latencies[1] / latencies[0]


def ingest() -> tuple[float, float]:
    """``(documents/s, resident bytes/document)`` of building the larger
    scaling corpus: trees, postings and the structural summary.  The
    build is timed plain, then repeated under ``tracemalloc`` for the
    bytes it keeps.  The rate is reported, not pinned
    (machine-dependent); the bytes are gated by ``check_targets``."""
    import tracemalloc

    docs = people_collection(SCALING_DOCS[1], seed=11)
    rate = len(docs) / measure(lambda: api.collection(docs), repeat=1)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    collection = api.collection(docs)
    resident = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    assert len(collection) == len(docs)
    return rate, resident / len(docs)


# The covered rows.  ``age`` takes 73 values: a few hundred matches;
# a hobby is one of up to three drawn from five: thousands.
COVERED_FILTER = {"age": 40}
MEMBER_FILTER = {"hobbies": "yoga"}
COVERED_FLOOR = 10.0
FRESH_CEILING = 3.0  # fresh-constant point find vs the cached-plan one
RESIDENT_CEILING = 4_000.0  # bytes/doc over the larger scaling corpus
_COVERED_LABEL = f"Covered count vs verified ({SCALING_DOCS[1]} docs)"
_MEMBER_LABEL = f"Covered array membership count vs verified ({SCALING_DOCS[1]} docs)"
_VERIFIED = {"no_semantic": True}


def covered() -> dict[str, float]:
    """Seconds per call: each count ``covered`` and ``verified``
    (``count_*`` the equality, ``member_*`` the array membership), and
    a point find repeating one constant (``cached``), a fresh point find
    on the corpus as is (``clean``), with one stray flat array on its
    path (``flat``) and with one nested (``nested``)."""
    collection = api.collection(people_collection(SCALING_DOCS[1], seed=11))
    timings = {}
    for name, filter_doc, calls in (
        ("count", COVERED_FILTER, 20),
        ("member", MEMBER_FILTER, 3),
    ):
        matches = collection.count(filter_doc)
        assert matches == collection.count(filter_doc, hint=_VERIFIED) > 0
        assert collection.explain(filter_doc).semantics.verdict == "covered"
        timings[f"{name}_covered"] = measure_amortised(
            lambda: collection.count(filter_doc)
        )
        timings[f"{name}_verified"] = measure_amortised(
            lambda: collection.count(filter_doc, hint=_VERIFIED), calls=calls
        )
    fresh = iter(range(len(collection)))  # every call a constant never seen

    def point():
        return collection.find({"id": next(fresh)})

    assert len(point()) == 1
    timings["cached"] = measure_amortised(lambda: collection.find({"id": 7}))
    timings["clean"] = measure_amortised(point)
    collection.insert({"id": [-1]})
    assert collection.explain({"id": 0}).semantics.verdict == "covered"
    assert collection.count({"id": -1}) == 1
    timings["flat"] = measure_amortised(point)
    collection.insert({"id": [[-1]]})
    assert collection.explain({"id": 0}).semantics.verdict != "covered"
    timings["nested"] = measure_amortised(point)
    return timings


def _check_results_identical() -> None:
    """Index-backed results must equal the full scan, document for
    document (the planner only ever *skips* non-matches)."""
    from repro.query import planner

    query = compile_mongo_find(MONGO_FILTER)
    assert planner.find_documents(COLLECTION, query) == filter_many(query, TREES)


#: Measured ratios of the last speedups call (recorded by
#: ``run_all.py --check-targets --json`` for the CI delta table).
LAST_SPEEDUPS: dict[str, float] = {}


def speedups() -> dict[str, float]:
    """Per-workload scan/indexed ratios (used by tests and CI)."""
    _check_results_identical()
    measured = {label: ratio for label, _, _, ratio in _rows()}
    LAST_SPEEDUPS.clear()
    LAST_SPEEDUPS.update(measured)
    return measured


# Every workload is gated individually -- the three stress different
# posting tables (eq+tails, eq+range, anywhere-value), so a max() gate
# would let a single-table pruning regression slip.  The JNL floor is
# lower: its range predicate unions postings per distinct value, which
# is inherently costlier than a point equality lookup.
_FLOORS = {"Mongo": 10.0, "JSONPath": 10.0, "JNL": 5.0}


def _floor_for(label: str) -> float:
    for prefix, floor in _FLOORS.items():
        if label.startswith(prefix):
            return floor
    return 10.0


def check_targets() -> list[str]:
    """Pinned-target regression check (``run_all.py --check-targets``)."""
    failures = []
    for label, ratio in speedups().items():
        floor = _floor_for(label)
        if ratio < floor:
            failures.append(
                f"bench_collection_queries: {label} index-backed speedup "
                f"{ratio:.1f}x < {floor:.0f}x target"
            )
    small, large, ratio = scaling()
    if ratio > SCALING_CEILING:
        failures.append(
            f"bench_collection_queries: point find over {SCALING_DOCS[1]} "
            f"docs takes {ratio:.1f}x its latency over {SCALING_DOCS[0]} "
            f"({large * 1e6:.0f} us vs {small * 1e6:.0f} us) "
            f"> {SCALING_CEILING:.0f}x ceiling"
        )
    timings = covered()
    for label, name in ((_COVERED_LABEL, "count"), (_MEMBER_LABEL, "member")):
        fast, slow = timings[f"{name}_covered"], timings[f"{name}_verified"]
        LAST_SPEEDUPS[label] = slow / fast
        if slow / fast < COVERED_FLOOR:
            failures.append(
                f"bench_collection_queries: {label}: covered "
                f"({fast * 1e6:.0f} us) is only {slow / fast:.1f}x faster "
                f"than verified ({slow * 1e6:.0f} us) "
                f"< {COVERED_FLOOR:.0f}x target"
            )
    fresh, cached = timings["clean"], timings["cached"]
    if fresh / cached > FRESH_CEILING:
        failures.append(
            f"bench_collection_queries: a fresh-constant point find "
            f"({fresh * 1e6:.0f} us) takes {fresh / cached:.1f}x the "
            f"cached-plan one ({cached * 1e6:.0f} us) "
            f"> {FRESH_CEILING:.0f}x ceiling"
        )
    _, resident = ingest()
    if resident > RESIDENT_CEILING:
        failures.append(
            f"bench_collection_queries: {resident:,.0f} resident bytes/doc "
            f"over {SCALING_DOCS[1]} docs > {RESIDENT_CEILING:,.0f} ceiling"
        )
    return failures


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (pytest benchmarks/ --benchmark-only).
# ---------------------------------------------------------------------------


def test_indexed_find(benchmark):
    from repro.query import planner

    query = compile_mongo_find(MONGO_FILTER)
    results = benchmark(lambda: planner.find_documents(COLLECTION, query))
    assert all(doc["name"]["first"] == "Sue" for doc in results)


def test_batch_scan_find(benchmark):
    query = compile_mongo_find(MONGO_FILTER)
    results = benchmark(lambda: filter_many(query, TREES))
    assert all(doc["name"]["first"] == "Sue" for doc in results)


@pytest.mark.skipif(smoke_mode(), reason="timings are meaningless in smoke mode")
def test_indexed_speedup_target():
    assert not check_targets(), speedups()


def main() -> str:
    _check_results_identical()
    rows = _rows()
    table = format_table(
        "F4 / indexed collection queries: selective query latency "
        "(target: >= 10x for index-backed vs PR-1 batch scan)",
        ["workload", "batch scan", "index-backed", "speedup"],
        [
            [label, f"{cold * 1e3:.2f} ms", f"{warm * 1e3:.2f} ms", f"{ratio:.1f}x"]
            for label, cold, warm, ratio in rows
        ],
    )
    stats = COLLECTION.index_stats()
    if stats is not None:
        table += (
            f"\n(indexes: {stats.paths} paths, {stats.eq_entries} eq entries, "
            f"{stats.keys} keys over {stats.documents} documents)"
        )
    if not smoke_mode():
        best = max(ratio for _, _, _, ratio in rows)
        table += f"\n(best index-backed speedup: {best:.1f}x)"
    small, large, ratio = scaling()
    table += (
        f"\n(scaling: point find {small * 1e6:.0f} us over "
        f"{SCALING_DOCS[0]} docs, {large * 1e6:.0f} us over "
        f"{SCALING_DOCS[1]}: {ratio:.2f}x, target <= "
        f"{SCALING_CEILING:.0f}x)"
    )
    rate, resident = ingest()
    table += (
        f"\n(ingest: {rate:,.0f} docs/s, {resident:,.0f} resident bytes/doc "
        f"over {SCALING_DOCS[1]} docs, target <= {RESIDENT_CEILING:,.0f})"
    )
    timings = covered()
    for name, filter_doc in (("count", COVERED_FILTER), ("member", MEMBER_FILTER)):
        fast, slow = timings[f"{name}_covered"], timings[f"{name}_verified"]
        table += (
            f"\n(covered: count {filter_doc} {fast * 1e6:.0f} us from the "
            f"postings, {slow * 1e6:.0f} us verified: {slow / fast:.1f}x, "
            f"target >= {COVERED_FLOOR:.0f}x)"
        )
    table += (
        f"\n(covered: cached-plan point find {timings['cached'] * 1e6:.0f} us, "
        f"fresh point find {timings['clean'] * 1e6:.0f} us "
        f"({timings['clean'] / timings['cached']:.1f}x, target <= "
        f"{FRESH_CEILING:.0f}x); "
        f"with one stray flat array on the path {timings['flat'] * 1e6:.0f} us "
        f"-- still covered; with one nested {timings['nested'] * 1e6:.0f} us "
        f"-- the prover runs)"
    )
    return table


if __name__ == "__main__":
    print(main())
