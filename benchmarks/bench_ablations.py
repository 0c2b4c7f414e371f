"""A1 -- Ablations of two evaluator design choices.

(a) *Product reachability vs naive semantics*: the Proposition-1
    evaluator against the textbook denotational evaluator (explicit
    pair sets, fixpoint star) -- the gap is why the paper's algorithm
    matters.
(b) *Evaluator reuse*: sharing one memoised ``JNLEvaluator`` across a
    query batch vs a fresh engine per query (subformula node sets and
    compiled path automata are cached per tree).
"""

from __future__ import annotations

from repro.jnl.efficient import JNLEvaluator, evaluate_unary
from repro.jnl.parser import parse_jnl
from repro.reference.harness import format_table, measure
from repro.reference.jnl_evaluator import eval_unary
from repro.reference.workloads import balanced_tree, deep_chain

TREE = balanced_tree(4, 3)
# The star ablation runs on a chain: the naive fixpoint materialises
# the O(n^2) reflexive-transitive closure, the product stays linear.
CHAIN = deep_chain(200)
RECURSIVE = parse_jnl('has((.a)* <matches(eps, "0")>)')

BATCH = [
    parse_jnl("has(.c0.c1)"),
    parse_jnl("has(.c0.c1) and has(.c1.c2)"),
    parse_jnl("has(.c0.c1) or matches(.c2.c0.c1, 3)"),
    parse_jnl("not has(.c0.c1) or has(.c3)"),
    parse_jnl("has(.c0.c1) and not matches(.c2.c0.c1, 3)"),
]


def test_efficient_evaluator(benchmark):
    benchmark(lambda: evaluate_unary(CHAIN, RECURSIVE))


def test_reference_evaluator(benchmark):
    benchmark(lambda: eval_unary(CHAIN, RECURSIVE))


def test_shared_evaluator_batch(benchmark):
    def run():
        evaluator = JNLEvaluator(TREE)
        return [evaluator.nodes_satisfying(phi) for phi in BATCH]

    benchmark(run)


def test_fresh_evaluator_batch(benchmark):
    def run():
        return [evaluate_unary(TREE, phi) for phi in BATCH]

    benchmark(run)


def main() -> str:
    efficient = measure(lambda: evaluate_unary(CHAIN, RECURSIVE), repeat=3)
    reference = measure(lambda: eval_unary(CHAIN, RECURSIVE), repeat=3)

    def shared():
        evaluator = JNLEvaluator(TREE)
        for phi in BATCH:
            evaluator.nodes_satisfying(phi)

    def fresh():
        for phi in BATCH:
            evaluate_unary(TREE, phi)

    shared_time = measure(shared, repeat=3)
    fresh_time = measure(fresh, repeat=3)
    return format_table(
        "A1 / ablations: algorithmic choices "
        f"(product reachability {reference / efficient:.0f}x faster than "
        "naive semantics on a starred query; "
        f"shared memo {fresh_time / shared_time:.1f}x faster on a batch)",
        ["variant", "time"],
        [
            ["Prop-1 product reachability", f"{efficient * 1e3:.2f} ms"],
            ["naive denotational semantics", f"{reference * 1e3:.2f} ms"],
            ["batch, shared memoised engine", f"{shared_time * 1e3:.2f} ms"],
            ["batch, fresh engine per query", f"{fresh_time * 1e3:.2f} ms"],
        ],
    )


if __name__ == "__main__":
    print(main())
