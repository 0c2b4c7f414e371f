"""E5 -- Proposition 5: satisfiability of the non-deterministic logic.

Reproduction target: the JSL route decides the PSPACE fragment
(star-free) and the EXPTIME fragment (with stars); cost grows with the
number of modalities -- the paper's point that these fragments are
inherently harder than the NP deterministic core.
"""

from __future__ import annotations

import pytest

from repro.jnl import builder as q
from repro.jnl.satisfiability import jnl_satisfiable
from repro.reference.harness import format_table, measure

DEPTHS = [2, 4, 6, 8]


def _nondet_formula(depth: int):
    """Nested regex-key requirements with typing conflicts below."""
    inner = q.conj(
        [
            q.has(q.compose(q.key_regex("x+"), q.test(q.has(q.index(0))))),
            q.has(q.compose(q.key_regex("x.*"), q.test(q.has(q.key("k"))))),
        ]
    )
    formula = inner
    for level in range(depth):
        formula = q.has(
            q.compose(q.key_regex(f"l{level}|m{level}"), q.test(formula))
        )
    return formula


def _recursive_formula(depth: int):
    chain = q.compose(q.star(q.key_regex("a|b")), q.key("stop"))
    parts = [q.has(chain)]
    for level in range(depth):
        parts.append(q.has(q.compose(q.key_regex(f"l{level}.*"), q.test(q.top()))))
    return q.conj(parts)


@pytest.mark.parametrize("depth", DEPTHS)
def test_nondet_starfree_sat(benchmark, depth):
    formula = _nondet_formula(depth)
    result = benchmark(lambda: jnl_satisfiable(formula))
    assert result.satisfiable  # the x-conflict sits under *different* keys


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_nondet_recursive_sat(benchmark, depth):
    formula = _recursive_formula(depth)
    result = benchmark(lambda: jnl_satisfiable(formula))
    assert result.satisfiable


def main() -> str:
    rows = []
    for depth in DEPTHS:
        starfree = _nondet_formula(depth)
        recursive = _recursive_formula(depth)
        t1 = measure(lambda f=starfree: jnl_satisfiable(f), repeat=1)
        t2 = measure(lambda f=recursive: jnl_satisfiable(f), repeat=1)
        rows.append([depth, f"{t1 * 1e3:.1f} ms", f"{t2 * 1e3:.1f} ms"])
    return format_table(
        "E5 / Prop 5: non-deterministic JNL satisfiability via the "
        "recursive-JSL route (paper: PSPACE-c star-free, EXPTIME-c "
        "recursive)",
        ["nesting", "star-free", "recursive"],
        rows,
    )


if __name__ == "__main__":
    print(main())
