"""Workload generators and the benchmark harness."""

from __future__ import annotations

import random

from repro.model.equality import all_children_distinct
from repro.reference.harness import (
    SeriesPoint,
    format_table,
    loglog_slope,
    run_series,
)
from repro.reference.workloads import (
    TreeShape,
    balanced_tree,
    complete_binary_array_tree,
    counter_chain,
    deep_chain,
    duplicate_heavy_array,
    even_depth_tree,
    people_collection,
    random_tree,
    random_value,
    wide_array,
    wide_object,
)


class TestGenerators:
    def test_same_seed_same_tree(self):
        assert random_tree(7) == random_tree(7)

    def test_different_seeds_usually_differ(self):
        assert any(random_tree(i) != random_tree(i + 100) for i in range(5))

    def test_max_depth_respected(self):
        rng = random.Random(0)
        for _ in range(20):
            value = random_value(rng, TreeShape(max_depth=3))
            from repro.model.tree import JSONTree

            assert JSONTree.from_value(value).height() <= 3


class TestFamilies:
    def test_deep_chain(self):
        tree = deep_chain(10)
        assert tree.height() == 10
        assert len(tree) == 11

    def test_wide_object_and_array(self):
        assert wide_object(50).num_children(0) == 50
        assert wide_array(50).array_length(0) == 50

    def test_balanced_tree_size(self):
        tree = balanced_tree(branching=2, depth=3)
        assert len(tree) == 2**4 - 1

    def test_even_depth_tree_paths(self):
        tree = even_depth_tree(3)
        assert tree.height() == 3

    def test_complete_binary_array_tree_siblings_equal(self):
        tree = complete_binary_array_tree(3)
        assert not all_children_distinct(tree, tree.root)

    def test_duplicate_heavy_array_has_duplicates(self):
        tree = duplicate_heavy_array(30, distinct=3, seed=1)
        assert not all_children_distinct(tree, tree.root)

    def test_people_collection(self):
        people = people_collection(10, seed=2)
        assert len(people) == 10
        assert all("name" in person for person in people)
        assert people_collection(10, seed=2) == people

    def test_counter_chain_depth(self):
        tree = counter_chain(5)
        assert len(tree) > 5


class TestHarness:
    def test_loglog_slope_linear(self):
        points = [SeriesPoint(n, 1e-6 * n) for n in (100, 200, 400, 800)]
        assert abs(loglog_slope(points) - 1.0) < 0.01

    def test_loglog_slope_quadratic(self):
        points = [SeriesPoint(n, 1e-9 * n * n) for n in (100, 200, 400)]
        assert abs(loglog_slope(points) - 2.0) < 0.01

    def test_run_series_returns_points(self):
        points = run_series(
            [10, 20], make_input=lambda n: list(range(n)),
            run=lambda xs: sum(xs), repeat=1,
        )
        assert [point.x for point in points] == [10, 20]
        assert all(point.seconds >= 0 for point in points)

    def test_format_table_alignment(self):
        table = format_table("T", ["a", "bb"], [[1, 2], [33, 4]])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5
