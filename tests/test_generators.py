import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from tripack import (
    Multigraph,
    is_fractional_packing,
    is_fractional_transversal,
)
from tripack.core import enumerate_triangles, norm_edge
from tripack.generators import (
    gen_apex,
    gen_complete,
    gen_cycle,
    gen_gk,
    gen_octahedron,
    gen_petersen,
    gen_random,
    gen_stacked,
    gen_wheel,
    gk_optimum,
    fractional_packing_fk,
    fractional_transversal_gka,
    with_random_weights,
)
from tripack.cli import main
from tripack.graphio import parse_graph

from oracles import reference_gen_random


def generate(capsys, *args):
    """Run `tripack generate --family ...` and parse the graph it prints."""
    assert main(["generate", "--family", *args]) == 0
    return parse_graph(capsys.readouterr().out)


class TestGenGk:
    def test_level_zero(self):
        inst = gen_gk(0)
        assert inst.graph.n == 2
        assert inst.graph.edges == ((0, 1, 1),)
        assert inst.terminal_edge == (0, 1)
        assert enumerate_triangles(inst.graph) == []

    def test_level_one_is_five_wheel(self):
        inst = gen_gk(1)
        g = inst.graph
        assert g.n == 6 and len(g.edges) == 10
        tris = enumerate_triangles(g)
        assert len(tris) == 5
        assert all(inst.heights[t] == 1 for t in tris)
        assert norm_edge(*inst.terminals) in g.weight_map

    def test_level_two_counts(self):
        inst = gen_gk(2)
        g = inst.graph
        assert g.n == 46
        assert len(g.edges) == 100
        by_height = {}
        for t, j in inst.heights.items():
            by_height[j] = by_height.get(j, 0) + 1
        assert by_height == {1: 50, 2: 5}
        assert len(enumerate_triangles(g)) == 55

    def test_heights_match_triangles(self):
        inst = gen_gk(2)
        assert set(inst.heights) == set(enumerate_triangles(inst.graph))

    def test_rejects_oversized_level(self):
        with pytest.raises(ValueError):
            gen_gk(9)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError, match="level must be nonnegative"):
            gen_gk(-1)

    def test_deterministic(self):
        assert gen_gk(2).graph == gen_gk(2).graph


class TestFractionalPacking:
    def test_level_one_values(self):
        f = fractional_packing_fk(1)
        assert f.value == Fraction(5, 2)
        assert set(f.triangle_values.values()) == {Fraction(1, 2)}

    def test_level_one_edge_loads(self):
        inst = gen_gk(1)
        f = fractional_packing_fk(1)
        load = {}
        for t, x in f.triangle_values.items():
            for e in t.edges:
                load[e] = load.get(e, Fraction(0)) + x
        spokes = [e for e in load if 0 in e]
        rims = [(u, v) for u, v, _ in inst.graph.edges if 0 not in (u, v)]
        assert all(load[e] == 1 for e in spokes)
        assert all(load.get(e, 0) == Fraction(1, 2) for e in rims)

    def test_level_two_value_and_feasibility(self):
        inst = gen_gk(2)
        f = fractional_packing_fk(2)
        assert f.value == gk_optimum(2) == Fraction(105, 4)
        assert is_fractional_packing(inst.graph, f)

    def test_copy_terminal_loads(self):
        # Triangles of height at most j load the terminal edge of every
        # level-j copy to exactly 1 - 2**-j.
        inst = gen_gk(2)
        f = fractional_packing_fk(2)
        for j in (1, 2):
            load: dict = {}
            for t, x in f.triangle_values.items():
                if inst.heights[t] <= j:
                    for e in t.edges:
                        load[e] = load.get(e, Fraction(0)) + x
            for level, edge in inst.copies:
                if level == j:
                    assert load.get(edge, Fraction(0)) == 1 - Fraction(1, 2**j)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            fractional_packing_fk(0)


class TestFractionalTransversal:
    def test_level_zero(self):
        f = fractional_transversal_gka(0, Fraction(2, 3))
        assert f.edge_values == {(0, 1): Fraction(2, 3)}
        assert f.value == Fraction(2, 3)

    def test_level_one_values(self):
        assert fractional_transversal_gka(1, 0).value == Fraction(5, 2)
        assert fractional_transversal_gka(1, 1).value == 3

    def test_value_formula(self):
        for k in (1, 2):
            for a in (Fraction(0), Fraction(1, 3), Fraction(1)):
                f = fractional_transversal_gka(k, a)
                assert f.value == gk_optimum(k) + a / 2**k

    def test_feasible_with_tight_innermost(self):
        for k in (1, 2):
            inst = gen_gk(k)
            f = fractional_transversal_gka(k, Fraction(1, 2))
            assert is_fractional_transversal(inst.graph, f)
            for t, j in inst.heights.items():
                s = sum((f.edge_values.get(e, 0) for e in t.edges), Fraction(0))
                assert s >= 1
                if j == k:
                    assert s == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fractional_transversal_gka(1, Fraction(3, 2))


class TestApex:
    def test_single_edge_becomes_triangle(self):
        g = gen_apex(Multigraph.from_edges(2, [(0, 1, 1)]))
        assert g.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))

    def test_c5_becomes_five_wheel(self):
        g = gen_apex(gen_cycle(5))
        assert g.n == 6 and len(g.edges) == 10
        assert len(enumerate_triangles(g)) == 5
        degs = sorted(sum(v in (x, y) for x, y, _ in g.edges) for v in range(6))
        assert degs == [3, 3, 3, 3, 3, 5]

    def test_rejects_triangle_host(self):
        with pytest.raises(ValueError):
            gen_apex(gen_complete(3))


class TestNamedAndRandom:
    # Named families are dispatched by the `generate` command.
    def test_complete(self, capsys):
        g = generate(capsys, "complete", "--n", "4")
        assert g.n == 4 and len(g.edges) == 6
        assert g == gen_complete(4)

    def test_wheel(self, capsys):
        assert generate(capsys, "wheel", "--k", "5") == gen_wheel(5)
        assert generate(capsys, "wheel", "--n", "5") == gen_wheel(5)

    def test_unknown_family(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "mystery"])
        assert exc.value.code == 2

    def test_petersen_triangle_free(self):
        g = gen_petersen()
        assert len(g.edges) == 15
        assert enumerate_triangles(g) == []

    def test_octahedron(self):
        g = gen_octahedron()
        assert len(g.edges) == 12
        assert len(enumerate_triangles(g)) == 8

    def test_stacked_grows_planar_counts(self):
        g = gen_stacked(8, seed=1)
        assert g.n == 8
        assert len(g.edges) == 3 * 8 - 6  # planar triangulation

    def test_random_deterministic(self):
        a = gen_random(6, 10, 3, seed=1)
        b = gen_random(6, 10, 3, seed=1)
        assert a == b
        assert a != gen_random(6, 10, 3, seed=2)

    @pytest.mark.parametrize("make, message", [
        (lambda: gen_complete(0), "at least one vertex"),
        (lambda: gen_cycle(2), "at least 3 vertices"),
        (lambda: gen_wheel(2), "rim of at least 3"),
        (lambda: gen_stacked(3), "at least 4 vertices"),
        (lambda: gen_random(1, 0, 1, seed=0), "bad parameters"),
        (lambda: gen_random(4, -1, 1, seed=0), "bad parameters"),
        (lambda: gen_random(4, 2, 0, seed=0), "bad parameters"),
    ], ids=["complete-0", "cycle-2", "wheel-2", "stacked-3", "random-n-1", "random-m-negative",
            "random-max-mult-0"])
    def test_rejects_bad_parameters(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_random_rejects_too_many_edges(self):
        with pytest.raises(ValueError):
            gen_random(4, 7, 1, seed=0)

    def test_random_matches_listing_reference(self):
        # Sampling pair indices draws the same pairs and capacities as
        # sampling from the listed pairs, from m = 0 up to every pair.
        cases = 0
        for n in range(2, 16):
            total = n * (n - 1) // 2
            for m in sorted({0, 1, total // 3, total // 2, total - 1, total}):
                for seed in range(4):
                    assert gen_random(n, m, 3, seed) == reference_gen_random(n, m, 3, seed)
                    cases += 1
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 300)
            m = rng.randint(0, min(400, n * (n - 1) // 2))
            assert gen_random(n, m, 5, seed) == reference_gen_random(n, m, 5, seed)
            cases += 1
        assert cases >= 300

    def test_random_memory_grows_with_edges_not_pairs(self):
        tracemalloc.start()
        try:
            g = gen_random(1_000_000, 10, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 1_000_000 and len(g.edges) == 10
        assert peak < 1 << 20

    def test_random_rejects_unindexable_pair_count(self):
        with pytest.raises(ValueError):
            gen_random(2 * math.isqrt(sys.maxsize) + 2, 1, 1, seed=0)

    def test_with_random_weights(self):
        g = with_random_weights(gen_complete(4), (1, 2, 3), seed=5)
        assert {w for _, _, w in g.edges} <= {1, 2, 3}
        assert with_random_weights(gen_complete(4), (1, 2, 3), seed=5) == g
