import sys
from fractions import Fraction

import pytest

from tripack import Multigraph, dominates_sqrt
from tripack.cuts import EdgeCut, cut_connected, cut_large, independent_set_triangle_free
from tripack.generators import gen_complete, gen_cycle, gen_petersen

from oracles import (
    brute_max_cut,
    brute_max_independent_set,
    rand_connected_multigraph,
    rand_triangle_free,
)


class TestIndependentSet:
    def test_single_vertex(self):
        assert independent_set_triangle_free(Multigraph(1, ())) == (0,)

    def test_c5(self):
        s = independent_set_triangle_free(gen_cycle(5))
        assert len(s) == 2
        g = gen_cycle(5)
        assert not g.has_pair(*s)

    def test_petersen(self):
        s = independent_set_triangle_free(gen_petersen())
        assert len(s) >= 2
        assert brute_max_independent_set(gen_petersen()) == 4

    def test_rejects_triangles(self):
        with pytest.raises(ValueError):
            independent_set_triangle_free(gen_complete(3))

    def test_random_ensemble(self):
        for seed in range(60):
            h = rand_triangle_free(5 + seed % 20, seed)
            s = independent_set_triangle_free(h)
            for i, a in enumerate(s):
                for b in s[i + 1:]:
                    assert not h.has_pair(a, b)
            assert 4 * len(s) ** 2 >= h.n


class TestCutConnected:
    def test_k3(self):
        assert cut_connected(gen_complete(3)).size == 2

    def test_parallel_edge(self):
        g = Multigraph.from_edges(2, [(0, 1, 3)])
        assert cut_connected(g).size == 3

    def test_k4(self):
        assert cut_connected(gen_complete(4)).size == 4

    def test_rejects_disconnected(self):
        g = Multigraph.from_edges(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(ValueError):
            cut_connected(g)

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            cut_connected(Multigraph(1, ()))

    def test_shore_matches_cut(self):
        g = rand_connected_multigraph(7, 6, 3, 5)
        cut = cut_connected(g)
        recomputed = EdgeCut.from_shore(g, cut.shore)
        assert recomputed == cut

    def test_random_ensemble_with_oracle(self):
        for seed in range(60):
            n = 2 + seed % 7
            g = rand_connected_multigraph(n, seed % 10, 3, seed)
            e = g.total_weight
            cut = cut_connected(g)
            assert Fraction(cut.size) >= Fraction(e, 2) + Fraction(n - 1, 4)
            assert cut.size <= brute_max_cut(g)


class TestCutLarge:
    def test_single_edge(self):
        g = Multigraph.from_edges(2, [(0, 1, 1)])
        assert cut_large(g).size == 1

    def test_k4(self):
        assert cut_large(gen_complete(4)).size == 4

    def test_two_disjoint_triangles(self):
        g = Multigraph.from_edges(
            6, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)]
        )
        assert cut_large(g).size == 4

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            cut_large(Multigraph(3, ()))

    def test_random_ensemble(self):
        for seed in range(60):
            n = 2 + seed % 9
            g = rand_connected_multigraph(n, seed % 12, 3, seed)
            if seed % 3 == 0:
                # disconnected variant: append an isolated copy of a triangle
                shift = g.n
                items = list(g.edges) + [
                    (shift, shift + 1, 1),
                    (shift, shift + 2, 1),
                    (shift + 1, shift + 2, 1),
                ]
                g = Multigraph.from_edges(g.n + 3, items)
            e = g.total_weight
            cut = cut_large(g)
            assert dominates_sqrt(Fraction(cut.size) - Fraction(e, 2), Fraction(e, 16))
            if g.n <= 8:
                assert cut.size <= brute_max_cut(g)

    def test_deterministic(self):
        g = rand_connected_multigraph(8, 9, 3, 21)
        assert cut_large(g) == cut_large(g)

    def test_path_deeper_than_recursion_limit(self):
        # Each level of the connected-cut construction removes one path end.
        n = sys.getrecursionlimit() + 100
        g = Multigraph.from_edges(n, ((i, i + 1, 1) for i in range(n - 1)))
        cut = cut_large(g)
        e = n - 1
        assert dominates_sqrt(Fraction(cut.size) - Fraction(e, 2), Fraction(e, 16))
