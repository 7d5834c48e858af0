import copy
import itertools
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from tripack import Multigraph, dominates_sqrt
from tripack.core import norm_edge
from tripack.cuts import (
    EdgeCut,
    _balanced_shore,
    _components,
    _cut_connected_shore,
    _positive_adj,
    cut_connected,
    cut_large,
    independent_set_triangle_free,
)
from tripack.generators import gen_complete, gen_cycle, gen_petersen, with_random_weights

from oracles import (
    brute_max_cut,
    brute_max_independent_set,
    cyclic_garbage,
    rand_connected_multigraph,
    rand_triangle_free,
    reference_balanced_shore,
    reference_cut_connected_shore,
)


def _sparse_triangle_free(n: int, p: float, rng: random.Random) -> Multigraph:
    """Each pair with probability ``p``, skipping any pair that closes a triangle."""
    adj: list[set[int]] = [set() for _ in range(n)]
    items = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p and not adj[u] & adj[v]:
            adj[u].add(v)
            adj[v].add(u)
            items.append((u, v, 1))
    return Multigraph.from_edges(n, items)


class TestIndependentSet:
    def test_single_vertex(self):
        assert independent_set_triangle_free(Multigraph(1, ()), [1]) == (0,)

    def test_no_vertices(self):
        assert independent_set_triangle_free(Multigraph(0, ()), []) == ()

    def test_c5(self):
        s = independent_set_triangle_free(gen_cycle(5), [1] * 5)
        assert len(s) == 2
        g = gen_cycle(5)
        assert norm_edge(*s) not in g.weight_map

    def test_petersen(self):
        s = independent_set_triangle_free(gen_petersen(), [1] * 10)
        assert len(s) >= 2
        assert brute_max_independent_set(gen_petersen()) == 4

    def test_rejects_triangles(self):
        with pytest.raises(ValueError):
            independent_set_triangle_free(gen_complete(3), [1] * 3)

    def test_random_ensemble(self):
        for seed in range(60):
            h = rand_triangle_free(5 + seed % 20, seed)
            s = independent_set_triangle_free(h, [1] * h.n)
            for i, a in enumerate(s):
                for b in s[i + 1:]:
                    assert norm_edge(a, b) not in h.weight_map
            assert 4 * len(s) ** 2 >= h.n

    def test_rejects_bad_weights(self):
        for weight in ([1, 1, 1, 1], [1, 0, 1, 1, 1], [1, 1, -2, 1, 1]):
            with pytest.raises(ValueError):
                independent_set_triangle_free(gen_cycle(5), weight)

    def test_weighted_equals_expanded_unit_run(self):
        # A vertex of weight w is w pairwise non-adjacent copies, numbered
        # vertex by vertex; the weighted run must pick exactly the vertices
        # whose copies the unit-weight run on that expansion picks.
        branches = {"neighborhood": 0, "greedy": 0}
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 24)
            h = _sparse_triangle_free(n, rng.choice((0.03, 0.1, 0.3)), rng)
            weight = [rng.randint(1, 6) for _ in range(n)]
            owner = [x for x in range(h.n) for _ in range(weight[x])]
            first = [owner.index(x) for x in range(h.n)]
            expanded = Multigraph.from_edges(
                len(owner),
                (
                    (first[x] + i, first[y] + j, 1)
                    for x, y, _ in h.edges
                    for i in range(weight[x])
                    for j in range(weight[y])
                ),
            )
            s = independent_set_triangle_free(h, weight)
            unit = independent_set_triangle_free(expanded, [1] * expanded.n)
            assert s == tuple(sorted({owner[p] for p in unit}))
            assert len(unit) == sum(weight[x] for x in s)
            assert 4 * len(unit) ** 2 >= len(owner)
            degree = [0] * h.n
            for x, y, _ in h.edges:
                degree[x] += weight[y]
                degree[y] += weight[x]
            branch = "neighborhood" if 4 * max(degree) ** 2 >= len(owner) else "greedy"
            branches[branch] += 1
        print(f"weighted independent set: {branches}")
        assert min(branches.values()) >= 30


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

    def test_shore_equals_copying_reference(self):
        # Sparse trees split at cut vertices; doubling every multiplicity
        # forces the halving step; the shared adjacency comes back unchanged.
        for seed in range(150):
            rng = random.Random(seed)
            g = rand_connected_multigraph(rng.randint(1, 12), rng.randint(0, 14), 3, seed)
            if seed % 3 == 0:
                g = Multigraph.from_edges(g.n, ((u, v, 2 * w) for u, v, w in g.edges))
            adj = _positive_adj(g, range(g.n))
            for comp in _components(list(adj), adj):
                sub = {x: adj[x] for x in comp}
                before = copy.deepcopy(sub)
                assert _cut_connected_shore(sub) == reference_cut_connected_shore(comp, before)
                assert sub == before

    def test_second_child_flips_to_put_x_on_one_side(self):
        # A triangle 012 with the pendant edge 03.  Vertex 0 is the lowest
        # of odd degree and a cut vertex; {3} is its odd component.  The
        # first child puts 0 on the shore of {0, 3}, the second leaves it
        # off the shore of {0, 1, 2}, so the second child's sides flip.
        g = Multigraph.from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1)])
        adj = _positive_adj(g, range(4))

        def sub(side):
            return {x: {y: m for y, m in adj[x].items() if y in side} for x in side}

        assert 0 in reference_cut_connected_shore([0, 3], sub([0, 3]))
        assert 0 not in reference_cut_connected_shore([0, 1, 2], sub([0, 1, 2]))
        before = copy.deepcopy(adj)
        assert _cut_connected_shore(adj) == reference_cut_connected_shore([0, 1, 2, 3], before) == {0, 2}
        assert adj == before

    def test_halving_branch(self):
        # K4 with every multiplicity 2: all degrees and multiplicities are
        # even, so the top level halves them all for its one child.
        g = Multigraph.from_edges(4, [(u, v, 2) for u, v in itertools.combinations(range(4), 2)])
        adj = _positive_adj(g, range(4))
        assert all(m % 2 == 0 for x_adj in adj.values() for m in x_adj.values())
        before = copy.deepcopy(adj)
        shore = _cut_connected_shore(adj)
        assert shore == reference_cut_connected_shore([0, 1, 2, 3], before)
        assert adj == before
        assert EdgeCut.from_shore(g, frozenset(shore)).size == 8


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
        # They share one adjacency, so memory stays linear in the path.
        n = sys.getrecursionlimit() + 100
        g = Multigraph.from_edges(n, ((i, i + 1, 1) for i in range(n - 1)))
        tracemalloc.start()
        try:
            cut = cut_large(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        e = n - 1
        assert dominates_sqrt(Fraction(cut.size) - Fraction(e, 2), Fraction(e, 16))
        assert peak < 8_000_000

    def test_path_leaves_no_cyclic_garbage(self):
        # Search levels that named themselves left 7 objects to the cyclic
        # collector here.
        g = Multigraph.from_edges(1100, ((i, i + 1, 1) for i in range(1099)))
        assert cyclic_garbage(lambda: cut_large(g)) == 0

    def test_balanced_shore_equals_summing_reference(self):
        # Whole graphs, isolated vertices and several components included.
        dense = 0
        for seed in range(2000):
            rng = random.Random(seed)
            n = rng.randint(1, 16)
            density = rng.uniform(0.2, 0.9)
            g = Multigraph.from_edges(n, [
                (u, v, rng.randint(1, 5))
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < density
            ])
            vertices = list(range(n))
            adj = _positive_adj(g, vertices)
            before = copy.deepcopy(adj)
            assert _balanced_shore(vertices, adj) == reference_balanced_shore(vertices, before)
            assert adj == before
            dense += n * n < 4 * g.total_weight  # cut_large's balanced-branch test
        assert dense >= 1500

    def test_weighted_k150_in_one_pass(self):
        # The balanced branch; summing the expectation over every edge for
        # each placement took 19 s on a 2-core Xeon VM (Python 3.11).
        g = with_random_weights(gen_complete(150), (1, 2, 3), seed=1)
        start = time.process_time()
        cut = cut_large(g)
        assert time.process_time() - start < 2
        e = g.total_weight
        assert dominates_sqrt(Fraction(cut.size) - Fraction(e, 2), Fraction(e, 16))
