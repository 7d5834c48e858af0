import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripack import (
    FractionalAssignment,
    Multigraph,
    PackingCertificate,
    Rational,
    TransversalCertificate,
    Triangle,
    enumerate_triangles,
    incidence,
    is_fractional_packing,
    is_fractional_transversal,
    verify_packing,
    verify_transversal,
    weight,
)
from tripack.core import norm_edge
from tripack.generators import gen_complete, gen_cycle, gen_gk, gen_wheel

from oracles import (
    atlas_with_triangle,
    rand_connected_multigraph,
    reference_components,
    relabel,
)


def tri(a, b, c):
    return Triangle.of(a, b, c)


class TestMultigraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Multigraph.from_edges(3, [(1, 1, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Multigraph.from_edges(3, [(0, 1, 1), (1, 0, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Multigraph.from_edges(2, [(0, 2, 1)])

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            Multigraph.from_edges(2, [(0, 1, -1)])

    def test_normalizes_pair_order(self):
        g = Multigraph.from_edges(3, [(2, 0, 5)])
        assert g.edges == ((0, 2, 5),)
        assert g.weight_map[(0, 2)] == 5

    def test_zero_capacity_edge_is_kept(self):
        g = Multigraph.from_edges(3, [(0, 1, 0), (0, 2, 1), (1, 2, 1)])
        assert (0, 1) in g.weight_map
        assert enumerate_triangles(g) == [tri(0, 1, 2)]


class TestEnumerateTriangles:
    def test_k4(self):
        assert len(enumerate_triangles(gen_complete(4))) == 4

    def test_c5(self):
        assert enumerate_triangles(gen_cycle(5)) == []

    def test_g2_has_55(self):
        assert len(enumerate_triangles(gen_gk(2).graph)) == 55

    def test_sorted_canonically(self):
        ts = enumerate_triangles(gen_complete(5))
        assert ts == sorted(ts)

    def test_relabeling_invariance(self):
        rng = random.Random(7)
        for seed in range(20):
            g = rand_connected_multigraph(6, 5, 2, seed)
            perm = list(range(6))
            rng.shuffle(perm)
            h = relabel(g, perm)
            expected = sorted(
                Triangle.of(perm[t.a], perm[t.b], perm[t.c])
                for t in enumerate_triangles(g)
            )
            assert enumerate_triangles(h) == expected


class TestDerivedCache:
    def test_triangles_computed_once(self):
        g = gen_wheel(5)
        assert g.triangles is g.triangles
        assert g.free_edges is g.free_edges
        assert g.lp is g.lp

    def test_enumerate_returns_fresh_list(self):
        g = gen_complete(4)
        tris = enumerate_triangles(g)
        tris.clear()
        assert len(g.triangles) == 4
        assert enumerate_triangles(g) == list(g.triangles)

    def test_cache_does_not_affect_equality(self):
        g = rand_connected_multigraph(7, 8, 3, 1)
        assert g.triangles and g.weight_map and g.free_edges is not None and g.lp
        fresh = Multigraph(g.n, g.edges)
        assert g == fresh and hash(g) == hash(fresh)
        assert {g: 1}[fresh] == 1

    def test_free_edges_brute_force(self):
        rng = random.Random(3)
        for base in atlas_with_triangle():
            g = Multigraph(base.n, tuple((u, v, rng.randrange(3)) for u, v, _ in base.edges))
            expected = [
                (u, v)
                for u, v, w in g.edges
                if w == 0
                and any(
                    norm_edge(u, x) in g.weight_map and norm_edge(v, x) in g.weight_map
                    for x in range(g.n) if x not in (u, v)
                )
            ]
            assert list(g.free_edges) == expected


class TestIncidence:
    def test_single_triangle(self):
        inc = incidence(gen_complete(3))
        assert len(inc.columns) == 1
        assert inc.columns[0] == (0, 1, 2)

    def test_k4_row_sums(self):
        inc = incidence(gen_complete(4))
        assert len(inc.edges) == 6 and len(inc.triangles) == 4
        flat = [i for col in inc.columns for i in col]
        assert all(flat.count(i) == 2 for i in range(len(inc.edges)))

    def test_triangle_free_has_no_columns(self):
        inc = incidence(gen_cycle(6))
        assert inc.columns == ()
        assert inc.on_edge == ((),) * 6 and inc.components == ()

    @staticmethod
    def check_against_brute_force(g):
        inc = incidence(g)
        tris = enumerate_triangles(g)
        assert inc.on_edge == tuple(
            tuple(j for j, t in enumerate(tris) if e in t.edges) for e in inc.edges
        )
        assert inc.components == tuple(map(tuple, reference_components(g)))

    def test_atlas(self):
        for g in atlas_with_triangle():
            self.check_against_brute_force(g)

    def test_random_multigraphs(self):
        several = 0
        for seed in range(60):
            g = rand_connected_multigraph(5 + seed % 6, seed % 7, 2, seed)
            self.check_against_brute_force(g)
            several += len(g.incidence.components) > 1
        assert several >= 10

    def test_components_interleave(self):
        # Triangles (0,1,2) and (1,2,5) share edge (1,2); (0,3,4) lies between
        # them in canonical order and shares only a vertex.
        g = Multigraph.from_edges(
            6, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (0, 4, 1), (3, 4, 1),
                (1, 5, 1), (2, 5, 1)],
        )
        inc = g.incidence
        assert inc.triangles == (tri(0, 1, 2), tri(0, 3, 4), tri(1, 2, 5))
        assert inc.components == ((0, 2), (1,))
        assert inc.on_edge[inc.edges.index((1, 2))] == (0, 2)
        assert g.incidence is inc


class TestVerifyPacking:
    def test_one_triangle_ok(self):
        g = gen_complete(4)
        p = PackingCertificate.from_map({tri(0, 1, 2): 1})
        assert verify_packing(g, p)

    def test_two_triangles_clash(self):
        g = gen_complete(4)
        p = PackingCertificate.from_map({tri(0, 1, 2): 1, tri(0, 1, 3): 1})
        assert not verify_packing(g, p)

    def test_doubled_capacity_takes_all_four(self):
        g = Multigraph.from_edges(4, ((u, v, 2) for u, v, _ in gen_complete(4).edges))
        p = PackingCertificate.from_map({t: 1 for t in enumerate_triangles(g)})
        assert verify_packing(g, p)

    def test_unknown_triangle_raises(self):
        with pytest.raises(ValueError):
            verify_packing(gen_cycle(4), PackingCertificate.from_map({tri(0, 1, 2): 1}))

    def test_matches_counting_oracle(self):
        rng = random.Random(3)
        for seed in range(30):
            g = rand_connected_multigraph(6, 6, 2, seed)
            tris = enumerate_triangles(g)
            if not tris:
                continue
            mult = {t: rng.randint(0, 2) for t in tris}
            p = PackingCertificate.from_map(mult)
            load = {}
            for t, m in mult.items():
                for e in t.edges:
                    load[e] = load.get(e, 0) + m
            expected = all(load[e] <= g.weight_map[e] for e in load)
            assert verify_packing(g, p) == expected


class TestVerifyTransversal:
    def test_single_edge_covers_triangle(self):
        g = gen_complete(3)
        assert verify_transversal(g, TransversalCertificate.from_edges(g, [(0, 1)]))

    def test_k4_perfect_matching(self):
        g = gen_complete(4)
        assert verify_transversal(g, TransversalCertificate.from_edges(g, [(0, 1), (2, 3)]))

    def test_w5_two_spokes_fail(self):
        g = gen_wheel(5)
        c = TransversalCertificate.from_edges(g, [(0, 1), (0, 2)])
        assert not verify_transversal(g, c)

    def test_unknown_edge_raises(self):
        g = gen_complete(3)
        with pytest.raises(ValueError):
            verify_transversal(g, TransversalCertificate(frozenset({(0, 4)}), 0))


class TestWeight:
    def test_empty(self):
        assert weight(gen_complete(4), ()) == 0

    def test_matching(self):
        assert weight(gen_complete(4), [(0, 1), (2, 3)]) == 2

    def test_doubled(self):
        g = Multigraph.from_edges(4, ((u, v, 2) for u, v, _ in gen_complete(4).edges))
        assert weight(g, [(0, 1), (2, 3)]) == 4

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            weight(gen_cycle(4), [(0, 2)])


class TestFractionalAssignment:
    def test_packing_feasibility(self):
        g = gen_complete(3)
        f = FractionalAssignment.on_triangles(g, {tri(0, 1, 2): Fraction(1)})
        assert is_fractional_packing(g, f)
        f2 = FractionalAssignment.on_triangles(g, {tri(0, 1, 2): Fraction(3, 2)})
        assert not is_fractional_packing(g, f2)

    def test_transversal_feasibility(self):
        g = gen_complete(3)
        f = FractionalAssignment.on_edges(g, {e: Fraction(1, 3) for e in [(0, 1), (0, 2), (1, 2)]})
        assert is_fractional_transversal(g, f)
        assert f.value == 1
        short = FractionalAssignment.on_edges(g, {(0, 1): Fraction(1, 2)})
        assert not is_fractional_transversal(g, short)

    def test_weighted_value(self):
        g = Multigraph.from_edges(2, [(0, 1, 3)])
        f = FractionalAssignment.on_edges(g, {(0, 1): Fraction(1, 2)})
        assert f.value == Fraction(3, 2)

    def test_rejects_negative(self):
        g = gen_complete(3)
        with pytest.raises(ValueError):
            FractionalAssignment.on_edges(g, {(0, 1): Fraction(-1, 2)})


rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64
)


class TestRationalArithmetic:
    @given(rationals, rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_field_axioms(self, x, y, z):
        assert x + (y + z) == (x + y) + z
        assert x * (y * z) == (x * y) * z
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        if y != 0:
            assert (x / y) * y == x

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_always_reduced(self, p, q):
        import math

        r = Rational(p, q)
        assert r.denominator > 0
        assert math.gcd(r.numerator, r.denominator) == 1
