import random
from fractions import Fraction

import pytest

import tripack.exact
from tripack import (
    FractionalAssignment,
    Multigraph,
    Triangle,
    enumerate_triangles,
    lp_optimal,
    nu_exact,
    tau_exact,
    tight_sets,
    verify_packing,
    verify_transversal,
)
from tripack.exact import LPSolution, _simplex_packing
from tripack.generators import gen_complete, gen_cycle, gen_gk, gen_wheel, gk_optimum
from tripack.krivelevich import transversal_2nustar

from oracles import (
    brute_nu,
    brute_tau,
    rand_connected_multigraph,
    rand_triangle_free,
    reference_simplex_packing,
    triangle_union,
)


def doubled(g):
    return Multigraph.from_edges(g.n, ((u, v, 2 * w) for u, v, w in g.edges))


class TestNuExact:
    def test_k4(self):
        assert nu_exact(gen_complete(4))[0] == 1

    def test_w5(self):
        assert nu_exact(gen_wheel(5))[0] == 2

    def test_k4_doubled(self):
        assert nu_exact(doubled(gen_complete(4)))[0] == 4

    def test_triangle_free(self):
        value, cert = nu_exact(gen_cycle(5))
        assert value == 0 and cert.multiplicities == {}

    def test_certificate_verifies(self):
        for g in [gen_complete(5), gen_wheel(6), doubled(gen_wheel(5))]:
            value, cert = nu_exact(g)
            assert cert.value == value
            assert verify_packing(g, cert)

    def test_1100_disjoint_triangles(self):
        g = triangle_union(1100)
        nu, cert = nu_exact(g)
        assert nu == 1100 == cert.value
        assert verify_packing(g, cert)


class TestTauExact:
    def test_k4(self):
        assert tau_exact(gen_complete(4))[0] == 2

    def test_k5(self):
        assert tau_exact(gen_complete(5))[0] == 4

    def test_w5(self):
        assert tau_exact(gen_wheel(5))[0] == 3

    def test_zero_weight_edges_are_free(self):
        g = Multigraph.from_edges(3, [(0, 1, 0), (0, 2, 2), (1, 2, 2)])
        value, cert = tau_exact(g)
        assert value == 0
        assert verify_transversal(g, cert)

    def test_certificate_verifies(self):
        for g in [gen_complete(6), doubled(gen_wheel(5))]:
            value, cert = tau_exact(g)
            assert cert.weight == value
            assert verify_transversal(g, cert)

    def test_1100_disjoint_triangles(self):
        g = triangle_union(1100)
        tau, cert = tau_exact(g)
        assert tau == 1100 == cert.weight
        assert verify_transversal(g, cert)


class TestLPOptimal:
    def test_k4(self):
        assert lp_optimal(gen_complete(4)).value == 2

    def test_g1(self):
        assert lp_optimal(gen_gk(1).graph).value == Fraction(5, 2)

    def test_c5(self):
        sol = lp_optimal(gen_cycle(5))
        assert sol.value == 0

    def test_values_agree(self):
        for seed in range(15):
            g = rand_connected_multigraph(6, 6, 3, seed)
            sol = lp_optimal(g)
            assert sol.packing.value == sol.transversal.value == sol.value

    def test_deterministic(self):
        g = rand_connected_multigraph(7, 8, 3, 11)
        a, b = lp_optimal(g), lp_optimal(g)
        assert a.packing.triangle_values == b.packing.triangle_values
        assert a.transversal.edge_values == b.transversal.edge_values

    def test_solvers_read_the_cached_optimum(self, monkeypatch):
        g = gen_wheel(5)
        sol = g.lp
        solved = []
        real = tripack.exact._simplex_packing

        def counting(h):
            solved.append(h)
            return real(h)

        monkeypatch.setattr(tripack.exact, "_simplex_packing", counting)
        nu_exact(g)
        transversal_2nustar(g)
        assert solved == []
        assert lp_optimal(g) == sol and solved == [g]
        assert g.lp is sol


class TestSimplexAgainstReference:
    """The sparse integer tableau takes the dense reference's pivots exactly."""

    def test_atlas_with_capacities_0_to_3(self):
        import networkx as nx

        rng = random.Random(7)
        for G in nx.graph_atlas_g():
            if G.number_of_edges() < 3:
                continue
            g = Multigraph.from_edges(
                G.number_of_nodes(), ((u, v, rng.randint(0, 3)) for u, v in G.edges())
            )
            if enumerate_triangles(g):
                assert _simplex_packing(g) == reference_simplex_packing(g)

    def test_random_multigraphs(self):
        for seed in range(20):
            g = rand_connected_multigraph(8, 12, 3, seed)
            assert _simplex_packing(g) == reference_simplex_packing(g)

    def test_gk(self):
        for k in (1, 2):
            g = gen_gk(k).graph
            got = _simplex_packing(g)
            assert got == reference_simplex_packing(g)
            assert got[2] == gk_optimum(k)

    def test_triangle_free(self):
        g = rand_triangle_free(9, 3)
        assert _simplex_packing(g) == reference_simplex_packing(g) == ({}, {}, 0)


class TestTightSets:
    def test_single_triangle_manual(self):
        g = gen_complete(3)
        t = Triangle.of(0, 1, 2)
        sol = LPSolution(
            packing=FractionalAssignment.on_triangles(g, {t: Fraction(1)}),
            transversal=FractionalAssignment.on_edges(
                g, {e: Fraction(1, 3) for e in t.edges}
            ),
            value=Fraction(1),
        )
        ts = tight_sets(g, sol)
        assert set(ts.tight_edges) == set(t.edges)
        assert ts.tight_triangles == (t,)

    def test_w5_manual(self):
        g = gen_wheel(5)
        spokes = [(0, i) for i in range(1, 6)]
        tris = enumerate_triangles(g)
        sol = LPSolution(
            packing=FractionalAssignment.on_triangles(
                g, {t: Fraction(1, 2) for t in tris}
            ),
            transversal=FractionalAssignment.on_edges(
                g, {e: Fraction(1, 2) for e in spokes}
            ),
            value=Fraction(5, 2),
        )
        ts = tight_sets(g, sol)
        assert set(ts.tight_edges) == set(spokes)
        assert set(ts.tight_triangles) == set(tris)

    def test_triangle_free_empty(self):
        g = gen_cycle(5)
        ts = tight_sets(g, lp_optimal(g))
        assert ts.tight_triangles == ()

    def test_rejects_non_optimal_pair(self):
        g = gen_complete(3)
        t = Triangle.of(0, 1, 2)
        bogus = LPSolution(
            packing=FractionalAssignment.on_triangles(g, {t: Fraction(1, 2)}),
            transversal=FractionalAssignment.on_edges(g, {(0, 1): Fraction(1)}),
            value=Fraction(1),
        )
        with pytest.raises(ValueError):
            tight_sets(g, bogus)


class TestOracleEquivalence:
    def test_all_4_vertex_graphs(self):
        import itertools

        pairs = list(itertools.combinations(range(4), 2))
        for bits in range(64):
            edges = [pairs[i] for i in range(6) if bits >> i & 1]
            for w in (1, 2):
                g = Multigraph.from_edges(4, ((u, v, w) for u, v in edges))
                assert nu_exact(g)[0] == brute_nu(g)
                assert tau_exact(g)[0] == brute_tau(g)

    def test_random_5_vertex(self):
        rng = random.Random(0)
        for seed in range(40):
            g = rand_connected_multigraph(5, rng.randint(0, 6), 2, seed)
            assert nu_exact(g)[0] == brute_nu(g)
            assert tau_exact(g)[0] == brute_tau(g)


class TestInequalityChain:
    def test_chain_on_small_corpus(self):
        corpus = [gen_complete(n) for n in (3, 4, 5, 6)]
        corpus += [gen_wheel(k) for k in (3, 4, 5, 6)]
        corpus += [rand_connected_multigraph(6, 7, 3, s) for s in range(10)]
        for g in corpus:
            nu, _ = nu_exact(g)
            tau, _ = tau_exact(g)
            star = lp_optimal(g).value
            assert Fraction(tau) >= star >= Fraction(nu)
            assert 2 * nu >= star
