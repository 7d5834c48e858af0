from fractions import Fraction

import pytest

from tripack import (
    BudgetExceeded,
    Multigraph,
    Triangle,
    nu_exact,
    tau_exact,
    verify_transversal,
)
from tripack.core import _Budget
from tripack.generators import gen_complete, gen_cycle, gen_random, gen_wheel
from tripack.haxell import (
    _all_slot_edges,
    _search_max_family,
    _slot_triangles,
    build_state,
    candidate_transversals,
    transversal_292,
)

from oracles import triangle_union


def slot_triangles(g):
    return _slot_triangles(g, frozenset(_all_slot_edges(g)))


def max_family_size(items):
    return len(_search_max_family(items, _Budget(1_000_000)))


class TestMaxIndependentFamily:
    """Maximum slot-disjoint families, as ``build_state`` searches them."""

    def test_k4_all_candidates(self):
        assert max_family_size(slot_triangles(gen_complete(4))) == 1

    def test_w5(self):
        assert max_family_size(slot_triangles(gen_wheel(5))) == 2

    def test_k4_share_one_candidates(self):
        base_edges = set(Triangle.of(0, 1, 2).edges)
        candidates = [
            st
            for st in slot_triangles(gen_complete(4))
            if sum(e in base_edges for e in st.tri.edges) == 1
        ]
        assert len(candidates) == 3
        assert max_family_size(candidates) == 1

    def test_capacity_awareness(self):
        g = Multigraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
        # Slots count copies: two slot-disjoint copies of the one triple
        # fit, which is the packing number of the doubled triangle.
        assert max_family_size(slot_triangles(g)) == 2 == nu_exact(g)[0]

    def test_1100_disjoint_triangles(self):
        assert max_family_size(slot_triangles(triangle_union(1100))) == 1100


class TestBuildState:
    def test_triangle_free(self):
        st = build_state(gen_cycle(5))
        assert st.nu == 0 and len(st.b) == 0
        assert st.gamma == 0

    def test_k4(self):
        st = build_state(gen_complete(4))
        assert st.nu == 1
        assert len(st.b) == 1
        assert st.gamma == 1  # one share-one triangle fits
        assert len(st.b1) == 1

    def test_w5(self):
        st = build_state(gen_wheel(5))
        assert st.nu == 2
        assert st.gamma == Fraction(1, 2)
        assert st.alpha + st.eta <= 1 - st.gamma

    def test_scalars_bounded(self):
        for g in [gen_complete(5), gen_complete(6), gen_wheel(6)]:
            st = build_state(g)
            for x in (st.gamma, st.beta, st.alpha, st.delta, st.eta, st.delta0):
                assert 0 <= x <= 3
            assert st.eta_prime <= 2 * st.eta
            assert st.alpha + st.eta <= 1 - st.gamma

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            build_state(gen_complete(6), budget=10)

    @pytest.mark.parametrize("g, nodes", [
        (gen_complete(4), 11),
        (gen_random(9, 18, 2, 0), 1976),
        (gen_random(8, 14, 2, 2), 801),
    ])
    def test_budget_counts_every_search_node(self, g, nodes):
        # The root and each child of every family search cost one node.
        build_state(g, budget=nodes)
        with pytest.raises(BudgetExceeded):
            build_state(g, budget=nodes - 1)

    def test_1100_disjoint_triangles(self):
        assert build_state(triangle_union(1100)).nu == 1100


class TestCandidates:
    def test_k4_candidate_a(self):
        g = gen_complete(4)
        st = build_state(g)
        cands = candidate_transversals(st)
        by_label = {c.label: c for c in cands}
        a = by_label["a"]
        assert a.slot_size <= Fraction(7, 3)  # hence at most 2 edges
        assert verify_transversal(g, a.certificate)

    def test_triangle_free_all_empty(self):
        g = gen_cycle(6)
        cands = candidate_transversals(build_state(g))
        assert len(cands) == 5
        assert all(c.certificate.weight == 0 for c in cands)

    def test_w5_bounds(self):
        g = gen_wheel(5)
        st = build_state(g)
        for c in candidate_transversals(st):
            assert Fraction(c.slot_size) <= c.size_bound
            assert verify_transversal(g, c.certificate)
        best = min(c.slot_size for c in candidate_transversals(st))
        assert best <= 5

    def test_all_verify_on_sample(self):
        for g in [gen_complete(5), gen_complete(6), gen_wheel(6), gen_wheel(7)]:
            st = build_state(g)
            tau, _ = tau_exact(g)
            for c in candidate_transversals(st):
                assert Fraction(c.slot_size) <= c.size_bound
                assert verify_transversal(g, c.certificate)
                assert c.certificate.weight >= tau


class TestTransversal292:
    def test_k4(self):
        cert = transversal_292(gen_complete(4))
        assert cert.weight == 2

    def test_k5(self):
        g = gen_complete(5)
        cert = transversal_292(g)
        assert verify_transversal(g, cert)
        assert tau_exact(g)[0] <= cert.weight <= 5

    def test_triangle_free(self):
        assert transversal_292(gen_cycle(5)).weight == 0

    def test_parallel_edges(self):
        g = Multigraph.from_edges(
            4, [(0, 1, 2), (0, 2, 2), (1, 2, 2), (0, 3, 1), (1, 3, 1), (2, 3, 1)]
        )
        cert = transversal_292(g)
        assert verify_transversal(g, cert)

    def test_random_multigraphs(self):
        for seed in range(20):
            n = 4 + seed % 3
            m = min(6 + seed % 5, n * (n - 1) // 2)
            g = gen_random(n, m, 3, seed)
            cert = transversal_292(g)
            assert verify_transversal(g, cert)
            assert cert.weight >= tau_exact(g)[0]

    def test_deterministic(self):
        g = gen_random(6, 9, 2, 13)
        assert transversal_292(g) == transversal_292(g)
