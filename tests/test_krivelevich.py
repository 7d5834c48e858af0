import tracemalloc
from fractions import Fraction

import pytest

from tripack import (
    FractionalAssignment,
    Multigraph,
    TransversalCertificate,
    Triangle,
    dominates_sqrt,
    enumerate_triangles,
    lp_optimal,
    verify_transversal,
)
from tripack.core import _drop_redundant
from tripack.exact import LPSolution
from tripack.generators import (
    gen_apex,
    gen_complete,
    gen_cycle,
    gen_gk,
    gen_random,
    gen_stacked,
    gen_wheel,
    with_random_weights,
)
from tripack.krivelevich import classify, transversal_2nustar

from oracles import rand_connected_multigraph, reference_transversal_2nustar


def _scaled_w5(capacity: int) -> Multigraph:
    return Multigraph.from_edges(6, ((u, v, capacity) for u, v, _ in gen_wheel(5).edges))


def _reference_corpus():
    """Seeded graphs, many of them with positive half-value edges."""
    for s in range(300):
        yield gen_stacked(4 + s % 12, seed=s)
    for s in range(300):
        yield with_random_weights(gen_wheel(3 + s % 9), (2, 2, 2, 3, 7), seed=s)
    for s in range(250):
        yield with_random_weights(gen_apex(gen_cycle(5 + 2 * (s % 4))), (1, 1, 2), seed=s)
    for s in range(140):
        yield with_random_weights(gen_gk(1).graph, (1, 2), seed=s)
    yield gen_gk(2).graph
    for s in range(1, 12):
        yield with_random_weights(gen_gk(2).graph, (1, 2), seed=s)


class TestClassify:
    def test_single_triangle_uniform(self):
        g = gen_complete(3)
        t = Triangle.of(0, 1, 2)
        sol = LPSolution(
            packing=FractionalAssignment.on_triangles(g, {t: Fraction(1)}),
            transversal=FractionalAssignment.on_edges(
                g, {e: Fraction(1, 3) for e in t.edges}
            ),
            value=Fraction(1),
        )
        part, tpart = classify(g, sol)
        assert part.Z == () and part.B == () and part.C == ()
        assert set(part.A) == set(t.edges) and part.a == 3
        assert tpart.T3 == (t,)
        assert tpart.T1 == tpart.T2 == tpart.T4 == tpart.T5 == ()

    def test_w5_half_on_spokes(self):
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
        part, tpart = classify(g, sol)
        assert part.A == () and part.C == ()
        assert set(part.B) == set(spokes) and part.b == 5
        assert len(part.Z) == 5
        assert set(tpart.T5) == set(tris)

    def test_triangle_free(self):
        g = gen_cycle(5)
        part, tpart = classify(g, lp_optimal(g))
        assert len(part.Z) == 5
        assert tpart.T1 == tpart.T2 == tpart.T3 == tpart.T4 == tpart.T5 == ()

    def test_rejects_non_optimal(self):
        g = gen_complete(3)
        t = Triangle.of(0, 1, 2)
        bogus = LPSolution(
            packing=FractionalAssignment.on_triangles(g, {t: Fraction(1, 2)}),
            transversal=FractionalAssignment.on_edges(g, {(0, 1): Fraction(1)}),
            value=Fraction(1),
        )
        with pytest.raises(ValueError):
            classify(g, bogus)

    def test_heavy_side_tolerated(self):
        # The optimal basis of K4 puts value 1 on a perfect matching, so the
        # above-1/2 side outweighs the below-1/2 side; the partition must
        # still come out consistent rather than failing.
        g = gen_complete(4)
        part, tpart = classify(g, lp_optimal(g))
        assert part.a == 0 and part.c == 2
        assert len(tpart.T4) == 4

    def test_partition_identities_on_solver_output(self):
        for seed in range(25):
            g = rand_connected_multigraph(6, 7, 3, seed)
            classify(g, lp_optimal(g))  # identity violations raise internally


class TestTransversal2NuStar:
    def test_triangle_free_empty(self):
        cert = transversal_2nustar(gen_cycle(5))
        assert cert.edges == frozenset() and cert.weight == 0

    def test_single_triangle(self):
        g = gen_complete(3)
        cert = transversal_2nustar(g)
        assert cert.weight == 1
        assert verify_transversal(g, cert)

    def test_w5_three_spokes(self):
        g = gen_wheel(5)
        cert = transversal_2nustar(g)
        assert cert.weight == 3
        assert all(e[0] == 0 for e in cert.sorted_edges())

    def test_k4_despite_heavy_side(self):
        g = gen_complete(4)
        cert = transversal_2nustar(g)
        assert cert.weight == 2

    def test_g1(self):
        g = gen_gk(1).graph
        cert = transversal_2nustar(g)
        assert verify_transversal(g, cert)
        assert cert.weight == 3

    def test_zero_capacity_triangles(self):
        g = Multigraph.from_edges(3, [(0, 1, 0), (0, 2, 1), (1, 2, 1)])
        cert = transversal_2nustar(g)
        assert cert.weight == 0
        assert verify_transversal(g, cert)

    def test_bound_and_validity_on_ensemble(self):
        for seed in range(40):
            g = rand_connected_multigraph(5 + seed % 4, 6 + seed % 6, 3, seed)
            cert = transversal_2nustar(g)
            assert verify_transversal(g, cert)
            star = lp_optimal(g).value
            slack = 2 * star - cert.weight
            assert dominates_sqrt(slack, star / 16)

    def test_intermediate_bound_when_sides_ordered(self):
        # When the below-1/2 side dominates, the cover also respects
        # the partition-level bound 2 x - sqrt(x)/4 at x = a/4 + (b+c)/2.
        for seed in range(25):
            g = rand_connected_multigraph(6, 7, 2, seed)
            if not enumerate_triangles(g):
                continue
            sol = lp_optimal(g)
            part, _ = classify(g, sol)
            if part.a < part.c or part.a + part.b + part.c == 0:
                continue
            cert = transversal_2nustar(g)
            x = Fraction(part.a, 4) + Fraction(part.b + part.c, 2)
            assert dominates_sqrt(2 * x - cert.weight, x / 16)

    def test_equals_slot_expanded_reference(self):
        # The reference builds the cover before reverse-delete.
        graphs = with_half_edges = trimmed = 0
        for g in _reference_corpus():
            built = reference_transversal_2nustar(g)
            cert = transversal_2nustar(g)
            assert cert == TransversalCertificate.from_edges(g, _drop_redundant(g, built.edges))
            graphs += 1
            trimmed += cert != built
            part, _ = classify(g, g.lp)
            with_half_edges += any(g.weight_map[e] > 0 for e in part.B)
        assert graphs >= 1000 and with_half_edges >= 40 and trimmed >= 20

    def test_no_positive_edge_can_be_dropped(self):
        for g in _reference_corpus():
            cert = transversal_2nustar(g)
            for e in cert.edges:
                if g.weight_map[e]:
                    assert not verify_transversal(g, TransversalCertificate.from_edges(g, cert.edges - {e}))

    @pytest.mark.parametrize(
        "g, built, weight",
        [
            (gen_stacked(150, seed=1), 161, 150),
            (gen_stacked(50, seed=1), 52, 49),
            (gen_random(15, 52, 2, 0), 29, 24),
        ],
        ids=["S150", "S50", "R15,52-0"],
    )
    def test_reverse_delete_lightens_the_cover(self, g, built, weight):
        assert reference_transversal_2nustar(g).weight == built
        assert transversal_2nustar(g).weight == weight

    def test_w5_large_capacity_stays_small(self):
        # One conflict vertex per spoke class, not one per parallel copy.
        g = _scaled_w5(1000)
        tracemalloc.start()
        try:
            cert = transversal_2nustar(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.weight == 3000
        assert peak < 1 << 20
        assert transversal_2nustar(_scaled_w5(10**6)).weight == 3_000_000
