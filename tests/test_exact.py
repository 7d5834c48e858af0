import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import tripack.core
import tripack.exact
from tripack import (
    FractionalAssignment,
    InvariantViolation,
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
from tripack.core import _drop_redundant, weight
from tripack.exact import LPSolution, _simplex_packing, max_type_packing
from tripack.generators import (
    gen_complete,
    gen_cycle,
    gen_gk,
    gen_random,
    gen_stacked,
    gen_wheel,
    gk_optimum,
    with_random_weights,
)
from tripack.krivelevich import transversal_2nustar

from oracles import (
    atlas_with_triangle,
    brute_nu,
    brute_type_packing,
    brute_tau,
    rand_connected_multigraph,
    rand_triangle_free,
    reference_drop_redundant,
    reference_lp_cover,
    reference_lp_packing,
    reference_nu_exact,
    reference_simplex_packing,
    reference_tau_exact,
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


class TestTypePackingAgainstBruteForce:
    """The multiplicity branch and bound against full enumeration."""

    def test_seeded_type_systems(self):
        for seed in range(300):
            rng = random.Random(seed)
            nres = rng.randint(3, 6)
            caps = [rng.randint(0, 3) for _ in range(nres)]
            types = [tuple(rng.sample(range(nres), 3)) for _ in range(rng.randint(1, 6))]
            gains = [rng.randint(0, 2) for _ in types]
            # Up to the largest conceivable gain plus one, so some are unreachable.
            top = sum(g * min(caps[o] for o in t) for t, g in zip(types, gains))
            target = rng.randint(0, top + 1)
            expected = brute_type_packing(types, caps, gains, target)
            ceiling = None
            if expected is not None and seed % 2:
                ceiling = sum(expected) + rng.randint(0, 2)
            got = max_type_packing(types, caps, gains=gains, target=target, ceiling=ceiling)
            if expected is None:
                assert got is None, seed
                continue
            assert got == expected, seed
            for o, c in enumerate(caps):
                assert sum(m for t, m in zip(types, got) if o in t) <= c
            assert sum(m * g for m, g in zip(got, gains)) >= target


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

    @pytest.mark.parametrize(
        "g, tau",
        [
            (with_random_weights(gen_stacked(20, seed=1), (1, 2, 3), seed=1), 28),
            (gen_random(14, 46, 2, 1), 22),
        ],
        ids=["S20w", "R14,46-1"],
    )
    def test_lp_bound_closes_the_search(self, g, tau):
        # With the greedy packing bound these took about 11.5 s and 3.2 s
        # of CPU (Python 3.11, shared 2-core x86 machine).
        start = time.process_time()
        value, cert = tau_exact(g)
        assert time.process_time() - start < 2
        assert value == cert.weight == tau
        assert verify_transversal(g, cert)


def check_nu(g):
    """ν against the search from the empty packing; True if the rounding of x* was optimal.

    Where it was, the certificate is that rounding; elsewhere it is the
    one the search from the empty packing returns.
    """
    value, cert = nu_exact(g)
    reference = reference_nu_exact(g)
    assert value == cert.value == reference[0]
    assert verify_packing(g, cert)
    start = reference_lp_packing(g)
    if sum(start.values()) == value:
        assert cert.multiplicities == start
        return True
    assert (value, cert) == reference
    return False


def check_tau(g):
    """τ against the greedy-bounded search; True if the cover from y* was optimal."""
    value, cert = tau_exact(g)
    reference = reference_tau_exact(g)
    assert value == cert.weight == reference[0]
    assert verify_transversal(g, cert)
    incumbent = reference_lp_cover(g)
    if weight(g, incumbent) == value:
        assert cert.edges == incumbent | set(g.free_edges)
        return True
    assert (value, cert) == reference
    return False


def atlas_0_to_3():
    for seed, base in enumerate(atlas_with_triangle()):
        rng = random.Random(seed)
        yield Multigraph(base.n, tuple((u, v, rng.choice((0, 1, 2, 3))) for u, v, _ in base.edges))


def random_corpus():
    for n in range(5, 12):
        for mult, m in ((2, min(2 * n + 1, n * (n - 1) // 2)), (3, n + 3)):
            for seed in range(8):
                yield gen_random(n, m, mult, seed)


class TestTauAgainstReference:
    """The search from the cover read off y* returns the greedy-bounded
    search's value, and its first optimum wherever that cover is not optimal."""

    def test_atlas_with_capacities_0_to_3(self):
        for g in atlas_0_to_3():
            check_tau(g)

    def test_random_multigraphs(self):
        kinds = Counter(check_tau(g) for g in random_corpus())
        assert kinds[True] >= 50 and kinds[False] >= 1

    @pytest.mark.parametrize("n", range(9, 15))
    def test_weighted_stacked(self, n):
        check_tau(with_random_weights(gen_stacked(n, seed=1), (1, 2, 3), seed=1))


class TestIncumbents:
    """ν and τ equal the brute-force and reference values wherever the LP
    incumbents are optimal and wherever they are not."""

    def test_atlas_against_brute_force(self):
        kinds = Counter()
        for g in atlas_0_to_3():
            assert nu_exact(g)[0] == brute_nu(g)
            assert tau_exact(g)[0] == brute_tau(g)
            kinds[check_nu(g)] += 1
        assert kinds[True] >= 100 and kinds[False] >= 1

    def test_random_against_brute_force(self):
        kinds = Counter()
        for g in random_corpus():
            if g.n <= 7:
                assert nu_exact(g)[0] == brute_nu(g)
                assert tau_exact(g)[0] == brute_tau(g)
            kinds[check_nu(g)] += 1
        assert kinds[True] >= 40 and kinds[False] >= 5

    def test_weighted_stacked(self):
        kinds = Counter()
        for n in range(9, 15):
            kinds[check_nu(with_random_weights(gen_stacked(n, seed=1), (1, 2, 3), seed=1))] += 1
        assert kinds[True] >= 1 and kinds[False] >= 1

    def test_s13_rounding_falls_one_short(self):
        g = with_random_weights(gen_stacked(13, seed=2), (1, 2, 3), seed=2)
        assert sum(reference_lp_packing(g).values()) == 19
        assert nu_exact(g)[0] == 20 == g.lp.value
        assert not check_nu(g)

    def test_reverse_delete_matches_full_rechecks(self):
        for g in [*atlas_0_to_3(), *random_corpus()]:
            cover = [e for t in g.triangles for e in t.edges]
            assert set(_drop_redundant(g, cover)) == reference_drop_redundant(g, cover)

    def test_start_that_overdraws_a_resource_raises(self):
        types, caps = [(0, 1, 2), (0, 3, 4)], [1, 1, 1, 1, 1]
        assert max_type_packing(types, caps, start=[1, 0]) == [1, 0]
        for start in ([1, 1], [2, 0], [-1, 0], [1]):
            with pytest.raises(InvariantViolation):
                max_type_packing(types, caps, start=start)
        with pytest.raises(InvariantViolation):
            max_type_packing(types, caps, gains=[0, 1], target=1, start=[1, 0])

    def test_start_below_the_stop_gives_way_to_the_first_optimum(self):
        # One type overlaps two disjoint ones; from either single type the
        # search finds the pair, as it does from the empty packing.
        types, caps = [(0, 1, 2), (3, 4, 5), (0, 3, 6)], [1] * 7
        assert max_type_packing(types, caps, start=[0, 0, 1]) == [1, 1, 0]
        assert max_type_packing(types, caps, start=[1, 0, 0]) == [1, 1, 0]

    def test_h8_rounding_is_optimal(self):
        # The search from the empty packing ran for more than 200 s of CPU
        # here (Python 3.11, shared 2-core x86 machine): x* is integral.
        g = with_random_weights(gen_stacked(8, seed=1), (40, 50), seed=1)
        g.lp
        start = time.process_time()
        value, cert = nu_exact(g)
        assert time.process_time() - start < 1
        assert value == 260 == g.lp.value
        assert cert.multiplicities == reference_lp_packing(g)


class TestLPOptimal:
    def test_k4(self):
        assert lp_optimal(gen_complete(4)).value == 2

    def test_disjoint_union_merges_its_pieces(self):
        # Every triangle-connected component is solved on its own, so the
        # union's optimum is its pieces' optima side by side.
        pieces = [
            gen_complete(4),
            with_random_weights(gen_complete(6), (0, 1, 2, 3), seed=3),
            gen_gk(1).graph,
            rand_connected_multigraph(7, 8, 3, 5),
            gen_cycle(5),
            gen_complete(8),
        ]
        items, packing, cover, value, offset = [], {}, {}, Fraction(0), 0
        for h in pieces:
            sol = lp_optimal(h)
            items += [(u + offset, v + offset, w) for u, v, w in h.edges]
            packing.update(
                {Triangle.of(*(v + offset for v in t)): x for t, x in sol.packing.triangle_values.items()}
            )
            cover.update({(u + offset, v + offset): y for (u, v), y in sol.transversal.edge_values.items()})
            value += sol.value
            offset += h.n
        sol = lp_optimal(Multigraph.from_edges(offset, items))
        assert sol.packing.triangle_values == packing
        assert sol.transversal.edge_values == cover
        assert sol.value == value

    def test_5000_disjoint_triangles(self):
        # A single simplex over all 5,000 components took 2.7 s of CPU
        # (Python 3.11, shared 2-core x86 machine).
        g = triangle_union(5000)
        start = time.process_time()
        sol = lp_optimal(g)
        assert time.process_time() - start < 1
        assert sol.value == 5000 and len(sol.packing.triangle_values) == 5000
        # One bitmask of covered triangles per edge made tau_exact's traced
        # peak 12.7 MiB here; counts per triangle over g.incidence take 1.8 MiB.
        g.lp
        tracemalloc.start()
        try:
            tau = tau_exact(g)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tau == 5000 and peak < 4 * 2**20

    def test_20000_disjoint_triangles_allocate_one_component_at_a_time(self):
        # Rows of B^-1 for every edge up front made the traced peak 50.2 MiB
        # here; built per component, it is 5.0 MiB, of which the result
        # takes 3.1 MiB.
        g = triangle_union(20000)
        g.incidence
        tracemalloc.start()
        try:
            x, y, value = _simplex_packing(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 20000 and len(x) == len(y) == 20000
        assert peak < 10 * 2**20

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
        solved, indexed = [], []
        real = tripack.exact._simplex_packing

        def counting(h):
            solved.append(h)
            return real(h)

        monkeypatch.setattr(tripack.exact, "_simplex_packing", counting)
        monkeypatch.setattr(tripack.core, "incidence", indexed.append)
        nu_exact(g)
        tau_exact(g)
        transversal_2nustar(g)
        assert solved == [] and indexed == []
        assert lp_optimal(g) == sol and solved == [g]
        assert g.lp is sol


class TestSimplexAgainstReference:
    """The revised simplex takes the dense reference's pivots exactly."""

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

    def test_dense_weighted_k6_to_k8(self):
        # Dense, degenerate tableaux: many ties in the ratio test.
        for n in (6, 7, 8):
            for seed in range(6):
                g = with_random_weights(gen_complete(n), (0, 1, 2, 3), seed=100 * n + seed)
                assert _simplex_packing(g) == reference_simplex_packing(g)

    def test_bland_fallback_on_k8(self, monkeypatch):
        # With ratio-test ties to the sparsest row, no unit K4-K13 reaches 20
        # degenerate pivots in a row, so the run is cut to 2 on both sides.
        # The unit K8 then takes 9 Bland pivots, and they lead to another
        # optimal vertex than largest-coefficient pricing alone would.
        monkeypatch.setattr(tripack.exact, "DEGENERATE_RUN", 2)
        g = gen_complete(8)
        log = []
        got = reference_simplex_packing(g, degenerate_run=2, log=log)
        assert sum(bland for bland, _ in log) == 9
        assert _simplex_packing(g) == got
        assert reference_simplex_packing(g, degenerate_run=None) != got

    def test_edges_on_no_triangle(self):
        # A bridge, a triangle-free part and a pendant edge hang off the
        # triangles; their duals stay 0.
        for seed in range(20):
            rng = random.Random(seed)
            g = rand_connected_multigraph(7, 8, 3, seed)
            tail = rand_triangle_free(6, seed)
            items = list(g.edges) + [(u + 7, v + 7, rng.randint(0, 3)) for u, v, _ in tail.edges]
            items += [(rng.randrange(7), 7 + rng.randrange(6), rng.randint(1, 3)), (12, 13, 2)]
            h = Multigraph.from_edges(14, items)
            on_tri = {e for t in h.triangles for e in t.edges}
            assert on_tri and len(on_tri) < len(h.edges)
            x, y, value = _simplex_packing(h)
            assert (x, y, value) == reference_simplex_packing(h)
            assert set(y) <= on_tri


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
