import gc
import random
import signal
import time
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

import tripack.core
import tripack.exact
from tripack import (
    BudgetExceeded,
    InvariantViolation,
    Multigraph,
    Triangle,
    lp_optimal,
    nu_exact,
    tau_exact,
    tight_sets,
    verify_packing,
    verify_transversal,
)
from tripack.core import _Budget, _drop_redundant, enumerate_triangles, weight
from tripack.exact import LPSolution, _lane_width, _simplex_packing, max_type_packing
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
from tripack.haxell import transversal_292
from tripack.krivelevich import transversal_2nustar

from oracles import (
    atlas_with_triangle,
    brute_nu,
    brute_type_packing,
    brute_tau,
    cyclic_garbage,
    lp_assignments,
    lp_solution,
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


def simplex(g):
    """``_simplex_packing`` on the triangle/edge LP of ``g``, as ``reference_simplex_packing``'s
    (x, y, value): ``Fraction``s by triangle and by edge, without zeros."""
    inc = g.incidence
    xden, x, yden, y = _simplex_packing(inc.columns, [w for *_, w in g.edges])
    return ({inc.triangles[j]: Fraction(v, xden) for j, v in enumerate(x) if v},
            {inc.edges[i]: Fraction(v, yden) for i, v in enumerate(y) if v}, Fraction(sum(x), xden))


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
            gains = [rng.randint(0, 1) for _ in types]
            # The kernel's gain target: the most gaining types that fit together.
            gaining = [t for t, w in zip(types, gains) if w]
            top = sum(brute_type_packing(gaining, caps, [0] * len(gaining), 0))
            expected = brute_type_packing(types, caps, gains, top)
            got = max_type_packing(types, caps, (3, [1] * nres), gains=gains)
            # Every dual returns what the uniform third does: a random one
            # over 12, a/b with a in 0..4 and b in 1..4, raised until every
            # type costs at least 1, and the LP's own y*.
            price = [rng.randint(0, 4) * (12 // rng.randint(1, 4)) for _ in range(nres)]
            for t in types:
                short = 12 - sum(price[o] for o in t)
                if short > 0:
                    price[t[0]] += short
            for d in ((12, price), _simplex_packing(types, caps)[2:]):
                assert max_type_packing(types, caps, d, gains=gains) == got, seed
            assert got == expected, seed
            for o, c in enumerate(caps):
                assert sum(m for t, m in zip(types, got) if o in t) <= c
            assert sum(m * g for m, g in zip(got, gains)) >= top

    def test_lp_dual_stops_at_the_floor_of_the_lp_value(self):
        # Priced by the LP's own y*, the root bound is the LP value, so an
        # optimum that reaches its floor comes back before the first node.
        cases = []
        for seed in range(300):
            rng = random.Random(seed)
            nres = rng.randint(3, 6)
            caps = [rng.randint(0, 3) for _ in range(nres)]
            types = [tuple(rng.sample(range(nres), 3)) for _ in range(rng.randint(1, 6))]
            xden, x, yden, y = _simplex_packing(types, caps)
            best = brute_type_packing(types, caps, [0] * len(types), 0)
            cases.append((types, caps, (yden, y), Fraction(sum(x), xden), best))
        for g in atlas_0_to_3():
            inc = g.incidence
            packing = nu_exact(g)[1].multiplicities
            best = [packing.get(t, 0) for t in inc.triangles]
            assert sum(best) == brute_nu(g)
            cases.append((inc.columns, [w for *_, w in g.edges], (g.lp.yden, g.lp.y), g.lp.value, best))
        tight = 0
        for types, caps, y, value, best in cases:
            if sum(best) == int(value):
                assert max_type_packing(types, caps, y, start=best, budget=_Budget(0)) == best
                tight += 1
        assert tight >= 400

    def test_infeasible_dual_raises(self):
        types, caps = [(0, 1, 2), (0, 3, 4)], [1] * 5
        assert max_type_packing(types, caps, dual=(3, [1] * 5)) == [1, 0]
        assert max_type_packing(types, caps, dual=(12, [4, 4, 4, 4, 4])) == [1, 0]
        bad = [
            (0, [1] * 5),  # a zero denominator
            (-3, [1] * 5),  # a negative one
            (3, [1] * 4),  # too short
            (3, [1] * 6),  # too long
            (3, [3, -1, 1, 1, 3]),  # a negative price, though every type costs at least 1
            (12, [4, 4, 4, 4, 3]),  # the second type costs 11/12
        ]
        for dual in bad:
            with pytest.raises(InvariantViolation):
                max_type_packing(types, caps, dual=dual)

    def test_target_without_gaining_type(self):
        # No type gains, so the target is 0 and the plain maximum comes back.
        types, caps, third = [(0, 1, 2), (2, 3, 4)], [2] * 5, (3, [1] * 5)
        assert max_type_packing(types, caps, third, gains=[0, 0]) == [2, 0]
        assert max_type_packing(types, caps, third) == [2, 0]

    def test_gains_other_than_0_or_1_raise(self):
        types, caps, third = [(0, 1, 2), (2, 3, 4)], [2] * 5, (3, [1] * 5)
        assert max_type_packing(types, caps, third, gains=[1, 1]) == [2, 0]
        for gains in ([2, 0], [-1, 1], [1], [0, 1, 0]):
            with pytest.raises(InvariantViolation):
                max_type_packing(types, caps, third, gains=gains)

    def test_empty_type_list(self):
        third = (3, [1] * 2)
        assert max_type_packing([], [], (1, [])) == []
        assert max_type_packing([], [3, 1], third, gains=[]) == []

    def test_types_sharing_one_resource_stay_linear(self):
        # Listing every later type sharing a resource with each type held
        # about n^2/2 entries here: a traced peak of 97 MiB.
        n = 5000
        types, caps = [(0, 2 * k + 1, 2 * k + 2) for k in range(n)], [5] + [1] * (2 * n)
        dual = _simplex_packing(types, caps)[2:]
        tracemalloc.start()
        try:
            got = max_type_packing(types, caps, dual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(got) == 5 and got[:5] == [1] * 5
        assert peak < 20 * 2**20

    def test_gain_prices_cut_a_subtree(self):
        # The target is 2: type 3 and one of types 1 and 2, which share
        # resource 0 of capacity 1.  Type 0 comes first and takes resource
        # 5 from type 3; the rooms of types 1 and 2 still promise a gain of
        # 2, but the gaining types' LP prices what is left at 1, so that
        # subtree is cut.  The search, with its 3-node target search, takes
        # 10 nodes; on the rooms alone it took 12.
        types, caps, third = [(5, 8, 9), (0, 1, 2), (0, 3, 4), (5, 6, 7)], [1] * 10, (3, [1] * 10)
        gains = [0, 1, 1, 1]
        assert max_type_packing(types, caps, third, gains=gains, budget=_Budget(10)) == [0, 1, 0, 1]
        with pytest.raises(BudgetExceeded):
            max_type_packing(types, caps, third, gains=gains, budget=_Budget(9))


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
            kinds[check_nu(with_random_weights(gen_stacked(n, seed=2), (1, 2, 3), seed=2))] += 1
        assert kinds[True] >= 1 and kinds[False] >= 1

    def test_s13_rounding_falls_one_short(self):
        g = with_random_weights(gen_stacked(13, seed=11), (1, 2, 3), seed=11)
        assert sum(reference_lp_packing(g).values()) == 19
        assert nu_exact(g)[0] == 20 == g.lp.value
        assert not check_nu(g)

    def test_dual_bound_keeps_the_counts(self):
        # The search with y* as its dual returns what it returns with the
        # uniform third, from the empty packing and from the rounded x*, in
        # fewer nodes on some graphs and never in more.
        stacked = [with_random_weights(gen_stacked(n, seed=1), (1, 2, 3), seed=1) for n in range(9, 15)]
        fewer = Counter()
        for g in [*atlas_0_to_3(), *random_corpus(), *stacked]:
            inc = g.incidence
            if not inc.triangles:
                continue
            caps = [w for _, _, w in g.edges]
            dual = (g.lp.yden, g.lp.y)
            third = (3, [1] * len(caps))
            rounded = reference_lp_packing(g)
            for start in (None, [rounded.get(t, 0) for t in inc.triangles]):
                plain, priced = _Budget(10**9), _Budget(10**9)
                got = max_type_packing(inc.columns, caps, dual, budget=priced, start=start)
                assert got == max_type_packing(inc.columns, caps, third, budget=plain, start=start)
                assert priced.remaining >= plain.remaining
                fewer[start is None] += priced.remaining > plain.remaining
        assert fewer[True] >= 20 and fewer[False] >= 5

    @pytest.mark.parametrize("n, nu, nodes", [(18, 23, 60_646), (20, 27, 87_359)], ids=["S18w", "S20w"])
    def test_dual_bound_closes_the_search(self, n, nu, nodes, monkeypatch):
        # Bounded only by a third of the residual capacity, these took about
        # 14 s and 72 s of CPU (Python 3.11, shared 2-core x86 machine).  The
        # search from the rounded x* spends exactly ``nodes``, the root and
        # each child one; a dual over the wrong denominator prunes more or less.
        g = with_random_weights(gen_stacked(n, seed=1), (1, 2, 3), seed=1)
        g.lp
        real, limit = tripack.exact.max_type_packing, nodes
        monkeypatch.setattr(tripack.exact, "max_type_packing",
                            lambda *a, **kw: real(*a, **kw, budget=_Budget(limit)))
        start = time.process_time()
        value, cert = nu_exact(g)
        assert time.process_time() - start < 2
        assert value == cert.value == nu < g.lp.value
        assert verify_packing(g, cert)
        limit = nodes - 1
        with pytest.raises(BudgetExceeded):
            nu_exact(g)

    def test_reverse_delete_matches_full_rechecks(self):
        for g in [*atlas_0_to_3(), *random_corpus()]:
            cover = [e for t in g.triangles for e in t.edges]
            assert set(_drop_redundant(g, cover)) == reference_drop_redundant(g, cover)

    def test_start_that_overdraws_a_resource_raises(self):
        types, caps, third = [(0, 1, 2), (0, 3, 4)], [1, 1, 1, 1, 1], (3, [1] * 5)
        assert max_type_packing(types, caps, third, start=[1, 0]) == [1, 0]
        for start in ([1, 1], [2, 0], [-1, 0], [1]):
            with pytest.raises(InvariantViolation):
                max_type_packing(types, caps, third, start=start)
        with pytest.raises(InvariantViolation):
            # Type 1 gains and fits, so the target is 1, which the start misses.
            max_type_packing(types, caps, third, gains=[0, 1], start=[1, 0])

    def test_start_below_the_stop_gives_way_to_the_first_optimum(self):
        # One type overlaps two disjoint ones; from either single type the
        # search finds the pair, as it does from the empty packing.
        types, caps, third = [(0, 1, 2), (3, 4, 5), (0, 3, 6)], [1] * 7, (3, [1] * 7)
        assert max_type_packing(types, caps, third, start=[0, 0, 1]) == [1, 1, 0]
        assert max_type_packing(types, caps, third, start=[1, 0, 0]) == [1, 1, 0]

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
            hx, hy = lp_assignments(h, sol)
            items += [(u + offset, v + offset, w) for u, v, w in h.edges]
            packing.update({Triangle.of(*(v + offset for v in t)): x for t, x in hx.triangle_values.items()})
            cover.update({(u + offset, v + offset): y for (u, v), y in hy.edge_values.items()})
            value += sol.value
            offset += h.n
        g = Multigraph.from_edges(offset, items)
        sol = lp_optimal(g)
        x, y = lp_assignments(g, sol)
        assert x.triangle_values == packing
        assert y.edge_values == cover
        assert sol.value == value

    def test_5000_disjoint_triangles(self):
        # A single simplex over all 5,000 components took 2.7 s of CPU
        # (Python 3.11, shared 2-core x86 machine).
        g = triangle_union(5000)
        start = time.process_time()
        sol = lp_optimal(g)
        assert time.process_time() - start < 1
        assert sol.value == 5000 and all(sol.x)
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
            xden, x, yden, y = _simplex_packing(g.incidence.columns, [w for *_, w in g.edges])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xden == yden == 1 and sum(x) == 20000 and x.count(1) == y.count(1) == 20000
        assert peak < 10 * 2**20

    @pytest.mark.parametrize(
        "vectors, message",
        [((1, [2], 1, [2, 0, 0]), "infeasible packing"),
         ((2, [1], 2, [1, 0, 0]), "infeasible transversal"),
         ((1, [1], 1, [1, 1, 0]), "strong duality")],
        ids=["load over a capacity", "triangle below 1", "unequal values"],
    )
    def test_each_check_rejects_a_broken_simplex(self, monkeypatch, vectors, message):
        # On one unit triangle, (xden, x, yden, y) that break one check each.
        monkeypatch.setattr(tripack.exact, "_simplex_packing", lambda columns, caps: vectors)
        with pytest.raises(InvariantViolation, match=message):
            lp_optimal(gen_complete(3))

    def test_g1(self):
        assert lp_optimal(gen_gk(1).graph).value == Fraction(5, 2)

    def test_value_survives_relabelling(self):
        # The column order follows the labels; the optimum must not.
        s60 = with_random_weights(gen_stacked(60, seed=1), (1, 2, 3), seed=1)
        for g, value in ((gen_gk(3).graph, gk_optimum(3)), (s60, 101)):
            assert lp_optimal(g).value == value
            for seed in range(5):
                perm = list(range(g.n))
                random.Random(seed).shuffle(perm)
                h = Multigraph.from_edges(g.n, ((perm[u], perm[v], w) for u, v, w in g.edges))
                assert lp_optimal(h).value == value

    def test_stacked_500_within_a_second(self):
        # Ties by triangle index put the hub triangles of a stacked
        # triangulation first and filled B^-1 densely: 1.4-1.6 s of CPU
        # (Python 3.11, shared 2-core x86 machine); by degree, 0.3 s.
        g = gen_stacked(500, seed=1)
        g.incidence
        start = time.process_time()
        assert lp_optimal(g).value == 498
        assert time.process_time() - start < 1

    def test_c5(self):
        sol = lp_optimal(gen_cycle(5))
        assert sol.value == 0

    def test_values_agree(self):
        for seed in range(15):
            g = rand_connected_multigraph(6, 6, 3, seed)
            sol = lp_optimal(g)
            packing, transversal = lp_assignments(g, sol)
            assert packing.value == transversal.value == sol.value

    def test_deterministic(self):
        g = rand_connected_multigraph(7, 8, 3, 11)
        a, b = lp_optimal(g), lp_optimal(g)
        assert a == b

    def test_solvers_read_the_cached_optimum(self, monkeypatch):
        g = gen_wheel(5)
        sol = g.lp
        solved, indexed = [], []
        real = tripack.exact._simplex_packing

        def counting(*args):
            solved.append(args)
            return real(*args)

        monkeypatch.setattr(tripack.exact, "_simplex_packing", counting)
        monkeypatch.setattr(tripack.core, "incidence", indexed.append)
        nu_exact(g)
        tau_exact(g)
        transversal_2nustar(g)
        assert solved == [] and indexed == []
        assert lp_optimal(g) == sol and len(solved) == 1 and solved[0][0] is g.incidence.columns
        assert g.lp is sol

    def test_graph_is_freed_by_reference_counting(self):
        # g.lp caches the optimum on its graph; were the optimum to hold the
        # graph, the two would form a cycle that only the cyclic collector
        # frees.
        g = rand_connected_multigraph(7, 8, 3, 1)
        ref = weakref.ref(g)
        gc.disable()
        try:
            results = [g.lp, nu_exact(g), tau_exact(g), transversal_2nustar(g), transversal_292(g)]
            assert results[1][0] > 0
            del g, results
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("search", [nu_exact, tau_exact])
    def test_search_leaves_no_cyclic_garbage(self, search):
        # Search nodes that named themselves kept each search's state alive
        # until the cyclic collector ran: 94 objects after nu_exact and 19
        # after tau_exact here.
        g = with_random_weights(gen_complete(8), (1, 2, 3), seed=8)
        g.lp
        assert cyclic_garbage(lambda: search(g)) == 0


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
                assert simplex(g) == reference_simplex_packing(g)

    def test_random_multigraphs(self):
        for seed in range(20):
            g = rand_connected_multigraph(8, 12, 3, seed)
            assert simplex(g) == reference_simplex_packing(g)

    def test_gk(self):
        for k in (1, 2):
            g = gen_gk(k).graph
            got = simplex(g)
            assert got == reference_simplex_packing(g)
            assert got[2] == gk_optimum(k)

    def test_triangle_free(self):
        g = rand_triangle_free(9, 3)
        assert simplex(g) == reference_simplex_packing(g) == ({}, {}, 0)

    def test_dense_weighted_k6_to_k8(self):
        # Dense, degenerate tableaux: many ties in the ratio test.
        for n in (6, 7, 8):
            for seed in range(6):
                g = with_random_weights(gen_complete(n), (0, 1, 2, 3), seed=100 * n + seed)
                assert simplex(g) == reference_simplex_packing(g)

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
        assert simplex(g) == got
        assert reference_simplex_packing(g, degenerate_run=None) != got

    def test_one_triangle_components_in_closed_form(self):
        # Lone triangles with tied and zero capacities, among components of
        # several triangles, take the one pivot the loop would make.
        shapes = [(1, 1, 1), (0, 0, 0), (2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 0, 0), (2, 3, 2), (0, 1, 2)]
        for seed in range(40):
            rng = random.Random(seed)
            items, n = [], 0
            for _ in range(rng.randint(2, 7)):
                if rng.random() < 0.6:
                    caps = rng.choice(shapes) if seed % 2 else tuple(rng.randint(0, 3) for _ in range(3))
                    items += [(n + u, n + v, w) for (u, v), w in zip(((0, 1), (0, 2), (1, 2)), caps)]
                    n += 3
                else:
                    h = rand_connected_multigraph(6, 7, 3, seed + n)
                    items += [(n + u, n + v, w) for u, v, w in h.edges]
                    n += h.n
            g = Multigraph.from_edges(n, items)
            assert simplex(g) == reference_simplex_packing(g), seed

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
            x, y, value = simplex(h)
            assert (x, y, value) == reference_simplex_packing(h)
            assert set(y) <= on_tri

    def test_vectors_over_least_denominators(self):
        # Entry by entry the reference's Fractions, each vector over the lcm
        # of their denominators.
        for g in [*atlas_0_to_3(), *random_corpus(), gen_gk(1).graph, gen_gk(2).graph]:
            inc = g.incidence
            xden, x, yden, y = _simplex_packing(inc.columns, [w for *_, w in g.edges])
            rx, ry, _ = reference_simplex_packing(g)
            assert [Fraction(v, xden) for v in x] == [rx.get(t, 0) for t in inc.triangles]
            assert [Fraction(v, yden) for v in y] == [ry.get(e, 0) for e in inc.edges]
            assert xden == lcm(*(v.denominator for v in rx.values()))
            assert yden == lcm(*(v.denominator for v in ry.values()))


SPARSE, DENSE = tripack.exact._sparse_component, tripack.exact._dense_component


def on_kernel(kernel, columns, caps):
    """``_simplex_packing`` with every component on ``kernel``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tripack.exact, "_dense_component", kernel)
        mp.setattr(tripack.exact, "_sparse_component", kernel)
        return _simplex_packing(columns, caps)


def type_system(seed, m=None):
    """Seeded random columns on ``m`` resources (4-40 if None), m+1 to 4m of them, capacities up to 10**12."""
    rng = random.Random(seed)
    m = m or rng.randint(4, 40)
    columns = [tuple(rng.sample(range(m), 3)) for _ in range(rng.randint(m + 1, 4 * m))]
    return columns, [rng.randint(0, rng.choice((3, 10, 10**6, 10**12))) for _ in range(m)]


def linked_system(seed, m, count=None):
    """A cycle of columns linking all ``m`` resources into one component, then the first ``count``
    columns (all if None) of ``type_system(seed, m)``, on its capacities."""
    columns, caps = type_system(seed, m=m)
    return [(i, (i + 1) % m, (i + 2) % m) for i in range(m)] + columns[:count], caps


def assert_lp_optimal(columns, caps, xden, x, yden, y):
    """x and y feasible, with equal values: both optimal by LP duality."""
    assert min(x + y, default=0) >= 0
    assert all(sum(y[o] for o in col) >= yden for col in columns)
    load = [0] * len(caps)
    for col, v in zip(columns, x):
        for o in col:
            load[o] += v
    assert all(v <= c * xden for v, c in zip(load, caps))
    assert sum(x) * yden == sum(v * c for v, c in zip(y, caps)) * xden


class TestKernels:
    """The dense and the sparse kernel, which choose every pivot with ``_entering`` and
    ``_leaving``, agree on every component under each run of degenerate pivots before Bland's
    rule (0: Bland's rule throughout)."""

    @pytest.mark.parametrize("run", [0, 2, 20])
    def test_graphs_against_the_reference(self, monkeypatch, run):
        weighted = [with_random_weights(gen_complete(n), (0, 1, 2, 3), seed=10 * n + s)
                    for n in range(5, 11) for s in range(2 if n < 10 else 1)]
        monkeypatch.setattr(tripack.exact, "DEGENERATE_RUN", run)
        # On the random multigraph, Bland's rule throughout brings a slack
        # back while two duals are negative; the first of them must enter.
        for g in [*weighted, *atlas_0_to_3(), gen_gk(1).graph, gen_gk(2).graph,
                  rand_connected_multigraph(8, 12, 3, 64)]:
            inc, caps = g.incidence, [w for *_, w in g.edges]
            got = on_kernel(DENSE, inc.columns, caps)
            assert got == on_kernel(SPARSE, inc.columns, caps)
            xden, x, yden, y = got
            rx, ry, _ = reference_simplex_packing(g, degenerate_run=run)
            assert [Fraction(v, xden) for v in x] == [rx.get(t, 0) for t in inc.triangles]
            assert [Fraction(v, yden) for v in y] == [ry.get(e, 0) for e in inc.edges]

    @pytest.mark.parametrize("run", [0, 2, 20])
    def test_k11_to_k13(self, monkeypatch, run):
        # The reference takes seconds here, so the optimum is checked by
        # duality instead.
        monkeypatch.setattr(tripack.exact, "DEGENERATE_RUN", run)
        for n in (11, 12, 13):
            g = with_random_weights(gen_complete(n), (1, 2, 3), seed=n)
            columns, caps = g.incidence.columns, [w for *_, w in g.edges]
            got = on_kernel(DENSE, columns, caps)
            assert got == on_kernel(SPARSE, columns, caps)
            assert_lp_optimal(columns, caps, *got)

    @pytest.mark.parametrize("run", [2, 20])
    def test_k14_and_k16(self, monkeypatch, run):
        # Lanes of 74 and 97 bits.  Bland's rule throughout (run 0) takes 5 s
        # on K14w and 24 s on K16w on a 2-core x86 VM, so it is left to the
        # smaller graphs.
        monkeypatch.setattr(tripack.exact, "DEGENERATE_RUN", run)
        for n in (14, 16):
            g = with_random_weights(gen_complete(n), (1, 2, 3), seed=n)
            columns, caps = g.incidence.columns, [w for *_, w in g.edges]
            got = on_kernel(DENSE, columns, caps)
            assert got == on_kernel(SPARSE, columns, caps)
            assert_lp_optimal(columns, caps, *got)

    @pytest.mark.parametrize("run", [0, 2, 20])
    def test_seeded_type_systems(self, monkeypatch, run):
        monkeypatch.setattr(tripack.exact, "DEGENERATE_RUN", run)
        for seed in range(200):
            columns, caps = type_system(seed)
            got = on_kernel(DENSE, columns, caps)
            assert got == on_kernel(SPARSE, columns, caps), seed
            assert_lp_optimal(columns, caps, *got)

    @pytest.mark.parametrize("run", [0, 2, 20])
    @pytest.mark.parametrize("m", [79, 80, 128])
    def test_wide_type_systems(self, monkeypatch, run, m):
        # One component of m resources: the last 64-bit lanes, the first
        # lanes past them, and wider ones.
        monkeypatch.setattr(tripack.exact, "DEGENERATE_RUN", run)
        for seed in range(5):
            columns, caps = linked_system(seed, m)
            got = on_kernel(DENSE, columns, caps)
            assert got == on_kernel(SPARSE, columns, caps), seed
            assert_lp_optimal(columns, caps, *got)

    @pytest.mark.parametrize("m, bits", [(79, 44), (80, 45), (128, 71)])
    def test_circulant_systems(self, m, bits):
        # Columns {i, i+1, i+3} mod m on 3 units each: the optimum has every
        # column basic at x = 1 and y = 1/3, and det B has ``bits`` bits, 71
        # past a 64-bit lane.  Lanes too narrow for the entries of D B^-1
        # made the dense kernel pivot without end here, so an alarm stops it.
        columns = [(i, (i + 1) % m, (i + 3) % m) for i in range(m)]

        def stop(signum, frame):
            raise AssertionError("the dense kernel ran for 10 s")

        old = signal.signal(signal.SIGALRM, stop)
        signal.alarm(10)
        try:
            x, y = DENSE(columns, [3] * m)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        d = x[0][2]
        assert abs(d).bit_length() == bits
        assert sorted(x) == [(p, d, d) for p in range(m)]
        assert y == [(e, d // 3, d) for e in range(m)]

    def test_lane_width(self):
        # Hadamard bounds every entry by 3^(m/2), so a lane of w bits with
        # a bias of 2^(w-1) needs 3^m < 4^(w-1), and no narrower lane does.
        for m in range(3, 201):
            w = _lane_width(m)
            assert 3 ** m < 4 ** (w - 1) and not 3 ** m < 4 ** (w - 2), m
        assert [_lane_width(m) for m in (79, 80, 128)] == [64, 65, 103]


class TestKernelSelection:
    """More columns than resources select the dense kernel at any size."""

    def only(self, monkeypatch, kernel, columns, caps):
        other = "_sparse_component" if kernel == "_dense_component" else "_dense_component"

        def refuse(cols, caps):
            raise AssertionError(f"{other} ran on {len(cols)} columns and {len(caps)} resources")

        monkeypatch.setattr(tripack.exact, other, refuse)
        return _simplex_packing(columns, caps)

    @pytest.mark.parametrize("system", [
        *((g.incidence.columns, [w for *_, w in g.edges]) for g in (
            with_random_weights(gen_complete(13), (1, 2, 3), seed=13),  # 78 resources
            with_random_weights(gen_complete(14), (1, 2, 3), seed=14),  # 91 resources
        )),
        linked_system(79, 79, count=79),
        linked_system(128, 128),
    ], ids=["K13w", "K14w", "cycle79", "cycle128"])
    def test_dense_at_any_size(self, monkeypatch, system):
        columns, caps = system
        got = self.only(monkeypatch, "_dense_component", columns, caps)
        assert got == on_kernel(SPARSE, columns, caps)
        assert_lp_optimal(columns, caps, *got)

    @pytest.mark.parametrize("g", [
        with_random_weights(gen_complete(5), (1, 2, 3), seed=5),  # 10 columns, 10 resources
        gen_stacked(20, seed=1),  # 52 columns, 54 resources
    ], ids=["K5w", "S20"])
    def test_sparse_otherwise(self, monkeypatch, g):
        columns, caps = g.incidence.columns, [w for *_, w in g.edges]
        assert_lp_optimal(columns, caps, *self.only(monkeypatch, "_sparse_component", columns, caps))


class TestTightSets:
    def test_single_triangle_manual(self):
        g = gen_complete(3)
        t = Triangle.of(0, 1, 2)
        sol = lp_solution(g, {t: Fraction(1)}, {e: Fraction(1, 3) for e in t.edges})
        ts = tight_sets(g, sol)
        assert set(ts.tight_edges) == set(t.edges)
        assert ts.tight_triangles == (t,)

    def test_w5_manual(self):
        g = gen_wheel(5)
        spokes = [(0, i) for i in range(1, 6)]
        tris = enumerate_triangles(g)
        sol = lp_solution(g, {t: Fraction(1, 2) for t in tris}, {e: Fraction(1, 2) for e in spokes})
        ts = tight_sets(g, sol)
        assert set(ts.tight_edges) == set(spokes)
        assert set(ts.tight_triangles) == set(tris)

    def test_triangle_free_empty(self):
        g = gen_cycle(5)
        ts = tight_sets(g, lp_optimal(g))
        assert ts.tight_triangles == ()

    def test_rejects_non_optimal_pair(self):
        # Values that differ, then equal values with a packing over its
        # capacity, then equal values with a triangle's y below 1, then
        # vectors of the wrong length.
        g = gen_complete(3)
        t = Triangle.of(0, 1, 2)
        for x, y in ((Fraction(1, 2), Fraction(1)), (Fraction(2), Fraction(2)), (Fraction(1, 2), Fraction(1, 2))):
            with pytest.raises(ValueError):
                tight_sets(g, lp_solution(g, {t: x}, {(0, 1): y}))
        with pytest.raises(ValueError):
            tight_sets(g, LPSolution(1, [], 1, [0, 0, 0]))


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
