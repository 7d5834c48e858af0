import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from tripack import (
    BudgetExceeded,
    InvariantViolation,
    Multigraph,
    Triangle,
    nu_exact,
    tau_exact,
    verify_transversal,
)
from tripack.core import _Budget
from tripack.exact import _simplex_packing
from tripack.generators import (
    gen_complete,
    gen_cycle,
    gen_random,
    gen_wheel,
    with_random_weights,
)
from tripack.haxell import (
    Anchor,
    Type,
    _cover,
    _max_i_family,
    _position,
    _require_packing,
    _search_max_family,
    _share,
    build_state,
    candidate_transversals,
    transversal_292,
)

import tripack.exact
import tripack.haxell
import oracles
from oracles import (
    AnchoredTriangle,
    SlotTriangle,
    _all_slot_edges,
    _expand_packing,
    atlas_with_triangle,
    cyclic_garbage,
    reference_btype,
    reference_build_state,
    reference_max_family,
    reference_slot_triangles,
    reference_swap_rung_sizes,
    reference_transversal_292,
    triangle_union,
)


def no_role(e):
    return 0


def any_triangle(roles):
    return 0


def surplus(roles):
    return 3 - sum(roles)


def disjoint_copies(g, count):
    return Multigraph.from_edges(
        g.n * count,
        [(g.n * i + u, g.n * i + v, w) for i in range(count) for u, v, w in g.edges],
    )


# A K4 with one edge of capacity 2, eight times: every copy anchors one
# triangle of b1_prime, and each anchor gets its two rungs.
K4_RUNGS = disjoint_copies(gen_random(4, 6, 2, 13), 8)

HEAVY_K4 = Multigraph.from_edges(
    4, [(u, v, 12 + (u + v) % 2) for u, v, _ in gen_complete(4).edges]
)


def max_family_size(g, role=no_role, gain=any_triangle):
    """The largest family when every copy of a class has that class's role."""
    layout = {(u, v): [(role((u, v)), w)] for u, v, w in g.edges if w}
    return _search_max_family(g, layout, gain, _Budget(1_000_000)).total()


class TestMaxIndependentFamily:
    """Maximum families of independent triangles of copies, as ``build_state`` searches them."""

    def test_k4_all_candidates(self):
        assert max_family_size(gen_complete(4)) == 1

    def test_w5(self):
        assert max_family_size(gen_wheel(5)) == 2

    def test_k4_share_one_candidates(self):
        g = gen_complete(4)
        base_edges = set(Triangle.of(0, 1, 2).edges)

        def in_base(e):
            return int(e[:2] in base_edges)

        candidates = [
            st
            for st in reference_slot_triangles(g, frozenset(_all_slot_edges(g)))
            if sum(e in base_edges for e in st.tri.edges) == 1
        ]
        assert len(candidates) == 3
        assert max_family_size(g, in_base, _share(1)) == 1

    def test_capacity_awareness(self):
        g = Multigraph.from_edges(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
        # Two independent copies of the one triple fit, which is the
        # packing number of the doubled triangle.
        assert max_family_size(g) == 2 == nu_exact(g)[0]

    def test_1100_disjoint_triangles(self):
        assert max_family_size(triangle_union(1100)) == 1100


def family_cases(g):
    """The four family searches of the slot-level reference, with their items.

    Each case is the search's ``(host, role, gain, target)`` followed by the
    items and gains that the slot-level predicate selects from the listed
    slot triangles.  The share-one and share-two families are taken against
    a maximum packing, the reduced graph drops the slots of the oracle's
    share-one family, and ``b1_prime`` is taken against the oracle's surplus
    family.
    """
    all_slots = frozenset(_all_slot_edges(g))
    eb = {e for st in _expand_packing(nu_exact(g)[1].multiplicities) for e in st.slot_edges}
    items = reference_slot_triangles(g, all_slots)
    type1 = [st for st in items if reference_btype(st, eb) == 1]
    reduced_slots = all_slots - {e for st in reference_max_family(type1) for e in st.slot_edges}
    reduced = reference_slot_triangles(g, reduced_slots)
    type2 = [st for st in reduced if reference_btype(st, eb) == 2]
    gains = [3 - reference_btype(st, eb) for st in reduced]
    target = len(reference_max_family(type2))
    ebp = {
        e for st in reference_max_family(reduced, gains=gains, target=target)
        for e in st.slot_edges
    }
    share_one = [
        st for st in reduced
        if reference_btype(st, ebp) == 1
        and not any(e in ebp and e in eb for e in st.slot_edges)
    ]

    def in_b(e):
        return e in eb

    def on_bp(e):
        return (e in ebp) * (1 + (e in eb))

    return [
        (all_slots, no_role, any_triangle, 0, items, None),
        (all_slots, in_b, _share(1), 0, type1, None),
        (reduced_slots, in_b, _share(2), 0, type2, None),
        (reduced_slots, in_b, surplus, target, reduced, gains),
        (reduced_slots, on_bp, _share(1), 0, share_one, None),
    ]


def assert_family_matches_reference(g, host, role, gain, target, items, gains):
    want = reference_max_family(items, gains=gains, target=target)
    got = oracles._search_max_family(g, host, role, gain, _Budget(1_000_000))
    assert len(got) == len(want)
    assert set(got) <= set(items)
    edges = [e for st in got for e in st.slot_edges]
    assert len(edges) == len(set(edges))
    if gains is not None:
        gain_of = dict(zip(items, gains))
        assert sum(gain_of[st] for st in got) >= target


def capacities_0_to_3(seed, base):
    rng = random.Random(seed)
    return Multigraph(
        base.n, tuple((u, v, rng.choice((0, 1, 2, 3))) for u, v, _ in base.edges)
    )


def random_family_graphs(n):
    """Seeded multigraphs on ``n`` vertices; denser ones take the item-level oracle seconds each."""
    for mult, m in ((2, min(2 * n + 1, n * (n - 1) // 2)), (3, n + 3)):
        for seed in range(4):
            yield gen_random(n, m, mult, seed)


class TestFamilyAgainstReference:
    """The slot-level reference's orbit search against the item-level DFS."""

    def test_atlas_with_capacities_0_to_3(self):
        for seed, base in enumerate(atlas_with_triangle()):
            g = capacities_0_to_3(seed, base)
            for case in family_cases(g):
                assert_family_matches_reference(g, *case)

    @pytest.mark.parametrize("n", range(5, 10))
    def test_random_multigraphs(self, n):
        for g in random_family_graphs(n):
            for case in family_cases(g):
                assert_family_matches_reference(g, *case)

    @pytest.mark.parametrize("n", [None, *range(5, 10)], ids=["atlas", *map(str, range(5, 10))])
    def test_b2_is_a_maximum_share_two_family(self, n):
        # build_state reads b2 off b_prime; the item-level search over the
        # share-two triangles of the same reduced graph finds no larger family.
        if n is None:
            graphs = [capacities_0_to_3(seed, base) for seed, base in enumerate(atlas_with_triangle())]
        else:
            graphs = random_family_graphs(n)
        for g in graphs:
            ref = reference_build_state(g)
            eb = {e for st in ref.b for e in st.slot_edges}
            reduced = frozenset(_all_slot_edges(g)) - {e for st in ref.b1 for e in st.slot_edges}
            type2 = [st for st in reference_slot_triangles(g, reduced) if reference_btype(st, eb) == 2]
            assert build_state(g).b2.total() == len(reference_max_family(type2))

    def test_gain_above_one_raises(self):
        g = gen_complete(4)
        host = frozenset(_all_slot_edges(g))
        with pytest.raises(InvariantViolation, match="0/1"):
            oracles._search_max_family(g, host, no_role, surplus, _Budget(100))
        layout = {(u, v): [(0, w)] for u, v, w in g.edges}
        with pytest.raises(InvariantViolation, match="0/1"):
            _search_max_family(g, layout, surplus, _Budget(100))


class TestFullClassCover:
    def test_verifies_exactly_when_the_slots_meet_every_slot_triangle(self):
        # Random slot sets of every size against a scan of every slot triangle.
        for seed, base in enumerate(atlas_with_triangle()):
            g = capacities_0_to_3(seed, base)
            all_slots = sorted(_all_slot_edges(g))
            tris = reference_slot_triangles(g, frozenset(all_slots))
            rng = random.Random(seed)
            for _ in range(4):
                slots = set(rng.sample(all_slots, rng.randint(0, len(all_slots))))
                cover = _cover(g, Counter(e[:2] for e in slots))
                avoided = any(reference_btype(st, slots) == 0 for st in tris)
                assert verify_transversal(g, cover) == (not avoided)
                assert cover.weight <= len(slots)


def bb_search_haxell_graphs(seeds):
    """The 13 haxell graphs of the bb_search benchmark workload at each workload seed.

    Only R7,12-s depends on the seed; the other twelve are fixed.
    """
    for n, m in ((8, 14), (10, 25), (11, 30), (12, 34)):
        for seed in range(3):
            yield gen_random(n, m, 2, seed)
    for s in seeds:
        yield gen_random(7, 12, 2, random.Random(f"{s}:haxell7").randrange(2**31))


def reference_corpus():
    """The graphs on which the construction must equal the slot-level reference."""
    for seed, base in enumerate(atlas_with_triangle()):
        yield capacities_0_to_3(seed, base)
    for n in range(4, 10):
        pairs = n * (n - 1) // 2
        for mult, m in ((2, min(2 * n + 1, pairs)), (3, min(n + 3, pairs))):
            for seed in range(4):
                yield gen_random(n, m, mult, seed)
    yield from bb_search_haxell_graphs((0,))
    yield from (K4_RUNGS, HEAVY_K4)
    for n in (5, 6):
        yield with_random_weights(gen_complete(n), (1, 2, 3), seed=n)


def scalars(st):
    return (st.nu, st.gamma, st.beta, st.alpha, st.delta, st.eta, st.eta_prime, st.delta0)


class TestAgainstSlotReference:
    def test_counts_equal_the_slot_level_construction(self):
        # The reference gives every copy its own object; the construction
        # keeps counts per orbit and ranks only where copies are matched.
        for g in reference_corpus():
            got, want = transversal_292(g), reference_transversal_292(g)
            assert scalars(got.state) == scalars(want.state)
            assert got.candidates == want.candidates
            assert got.best == want.best


class TestRungFamily:
    @pytest.mark.parametrize("rungs_a, rungs_b", [(1, 0), (2, 1), (3, 1), (3, 2), (4, 3)])
    def test_rung_picks_match_the_slot_level_search(self, rungs_a, rungs_b):
        # Anchored copy a = 012 shares 01 with its partner 013, so its rungs
        # are the copies of 23 off b_prime.  Copy b = 234 shares 24 with 245
        # and holds the lowest of those rungs; its own rungs lie on 35.  A
        # rung pair of a that takes b's side crowds b, which no graph of the
        # reference corpus does.
        ta, tb = Triangle(0, 1, 2), Triangle(2, 3, 4)
        layout = {(0, 1): [(1, 1)], (0, 2): [(0, 1)], (1, 2): [(0, 1)], (2, 3): [(0, rungs_a)],
                  (2, 4): [(1, 1)], (3, 4): [(0, 1)], (3, 5): [(0, rungs_b)]}
        a = Anchor(ta, (0, 1), Triangle(0, 1, 3), (2, 3), rungs_a)
        b = Anchor(tb, (2, 4), Triangle(2, 4, 5), (3, 5), rungs_b)
        runs = [(Type(ta, (1, 0, 0)), (0, 0, 0), 0, 1, a), (Type(tb, (0, 1, 0)), (0, 0, 0), 0, 1, b)]
        i_family, i_prime = _max_i_family(runs, layout, _Budget(10_000))

        first = (0, 0, 0)
        members = [
            AnchoredTriangle(SlotTriangle(ta, first), SlotTriangle(Triangle(0, 1, 3), first),
                             (0, 1, 0), 2, 3, tuple((2, 3, j) for j in range(rungs_a))),
            AnchoredTriangle(SlotTriangle(tb, first), SlotTriangle(Triangle(2, 4, 5), first),
                             (2, 4, 0), 3, 5, tuple((3, 5, j) for j in range(rungs_b))),
        ]
        chosen, fmap = oracles._max_i_family(members, {(0, 1, 0), (2, 4, 0)}, _Budget(10_000))
        picked = {e for pair in fmap.values() for e in pair}
        crowded = [a for a in members if a not in chosen and picked.intersection(a.t.slot_edges)]
        assert Counter(a.tri for a in i_family.elements()) == Counter(a.t.tri for a in chosen)
        assert Counter(a.tri for a in i_prime.elements()) == Counter(a.t.tri for a in crowded)
        assert (i_family.total(), i_prime.total()) == {
            (1, 0): (0, 0), (2, 1): (1, 1), (3, 1): (1, 1), (3, 2): (2, 0), (4, 3): (2, 0)
        }[rungs_a, rungs_b]

    def test_copies_take_rungs_in_order_of_triangle_and_position(self):
        # 012 (partner 013) and 267 (partner 367) both need the only two
        # rungs on 23; the search meets 012 first, whatever order it gets.
        ta, tc = Triangle(0, 1, 2), Triangle(2, 6, 7)
        layout = {(0, 1): [(1, 1)], (0, 2): [(0, 1)], (1, 2): [(0, 1)], (2, 3): [(0, 2)],
                  (2, 6): [(0, 1)], (2, 7): [(0, 1)], (6, 7): [(1, 1)]}
        a = Anchor(ta, (0, 1), Triangle(0, 1, 3), (2, 3), 2)
        c = Anchor(tc, (6, 7), Triangle(3, 6, 7), (2, 3), 2)
        runs = [(Type(tc, (0, 0, 1)), (0, 0, 0), 0, 1, c), (Type(ta, (1, 0, 0)), (0, 0, 0), 0, 1, a)]
        assert _max_i_family(runs, layout, _Budget(10_000)) == (Counter([a]), Counter())


class TestBuildState:
    def test_triangle_free(self):
        st = build_state(gen_cycle(5))
        assert st.nu == 0 and not st.b
        assert st.gamma == 0

    def test_k4(self):
        st = build_state(gen_complete(4))
        assert st.nu == 1
        assert st.b.total() == 1
        assert st.gamma == 1  # one share-one triangle fits
        assert st.anchors_b1.total() == 1

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
        (gen_complete(4), 5),
        (gen_random(9, 18, 2, 0), 15),
        (gen_random(8, 14, 2, 2), 19),
        (K4_RUNGS, 1_567),
    ])
    def test_budget_counts_every_search_node(self, g, nodes):
        # The root and each child of every family search cost one node.
        build_state(g, budget=nodes)
        with pytest.raises(BudgetExceeded):
            build_state(g, budget=nodes - 1)

    @pytest.mark.parametrize("g, budget, search, spent", [
        (gen_random(8, 14, 2, 0), 2, "b1", 2),
        (gen_complete(6), 5, "b_prime", 4),
        (gen_complete(6), 30, "b_prime", 29),
        (gen_complete(6), 38, "b1_prime", 0),
        (K4_RUNGS, 1_566, "rung family", 16),
    ])
    def test_budget_exceeded_names_the_search(self, g, budget, search, spent):
        # The budget is shared: each search gets what the ones before it left.
        with pytest.raises(BudgetExceeded) as exc:
            build_state(g, budget=budget)
        assert str(exc.value) == (f"{search} search ran past the node budget of {budget} nodes"
                                  f" after spending {spent} of them")

    def test_1100_disjoint_triangles(self):
        assert build_state(triangle_union(1100)).nu == 1100

    def test_no_state_solves_the_same_lp_twice(self, monkeypatch):
        # An LP is the simplex's caller, columns and capacities.  A state
        # solves the LP of G, that of G' when b1 is not empty (without b1,
        # G' is G), and at most one gain LP, of the b_prime search's
        # share-two types; the family searches read their host's cached LP.
        # No LP may repeat.  An LP without columns takes no pivot and is
        # not counted.  Every LP is solved through ``tripack.exact``.
        assert not hasattr(tripack.haxell, "_simplex_packing")
        calls, graphs, seen = Counter(), [], Counter()

        def record(columns, caps, real=tripack.exact._simplex_packing):
            if columns:
                calls[sys._getframe(1).f_code.co_name, tuple(columns), tuple(caps)] += 1
            return real(columns, caps)

        monkeypatch.setattr(tripack.exact, "_simplex_packing", record)
        real_lp = tripack.exact.lp_optimal
        monkeypatch.setattr(tripack.exact, "lp_optimal", lambda h: graphs.append(h) or real_lp(h))
        for g in [*bb_search_haxell_graphs((0, 1, 2)), disjoint_copies(gen_random(4, 6, 2, 13), 13), HEAVY_K4]:
            calls.clear()
            graphs.clear()
            g = Multigraph(g.n, g.edges)  # a graph whose LP is not cached yet
            st = build_state(g)
            assert graphs == ([g, st.reduced] if st.anchors_b1 else [g]) and graphs[-1] is st.reduced
            assert set(calls.values()) == {1}
            callers = Counter(caller for caller, *_ in calls)
            assert callers["lp_optimal"] == len(graphs) and callers["max_type_packing"] <= 1
            assert callers.total() == len(graphs) + callers["max_type_packing"]
            seen.update(callers)
        assert seen["max_type_packing"] >= 10 and seen["lp_optimal"] >= 20

    def test_residual_bound_prunes_the_surplus_search(self):
        # Without the residual-capacity bound the b_prime search spent more
        # than 3M nodes here.
        assert build_state(gen_random(15, 52, 2, 3), budget=300_000).nu == 22

    def test_gain_prices_close_the_surplus_search(self):
        # Priced by the LP dual of the gaining types, the b_prime search
        # takes 5,038 nodes here; the summed rooms alone took 97,659.
        assert build_state(gen_random(15, 52, 2, 3), budget=10_000).nu == 22

    def test_thirteen_disjoint_k4s_fit_the_budget(self):
        # The b_prime search grew about 3.3x per copy and exhausted the 20M
        # default budget at 13 copies; priced by the gain LP, the whole
        # build takes 49,203 nodes.
        g = disjoint_copies(gen_random(4, 6, 2, 13), 13)
        covers = transversal_292(g, budget=100_000)
        assert covers.state.nu == 26
        assert verify_transversal(g, covers.best.certificate)
        assert covers.best.certificate.weight <= covers.limit

    @pytest.mark.parametrize("n, m", [(11, 30), (12, 34)])
    def test_parallel_copies_do_not_exhaust_the_budget(self, n, m):
        # An item-level search spent more than 20M nodes on either graph.
        assert build_state(gen_random(n, m, 2, 0), budget=200_000).nu == 12

    def test_a_heavy_triangle_never_lists_its_slot_triangles(self):
        # Listing all w**3 slot triangles took 1.8 s and 72 MB at w = 40;
        # one object per parallel copy took 2.8 s and 101 MB at w = 30000
        # (`tripack haxell` in a child process).
        for w in (1000, 10**9):
            g = Multigraph.from_edges(3, [(0, 1, w), (0, 2, w), (1, 2, w)])
            start = time.process_time()
            st = build_state(g)
            sizes = tuple(c.slot_size for c in candidate_transversals(st))
            assert time.process_time() - start < 1
            assert st.nu == w
            assert sizes == (3 * w, w, 3 * w, 3 * w, 3 * w)
            tracemalloc.start()
            try:
                candidate_transversals(build_state(g))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20

    def test_rung_family_on_disjoint_k4s(self):
        st = build_state(K4_RUNGS)
        assert st.nu == 16
        assert st.anchors_b1_prime.total() == st.i_family.total() == 8
        half = Fraction(1, 2)
        scalars = (st.gamma, st.beta, st.alpha, st.delta, st.eta, st.eta_prime, st.delta0)
        assert scalars == (0, half, half, half, half, 0, 0)
        assert [c.slot_size for c in candidate_transversals(st)] == [48, 24, 40, 24, 56]

    def test_no_partner_swap_variant_has_a_larger_rung_family(self):
        # Only graphs with an anchor and a parallel pair off b1 have
        # variants that could hold a rung family at all.
        checked = 0
        for n, m in ((4, 6), (5, 10), (6, 13)):
            for seed in range(420):
                st = reference_build_state(gen_random(n, m, 2, seed))
                off_b1 = set(_all_slot_edges(st.graph)) - {e for t in st.b1 for e in t.slot_edges}
                copies = Counter(e[:2] for e in off_b1)
                if st.anchors_b1_prime and max(copies.values(), default=0) >= 2:
                    rung_family = build_state(st.graph).i_family.total()
                    assert max(reference_swap_rung_sizes(st)) <= rung_family
                    checked += 1
        assert checked >= 100

    def test_dual_keeps_every_family(self, monkeypatch):
        # Each family search runs again priced by the uniform third instead
        # of its host's y*: it returns the same multiplicities, so the same
        # Counter, and spends at least as many nodes.  Priced by the LP dual
        # of its own type system, it returns them too.  The corpus has 143
        # states with triangles, each with three kernel searches: b1,
        # b_prime, b1_prime.
        real, fewer = tripack.haxell.max_type_packing, Counter()

        def both(types, caps, dual, *, budget, **kw):
            plain, priced = _Budget(10**9), _Budget(10**9)
            got = real(types, caps, dual, **kw, budget=priced)
            assert got == real(types, caps, (3, [1] * len(caps)), **kw, budget=plain)
            assert got == real(types, caps, _simplex_packing(types, caps)[2:], **kw, budget=_Budget(10**9))
            assert priced.remaining >= plain.remaining
            fewer[priced.remaining > plain.remaining] += 1
            return got

        monkeypatch.setattr(tripack.haxell, "max_type_packing", both)
        for seed, base in enumerate(atlas_with_triangle()):
            build_state(capacities_0_to_3(seed, base))
        for n in range(5, 10):
            for mult, m in ((2, min(2 * n + 1, n * (n - 1) // 2)), (3, n + 3)):
                for seed in range(4):
                    build_state(gen_random(n, m, mult, seed))
        build_state(HEAVY_K4)
        assert fewer[True] >= 50 and fewer.total() >= 400

    @pytest.mark.parametrize("guard, message", [
        (lambda: _require_packing(gen_complete(4), {Triangle(0, 1, 4): 1}), "family is not independent"),
        (lambda: _require_packing(gen_complete(4), {Triangle(0, 1, 2): 2}), "family is not independent"),
        (lambda: _cover(gen_complete(4), Counter({(0, 1): 2})), "a copy count exceeds its edge class"),
        (lambda: _position({(0, 1): [(0, 1), (1, 2), (0, 1)]}, (0, 1), 1, 2), "rank beyond its orbit"),
    ], ids=["missing triangle", "overdrawn class", "cover past its class", "rank past its orbit"])
    def test_guards_reject_what_no_state_builds(self, guard, message):
        # No state reaches these: a family off the host, copies beyond
        # their class, or a rank beyond its orbit.
        with pytest.raises(InvariantViolation, match=message):
            guard()

    def test_heavy_k4(self):
        st = build_state(HEAVY_K4)
        sizes = tuple(c.slot_size for c in candidate_transversals(st))
        assert st.nu == 24 and sizes == (68, 28, 72, 72, 72)


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

    def test_k_family_meets_the_bounds_of_d_and_e(self):
        # One anchor of b1_prime is fully surrounded (delta0 = 1/4) and lies
        # outside the rung family, so candidate e takes its partner's edges.
        # Candidate d meets its bound; e stays below its own.
        g = gen_random(5, 10, 2, 67)
        st = build_state(g)
        assert st.nu == 4 and st.delta0 == Fraction(1, 4)
        assert st.k_family and not set(st.k_family) & set(st.i_family)
        by_label = {c.label: c for c in candidate_transversals(st)}
        assert (by_label["d"].slot_size, by_label["d"].size_bound) == (7, 7)
        assert (by_label["e"].slot_size, by_label["e"].size_bound) == (9, 12)
        assert all(verify_transversal(g, c.certificate) for c in by_label.values())

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
        cert = transversal_292(gen_complete(4)).best.certificate
        assert cert.weight == 2

    def test_k5(self):
        g = gen_complete(5)
        cert = transversal_292(g).best.certificate
        assert verify_transversal(g, cert)
        assert tau_exact(g)[0] <= cert.weight <= 5

    def test_triangle_free(self):
        assert transversal_292(gen_cycle(5)).best.certificate.weight == 0

    def test_parallel_edges(self):
        g = Multigraph.from_edges(
            4, [(0, 1, 2), (0, 2, 2), (1, 2, 2), (0, 3, 1), (1, 3, 1), (2, 3, 1)]
        )
        cert = transversal_292(g).best.certificate
        assert verify_transversal(g, cert)

    def test_random_multigraphs(self):
        for seed in range(20):
            n = 4 + seed % 3
            m = min(6 + seed % 5, n * (n - 1) // 2)
            g = gen_random(n, m, 3, seed)
            cert = transversal_292(g).best.certificate
            assert verify_transversal(g, cert)
            assert cert.weight >= tau_exact(g)[0]

    def test_deterministic(self):
        g = gen_random(6, 9, 2, 13)
        assert transversal_292(g) == transversal_292(g)

    @pytest.mark.parametrize("args, nu", [((7, 12, 3, 9), 6), ((8, 14, 2, 2), 5)])
    def test_lightest_candidate_meets_the_bound_by_weight(self, args, nu):
        # On the first graph, taking every class with a copy in the slot set
        # gave a best cover of weight 23, against (73/25) nu = 438/25.  On
        # the second, the fewest slots (c, 12) are not the lightest cover
        # (a, weight 9), and dropping a's redundant edges leaves weight 6.
        g = gen_random(*args)
        st, cands, best, limit = transversal_292(g)
        assert st.nu == nu and limit == Fraction(73, 25) * nu
        for c in cands:
            assert verify_transversal(g, c.certificate)
            assert c.certificate.weight <= c.slot_size <= c.size_bound
        lightest = min(cands, key=lambda c: (c.certificate.weight, c.label))
        assert best.label == lightest.label
        assert best.certificate.edges <= lightest.certificate.edges
        assert verify_transversal(g, best.certificate)
        assert tau_exact(g)[0] <= best.certificate.weight <= lightest.certificate.weight <= limit

    def test_leaves_no_cyclic_garbage(self):
        # Search nodes that named themselves, in the nu search and the
        # family searches, left 210 objects to the cyclic collector here.
        g = gen_random(10, 25, 2, 0)
        g.lp
        assert cyclic_garbage(lambda: transversal_292(g)) == 0
