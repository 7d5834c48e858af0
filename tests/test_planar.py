import itertools
import random
import time
import tracemalloc
from dataclasses import replace

import pytest

from tripack import (
    InvariantViolation,
    Multigraph,
    nu_exact,
    tau_exact,
    verify_packing,
    verify_transversal,
)
from tripack.generators import (
    gen_complete,
    gen_cycle,
    gen_octahedron,
    gen_random,
    gen_stacked,
    gen_wheel,
    with_random_weights,
)
from tripack.planar import (
    COMPLETE,
    CYCLE_NEIGHBORHOOD,
    INCOMPLETE,
    SINGLE_TRIANGLE_EDGE,
    ZERO_EDGE,
    ReductionStep,
    apply_step,
    find_reduction,
    _path_cover_spokes,
    _Reducer,
    reduce_and_certify,
)

from oracles import (
    _reference_spokes,
    atlas_with_triangle,
    reference_reduce_and_certify,
    reference_reduction_steps,
    triangle_union,
)


def _capacities_012(g: Multigraph, seed: int) -> Multigraph:
    rng = random.Random(seed)
    return Multigraph(g.n, tuple((u, v, rng.choice((0, 1, 2))) for u, v, _ in g.edges))


def _oracle_corpus() -> list[Multigraph]:
    atlas = atlas_with_triangle()
    corpus = atlas + [_capacities_012(g, seed) for seed, g in enumerate(atlas)]
    corpus += [gen_wheel(k) for k in range(3, 10)]
    corpus += [gen_complete(k) for k in range(3, 8)]
    # Stalled runs whose residual cover loses edges in the minimality pass.
    corpus += [_capacities_012(gen_complete(k), seed) for k in (7, 8) for seed in range(12)]
    # Rule 4 fails at vertex 0 while the chord 1-3 lies in its neighborhood.
    # The chord is deleted by steps that touch no edge at 0, so only its
    # deletion can make vertex 0 a witness again.
    corpus.append(Multigraph.from_edges(7, [
        (0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1),
        (1, 6, 1), (2, 3, 1), (2, 5, 1), (3, 4, 1), (3, 5, 1), (3, 6, 1), (4, 5, 1), (4, 6, 1),
    ]))
    corpus += [_capacities_012(gen_stacked(n, n), n) for n in (8, 15, 25)]
    corpus += [gen_random(n, m, 3, s) for n, m in ((8, 16), (10, 25)) for s in range(4)]
    # Capacities up to 20, so that rules 2 and 3 run many times in a row.
    corpus += [with_random_weights(gen_stacked(n, n), (1, 5, 20), n) for n in (8, 12)]
    return corpus


def _unit_steps(steps: list[ReductionStep]) -> list[ReductionStep]:
    """Each run of ``times`` steps expanded into the unit steps it stands for."""
    return [
        replace(s, times=1, weight_deltas={e: d // s.times for e, d in s.weight_deltas.items()})
        for s in steps for _ in range(s.times)
    ]


def _engine_steps(g: Multigraph) -> list[ReductionStep]:
    """The engine's steps, with its runs expanded into unit steps."""
    r = _Reducer(g)
    steps = []
    while (step := r.next_step()) is not None:
        r.apply(step)
        steps.append(step)
    return _unit_steps(steps)


class TestFindReduction:
    def test_unit_triangle_uses_rule_two(self):
        step = find_reduction(gen_complete(3))
        assert step is not None
        assert step.kind == SINGLE_TRIANGLE_EDGE
        assert step.witness_edge == (0, 1)

    def test_k4_uses_cycle_rule_at_vertex_zero(self):
        step = find_reduction(gen_complete(4))
        assert step is not None
        assert step.kind == CYCLE_NEIGHBORHOOD
        assert step.witness_vertex == 0
        assert sorted(step.cycle) == [1, 2, 3]

    def test_cycle_rule_skips_two_disjoint_rim_cycles(self):
        # Two octahedra glued at vertex 0: its neighbourhood is two disjoint
        # 4-cycles, not one chordless cycle, so rule 4 passes it over.
        octa = gen_octahedron().edges
        glued = [(0 if u == 0 else u + 5, v + 5, w) for u, v, w in octa]
        g = Multigraph.from_edges(11, [*octa, *glued])
        step = find_reduction(g)
        assert step is not None and step.kind == CYCLE_NEIGHBORHOOD
        assert step.witness_vertex == 1
        p, c, status = reduce_and_certify(g)
        assert (p, c, status) == reference_reduce_and_certify(g)
        assert (status, p.value, c.weight) == (COMPLETE, 8, 9)

    def test_triangle_free_positive_none(self):
        assert find_reduction(gen_cycle(5)) is None

    def test_zero_edge_first(self):
        g = Multigraph.from_edges(3, [(0, 1, 0), (0, 2, 1), (1, 2, 1)])
        step = find_reduction(g)
        assert step is not None and step.kind == ZERO_EDGE
        assert step.witness_edge == (0, 1)

    def test_heavy_edge_rule(self):
        # K4 with one doubled edge: every edge lies in exactly two
        # triangles, so the first applicable rule is the heavy-edge one.
        g = Multigraph.from_edges(
            4, [(0, 1, 2), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
        )
        step = find_reduction(g)
        assert step is not None and step.kind == "double_triangle_heavy_edge"
        assert step.witness_edge == (0, 1)
        assert step.weight_deltas[(0, 1)] == 2

    def test_runs_repeat_one_witness(self):
        # Rule 2 repeats until an edge of its triangle reaches 0.
        step = find_reduction(Multigraph.from_edges(3, [(0, 1, 7), (0, 2, 4), (1, 2, 9)]))
        assert step.kind == SINGLE_TRIANGLE_EDGE and step.times == 4
        assert step.weight_deltas == {(0, 1): 4, (0, 2): 4, (1, 2): 4}
        # Rule 3 repeats until a flank reaches 0 or its edge drops below 2.
        caps = {(0, 1): 9, (0, 2): 5, (0, 3): 5, (1, 2): 4, (1, 3): 6, (2, 3): 7}
        for heavy, times in ((9, 4), (7, 3), (2, 1)):
            g = Multigraph.from_edges(4, [(u, v, heavy if (u, v) == (0, 1) else w)
                                          for (u, v), w in caps.items()])
            step = find_reduction(g)
            assert step.kind == "double_triangle_heavy_edge" and step.times == times
            assert step.weight_deltas[(0, 1)] == 2 * times
            assert _engine_steps(g) == reference_reduction_steps(g)
            assert reduce_and_certify(g) == reference_reduce_and_certify(g)

    def test_steps_shrink_measure(self):
        cur = with_random_weights(gen_wheel(6), (1, 2, 3), 3)
        steps = 0
        while (step := find_reduction(cur)) is not None:
            nxt = apply_step(cur, step)
            assert len(nxt.edges) + nxt.total_weight < len(cur.edges) + cur.total_weight
            cur = nxt
            steps += 1
        assert steps > 0 and not cur.triangles


class TestAgainstReference:
    def test_steps_and_certificates_match_rescan(self):
        statuses = set()
        for g in _oracle_corpus():
            steps = reference_reduction_steps(g)
            assert _engine_steps(g) == steps
            result = reduce_and_certify(g)
            assert result == reference_reduce_and_certify(g)
            statuses.add(result[2])
        assert statuses == {COMPLETE, INCOMPLETE}

    def test_views_match_rescan(self):
        for g in [gen_complete(5), gen_wheel(7), with_random_weights(gen_stacked(12, 3), (0, 1, 2), 3)]:
            cur, steps = g, []
            while (step := find_reduction(cur)) is not None:
                steps.append(step)
                cur = apply_step(cur, step)
            assert _unit_steps(steps) == reference_reduction_steps(g)


def _segment_lengths(k: int, uncovered: set[int]) -> list[int]:
    """Lengths of the runs of consecutive uncovered edges around a k-cycle."""
    start = next(i for i in range(k) if i not in uncovered)
    runs, m = [], 0
    for i in range(start + 1, start + k + 1):
        if i % k in uncovered:
            m += 1
        elif m:
            runs.append(m)
            m = 0
    return runs


class TestPathCoverSpokes:
    def test_every_rim_edge_set_on_cycles_3_to_9(self):
        cases = 0
        for k in range(3, 10):
            cycle = tuple(range(20, 20 + k))
            for r in range(1, k + 1):
                for picked in itertools.combinations(range(k), r):
                    uncovered = set(picked)
                    chosen = _path_cover_spokes(cycle, uncovered)
                    assert chosen == _reference_spokes(cycle, uncovered)
                    for i in uncovered:
                        assert {cycle[i], cycle[(i + 1) % k]} & set(chosen)
                    if r == k:
                        assert len(chosen) == (k + 1) // 2
                    else:
                        assert len(chosen) == sum((m + 1) // 2 for m in _segment_lengths(k, uncovered))
                    cases += 1
        assert cases == 1009


class TestApplyStep:
    def test_cycle_step_deletes_vertex_keeps_ids(self):
        g = gen_complete(4)
        h = apply_step(g, find_reduction(g))
        assert h.n == 4
        assert all(0 not in (u, v) for u, v, _ in h.edges)

    def test_delta_above_capacity_raises(self):
        g = gen_complete(3)
        step = ReductionStep(
            kind=SINGLE_TRIANGLE_EDGE,
            witness_edge=(0, 1),
            triangles=tuple(g.triangles),
            weight_deltas={(0, 1): 2},
        )
        with pytest.raises(InvariantViolation, match="below 0"):
            apply_step(g, step)


class TestReduceAndCertify:
    def test_single_triangle(self):
        p, c, status = reduce_and_certify(gen_complete(3))
        assert status == COMPLETE
        assert p.value == 1 and c.weight == 1

    def test_k4(self):
        p, c, status = reduce_and_certify(gen_complete(4))
        assert status == COMPLETE
        assert p.value == 1 and c.weight == 2

    def test_triangle_free(self):
        p, c, status = reduce_and_certify(gen_cycle(6))
        assert status == COMPLETE
        assert p.value == 0 and c.weight == 0

    def test_k5_incomplete_but_valid(self):
        g = gen_complete(5)
        p, c, status = reduce_and_certify(g)
        assert status == INCOMPLETE
        assert verify_packing(g, p) and verify_transversal(g, c)

    def test_corpus_with_random_weights(self):
        corpus = [gen_complete(4), gen_octahedron()]
        corpus += [gen_wheel(k) for k in range(3, 9)]
        corpus += [gen_stacked(n, s) for n in (6, 8, 10) for s in range(2)]
        for base in corpus:
            for seed in range(2):
                g = with_random_weights(base, (1, 2, 3), seed)
                p, c, status = reduce_and_certify(g)
                assert status == COMPLETE
                assert verify_packing(g, p) and verify_transversal(g, c)
                assert c.weight <= 2 * p.value
                assert p.value <= nu_exact(g)[0]
                assert c.weight >= tau_exact(g)[0]

    @pytest.mark.parametrize(
        "g, packed",
        [(gen_stacked(400, seed=1), None), (triangle_union(400), 400)],
        ids=["S400", "U400"],
    )
    def test_scales_to_400(self, g, packed):
        # Rescanning the whole graph at every step takes tens of seconds on
        # each of these; the working state takes well under a second.
        start = time.process_time()
        p, c, status = reduce_and_certify(g)
        assert time.process_time() - start < 5
        assert status == COMPLETE
        assert verify_packing(g, p) and verify_transversal(g, c)
        assert c.weight <= 2 * p.value
        if packed is not None:
            # packing <= nu <= tau <= cover, so nu = tau = 400.
            assert p.value == c.weight == packed

    def test_one_triangle_of_capacity_10_to_the_9(self):
        # One step per unit of capacity ran to 7.7 GB here; the run is one step.
        g = Multigraph.from_edges(3, [(0, 1, 10**9), (0, 2, 10**9), (1, 2, 10**9)])
        assert find_reduction(g).times == 10**9
        start = time.process_time()
        p, c, status = reduce_and_certify(g)
        assert time.process_time() - start < 1
        assert (status, p.value, c.weight) == (COMPLETE, 10**9, 10**9)

    def test_huge_declared_vertex_count(self):
        # Only the vertices on an edge are walked: 10**6 declared vertices
        # used to cost about 300 MB.
        edges = [(0, 1, 1), (0, 2, 1), (0, 3, 2), (1, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1)]
        small, huge = Multigraph.from_edges(5, edges), Multigraph.from_edges(10**6, edges)
        tracemalloc.start()
        try:
            result = reduce_and_certify(huge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert result == reduce_and_certify(small)
        assert _engine_steps(huge) == reference_reduction_steps(small)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: no rule applies to S48w-0's residual K4")
    def test_weighted_stacked_48_is_complete(self):
        # A planar graph, yet it stops incomplete with packing 68 and cover
        # 83: the rule that item 6 adds has to flip this test.
        g = with_random_weights(gen_stacked(48, seed=0), (1, 2, 3), seed=0)
        p, c, status = reduce_and_certify(g)
        assert verify_packing(g, p) and verify_transversal(g, c)
        assert status == COMPLETE

    def test_deterministic(self):
        g = with_random_weights(gen_stacked(9, 4), (1, 2, 3), 7)
        assert reduce_and_certify(g) == reduce_and_certify(g)
