import random
import time

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
    _Reducer,
    reduce_and_certify,
)

from oracles import (
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
    return corpus


def _engine_steps(g: Multigraph) -> list[ReductionStep]:
    r = _Reducer(g)
    steps = []
    while (step := r.next_step()) is not None:
        r.apply(step)
        steps.append(step)
    return steps


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
            assert steps == reference_reduction_steps(g)


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

    def test_deterministic(self):
        g = with_random_weights(gen_stacked(9, 4), (1, 2, 3), 7)
        assert reduce_and_certify(g) == reduce_and_certify(g)
