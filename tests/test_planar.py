from tripack import (
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
    apply_step,
    find_reduction,
    reduce_and_certify,
)


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
        assert step.removed_edge == (0, 1)

    def test_heavy_edge_rule(self):
        # K4 with one doubled edge: every edge lies in exactly two
        # triangles, so the first applicable rule is the heavy-edge one.
        g = gen_complete(4).with_weight(0, 1, 2)
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

    def test_deterministic(self):
        g = with_random_weights(gen_stacked(9, 4), (1, 2, 3), 7)
        assert reduce_and_certify(g) == reduce_and_certify(g)
