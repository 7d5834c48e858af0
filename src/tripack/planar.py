"""Reduction engine certifying ``weight(cover) <= 2 * packing``.

Four local rewrite rules, each strictly decreasing ``|E| + w(E)``:

1. drop an edge of capacity 0;
2. an edge in exactly one triangle: decrement all three triangle edges;
3. an edge of capacity >= 2 in exactly two triangles: decrement it twice
   and its four flank edges once;
4. a vertex whose neighborhood induces a single chordless cycle, all
   spokes of capacity 1: delete the vertex and decrement a maximum
   matching of the rim.

Rules are tried in this order, witnesses in lexicographic order.  When the
residual graph is triangle-free, unwinding the trace extends a packing and
a transversal level by level so that the final transversal weighs at most
twice the packing size.  On inputs where no rule applies while triangles
remain (possible off the planar corpus), the engine reports an incomplete
status with still-valid certificates but no weight guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .core import (
    Edge,
    InvariantViolation,
    Multigraph,
    PackingCertificate,
    TransversalCertificate,
    Triangle,
    norm_edge,
    verify_packing,
    verify_transversal,
)

ZERO_EDGE = "zero_edge"
SINGLE_TRIANGLE_EDGE = "single_triangle_edge"
DOUBLE_TRIANGLE_HEAVY_EDGE = "double_triangle_heavy_edge"
CYCLE_NEIGHBORHOOD = "cycle_neighborhood"

COMPLETE = "complete"
INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class ReductionStep:
    """One applicable rewrite with its witness and weight decrements."""

    kind: str
    witness_edge: Edge | None = None
    witness_vertex: int | None = None
    triangles: tuple[Triangle, ...] = ()
    weight_deltas: Mapping[Edge, int] = field(default_factory=dict)
    cycle: tuple[int, ...] = ()


def _triangles_per_edge(g: Multigraph) -> dict[Edge, list[Triangle]]:
    per: dict[Edge, list[Triangle]] = {(u, v): [] for u, v, _ in g.edges}
    for t in g.triangles:
        for e in t.edges:
            per[e].append(t)
    return per


def _induced_cycle_order(g: Multigraph, v: int) -> tuple[int, ...] | None:
    """The neighborhood of ``v`` as a single chordless cycle, or None.

    Requires at least 3 neighbors, every neighbor adjacent to exactly two
    others, and one closed walk through all of them.
    """
    ns = g.neighbors(v)
    k = len(ns)
    if k < 3:
        return None
    nset = set(ns)
    inner = {x: sorted(y for y in g.neighbors(x) if y in nset) for x in ns}
    if any(len(ys) != 2 for ys in inner.values()):
        return None
    start = ns[0]
    order = [start, inner[start][0]]
    while True:
        prev, cur = order[-2], order[-1]
        a, b = inner[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        order.append(nxt)
        if len(order) > k:
            return None
    if len(order) != k:
        return None
    return tuple(order)


def find_reduction(g: Multigraph) -> ReductionStep | None:
    """The first applicable rule, scanning kinds in order and witnesses
    lexicographically; None when nothing applies."""
    per = _triangles_per_edge(g)

    for u, v, w in g.edges:
        if w == 0:
            return ReductionStep(
                kind=ZERO_EDGE,
                witness_edge=(u, v),
                triangles=tuple(per[(u, v)]),
            )

    wmap = g.weight_map
    for u, v, w in g.edges:
        tris = per[(u, v)]
        if len(tris) == 1 and w >= 1:
            t = tris[0]
            if all(wmap[e] >= 1 for e in t.edges):
                return ReductionStep(
                    kind=SINGLE_TRIANGLE_EDGE,
                    witness_edge=(u, v),
                    triangles=(t,),
                    weight_deltas={e: 1 for e in t.edges},
                )

    for u, v, w in g.edges:
        tris = per[(u, v)]
        if len(tris) == 2 and w >= 2:
            flanks = [e for t in tris for e in t.edges if e != (u, v)]
            if all(wmap[e] >= 1 for e in flanks):
                deltas = {e: 1 for e in flanks}
                deltas[(u, v)] = 2
                return ReductionStep(
                    kind=DOUBLE_TRIANGLE_HEAVY_EDGE,
                    witness_edge=(u, v),
                    triangles=tuple(tris),
                    weight_deltas=deltas,
                )

    for v in range(g.n):
        cycle = _induced_cycle_order(g, v)
        if cycle is None:
            continue
        if any(wmap[norm_edge(v, u)] != 1 for u in cycle):
            continue
        k = len(cycle)
        matched = [
            norm_edge(cycle[2 * i], cycle[2 * i + 1]) for i in range(k // 2)
        ]
        if any(wmap[e] < 1 for e in matched):
            continue
        tris = tuple(
            Triangle.of(v, cycle[2 * i], cycle[2 * i + 1]) for i in range(k // 2)
        )
        return ReductionStep(
            kind=CYCLE_NEIGHBORHOOD,
            witness_vertex=v,
            triangles=tris,
            weight_deltas={e: 1 for e in matched},
            cycle=cycle,
        )
    return None


def apply_step(g: Multigraph, step: ReductionStep) -> Multigraph:
    """The graph after ``step``, built in one pass over ``g.edges``.

    Capacities drop by the step's deltas; rule 1 deletes its witness edge
    and rule 4 every edge at its witness vertex.  Vertex ids are kept.
    """
    deltas = step.weight_deltas
    drop_edge = step.witness_edge if step.kind == ZERO_EDGE else None
    drop_vertex = step.witness_vertex if step.kind == CYCLE_NEIGHBORHOOD else None
    edges = []
    for u, v, w in g.edges:
        w -= deltas.get((u, v), 0)
        if w < 0:
            raise InvariantViolation(f"step would drive edge {(u, v)} below 0")
        if (u, v) != drop_edge and drop_vertex not in (u, v):
            edges.append((u, v, w))
    return Multigraph(g.n, tuple(edges))


def _measure(g: Multigraph) -> int:
    return len(g.edges) + g.total_weight


def _minimalize(tris: tuple[Triangle, ...], cover: set[Edge]) -> set[Edge]:
    """Drop edges (lexicographic order) while every triangle stays covered."""
    out = set(cover)
    for e in sorted(cover):
        trial = out - {e}
        if all(any(x in trial for x in t.edges) for t in tris):
            out = trial
    return out


def _path_cover_spokes(
    cycle: tuple[int, ...], uncovered: set[int]
) -> list[int]:
    """Rim vertices covering the uncovered cycle edges, alternating greedily.

    Edge ``i`` joins ``cycle[i]`` and ``cycle[(i+1) % k]``.  A full cycle
    needs ``ceil(k/2)`` vertices; otherwise the uncovered edges split into
    paths, each path of ``m`` edges needing ``ceil(m/2)``.
    """
    k = len(cycle)
    if len(uncovered) == k:
        chosen = [cycle[2 * i + 1] for i in range(k // 2)]
        if k % 2 == 1:
            chosen.append(cycle[0])
        return chosen
    chosen = []
    for i in sorted(uncovered):
        if (i - 1) % k in uncovered:
            continue  # not a segment start
        m = 1
        while (i + m) % k in uncovered:
            m += 1
        # segment edges i .. i+m-1 over vertices cycle[i..i+m]
        chosen.extend(cycle[(i + 1 + 2 * j) % k] for j in range((m + 1) // 2))
    return chosen


def _extend(
    tris: tuple[Triangle, ...],
    step: ReductionStep,
    packing: dict[Triangle, int],
    cover: set[Edge],
) -> tuple[dict[Triangle, int], set[Edge]]:
    """Lift certificates of the reduced instance through one step.

    ``tris`` are the triangles of the graph before the step.  Each branch
    re-establishes the weight accounting of its rule and raises on
    violation instead of emitting an unsound certificate.
    """
    if step.kind == ZERO_EDGE:
        e = step.witness_edge
        assert e is not None
        needs = any(not any(x in cover for x in t.edges) for t in step.triangles)
        return packing, (cover | {e}) if needs else cover

    if step.kind == SINGLE_TRIANGLE_EDGE:
        (t,) = step.triangles
        new_cover = _minimalize(tris, cover)
        touched = sum(e in new_cover for e in t.edges)
        if touched > 2:
            raise InvariantViolation("minimal cover keeps all three triangle edges")
        new_packing = dict(packing)
        new_packing[t] = new_packing.get(t, 0) + 1
        return new_packing, new_cover

    if step.kind == DOUBLE_TRIANGLE_HEAVY_EDGE:
        e = step.witness_edge
        assert e is not None
        t1, t2 = step.triangles
        new_cover = _minimalize(tris, cover)
        delta = 2 * (e in new_cover) + sum(
            x in new_cover for x in step.weight_deltas if x != e
        )
        if delta > 4:
            raise InvariantViolation("heavy-edge accounting exceeds 4")
        new_packing = dict(packing)
        for t in (t1, t2):
            new_packing[t] = new_packing.get(t, 0) + 1
        return new_packing, new_cover

    if step.kind == CYCLE_NEIGHBORHOOD:
        v = step.witness_vertex
        assert v is not None
        cycle = step.cycle
        k = len(cycle)
        uncovered = {
            i
            for i in range(k)
            if norm_edge(cycle[i], cycle[(i + 1) % k]) not in cover
        }
        spokes = {norm_edge(v, u) for u in _path_cover_spokes(cycle, uncovered)}
        rim_hits = sum(e in cover for e in step.weight_deltas)
        if rim_hits + len(spokes) > 2 * (k // 2):
            raise InvariantViolation("wheel accounting exceeds twice the matching")
        new_packing = dict(packing)
        for t in step.triangles:
            new_packing[t] = new_packing.get(t, 0) + 1
        return new_packing, cover | spokes

    raise InvariantViolation(f"unknown step kind {step.kind}")


def reduce_and_certify(
    g: Multigraph,
) -> tuple[PackingCertificate, TransversalCertificate, str]:
    """Reduce to a residual, then unwind, growing both certificates.

    On a triangle-free residual the status is ``"complete"`` and the
    returned pair verifies against the original graph with
    ``weight(cover) <= 2 * packing``.  Otherwise the status is
    ``"incomplete"``: the certificates are still valid (the residual's
    triangles are covered by all their edges) but no ratio is claimed.
    """
    # Each level keeps only the triangles the unwinding needs, so the
    # intermediate graphs (and what they cache) are freed as the loop goes.
    levels: list[tuple[tuple[Triangle, ...], ReductionStep]] = []
    cur = g
    while (step := find_reduction(cur)) is not None:
        nxt = apply_step(cur, step)
        if _measure(nxt) >= _measure(cur):
            raise InvariantViolation("reduction step failed to shrink the measure")
        levels.append((cur.triangles, step))
        cur = nxt

    residual_tris = cur.triangles
    complete = not residual_tris
    packing: dict[Triangle, int] = {}
    cover: set[Edge] = (
        set() if complete else {e for t in residual_tris for e in t.edges}
    )
    for tris, step in reversed(levels):
        packing, cover = _extend(tris, step, packing, cover)

    pc = PackingCertificate.from_map(packing)
    tc = TransversalCertificate.from_edges(g, cover)
    if not verify_packing(g, pc):
        raise InvariantViolation("unwound packing violates capacities")
    if not verify_transversal(g, tc):
        raise InvariantViolation("unwound transversal misses a triangle")
    if complete and tc.weight > 2 * pc.value:
        raise InvariantViolation("cover weight exceeds twice the packing size")
    return pc, tc, COMPLETE if complete else INCOMPLETE
