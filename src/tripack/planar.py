"""Reduction engine certifying ``weight(cover) <= 2 * packing``.

Four local rewrite rules, each strictly decreasing the measure
``|E| + w(E)``:

1. drop an edge of capacity 0;
2. an edge in exactly one triangle: decrement all three triangle edges;
3. an edge of capacity >= 2 in exactly two triangles: decrement it twice
   and its four flank edges once;
4. a vertex whose neighborhood induces a single chordless cycle, all
   spokes of capacity 1: delete the vertex and decrement a maximum
   matching of the rim.

Each step applies the first rule, in this order, that has a witness, with
its lexicographically first witness (edges as sorted pairs, vertices by id).
So rules 2-4 are examined only when no edge has capacity 0, and each of
their decrements finds a capacity of at least 1.

Steps of rules 2 and 3 come in runs.  Their decrements delete nothing, so
the witness stays first until an edge reaches 0 and rule 1 applies: rule 2
repeats ``k`` times, ``k`` the smallest capacity on its triangle; rule 3
also stops once its edge drops below 2, after ``k = min(cap(e) // 2,
smallest flank)`` steps.  One ``ReductionStep`` with ``times = k`` and ``k``
times the unit decrements stands for the run, and the unwinding packs its
triangles ``k`` times, so the cost does not grow with the capacities.

Working state.  ``reduce_and_certify`` builds one private ``_Reducer`` from
the input graph and mutates it in place for the whole run: capacities,
adjacency sets, per-edge sets of live triangles (from ``g.incidence``),
the step at which each triangle died, the running measure, and one
min-heap of candidate witnesses per rule.  ``find_reduction`` and
``apply_step`` are views over a fresh state, so each rule is written once.

Worklist invariant.  Every witness that satisfies its rule is in that
rule's heap.  At the start every candidate is pushed.  Afterwards,
capacities and triangle counts only decrease and edges are only deleted,
so a witness can newly satisfy its rule only when

- rule 1: its capacity reaches 0;
- rules 2 and 3: its triangle count drops;
- rule 4: an edge at the vertex is deleted, or an edge between two of its
  neighbors (the vertex is then a common neighbor of that edge's ends).
  Rule 4 is examined only when rules 1-3 have no witness, so then every
  capacity is at least 1, and a spoke of capacity >= 2 around a chordless
  cycle would be a rule 3 witness (it lies in exactly two triangles).  So
  rule 4 can fail only on the shape of the neighborhood, and capacity
  changes cannot make it apply.

Each step pushes exactly these witnesses.  Selection is lazy: the top of
each heap is checked against the current state and popped only when its
rule does not apply, and a popped witness can apply again only after it is
pushed again.  So the first applicable top, over the heaps in rule order,
is the step that a full rescan of the graph would pick.

Unwinding.  The steps are undone in reverse, extending a packing and a
transversal level by level.  When the residual graph is triangle-free,
the final transversal weighs at most twice the packing size.  Rules 2 and
3 first make the cover minimal at their level: edges are dropped in
lexicographic order while every triangle stays covered.  Dropping an edge
can uncover only the triangles through it, so only those still alive at
that level are checked.  And only edges of the residual cover are tried,
once: an edge that the unwinding adds always keeps a triangle that it
alone covers (see ``_Unwinding``).  So a triangle-free residual needs no
minimality pass at all, and the cover is the one that trying every edge
against every triangle at every such step would give.

On inputs where no rule applies while triangles remain, such as K5 and
some planar graphs, the engine reports an incomplete status with
still-valid certificates but no weight guarantee.  The planar
``with_random_weights(gen_stacked(48, seed=0), (1, 2, 3), seed=0)`` stops
at a unit K4 whose vertices keep edges on no triangle, so rule 4 never
applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
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
    """One applicable rewrite, ``times`` times over, with its witness and total decrements."""

    kind: str
    witness_edge: Edge | None = None
    witness_vertex: int | None = None
    triangles: tuple[Triangle, ...] = ()
    weight_deltas: Mapping[Edge, int] = field(default_factory=dict)
    cycle: tuple[int, ...] = ()
    times: int = 1


class _Reducer:
    """The mutable working state of one reduction run."""

    def __init__(self, g: Multigraph):
        self.n = g.n
        self.cap: dict[Edge, int] = dict(g.weight_map)
        # Only vertices on an edge: the declared vertex count may be huge.
        self.adj: dict[int, set[int]] = {}
        for u, v in self.cap:
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)
        inc = g.incidence
        self.tris = {e: {inc.triangles[j] for j in on} for e, on in zip(inc.edges, inc.on_edge)}
        # Triangle -> index of the step that deleted one of its edges.
        self.died: dict[Triangle, int] = {}
        self.steps = 0
        self.measure = len(self.cap) + sum(self.cap.values())
        # The edges come in sorted order, so every list is already a heap.
        self.heaps = (
            [e for e, w in self.cap.items() if w == 0],
            [e for e, ts in self.tris.items() if len(ts) == 1],
            [e for e, ts in self.tris.items() if len(ts) == 2],
            sorted(self.adj),
        )

    def graph(self) -> Multigraph:
        return Multigraph(self.n, tuple((u, v, w) for (u, v), w in sorted(self.cap.items())))

    def _zero_edge(self, e: Edge) -> ReductionStep | None:
        if self.cap.get(e) != 0:
            return None
        return ReductionStep(
            kind=ZERO_EDGE, witness_edge=e, triangles=tuple(sorted(self.tris[e]))
        )

    def _single_triangle_edge(self, e: Edge) -> ReductionStep | None:
        ts = self.tris.get(e)
        if ts is None or len(ts) != 1:
            return None
        (t,) = ts
        k = min(self.cap[x] for x in t.edges)
        return ReductionStep(
            kind=SINGLE_TRIANGLE_EDGE,
            witness_edge=e,
            triangles=(t,),
            weight_deltas={x: k for x in t.edges},
            times=k,
        )

    def _double_triangle_heavy_edge(self, e: Edge) -> ReductionStep | None:
        ts = self.tris.get(e)
        if ts is None or len(ts) != 2 or self.cap[e] < 2:
            return None
        tris = tuple(sorted(ts))
        flanks = [x for t in tris for x in t.edges if x != e]
        k = min(self.cap[e] // 2, *(self.cap[x] for x in flanks))
        deltas = {x: k for x in flanks}
        deltas[e] = 2 * k
        return ReductionStep(
            kind=DOUBLE_TRIANGLE_HEAVY_EDGE,
            witness_edge=e,
            triangles=tris,
            weight_deltas=deltas,
            times=k,
        )

    def _cycle_neighborhood(self, v: int) -> ReductionStep | None:
        ns = self.adj[v]
        if len(ns) < 3 or any(self.cap[norm_edge(v, u)] != 1 for u in ns):
            return None
        cycle = self._induced_cycle_order(v)
        if cycle is None:
            return None
        k = len(cycle)
        matched = [norm_edge(cycle[2 * i], cycle[2 * i + 1]) for i in range(k // 2)]
        return ReductionStep(
            kind=CYCLE_NEIGHBORHOOD,
            witness_vertex=v,
            triangles=tuple(
                Triangle.of(v, cycle[2 * i], cycle[2 * i + 1]) for i in range(k // 2)
            ),
            weight_deltas={e: 1 for e in matched},
            cycle=cycle,
        )

    def _induced_cycle_order(self, v: int) -> tuple[int, ...] | None:
        """The neighborhood of ``v`` as a single chordless cycle, or None.

        Requires at least 3 neighbors, every neighbor adjacent to exactly two
        others (so the walk from the first closes within ``k`` steps), and
        one closed walk through all of them.
        """
        nset = self.adj[v]
        ns = sorted(nset)
        k = len(ns)
        inner = {}
        for x in ns:
            ys = self.adj[x] & nset
            if len(ys) != 2:
                return None
            inner[x] = sorted(ys)
        start = ns[0]
        order = [start, inner[start][0]]
        while True:
            prev, cur = order[-2], order[-1]
            a, b = inner[cur]
            nxt = b if a == prev else a
            if nxt == start:
                break
            order.append(nxt)
        if len(order) != k:
            return None
        return tuple(order)

    def next_step(self) -> ReductionStep | None:
        """The first applicable rule and witness; None when nothing applies."""
        checks = (
            self._zero_edge,
            self._single_triangle_edge,
            self._double_triangle_heavy_edge,
            self._cycle_neighborhood,
        )
        for heap, check in zip(self.heaps, checks):
            while heap:
                step = check(heap[0])
                if step is not None:
                    return step
                top = heappop(heap)
                while heap and heap[0] == top:
                    heappop(heap)
        return None

    def apply(self, step: ReductionStep) -> None:
        """Apply ``step`` in place and push every witness it may enable."""
        cap = self.cap
        for e, d in step.weight_deltas.items():
            if cap.get(e, 0) < d:
                raise InvariantViolation(f"step would drive edge {e} below 0")
        before = self.measure
        for e, d in step.weight_deltas.items():
            cap[e] -= d
            self.measure -= d
            if cap[e] == 0:
                heappush(self.heaps[0], e)
        if step.kind == ZERO_EDGE:
            assert step.witness_edge is not None
            self._delete_edge(step.witness_edge)
        elif step.kind == CYCLE_NEIGHBORHOOD:
            v = step.witness_vertex
            assert v is not None
            for u in sorted(self.adj[v]):
                self._delete_edge(norm_edge(v, u))
        if self.measure >= before:
            raise InvariantViolation("reduction step failed to shrink the measure")
        self.steps += 1

    def _delete_edge(self, e: Edge) -> None:
        if e not in self.cap:
            return
        u, v = e
        self.measure -= 1 + self.cap.pop(e)
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        _, single, double, cyc = self.heaps
        heappush(cyc, u)
        heappush(cyc, v)
        for t in self.tris.pop(e):
            self.died[t] = self.steps
            heappush(cyc, t.a + t.b + t.c - u - v)  # a common neighbor of u and v
            for x in t.edges:
                if x != e:
                    ts = self.tris[x]
                    ts.discard(t)
                    if len(ts) == 1:
                        heappush(single, x)
                    elif len(ts) == 2:
                        heappush(double, x)


def find_reduction(g: Multigraph) -> ReductionStep | None:
    """The first applicable rule, scanning kinds in order and witnesses
    lexicographically, as a run; None when nothing applies."""
    return _Reducer(g).next_step()


def apply_step(g: Multigraph, step: ReductionStep) -> Multigraph:
    """The graph after ``step``.

    Capacities drop by the step's deltas; rule 1 deletes its witness edge
    and rule 4 every edge at its witness vertex.  Vertex ids are kept.
    """
    r = _Reducer(g)
    r.apply(step)
    return r.graph()


def _path_cover_spokes(
    cycle: tuple[int, ...], uncovered: set[int]
) -> list[int]:
    """Rim vertices covering the uncovered cycle edges, alternating greedily.

    Edge ``i`` joins ``cycle[i]`` and ``cycle[(i+1) % k]``.  The uncovered
    edges split into paths, each path of ``m`` edges needing ``ceil(m/2)``;
    a fully uncovered cycle is one path of ``k`` edges starting at edge 0.
    """
    k = len(cycle)
    order = sorted(uncovered)
    chosen = []
    starts = [i for i in order if (i - 1) % k not in uncovered] or order[:1]
    for i in starts:
        m = 1
        while m < k and (i + m) % k in uncovered:
            m += 1
        # segment edges i .. i+m-1 over vertices cycle[i..i+m]
        chosen.extend(cycle[(i + 1 + 2 * j) % k] for j in range((m + 1) // 2))
    return chosen


class _Unwinding:
    """Certificates grown from the residual back to the input graph, in place.

    Only edges of the residual cover can ever be dropped to keep the cover
    minimal, and only by the first minimality pass.  Every edge the
    unwinding adds covers a triangle that no other cover edge meets: rule
    1 adds its edge only for such a triangle, and each spoke that rule 4
    adds covers a rim triangle alone.  The step deletes the added edge and
    kills that triangle, but the triangle's other edges outlive the step,
    while every edge added later is deleted by an earlier step.  So no later
    edge lands on that triangle, and the added edge can never be dropped.
    A pass leaves each kept edge with such a triangle in the same way.
    """

    def __init__(
        self, on_edge: Mapping[Edge, tuple[Triangle, ...]], died: Mapping[Triangle, int], cover: set[Edge]
    ):
        self.on_edge = on_edge  # the input graph's triangles through each edge
        self.died = died
        self.packing: dict[Triangle, int] = {}
        self.cover = cover
        self.droppable = sorted(cover)

    def _minimalize(self, level: int) -> None:
        """Drop edges (lexicographic order) while every triangle alive
        before step ``level`` stays covered; dropping an edge can uncover
        only the triangles through it."""
        cover = self.cover
        for e in self.droppable:
            cover.discard(e)
            for t in self.on_edge[e]:
                if self.died.get(t, level) >= level and not any(x in cover for x in t.edges):
                    cover.add(e)
                    break
        self.droppable = []

    def _pack(self, step: ReductionStep) -> None:
        for t in step.triangles:
            self.packing[t] = self.packing.get(t, 0) + step.times

    def extend(self, step: ReductionStep, level: int) -> None:
        """Lift both certificates through step ``level``.

        Each branch re-establishes the weight accounting of its rule and
        raises on violation instead of emitting an unsound certificate.
        """
        cover = self.cover
        if step.kind == ZERO_EDGE:
            e = step.witness_edge
            assert e is not None
            if any(not any(x in cover for x in t.edges) for t in step.triangles):
                cover.add(e)

        elif step.kind == SINGLE_TRIANGLE_EDGE:
            (t,) = step.triangles
            self._minimalize(level)
            if sum(e in cover for e in t.edges) > 2:
                raise InvariantViolation("minimal cover keeps all three triangle edges")
            self._pack(step)

        elif step.kind == DOUBLE_TRIANGLE_HEAVY_EDGE:
            e = step.witness_edge
            assert e is not None
            self._minimalize(level)
            delta = 2 * (e in cover) + sum(
                x in cover for x in step.weight_deltas if x != e
            )
            if delta > 4:
                raise InvariantViolation("heavy-edge accounting exceeds 4")
            self._pack(step)

        elif step.kind == CYCLE_NEIGHBORHOOD:
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
            self._pack(step)
            cover |= spokes

        else:
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
    r = _Reducer(g)
    on_edge = {e: tuple(ts) for e, ts in r.tris.items()}
    steps: list[ReductionStep] = []
    while (step := r.next_step()) is not None:
        r.apply(step)
        steps.append(step)

    residual_tris = [t for t in g.triangles if t not in r.died]
    complete = not residual_tris
    unwinding = _Unwinding(on_edge, r.died, {e for t in residual_tris for e in t.edges})
    for level in reversed(range(len(steps))):
        unwinding.extend(steps[level], level)

    pc = PackingCertificate.from_map(unwinding.packing)
    tc = TransversalCertificate.from_edges(g, unwinding.cover)
    if not verify_packing(g, pc):
        raise InvariantViolation("unwound packing violates capacities")
    if not verify_transversal(g, tc):
        raise InvariantViolation("unwound transversal misses a triangle")
    if complete and tc.weight > 2 * pc.value:
        raise InvariantViolation("cover weight exceeds twice the packing size")
    return pc, tc, COMPLETE if complete else INCOMPLETE
