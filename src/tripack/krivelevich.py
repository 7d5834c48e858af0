"""Constructive transversal within ``2*nustar - sqrt(nustar)/4``.

The pipeline: solve the LP exactly, split the edges by their transversal
value (0, below 1/2, exactly 1/2, above 1/2), take a large independent set
``I`` among the value-1/2 edges (two such edges conflict when they lie in
a common tight triangle), and cover the cheap edges by the complement of a
large cut in the graph they induce.  The independent set is taken on whole
parallel classes, each weighted by its capacity, so its cost does not grow
with the capacities.  The returned edge set is

    (B \\ I)  union  C  union  (induced-subgraph edges missed by the cut),

plus every capacity-0 edge, which costs nothing and covers all triangles
through it.  Validity and the size bound are re-checked exactly before
returning.

A note on the final bound: one might expect the weighted count of
below-1/2 edges to dominate the above-1/2 count at optimality, but vertex
optima routinely violate that (K4's optimal dual is a perfect matching
with values 1).  The bound holds regardless: triangles with two value-0
edges force packing mass that compensates exactly for the heavy edges, so
no assumption on the two counts is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Edge,
    InvariantViolation,
    Multigraph,
    TransversalCertificate,
    Triangle,
    _drop_redundant,
    dominates_sqrt,
    verify_transversal,
)
from .cuts import cut_large, independent_set_triangle_free
# lp_optimal is unused, but perfbench's tracer tests look it up in this module.
from .exact import LPSolution, lp_optimal, tight_sets  # noqa: F401


@dataclass(frozen=True)
class EdgePartition:
    """Edges split by their optimal fractional transversal value.

    ``Z``: value 0; ``A``: strictly between 0 and 1/2; ``B``: exactly 1/2;
    ``C``: above 1/2.  The counts ``a``, ``b``, ``c`` are capacity-weighted
    (one unit per parallel copy), which is what the size accounting needs.
    """

    Z: tuple[Edge, ...]
    A: tuple[Edge, ...]
    B: tuple[Edge, ...]
    C: tuple[Edge, ...]
    a: int
    b: int
    c: int


@dataclass(frozen=True)
class TightTrianglePartition:
    """Tight triangles grouped by where their edges sit in the partition.

    ``T1``..``T3``: one, two, three edges of value in (0, 1/2).
    ``T4``: two value-0 edges and one edge above 1/2 (necessarily 1).
    ``T5``: one value-0 edge and two edges of value exactly 1/2.
    Together these cover every tight triangle.
    """

    T1: tuple[Triangle, ...]
    T2: tuple[Triangle, ...]
    T3: tuple[Triangle, ...]
    T4: tuple[Triangle, ...]
    T5: tuple[Triangle, ...]


def classify(g: Multigraph, s: LPSolution) -> tuple[EdgePartition, TightTrianglePartition]:
    """Partition edges and tight triangles by exact threshold tests.

    Requires an optimal pair; ``tight_sets`` re-validates it, so every edge
    of positive value is tight.  The thresholds compare integers: y == 0,
    2y < yden, 2y == yden, and above.  Two counting identities tie the
    partition to the packing side and are asserted exactly, both sides
    times ``xden``:

        a     = f(T1) + 2 f(T2) + 3 f(T3)
        b + c = f(T1) + f(T2) + f(T4) + 2 f(T5)
    """
    ts = tight_sets(g, s)  # also validates optimality of the pair
    inc = g.incidence
    col = {t: j for j, t in enumerate(inc.triangles)}
    # Per edge its class: 0 for Z, 1 for A, 2 for B, 3 for C.
    side = [0 if not v else 1 if 2 * v < s.yden else 2 if 2 * v == s.yden else 3 for v in s.y]
    parts: list[list[Edge]] = [[], [], [], []]
    weights = [0] * 4
    for e, k, (_, _, w) in zip(inc.edges, side, g.edges):
        parts[k].append(e)
        weights[k] += w
    _, a, b, c = weights

    groups: list[list[Triangle]] = [[], [], [], [], []]
    f = [0] * 5  # the packing mass of each group, over xden
    for t in ts.tight_triangles:
        j = col[t]
        sides = sorted(side[i] for i in inc.columns[j])
        na = sides.count(1)
        k = na - 1 if na else 3 if sides == [0, 0, 3] else 4 if sides == [0, 2, 2] else -1
        if k < 0:
            raise InvariantViolation(f"tight triangle {tuple(t)} fits no class")
        groups[k].append(t)
        f[k] += s.x[j]

    if a * s.xden != f[0] + 2 * f[1] + 3 * f[2]:
        raise InvariantViolation("edge count identity for A fails")
    if (b + c) * s.xden != f[0] + f[1] + f[3] + 2 * f[4]:
        raise InvariantViolation("edge count identity for B and C fails")
    if 4 * sum(s.x) < (a + 2 * (b + c)) * s.xden:
        raise InvariantViolation("optimum below its partition lower bound")
    return EdgePartition(*map(tuple, parts), a, b, c), TightTrianglePartition(*map(tuple, groups))


def transversal_2nustar(g: Multigraph) -> TransversalCertificate:
    """A verified transversal of weight at most ``2*nustar - sqrt(nustar)/4``.

    Built from the LP optimum ``g.lp``.  On triangle-free input the LP is
    empty, so no class has value 1/2 and there is nothing to cut: the
    certificate is empty.  When the fractional optimum is 0 but triangles
    exist, they all ride on capacity-0 edges, which are returned at zero
    cost.  Redundant edges are then dropped (``core._drop_redundant``); the
    bound is compared exactly by squaring.
    """
    sol = g.lp
    part, tpart = classify(g, sol)
    wmap = g.weight_map

    # One conflict vertex per half-value class, weighted by its capacity.
    # Two classes conflict exactly when they share a T5 triangle: a tight
    # triangle with two half edges has its third edge at 0, and three half
    # edges would sum to 3/2.
    b_classes = [e for e in part.B if wmap[e] > 0]
    index = {e: i for i, e in enumerate(b_classes)}
    conflicts = []
    for t in tpart.T5:
        ends = [index[e] for e in t.edges if e in index]
        if len(ends) == 2:
            conflicts.append((ends[0], ends[1], 1))
    h = Multigraph.from_edges(len(b_classes), conflicts)
    if h.triangles:
        raise InvariantViolation("conflict graph on half-value edges has a triangle")
    picked = independent_set_triangle_free(h, [wmap[e] for e in b_classes])
    i_classes = {b_classes[i] for i in picked}

    # Induced graph on the below-1/2 edges plus the independent half edges,
    # with full multiplicities: cuts are vertex-based, so the complement of
    # the cut is a union of whole parallel classes and its slot count equals
    # its weight.
    gp_members = sorted(set(part.A) | i_classes)
    gp_items = [(u, v, wmap[(u, v)]) for u, v in gp_members if wmap[(u, v)] > 0]
    r_edges: list[Edge] = []
    if gp_items:
        gp = Multigraph.from_edges(g.n, gp_items)
        cut = cut_large(gp)
        crossing = {(u, v) for u, v, _ in cut.cut_edges}
        r_edges = [e for (u, v, _) in gp_items if (e := (u, v)) not in crossing]

    chosen = (set(part.B) - i_classes) | set(part.C) | set(r_edges) | set(g.free_edges)
    cert = TransversalCertificate.from_edges(g, _drop_redundant(g, chosen))
    if not verify_transversal(g, cert):
        raise InvariantViolation("constructed edge set misses a triangle")

    # weight <= 2*nustar - sqrt(nustar)/4; at nustar = 0 this demands weight 0.
    if not dominates_sqrt(2 * sol.value - cert.weight, sol.value / 16):
        raise InvariantViolation("constructed transversal exceeds its bound")
    return cert
