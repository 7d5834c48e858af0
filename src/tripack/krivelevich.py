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
from fractions import Fraction

from .core import (
    Edge,
    InvariantViolation,
    Multigraph,
    Rational,
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

    Requires an optimal pair; ``tight_sets`` re-validates it.  Two counting
    identities tie the partition to the packing side and are asserted
    exactly:

        a     = f(T1) + 2 f(T2) + 3 f(T3)
        b + c = f(T1) + f(T2) + f(T4) + 2 f(T5)
    """
    ts = tight_sets(g, s)  # also validates optimality of the pair
    half = Fraction(1, 2)
    gv = s.transversal.edge_value
    Z: list[Edge] = []
    A: list[Edge] = []
    B: list[Edge] = []
    C: list[Edge] = []
    for u, v, _ in g.edges:
        y = gv((u, v))
        if y == 0:
            Z.append((u, v))
        elif y < half:
            A.append((u, v))
        elif y == half:
            B.append((u, v))
        else:
            C.append((u, v))

    tight_edge_set = set(ts.tight_edges)
    for e in A + B + C:
        if e not in tight_edge_set:
            raise InvariantViolation(f"edge {e} has positive value but is not tight")

    aset, bset, cset, zset = set(A), set(B), set(C), set(Z)
    t1: list[Triangle] = []
    t2: list[Triangle] = []
    t3: list[Triangle] = []
    t4: list[Triangle] = []
    t5: list[Triangle] = []
    for t in ts.tight_triangles:
        na = sum(e in aset for e in t.edges)
        nb = sum(e in bset for e in t.edges)
        nc = sum(e in cset for e in t.edges)
        nz = sum(e in zset for e in t.edges)
        if na == 1:
            t1.append(t)
        elif na == 2:
            t2.append(t)
        elif na == 3:
            t3.append(t)
        elif nz == 2 and nc == 1:
            t4.append(t)
        elif nz == 1 and nb == 2:
            t5.append(t)
        else:
            raise InvariantViolation(f"tight triangle {tuple(t)} fits no class")

    wmap = g.weight_map
    a = sum(wmap[e] for e in A)
    b = sum(wmap[e] for e in B)
    c = sum(wmap[e] for e in C)

    fv = s.packing.triangle_value

    def fsum(ts_: list[Triangle]) -> Rational:
        return sum((fv(t) for t in ts_), Fraction(0))

    if Fraction(a) != fsum(t1) + 2 * fsum(t2) + 3 * fsum(t3):
        raise InvariantViolation("edge count identity for A fails")
    if Fraction(b + c) != fsum(t1) + fsum(t2) + fsum(t4) + 2 * fsum(t5):
        raise InvariantViolation("edge count identity for B and C fails")
    if s.value < Fraction(a, 4) + Fraction(b + c, 2):
        raise InvariantViolation("optimum below its partition lower bound")

    part = EdgePartition(tuple(Z), tuple(A), tuple(B), tuple(C), a, b, c)
    tpart = TightTrianglePartition(tuple(t1), tuple(t2), tuple(t3), tuple(t4), tuple(t5))
    return part, tpart


def transversal_2nustar(g: Multigraph) -> TransversalCertificate:
    """A verified transversal of weight at most ``2*nustar - sqrt(nustar)/4``.

    Built from the LP optimum ``g.lp``.  Returns the empty certificate on
    triangle-free input, without solving the LP.  When the fractional
    optimum is 0 but triangles exist, they all ride on capacity-0 edges,
    which are returned at zero cost.  Redundant edges are then dropped
    (``core._drop_redundant``); the bound is compared exactly by squaring.
    """
    if not g.triangles:
        return TransversalCertificate.from_edges(g, ())

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
    picked = independent_set_triangle_free(h, [wmap[e] for e in b_classes]) if b_classes else ()
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
