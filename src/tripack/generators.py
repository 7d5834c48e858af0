"""Test-instance factories.

The centerpiece is the recursive family ``gen_gk``: level 0 is a single
edge with two terminal vertices; level ``k`` substitutes a level ``k-1``
copy into every edge of a 5-wheel, identifying the copy's terminals with
the edge's ends.  Level ``k`` has exactly ``10**k`` edges and
``5*(10**k - 1)//9`` triangles, and its fractional optimum is
``(5/2**k) * (20**k - 1)/19``, certified here by an explicit packing and
an explicit transversal of equal value.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .core import (
    Edge,
    FractionalAssignment,
    Multigraph,
    Rational,
    Triangle,
    norm_edge,
)

#: Practical recursion limit; level 5 would already have 100000 edges.
MAX_GK_LEVEL = 4

# Positional wheel layout: hub 0, rim 1..5; terminals are rim 1 and rim 2.
# Every wheel instantiates its ten sub-copies in this fixed slot order.
_WHEEL_SLOTS: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
)


@dataclass(frozen=True)
class GkInstance:
    """A generated recursive-family member with its height bookkeeping.

    ``terminals`` is the ordered pair of terminal vertices, joined by an
    edge.  ``heights`` maps each triangle to the level of the innermost
    copy it lives in; ``copies`` records every instantiated copy as a
    ``(level, terminal_edge)`` pair, the top-level copy included.
    """

    graph: Multigraph
    terminals: tuple[int, int]
    heights: Mapping[Triangle, int]
    copies: tuple[tuple[int, Edge], ...]

    @property
    def terminal_edge(self) -> Edge:
        return norm_edge(*self.terminals)


def _slot_values(a: Fraction) -> tuple[Fraction, ...]:
    """Terminal values handed to the ten sub-copies of one wheel.

    Spokes get (1-a)/2 or (1+a)/2 and rim edges get a or 0, arranged so
    that each of the five wheel triangles sums to exactly 1.
    """
    lo = (1 - a) / 2
    hi = (1 + a) / 2
    return (lo, lo, hi, lo, hi, a, 0, 0, 0, 0)


def _instantiate(
    level: int,
    x: int,
    y: int,
    aval: Fraction | None,
    alloc: Iterator[int],
    edges: dict[Edge, int],
    heights: dict[Triangle, int],
    copies: list[tuple[int, Edge]],
    values: dict[Edge, Fraction] | None,
) -> None:
    copies.append((level, norm_edge(x, y)))
    if level == 0:
        edges[norm_edge(x, y)] = 1
        if values is not None:
            assert aval is not None
            values[norm_edge(x, y)] = aval
        return
    hub = next(alloc)
    rim = (x, y, next(alloc), next(alloc), next(alloc))
    vmap = (hub,) + rim
    for i in range(5):
        heights[Triangle.of(hub, rim[i], rim[(i + 1) % 5])] = level
    sub_values = _slot_values(aval) if aval is not None else (None,) * 10
    for (p, q), val in zip(_WHEEL_SLOTS, sub_values):
        _instantiate(level - 1, vmap[p], vmap[q], val, alloc, edges, heights, copies, values)


def _build_gk(k: int, a: Fraction | None) -> tuple[GkInstance, dict[Edge, Fraction] | None]:
    if k < 0:
        raise ValueError("level must be nonnegative")
    if k > MAX_GK_LEVEL:
        raise ValueError(f"level {k} exceeds the size budget (max {MAX_GK_LEVEL})")
    edges: dict[Edge, int] = {}
    heights: dict[Triangle, int] = {}
    copies: list[tuple[int, Edge]] = []
    values: dict[Edge, Fraction] | None = {} if a is not None else None
    alloc: Iterator[int]
    if k == 0:
        x, y, alloc = 0, 1, itertools.count(2)
    else:
        # The top wheel's hub takes id 0, so its terminals are rim 1 and 2.
        x, y, alloc = 1, 2, itertools.chain((0,), itertools.count(3))
    _instantiate(k, x, y, a, alloc, edges, heights, copies, values)
    n = next(alloc)
    graph = Multigraph.from_edges(n, ((u, v, w) for (u, v), w in edges.items()))
    inst = GkInstance(
        graph=graph,
        terminals=(x, y),
        heights=dict(sorted(heights.items())),
        copies=tuple(copies),
    )
    return inst, values


def gen_gk(k: int) -> GkInstance:
    """Level-``k`` member of the recursive wheel-substitution family."""
    inst, _ = _build_gk(k, None)
    return inst


def gk_optimum(k: int) -> Rational:
    """Closed form of the fractional optimum at level ``k``."""
    return Fraction(5, 2**k) * Fraction(20**k - 1, 19)


def fractional_packing_fk(k: int) -> FractionalAssignment:
    """The canonical optimal fractional packing: ``2**-height`` per triangle."""
    if k < 1:
        raise ValueError("level must be at least 1")
    inst = gen_gk(k)
    values = {t: Fraction(1, 2**j) for t, j in inst.heights.items()}
    return FractionalAssignment.on_triangles(inst.graph, values)


def fractional_transversal_gka(k: int, a: Rational) -> FractionalAssignment:
    """The recursive fractional transversal with terminal value ``a``.

    Feasible for every ``0 <= a <= 1``; every innermost wheel triangle sums
    to exactly 1, and the total value is the family optimum plus
    ``a / 2**k``.
    """
    a = Fraction(a)
    if not 0 <= a <= 1:
        raise ValueError("terminal value must lie in [0, 1]")
    inst, values = _build_gk(k, a)
    assert values is not None
    return FractionalAssignment.on_edges(inst.graph, values)


def gen_apex(h: Multigraph) -> Multigraph:
    """Join one new vertex to every vertex of a triangle-free graph."""
    if h.triangles:
        raise ValueError("host graph contains a triangle")
    apex = h.n
    items = list(h.edges) + [(i, apex, 1) for i in range(h.n)]
    return Multigraph.from_edges(h.n + 1, items)


def gen_complete(n: int) -> Multigraph:
    if n < 1:
        raise ValueError("need at least one vertex")
    return Multigraph.from_edges(
        n, ((u, v, 1) for u, v in itertools.combinations(range(n), 2))
    )


def gen_cycle(n: int) -> Multigraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Multigraph.from_edges(n, ((i, (i + 1) % n, 1) for i in range(n)))


def gen_wheel(k: int) -> Multigraph:
    """The ``k``-wheel: hub 0 joined to a cycle on vertices 1..k."""
    if k < 3:
        raise ValueError("wheel needs a rim of at least 3 vertices")
    items = [(0, i, 1) for i in range(1, k + 1)]
    items += [(i, i + 1, 1) for i in range(1, k)]
    items.append((1, k, 1))
    return Multigraph.from_edges(k + 1, items)


def gen_petersen() -> Multigraph:
    items = [(i, (i + 1) % 5, 1) for i in range(5)]
    items += [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
    items += [(i, i + 5, 1) for i in range(5)]
    return Multigraph.from_edges(10, items)


def gen_octahedron() -> Multigraph:
    """K(2,2,2): the antipodal pairs are (0,3), (1,4), (2,5)."""
    items = [
        (u, v, 1)
        for u, v in itertools.combinations(range(6), 2)
        if v - u != 3
    ]
    return Multigraph.from_edges(6, items)


def gen_stacked(n: int, seed: int = 0) -> Multigraph:
    """A random stacked (Apollonian) triangulation on ``n >= 4`` vertices.

    Starts from K4 and repeatedly inserts a vertex into a face chosen by
    the seeded generator; the result is planar for every seed.
    """
    if n < 4:
        raise ValueError("stacked triangulation needs at least 4 vertices")
    rng = random.Random(seed)
    edges: set[Edge] = {e for e in itertools.combinations(range(4), 2)}
    faces: list[tuple[int, int, int]] = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, n):
        idx = rng.randrange(len(faces))
        a, b, c = faces.pop(idx)
        edges.update(((a, v), (b, v), (c, v)))
        faces.extend(((a, b, v), (a, c, v), (b, c, v)))
    return Multigraph.from_edges(n, ((u, v, 1) for u, v in sorted(edges)))


def gen_random(n: int, m: int, max_mult: int, seed: int) -> Multigraph:
    """A seeded random multigraph: ``m`` distinct pairs, capacities 1..max_mult.

    The pairs are drawn as indices into ``itertools.combinations(range(n), 2)``
    without listing it, so memory grows with ``m``, not with ``n**2``.
    """
    if n < 2 or m < 0 or max_mult < 1:
        raise ValueError("bad parameters")
    total = n * (n - 1) // 2
    if total > sys.maxsize:
        raise ValueError(f"{n} vertices have more vertex pairs than can be indexed")
    if m > total:
        raise ValueError(f"at most {total} edges fit on {n} vertices")
    rng = random.Random(seed)
    chosen = [_pair_at(n, i) for i in rng.sample(range(total), m)]
    return Multigraph.from_edges(
        n, ((u, v, rng.randint(1, max_mult)) for u, v in chosen)
    )


def _pair_at(n: int, i: int) -> Edge:
    """The ``i``-th pair of ``itertools.combinations(range(n), 2)``."""
    # Counted from the end, the pairs with first vertex u form a block of
    # s = n-1-u, preceded there by the s*(s-1)/2 pairs of later blocks.
    r = n * (n - 1) // 2 - 1 - i
    s = (math.isqrt(8 * r + 1) + 1) // 2
    return n - 1 - s, n - 1 - (r - s * (s - 1) // 2)


def with_random_weights(g: Multigraph, choices: tuple[int, ...], seed: int) -> Multigraph:
    """Reweight every edge of ``g`` with a seeded choice from ``choices``."""
    rng = random.Random(seed)
    return Multigraph.from_edges(
        g.n, ((u, v, rng.choice(choices)) for u, v, _ in g.edges)
    )

