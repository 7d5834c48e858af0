"""Guaranteed-size combinatorial subroutines on multigraphs.

Three constructions with certified lower bounds:

* an independent set of size at least ``sqrt(v)/2`` in a triangle-free
  graph on ``v`` vertices,
* an edge-cut of size at least ``e/2 + (v-1)/4`` in a connected multigraph
  (``e`` counts multiplicity),
* an edge-cut of size at least ``e/2 + sqrt(e)/4`` in any multigraph.

Edges of capacity 0 carry no parallel copies, so they are invisible to the
cut routines; the independent-set routine treats adjacency structurally.
All bounds are asserted internally with exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import InvariantViolation, Multigraph, run_search

_Adj = dict[int, dict[int, int]]


@dataclass(frozen=True)
class EdgeCut:
    """A vertex shore and the edges crossing it, counted with multiplicity."""

    shore: frozenset[int]
    cut_edges: tuple[tuple[int, int, int], ...]
    size: int

    @classmethod
    def from_shore(cls, g: Multigraph, shore: frozenset[int]) -> "EdgeCut":
        crossing = tuple(
            (u, v, w)
            for u, v, w in g.edges
            if w > 0 and (u in shore) != (v in shore)
        )
        return cls(shore, crossing, sum(w for _, _, w in crossing))


def independent_set_triangle_free(h: Multigraph) -> tuple[int, ...]:
    """An independent set of size at least ``sqrt(v)/2`` in a triangle-free graph.

    If some vertex has degree at least ``sqrt(v)/2`` its neighborhood is
    returned (independent, because the graph has no triangle).  Otherwise a
    greedy pass repeatedly takes the lowest remaining vertex and discards
    its neighbors; since all degrees stay below ``sqrt(v)/2``, the greedy
    set is large enough.
    """
    if h.triangles:
        raise ValueError("input graph contains a triangle")
    v = h.n
    if v == 0:
        return ()
    best = max(range(v), key=lambda x: (len(h.neighbors(x)), -x))
    deg = len(h.neighbors(best))
    if 4 * deg * deg >= v:
        chosen = h.neighbors(best)
    else:
        remaining = set(range(v))
        picked: list[int] = []
        while remaining:
            x = min(remaining)
            picked.append(x)
            remaining.discard(x)
            remaining.difference_update(h.neighbors(x))
        chosen = tuple(picked)
    chosen_set = set(chosen)
    for x in chosen:
        if chosen_set.intersection(h.neighbors(x)):
            raise InvariantViolation("returned set is not independent")
    if 4 * len(chosen) ** 2 < v:
        raise InvariantViolation("independent set smaller than sqrt(v)/2")
    return tuple(sorted(chosen))


def _positive_adj(g: Multigraph) -> _Adj:
    adj: _Adj = {x: {} for x in range(g.n)}
    for u, v, w in g.edges:
        if w > 0:
            adj[u][v] = w
            adj[v][u] = w
    return adj


def _components(vertices: list[int], adj: _Adj) -> list[list[int]]:
    seen: set[int] = set()
    comps: list[list[int]] = []
    vset = set(vertices)
    for start in vertices:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y in vset and y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def _sub_adj(vertices: list[int], adj: _Adj) -> _Adj:
    vset = set(vertices)
    return {x: {y: m for y, m in adj[x].items() if y in vset} for x in vertices}


def _cut_size(shore: set[int], vertices: list[int], adj: _Adj) -> int:
    total = 0
    for x in vertices:
        if x in shore:
            total += sum(m for y, m in adj[x].items() if y not in shore)
    return total


def _place_apart(x: int, x_adj: dict[int, int], shore: set[int]) -> set[int]:
    """Put ``x`` on the shore opposite most of its edges (ties keep x out)."""
    into = sum(m for y, m in x_adj.items() if y in shore)
    total = sum(x_adj.values())
    if into >= total - into:
        return shore
    return shore | {x}


def _cut_connected_shore(vertices: list[int], adj: _Adj) -> set[int]:
    """Shore of a cut of size >= e/2 + (v-1)/4 in a connected multigraph.

    When an odd-degree vertex exists the construction actually achieves
    ``e/2 + v/4``; both guarantees are verified for every subproblem.
    """
    results: list[set[int]] = []  # each subproblem's shore, popped by its parent

    def solve(vertices: list[int], adj: _Adj) -> Iterator:
        v = len(vertices)
        e = sum(sum(adj[x].values()) for x in vertices) // 2
        if v <= 2:
            results.append({vertices[0]} if v == 2 else set())
            return

        degrees = {x: sum(adj[x].values()) for x in vertices}
        odd = sorted(x for x in vertices if degrees[x] % 2 == 1)

        def solve_without(x: int, want_odd_component: bool) -> Iterator:
            rest = [y for y in vertices if y != x]
            rest_adj = _sub_adj(rest, adj)
            comps = _components(rest, rest_adj)
            if len(comps) == 1:
                yield solve(rest, rest_adj)
                return _place_apart(x, adj[x], results.pop())
            pick = None
            if want_odd_component:
                for comp in comps:
                    if sum(adj[x].get(y, 0) for y in comp) % 2 == 1:
                        pick = comp
                        break
                if pick is None:
                    raise InvariantViolation("odd-degree vertex with no odd component")
            else:
                pick = comps[0]
            side_a = sorted(pick + [x])
            side_b = sorted(y for y in vertices if y not in pick)
            yield solve(side_a, _sub_adj(side_a, adj))
            yield solve(side_b, _sub_adj(side_b, adj))
            shore_a, shore_b = results.pop(-2), results.pop()
            if (x in shore_a) != (x in shore_b):
                shore_b = set(side_b) - shore_b
            return shore_a | shore_b

        if odd:
            shore = yield from solve_without(odd[0], want_odd_component=True)
            bound_num = 2 * e + v  # cut >= e/2 + v/4, scaled by 4
        else:
            odd_pair = None
            for x in vertices:
                for y in sorted(adj[x]):
                    if y > x and adj[x][y] % 2 == 1:
                        odd_pair = (x, y)
                        break
                if odd_pair:
                    break
            if odd_pair is None:
                halved = {
                    x: {y: m // 2 for y, m in adj[x].items()} for x in vertices
                }
                yield solve(vertices, halved)
                shore = results.pop()
            else:
                shore = yield from solve_without(odd_pair[0], want_odd_component=False)
            bound_num = 2 * e + v - 1  # cut >= e/2 + (v-1)/4, scaled by 4
        if 4 * _cut_size(shore, vertices, adj) < bound_num:
            raise InvariantViolation("recursive cut missed its guaranteed size")
        results.append(shore)

    run_search(solve(vertices, adj))
    return results.pop()


def cut_connected(g: Multigraph) -> EdgeCut:
    """An edge-cut of size at least ``e/2 + (v-1)/4`` in a connected multigraph.

    Multiplicities count; the input must be connected (isolated vertices
    included in the vertex count break connectivity) and have at least one
    positive edge.
    """
    adj = _positive_adj(g)
    vertices = list(range(g.n))
    if g.n == 0 or _components(vertices, adj) != [vertices]:
        raise ValueError("input multigraph is not connected")
    e = sum(w for _, _, w in g.edges)
    if e < 1:
        raise ValueError("input multigraph has no edges")
    shore = _cut_connected_shore(vertices, adj)
    cut = EdgeCut.from_shore(g, frozenset(shore))
    if Fraction(cut.size) < Fraction(e, 2) + Fraction(g.n - 1, 4):
        raise InvariantViolation("cut below the connected-graph guarantee")
    return cut


def _balanced_shore(vertices: list[int], adj: _Adj) -> set[int]:
    """A derandomized balanced bipartition meeting the expectation bound.

    Conditional expectations over the uniform random ``floor(v/2)``-subset:
    vertices are placed one at a time (ascending id) on the side that
    maximizes the expected crossing count of the final balanced cut.  The
    result has cut size at least ``e/2 + e/(2v)``.
    """
    v = len(vertices)
    slots_in = v // 2
    slots_out = v - slots_in
    placed: dict[int, bool] = {}

    edge_list = [
        (x, y, m) for x in vertices for y, m in adj[x].items() if x < y
    ]

    def expected(cur_in: int, cur_out: int) -> Fraction:
        a = slots_in - cur_in
        b = slots_out - cur_out
        r = a + b
        total = Fraction(0)
        for x, y, m in edge_list:
            px = placed.get(x)
            py = placed.get(y)
            if px is not None and py is not None:
                if px != py:
                    total += m
            elif px is None and py is None:
                if r >= 2:
                    total += m * Fraction(2 * a * b, r * (r - 1))
            else:
                anchored_in = px if px is not None else py
                if r >= 1:
                    total += m * Fraction(b if anchored_in else a, r)
        return total

    cur_in = cur_out = 0
    baseline = expected(0, 0)
    for x in vertices:
        gain_in = gain_out = None
        if cur_in < slots_in:
            placed[x] = True
            gain_in = expected(cur_in + 1, cur_out)
        if cur_out < slots_out:
            placed[x] = False
            gain_out = expected(cur_in, cur_out + 1)
        if gain_out is None or (gain_in is not None and gain_in > gain_out):
            placed[x] = True
            cur_in += 1
        else:
            placed[x] = False
            cur_out += 1
    shore = {x for x, side in placed.items() if side}
    e = sum(m for _, _, m in edge_list)
    achieved = _cut_size(shore, vertices, adj)
    if v >= 1 and Fraction(achieved) < baseline:
        raise InvariantViolation("derandomized cut fell below its expectation")
    if Fraction(achieved) < Fraction(e, 2) + Fraction(e, 2 * v):
        raise InvariantViolation("balanced cut below the expectation bound")
    return shore


def cut_large(g: Multigraph) -> EdgeCut:
    """An edge-cut of size at least ``e/2 + sqrt(e)/4`` in any multigraph.

    Per connected component: with many vertices the connected-cut recursion
    already clears the bound; dense components use the derandomized
    balanced bipartition.  Superadditivity of the square root makes the
    union of shores work for the whole graph.
    """
    e_total = sum(w for _, _, w in g.edges)
    if e_total < 1:
        raise ValueError("input multigraph has no edges")
    adj = _positive_adj(g)
    shore: set[int] = set()
    for comp in _components(list(range(g.n)), adj):
        sub = _sub_adj(comp, adj)
        e_c = sum(sum(d.values()) for d in sub.values()) // 2
        if e_c == 0:
            continue
        v_c = len(comp)
        if v_c * v_c >= 4 * e_c:
            shore |= _cut_connected_shore(comp, sub)
        else:
            shore |= _balanced_shore(comp, sub)
    cut = EdgeCut.from_shore(g, frozenset(shore))
    excess = Fraction(cut.size) - Fraction(e_total, 2)
    if not (excess >= 0 and excess * excess >= Fraction(e_total, 16)):
        raise InvariantViolation("cut below e/2 + sqrt(e)/4")
    return cut
