"""Guaranteed-size combinatorial subroutines on multigraphs.

Three constructions with certified lower bounds:

* an independent set of weight at least ``sqrt(W)/2`` in a triangle-free
  graph whose positive vertex weights sum to ``W``,
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
from typing import Iterable, Iterator, Sequence

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


def independent_set_triangle_free(h: Multigraph, weight: Sequence[int]) -> tuple[int, ...]:
    """An independent set of weight at least ``sqrt(weight(V))/2`` in a triangle-free graph.

    A vertex ``x`` of weight ``weight[x] >= 1`` stands for that many
    pairwise non-adjacent copies, and its degree is the total weight of its
    neighbors.  If the lowest vertex of largest degree has degree at least
    ``sqrt(weight(V))/2``, its neighborhood is returned (independent,
    because the graph has no triangle).  Otherwise a greedy pass repeatedly
    takes the lowest remaining vertex and discards its neighbors; since all
    degrees stay below ``sqrt(weight(V))/2``, the greedy set is heavy
    enough.  Either way the result is exactly the set of vertices whose
    copies the unit-weight construction picks on the expanded graph, with
    copies numbered vertex by vertex.  Adjacency is structural: the
    capacities of ``h`` are ignored.
    """
    if len(weight) != h.n or any(w < 1 for w in weight):
        raise ValueError("need one vertex weight of at least 1 per vertex")
    if h.triangles:
        raise ValueError("input graph contains a triangle")
    v = h.n
    if v == 0:
        return ()
    adj: list[list[int]] = [[] for _ in range(v)]
    for x, y, _ in h.edges:
        adj[x].append(y)
        adj[y].append(x)
    total = sum(weight)
    degree = [sum(weight[y] for y in ys) for ys in adj]
    best = max(range(v), key=lambda x: (degree[x], -x))
    if 4 * degree[best] ** 2 >= total:
        chosen = adj[best]
    else:
        chosen = []
        dropped: set[int] = set()
        for x in range(v):  # x is always the lowest vertex still remaining
            if x not in dropped:
                chosen.append(x)
                dropped.update(adj[x])
    chosen_set = set(chosen)
    for x in chosen:
        if chosen_set.intersection(adj[x]):
            raise InvariantViolation("returned set is not independent")
    if 4 * sum(weight[x] for x in chosen) ** 2 < total:
        raise InvariantViolation("independent set lighter than sqrt(weight(V))/2")
    return tuple(sorted(chosen))


def _positive_adj(g: Multigraph, vertices: Iterable[int]) -> _Adj:
    adj: _Adj = {x: {} for x in vertices}
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


def _cut_size(shore: set[int], adj: _Adj) -> int:
    return sum(m for x in shore for y, m in adj[x].items() if y not in shore)


def _place_apart(x: int, x_adj: dict[int, int], shore: set[int]) -> set[int]:
    """Put ``x`` on the shore opposite most of its edges (ties keep x out)."""
    into = sum(m for y, m in x_adj.items() if y in shore)
    total = sum(x_adj.values())
    if into >= total - into:
        return shore
    return shore | {x}


def _hide(adj: _Adj, xs: list[int]) -> list[tuple[int, dict[int, int]]]:
    """Remove the vertices ``xs`` from ``adj``; ``_restore`` puts them back."""
    hidden = [(x, adj.pop(x)) for x in xs]
    for x, x_adj in hidden:
        for y in x_adj.keys() & adj.keys():
            del adj[y][x]
    return hidden


def _restore(adj: _Adj, hidden: list[tuple[int, dict[int, int]]]) -> None:
    for x, x_adj in reversed(hidden):
        adj[x] = x_adj
        for y in x_adj.keys() & adj.keys():
            adj[y][x] = x_adj[y]


def _outside(adj: _Adj, x: int, want_odd_component: bool) -> list[int]:
    """``[x]`` if the rest stays connected without ``x``.  Otherwise the
    vertices of the rest outside one component: the first component, or
    the first joined to ``x`` by an odd number of edges."""
    if len(adj[x]) == 1:
        return [x]  # removing a leaf never disconnects a connected graph
    rest = sorted(y for y in adj if y != x)
    comps = _components(rest, adj)
    if len(comps) == 1:
        return [x]
    pick = comps[0]
    if want_odd_component:
        pick = next((c for c in comps if sum(adj[x].get(y, 0) for y in c) % 2), None)
        if pick is None:
            raise InvariantViolation("odd-degree vertex with no odd component")
    keep = set(pick)
    return [y for y in rest if y not in keep]


def _cut_connected_shore(adj: _Adj) -> set[int]:
    """Shore of a cut of size >= e/2 + (v-1)/4 in a connected multigraph.

    When an odd-degree vertex exists the construction actually achieves
    ``e/2 + v/4``; both guarantees are verified for every subproblem.
    Every subproblem runs on ``adj`` itself, holding just its vertices: a
    level hides what its child must not see, or halves every multiplicity,
    and undoes that when the child returns its shore to that level's
    ``yield`` on ``core.run_search``, so ``adj`` ends unchanged.
    """

    def solve() -> Iterator:
        v = len(adj)
        e = sum(sum(x_adj.values()) for x_adj in adj.values()) // 2
        if v <= 2:
            return {min(adj)} if v == 2 else set()

        def solve_without(x: int, want_odd_component: bool) -> Iterator:
            hidden = _hide(adj, _outside(adj, x, want_odd_component))
            shore_a = yield ()
            if x not in adj:  # the rest stayed connected
                _restore(adj, hidden)
                return _place_apart(x, adj[x], shore_a)
            # The child saw x and one component; now x and all the others.
            pick = [y for y in adj if y != x]
            _restore(adj, hidden)
            hidden = _hide(adj, pick)
            shore_b = yield ()
            side_b = set(adj)
            _restore(adj, hidden)
            if (x in shore_a) != (x in shore_b):
                shore_b = side_b - shore_b
            return shore_a | shore_b

        odd = min((x for x, x_adj in adj.items() if sum(x_adj.values()) % 2), default=None)
        if odd is not None:
            shore = yield from solve_without(odd, want_odd_component=True)
            bound_num = 2 * e + v  # cut >= e/2 + v/4, scaled by 4
        else:
            odd_pair = min(
                ((x, y) for x, x_adj in adj.items() for y, m in x_adj.items() if x < y and m % 2),
                default=None,
            )
            if odd_pair is None:
                adj.update({x: {y: m // 2 for y, m in x_adj.items()} for x, x_adj in adj.items()})
                shore = yield ()
                adj.update({x: {y: 2 * m for y, m in x_adj.items()} for x, x_adj in adj.items()})
            else:
                shore = yield from solve_without(odd_pair[0], want_odd_component=False)
            bound_num = 2 * e + v - 1  # cut >= e/2 + (v-1)/4, scaled by 4
        if 4 * _cut_size(shore, adj) < bound_num:
            raise InvariantViolation("recursive cut missed its guaranteed size")
        return shore

    return run_search(solve)


def cut_connected(g: Multigraph) -> EdgeCut:
    """An edge-cut of size at least ``e/2 + (v-1)/4`` in a connected multigraph.

    Multiplicities count; the input must be connected (isolated vertices
    included in the vertex count break connectivity) and have at least one
    positive edge.
    """
    vertices = list(range(g.n))
    adj = _positive_adj(g, vertices)
    if g.n == 0 or _components(vertices, adj) != [vertices]:
        raise ValueError("input multigraph is not connected")
    e = sum(w for _, _, w in g.edges)
    if e < 1:
        raise ValueError("input multigraph has no edges")
    cut = EdgeCut.from_shore(g, frozenset(_cut_connected_shore(adj)))
    if Fraction(cut.size) < Fraction(e, 2) + Fraction(g.n - 1, 4):
        raise InvariantViolation("cut below the connected-graph guarantee")
    return cut


def _balanced_shore(vertices: list[int], adj: _Adj) -> set[int]:
    """A derandomized balanced bipartition with cut at least ``e/2 + e/(2v)``.

    Conditional expectations over the uniform random ``floor(v/2)``-subset:
    vertices are placed in ascending order, going in only when that strictly
    raises the expected crossing weight of the final balanced cut.  With
    ``a`` slots left in and ``b`` out, ``r = a + b``, that expectation is
    ``cut + (to_in*b + to_out*a)/r + free*2ab/(r(r-1))`` over four running
    totals: the weight crossing among placed vertices, from placed in- and
    out-vertices to unplaced ones, and among unplaced ones.  A placement
    moves only the new vertex's edges, so the pass is O(e) work.
    """

    def expected(cut: int, to_in: int, to_out: int, free: int, a: int, b: int) -> Fraction:
        r = a + b
        return (cut + Fraction(to_in * b + to_out * a, max(r, 1))  # r < 2: a*b == 0
                + Fraction(2 * free * a * b, max(r * (r - 1), 1)))

    v = len(vertices)
    e = sum(sum(adj[x].values()) for x in vertices) // 2
    a, b = v // 2, v - v // 2  # slots left in and out
    totals = (0, 0, 0, e)  # cut, to_in, to_out, free
    baseline = expected(*totals, a, b)
    side: dict[int, bool] = {}
    for x in vertices:
        w = {True: 0, False: 0, None: 0}  # x's weight to placed in, placed out, unplaced
        for y, m in adj[x].items():
            w[side.get(y)] += m
        cut, to_in, to_out, free = totals
        to_in, to_out, free = to_in - w[True], to_out - w[False], free - w[None]
        if_in = (cut + w[False], to_in + w[None], to_out, free)
        if_out = (cut + w[True], to_in, to_out + w[None], free)
        side[x] = a > 0 and (b == 0 or expected(*if_in, a - 1, b) > expected(*if_out, a, b - 1))
        totals, a, b = (if_in, a - 1, b) if side[x] else (if_out, a, b - 1)
    shore = {x for x in vertices if side[x]}
    achieved = Fraction(_cut_size(shore, adj))
    if achieved < baseline:
        raise InvariantViolation("derandomized cut fell below its expectation")
    if achieved < Fraction(e, 2) + Fraction(e, 2 * v):
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
    # Only vertices on a positive edge: the declared vertex count may be huge.
    adj = _positive_adj(g, sorted({x for u, v, w in g.edges if w > 0 for x in (u, v)}))
    shore: set[int] = set()
    for comp in _components(list(adj), adj):
        sub = {x: adj[x] for x in comp}
        e_c = sum(sum(d.values()) for d in sub.values()) // 2
        v_c = len(comp)
        if v_c * v_c >= 4 * e_c:
            shore |= _cut_connected_shore(sub)
        else:
            shore |= _balanced_shore(comp, sub)
    cut = EdgeCut.from_shore(g, frozenset(shore))
    excess = Fraction(cut.size) - Fraction(e_total, 2)
    if not (excess >= 0 and excess * excess >= Fraction(e_total, 16)):
        raise InvariantViolation("cut below e/2 + sqrt(e)/4")
    return cut
