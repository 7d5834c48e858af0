"""Brute-force reference implementations and corpus builders for tests.

Every oracle here is deliberately naive (full enumeration, no pruning) and
shares no code with the solvers it checks, apart from the references
that faster or leaner code replaced and must agree with exactly:

- ``reference_simplex_packing``, the dense ``Fraction`` tableau that the
  revised simplex in ``tripack.exact`` replaced, one tableau per
  triangle-connected component.  It reads the same ``incidence`` and must
  take the same pivots, in the same minimum-degree column order: the most
  negative reduced cost, ratio-test ties to the sparsest row, and Bland's
  rule after ``REFERENCE_DEGENERATE_RUN`` degenerate pivots in a row.  Its
  components come from ``reference_components``, an O(T^2) scan over
  pairs of triangles, which ``core._components`` must equal on the
  incidence's columns.
- ``reference_cut_connected_shore``, the connected-cut recursion that
  copied the remaining adjacency at every level and got each child's
  shore back as its return value, on plain recursion (its corpus stays
  far below the recursion limit).  ``tripack.cuts`` now hides and
  restores vertices of one shared adjacency on ``core.run_search``, keeps
  every vertex's side in one map that its levels read and flip, and must
  return the same shore.
- ``reference_balanced_shore``, the derandomized balanced cut that summed
  the conditional expectation over every edge for each candidate
  placement.  ``tripack.cuts`` keeps four running totals instead and must
  return the same shore.
- ``reference_reduction_steps`` and ``reference_reduce_and_certify``, the
  planar engine that rescans and rebuilds the whole graph at every step and
  checks every triangle when it minimalizes a cover.  ``tripack.planar``
  replaced it with one incrementally updated working state and must take
  the same steps and return the same certificates.
- ``reference_transversal_292``, the Haxell construction over single
  parallel copies ("slots"): every family member is a ``SlotTriangle``
  and every cover a set of ``SlotEdge``s.  ``tripack.haxell`` replaced it
  with multiplicities per type and counts per edge class, and must return
  the same nu, scalars and candidates.  Its family search
  (``_search_max_family``) already branches on copy orbits.
- ``reference_max_family``, the item-by-item depth-first search for a
  maximum slot-disjoint family that the reference's family search
  replaced.  It runs on ``core.run_search`` without a budget, and that
  search must find families of the same size that reach the same target.
  Its items come from ``reference_slot_triangles``, which lists every copy
  triple of every triangle, and ``reference_btype``, which counts the
  sides a slot triangle shares with a slot set.
- ``reference_swap_rung_sizes``, the enumeration of partner-swap variants
  of ``b_prime`` that ``build_state`` once ran to keep the one with the
  largest rung family.  It reuses the family searches of
  ``reference_transversal_292``; ``build_state`` keeps the first
  ``b_prime``, and no variant may have a larger rung family than it.
- ``reference_tau_exact``, the transversal search that ``tripack.exact``
  bounded by a greedy packing of edge-disjoint uncovered triangles,
  recollected at every node.  ``tau_exact`` replaced that bound with the
  LP optimum and must return the same value and certificate.
- ``reference_nu_exact``, ``nu_exact``'s packing search started from the
  empty packing.  ``nu_exact`` now starts it from ``reference_lp_packing``,
  the rounding of x*, and must return the same value, and the same
  certificate wherever that rounding is not optimal.  Likewise
  ``tau_exact`` starts from ``reference_lp_cover``, a greedy cover from y*
  cut down by ``reference_drop_redundant``, a reverse-delete that re-checks
  every triangle.
- ``reference_transversal_2nustar``, the Krivelevich cover that gave every
  parallel copy of a half-value edge its own conflict-graph vertex.
  ``tripack.krivelevich`` now weights one vertex per parallel class by
  its capacity, and then drops redundant edges with
  ``core._drop_redundant``; it must return the reference's certificate
  after that same reverse-delete.
- ``reference_gen_random``, the random-graph generator that listed every
  vertex pair before sampling.  ``tripack.generators.gen_random`` samples
  pair indices instead and must return the same graph.
"""

from __future__ import annotations

import gc
import itertools
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from tripack import (
    Edge,
    FractionalAssignment,
    InvariantViolation,
    Multigraph,
    PackingCertificate,
    Rational,
    TransversalCertificate,
    Triangle,
    verify_transversal,
)
from tripack.core import (
    _Budget,
    dominates_sqrt,
    enumerate_triangles,
    incidence,
    norm_edge,
    run_search,
)
from tripack.cuts import (
    _components,
    _cut_size,
    cut_large,
    independent_set_triangle_free,
)
from tripack.exact import LPSolution, max_type_packing, nu_exact
from tripack.haxell import DEFAULT_BUDGET, CandidateTransversal, HaxellCovers
from tripack.krivelevich import classify
from tripack.planar import (
    CYCLE_NEIGHBORHOOD,
    DOUBLE_TRIANGLE_HEAVY_EDGE,
    SINGLE_TRIANGLE_EDGE,
    ZERO_EDGE,
    ReductionStep,
)


def brute_max_cut(g: Multigraph) -> int:
    """Exhaustive maximum cut size, counting multiplicity."""
    best = 0
    pos = [(u, v, w) for u, v, w in g.edges if w > 0]
    for bits in range(1 << max(g.n - 1, 0)):
        shore = {i + 1 for i in range(g.n - 1) if bits >> i & 1}
        size = sum(w for u, v, w in pos if (u in shore) != (v in shore))
        best = max(best, size)
    return best


def brute_max_independent_set(g: Multigraph) -> int:
    best = 0
    for bits in range(1 << g.n):
        chosen = [i for i in range(g.n) if bits >> i & 1]
        ok = all(
            (a, b) not in g.weight_map for a, b in itertools.combinations(chosen, 2)
        )
        if ok:
            best = max(best, len(chosen))
    return best


def brute_nu(g: Multigraph) -> int:
    """Exhaustive packing maximum: plain recursion, no bounds, no pruning."""
    tris = enumerate_triangles(g)
    caps = dict(g.weight_map)

    def rec(i: int) -> int:
        if i == len(tris):
            return 0
        best = rec(i + 1)
        es = tris[i].edges
        if all(caps[e] >= 1 for e in es):
            for e in es:
                caps[e] -= 1
            best = max(best, 1 + rec(i))
            for e in es:
                caps[e] += 1
        return best

    return rec(0)


def brute_type_packing(
    types: Sequence[tuple[int, int, int]],
    caps: Sequence[int],
    gains: Sequence[int],
    target: int,
) -> list[int] | None:
    """Every multiplicity vector within the capacities, in descending order.

    Returns the first vector of largest total among those whose gain
    reaches ``target`` (the lexicographically largest such optimum), or
    None when none reaches it.
    """
    ranges = [range(min(caps[o] for o in t), -1, -1) for t in types]
    best: list[int] | None = None
    for counts in itertools.product(*ranges):
        load = [0] * len(caps)
        for t, m in zip(types, counts):
            for o in t:
                load[o] += m
        if any(x > c for x, c in zip(load, caps)):
            continue
        if sum(m * w for m, w in zip(counts, gains)) < target:
            continue
        if best is None or sum(counts) > sum(best):
            best = list(counts)
    return best


def brute_tau(g: Multigraph) -> int:
    """Exhaustive transversal minimum over all edge subsets."""
    tris = enumerate_triangles(g)
    if not tris:
        return 0
    edges = [(u, v) for u, v, _ in g.edges]
    best = sum(w for _, _, w in g.edges)
    for bits in range(1 << len(edges)):
        chosen = {edges[i] for i in range(len(edges)) if bits >> i & 1}
        if all(any(e in chosen for e in t.edges) for t in tris):
            best = min(best, sum(g.weight_map[e] for e in chosen))
    return best


def rand_connected_multigraph(n: int, extra: int, max_mult: int, seed: int) -> Multigraph:
    """Seeded random connected multigraph: a random tree plus extra edges."""
    rng = random.Random(seed)
    items: dict[tuple[int, int], int] = {}
    for v in range(1, n):
        u = rng.randrange(v)
        items[(u, v)] = rng.randint(1, max_mult)
    pool = [p for p in itertools.combinations(range(n), 2) if p not in items]
    for p in rng.sample(pool, min(extra, len(pool))):
        items[p] = rng.randint(1, max_mult)
    return Multigraph.from_edges(n, ((u, v, w) for (u, v), w in items.items()))


def rand_triangle_free(n: int, seed: int) -> Multigraph:
    """Seeded random graph sparsified until no triangle remains."""
    rng = random.Random(seed)
    edges = {
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < 3.0 / max(n, 3)
    }
    while True:
        g = Multigraph.from_edges(n, ((u, v, 1) for u, v in sorted(edges)))
        tris = enumerate_triangles(g)
        if not tris:
            return g
        t = tris[rng.randrange(len(tris))]
        edges.discard(t.edges[rng.randrange(3)])


def triangle_union(count: int) -> Multigraph:
    """``count`` vertex-disjoint unit triangles: nu = tau = ``count``.

    Exact searches go one level deeper per triangle, so 1100 triangles go
    past Python's default recursion limit of 1000.
    """
    return Multigraph.from_edges(
        3 * count,
        ((3 * i + u, 3 * i + v, 1) for i in range(count) for u, v in ((0, 1), (0, 2), (1, 2))),
    )


def cyclic_garbage(call: Callable[[], object]) -> int:
    """How many unreachable objects the cyclic collector finds after ``call()``.

    Collection is off during the call, so 0 means reference counting alone
    freed everything the call left behind.
    """
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def atlas_with_triangle() -> list[Multigraph]:
    """All simple graphs on at most 6 vertices that contain a triangle."""
    import networkx as nx

    out = []
    for G in nx.graph_atlas_g():
        if not 3 <= G.number_of_nodes() <= 6:
            continue
        nodes = sorted(G.nodes())
        idx = {v: i for i, v in enumerate(nodes)}
        g = Multigraph.from_edges(
            len(nodes), ((idx[u], idx[v], 1) for u, v in G.edges())
        )
        if enumerate_triangles(g):
            out.append(g)
    return out


def relabel(g: Multigraph, perm: list[int]) -> Multigraph:
    return Multigraph.from_edges(
        g.n, ((perm[u], perm[v], w) for u, v, w in g.edges)
    )


REFERENCE_DEGENERATE_RUN = 20


def reference_components(g: Multigraph) -> list[list[int]]:
    """Triangle-connected components of ``g`` by an O(T^2) scan.

    Two triangles are linked when they share an edge.  Each component lists
    its indices in ``enumerate_triangles(g)`` in ascending order, and the
    components come in order of their lowest triangle.
    """
    sides = [set(t.edges) for t in enumerate_triangles(g)]
    comp_of = [-1] * len(sides)
    comps = []
    for s in range(len(sides)):
        if comp_of[s] >= 0:
            continue
        comp_of[s] = s
        stack = [s]
        while stack:
            j = stack.pop()
            for k in range(len(sides)):
                if comp_of[k] < 0 and sides[j] & sides[k]:
                    comp_of[k] = s
                    stack.append(k)
        comps.append([j for j in range(len(sides)) if comp_of[j] == s])
    return comps


def reference_simplex_packing(
    g: Multigraph, degenerate_run: int | None = REFERENCE_DEGENERATE_RUN, log: list | None = None
) -> tuple[dict[Triangle, Fraction], dict[Edge, Fraction], Fraction]:
    """Maximize the fractional packing; return (x, y, value) exactly.

    Dense reference: every tableau entry is a ``Fraction``.  Triangles that
    share an edge, directly or through others, form one component, and each
    component gets its own tableau over its triangles and their edges (all
    other dual values are 0).  The tableau's triangle columns are sorted by
    degree: over a triangle's edges, the sum of how many of the
    component's triangles contain each edge, ties by canonical index.  Its
    edge columns follow in canonical order.  The entering variable has the
    most negative reduced cost, ties to the lowest column; after
    ``degenerate_run`` degenerate pivots in a row (never, if None) the
    first negative enters instead, until a pivot is nondegenerate.  The
    leaving row wins the ratio test.  Ties go to the row with the fewest
    nonzero slack entries, then the largest pivot entry, then the lowest
    basic column; while the first negative enters, straight to the lowest
    basic column.  ``log`` receives ``(bland, degenerate)`` per
    pivot.
    """
    inc = incidence(g)
    x: dict[Triangle, Fraction] = {}
    y: dict[Edge, Fraction] = {}
    value = Fraction(0)
    for members in reference_components(g):
        cx, cy, cv = _reference_tableau(g, inc, members, degenerate_run, log)
        x.update(cx)
        y.update(cy)
        value += cv
    return x, dict(sorted(y.items())), value


def _reference_tableau(
    g: Multigraph, inc, members: list[int], degenerate_run: int | None, log: list | None
) -> tuple[dict[Triangle, Fraction], dict[Edge, Fraction], Fraction]:
    deg = Counter(i for j in members for i in inc.columns[j])
    members = sorted(members, key=lambda j: (sum(deg[i] for i in inc.columns[j]), j))
    used_rows = sorted(deg)
    row_of = {orig: i for i, orig in enumerate(used_rows)}
    m = len(used_rows)
    nt = len(members)
    width = nt + m + 1
    zero = Fraction(0)
    one = Fraction(1)

    rows: list[list[Fraction]] = []
    for i, orig in enumerate(used_rows):
        row = [zero] * width
        row[nt + i] = one
        row[-1] = Fraction(g.weight_map[inc.edges[orig]])
        rows.append(row)
    for j, t in enumerate(members):
        for orig in inc.columns[t]:
            rows[row_of[orig]][j] = one

    # obj[j] = z_j - c_j; optimal when all entries are nonnegative.
    obj = [zero] * width
    for j in range(nt):
        obj[j] = -one

    basis = [nt + i for i in range(m)]
    streak = 0

    while True:
        bland = degenerate_run is not None and streak >= degenerate_run
        negative = [j for j in range(width - 1) if obj[j] < 0]
        if not negative:
            break
        enter = negative[0] if bland else min(negative, key=lambda j: obj[j])
        leave = -1
        best_ratio: Fraction | None = None
        best_key: tuple | None = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                nnz = sum(1 for v in rows[i][nt:nt + m] if v)
                key = (basis[i],) if bland else (nnz, -a, basis[i])
                if best_ratio is None or ratio < best_ratio or (ratio == best_ratio and key < best_key):
                    best_ratio, best_key = ratio, key
                    leave = i
        if leave < 0:
            raise InvariantViolation("packing LP is unbounded")
        degenerate = best_ratio == 0
        streak = streak + 1 if degenerate else 0
        if log is not None:
            log.append((bland, degenerate))
        prow = rows[leave]
        piv = prow[enter]
        if piv != one:
            inv = one / piv
            for j in range(width):
                if prow[j]:
                    prow[j] *= inv
        nz = [(j, prow[j]) for j in range(width) if prow[j]]
        for i in range(m):
            if i == leave:
                continue
            row = rows[i]
            f = row[enter]
            if f:
                for j, v in nz:
                    row[j] -= f * v
        f = obj[enter]
        if f:
            for j, v in nz:
                obj[j] -= f * v
        basis[leave] = enter

    x: dict[Triangle, Fraction] = {}
    for i, b in enumerate(basis):
        if b < nt and rows[i][-1] != 0:
            x[inc.triangles[members[b]]] = rows[i][-1]
    y: dict[Edge, Fraction] = {}
    for i, orig in enumerate(used_rows):
        val = obj[nt + i]
        if val != 0:
            y[inc.edges[orig]] = val
    return x, y, obj[-1]


def _reference_sub_adj(vertices: list[int], adj: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    vset = set(vertices)
    return {x: {y: m for y, m in adj[x].items() if y in vset} for x in vertices}


def _reference_place_apart(x: int, x_adj: dict[int, int], shore: set[int]) -> set[int]:
    """Put ``x`` on the shore opposite most of its edges (ties keep x out)."""
    into = sum(m for y, m in x_adj.items() if y in shore)
    total = sum(x_adj.values())
    if into >= total - into:
        return shore
    return shore | {x}


def reference_cut_connected_shore(vertices: list[int], adj: dict[int, dict[int, int]]) -> set[int]:
    """Shore of a cut of size >= e/2 + (v-1)/4 in a connected multigraph.

    Reference: plain recursion in which every level copies the remaining
    adjacency (and its degrees), holds the copy until its children finish
    and builds its shore from the shores they return, so a path on v
    vertices takes O(v^2) time and memory and its depth is bounded by
    Python's recursion limit.
    """
    v = len(vertices)
    e = sum(sum(adj[x].values()) for x in vertices) // 2
    if v <= 2:
        return {vertices[0]} if v == 2 else set()

    degrees = {x: sum(adj[x].values()) for x in vertices}
    odd = sorted(x for x in vertices if degrees[x] % 2 == 1)

    def solve_without(x: int, want_odd_component: bool) -> set[int]:
        rest = [y for y in vertices if y != x]
        rest_adj = _reference_sub_adj(rest, adj)
        comps = _components(rest, rest_adj)
        if len(comps) == 1:
            return _reference_place_apart(x, adj[x], reference_cut_connected_shore(rest, rest_adj))
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
        shore_a = reference_cut_connected_shore(side_a, _reference_sub_adj(side_a, adj))
        shore_b = reference_cut_connected_shore(side_b, _reference_sub_adj(side_b, adj))
        if (x in shore_a) != (x in shore_b):
            shore_b = set(side_b) - shore_b
        return shore_a | shore_b

    if odd:
        shore = solve_without(odd[0], want_odd_component=True)
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
            shore = reference_cut_connected_shore(vertices, halved)
        else:
            shore = solve_without(odd_pair[0], want_odd_component=False)
        bound_num = 2 * e + v - 1  # cut >= e/2 + (v-1)/4, scaled by 4
    if 4 * _cut_size(shore, adj) < bound_num:
        raise InvariantViolation("recursive cut missed its guaranteed size")
    return shore


def reference_balanced_shore(vertices: list[int], adj: dict[int, dict[int, int]]) -> set[int]:
    """A derandomized balanced bipartition meeting the expectation bound.

    Conditional expectations over the uniform random ``floor(v/2)``-subset:
    vertices are placed one at a time (ascending id) on the side that
    maximizes the expected crossing count of the final balanced cut.  The
    result has cut size at least ``e/2 + e/(2v)``.

    Reference: every candidate placement re-sums the whole expectation, a
    ``Fraction`` term per edge, so a run takes O(v*e) time.
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
    achieved = _cut_size(shore, adj)
    if v >= 1 and Fraction(achieved) < baseline:
        raise InvariantViolation("derandomized cut fell below its expectation")
    if Fraction(achieved) < Fraction(e, 2) + Fraction(e, 2 * v):
        raise InvariantViolation("balanced cut below the expectation bound")
    return shore


def _reference_triangles_per_edge(g: Multigraph) -> dict[Edge, list[Triangle]]:
    per: dict[Edge, list[Triangle]] = {(u, v): [] for u, v, _ in g.edges}
    for t in g.triangles:
        for e in t.edges:
            per[e].append(t)
    return per


def _reference_neighbors(g: Multigraph) -> list[list[int]]:
    """Sorted structural neighbors per vertex (capacity 0 included)."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(ys) for ys in adj]


def _reference_cycle_order(nbrs: list[list[int]], v: int) -> tuple[int, ...] | None:
    ns = nbrs[v]
    k = len(ns)
    if k < 3:
        return None
    nset = set(ns)
    inner = {x: [y for y in nbrs[x] if y in nset] for x in ns}
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


def _reference_find_reduction(g: Multigraph) -> ReductionStep | None:
    """Full scan: every edge per rule, then every vertex."""
    per = _reference_triangles_per_edge(g)
    wmap = g.weight_map
    for u, v, w in g.edges:
        if w == 0 or not per[(u, v)]:
            return ReductionStep(kind=ZERO_EDGE, witness_edge=(u, v), triangles=tuple(per[(u, v)]))
    for u, v, w in g.edges:
        tris = per[(u, v)]
        if len(tris) == 1 and w >= 1 and all(wmap[e] >= 1 for e in tris[0].edges):
            return ReductionStep(
                kind=SINGLE_TRIANGLE_EDGE, witness_edge=(u, v), triangles=(tris[0],),
                weight_deltas={e: 1 for e in tris[0].edges},
            )
    for u, v, w in g.edges:
        tris = per[(u, v)]
        if len(tris) == 2 and w >= 2:
            flanks = [e for t in tris for e in t.edges if e != (u, v)]
            if all(wmap[e] >= 1 for e in flanks):
                deltas = {e: 1 for e in flanks}
                deltas[(u, v)] = 2
                return ReductionStep(
                    kind=DOUBLE_TRIANGLE_HEAVY_EDGE, witness_edge=(u, v),
                    triangles=tuple(tris), weight_deltas=deltas,
                )
    nbrs = _reference_neighbors(g)
    for v in range(g.n):
        cycle = _reference_cycle_order(nbrs, v)
        if cycle is None or any(wmap[norm_edge(v, u)] != 1 for u in cycle):
            continue
        k = len(cycle)
        matched = [norm_edge(cycle[2 * i], cycle[2 * i + 1]) for i in range(k // 2)]
        if any(wmap[e] < 1 for e in matched):
            continue
        return ReductionStep(
            kind=CYCLE_NEIGHBORHOOD, witness_vertex=v,
            triangles=tuple(Triangle.of(v, cycle[2 * i], cycle[2 * i + 1]) for i in range(k // 2)),
            weight_deltas={e: 1 for e in matched}, cycle=cycle,
        )
    return None


def _reference_apply_step(g: Multigraph, step: ReductionStep) -> Multigraph:
    drop_edge = step.witness_edge if step.kind == ZERO_EDGE else None
    drop_vertex = step.witness_vertex if step.kind == CYCLE_NEIGHBORHOOD else None
    edges = []
    for u, v, w in g.edges:
        w -= step.weight_deltas.get((u, v), 0)
        if w < 0:
            raise InvariantViolation(f"step would drive edge {(u, v)} below 0")
        if (u, v) != drop_edge and drop_vertex not in (u, v):
            edges.append((u, v, w))
    return Multigraph(g.n, tuple(edges))


def _reference_levels(g: Multigraph) -> tuple[list[tuple[Multigraph, ReductionStep]], Multigraph]:
    """Every (graph before, step) pair of the run, and the residual graph."""
    levels = []
    cur = g
    while (step := _reference_find_reduction(cur)) is not None:
        nxt = _reference_apply_step(cur, step)
        if len(nxt.edges) + nxt.total_weight >= len(cur.edges) + cur.total_weight:
            raise InvariantViolation("reduction step failed to shrink the measure")
        levels.append((cur, step))
        cur = nxt
    return levels, cur


def reference_reduction_steps(g: Multigraph) -> list[ReductionStep]:
    """The planar engine's steps, each found by rescanning a rebuilt graph."""
    return [step for _, step in _reference_levels(g)[0]]


def _reference_minimalize(tris, cover: set[Edge]) -> set[Edge]:
    out = set(cover)
    for e in sorted(cover):
        trial = out - {e}
        if all(any(x in trial for x in t.edges) for t in tris):
            out = trial
    return out


def _reference_spokes(cycle: tuple[int, ...], uncovered: set[int]) -> list[int]:
    k = len(cycle)
    if len(uncovered) == k:
        return [cycle[2 * i + 1] for i in range(k // 2)] + ([cycle[0]] if k % 2 else [])
    chosen = []
    for i in sorted(uncovered):
        if (i - 1) % k in uncovered:
            continue
        m = 1
        while (i + m) % k in uncovered:
            m += 1
        chosen.extend(cycle[(i + 1 + 2 * j) % k] for j in range((m + 1) // 2))
    return chosen


def reference_reduce_and_certify(
    g: Multigraph,
) -> tuple[PackingCertificate, TransversalCertificate, str]:
    """The planar certificates, unwound over the rebuilt graphs of
    ``reference_reduction_steps`` with a minimality check over every triangle."""
    levels, residual = _reference_levels(g)
    complete = not residual.triangles
    packing: dict[Triangle, int] = {}
    cover = set() if complete else {e for t in residual.triangles for e in t.edges}
    for before, step in reversed(levels):
        if step.kind == ZERO_EDGE:
            if any(not any(x in cover for x in t.edges) for t in step.triangles):
                cover.add(step.witness_edge)
            continue
        if step.kind == CYCLE_NEIGHBORHOOD:
            k = len(step.cycle)
            uncovered = {
                i for i in range(k) if norm_edge(step.cycle[i], step.cycle[(i + 1) % k]) not in cover
            }
            spokes = {norm_edge(step.witness_vertex, u) for u in _reference_spokes(step.cycle, uncovered)}
            assert sum(e in cover for e in step.weight_deltas) + len(spokes) <= 2 * (k // 2)
            cover |= spokes
        else:
            cover = _reference_minimalize(before.triangles, cover)
        for t in step.triangles:
            packing[t] = packing.get(t, 0) + 1
    status = "complete" if complete else "incomplete"
    return PackingCertificate.from_map(packing), TransversalCertificate.from_edges(g, cover), status


SlotEdge = tuple[int, int, int]  # (u, v, copy index), u < v


class SlotTriangle(NamedTuple):
    """A triangle together with the parallel copy it uses on each side."""

    tri: Triangle
    slots: tuple[int, int, int]  # copy per edge of tri.edges order

    @property
    def slot_edges(self) -> tuple[SlotEdge, SlotEdge, SlotEdge]:
        es = self.tri.edges
        return (
            (*es[0], self.slots[0]),
            (*es[1], self.slots[1]),
            (*es[2], self.slots[2]),
        )


@dataclass(frozen=True)
class AnchoredTriangle:
    """A triangle sharing exactly one edge with a family member.

    ``partner`` is that member, ``shared`` the common slot edge, ``apex``
    and ``partner_apex`` the two vertices off the shared edge, and
    ``rungs`` every host slot edge joining the apexes (empty when the
    apexes coincide, which happens for parallel copies of one triple).
    """

    t: SlotTriangle
    partner: SlotTriangle
    shared: SlotEdge
    apex: int
    partner_apex: int
    rungs: tuple[SlotEdge, ...]


@dataclass(frozen=True)
class ReferenceState:
    """The nested families driving the five constructions.

    Only families are stored: ``b``, ``b2`` and ``b_prime`` as slot
    triangles, the anchored families as their anchors (``b1`` and
    ``b1_prime`` read the triangles back), and ``fmap`` assigns each member
    of ``i_family`` its two rungs.  ``k_family`` is derived through
    ``e0``, and each scalar of the size bounds is a family size over nu,
    and 0 when nu is 0.
    """

    graph: Multigraph
    nu: int
    b: tuple[SlotTriangle, ...]
    b2: tuple[SlotTriangle, ...]
    b_prime: tuple[SlotTriangle, ...]
    anchors_b1: tuple[AnchoredTriangle, ...]
    anchors_b1_prime: tuple[AnchoredTriangle, ...]
    i_family: tuple[AnchoredTriangle, ...]
    i_prime: tuple[AnchoredTriangle, ...]
    fmap: Mapping[SlotTriangle, tuple[SlotEdge, SlotEdge]]

    @cached_property
    def e0(self) -> frozenset[SlotEdge]:
        """``b_prime``'s slot edges off the partners of ``b1_prime``, plus the shared edges."""
        hat = {a.partner for a in self.anchors_b1_prime}
        kept = (e for m in self.b_prime if m not in hat for e in m.slot_edges)
        return frozenset(kept).union(a.shared for a in self.anchors_b1_prime)

    @cached_property
    def k_family(self) -> tuple[AnchoredTriangle, ...]:
        """The anchors of ``b1_prime`` whose rungs all lie in ``e0``."""
        return tuple(a for a in self.anchors_b1_prime if self.e0.issuperset(a.rungs))

    def _per_nu(self, family: Sequence) -> Rational:
        return Fraction(len(family), self.nu) if self.nu else Fraction(0)

    b1 = property(lambda self: tuple(a.t for a in self.anchors_b1))
    b1_prime = property(lambda self: tuple(a.t for a in self.anchors_b1_prime))
    gamma = property(lambda self: self._per_nu(self.anchors_b1))
    beta = property(lambda self: self._per_nu(self.b2))
    alpha = property(lambda self: self._per_nu(self.b_prime))
    delta = property(lambda self: self._per_nu(self.anchors_b1_prime))
    eta = property(lambda self: self._per_nu(self.i_family))
    eta_prime = property(lambda self: self._per_nu(self.i_prime))
    delta0 = property(lambda self: self._per_nu(self.k_family))


def _all_slot_edges(g: Multigraph) -> list[SlotEdge]:
    return [(u, v, j) for u, v, w in g.edges for j in range(w)]


def _cover(g: Multigraph, slots: Iterable[SlotEdge]) -> TransversalCertificate:
    """The edge classes with every copy in ``slots``, plus the free edges.

    A slot triangle takes one copy per side, so ``slots`` meets all of them
    exactly when each triangle has a side of capacity 0 or a full side:
    exactly when this cover verifies.  It weighs at most ``len(slots)``.
    """
    used = Counter(e[:2] for e in slots)
    full = [e for e, c in used.items() if c == g.weight_map[e]]
    return TransversalCertificate.from_edges(g, itertools.chain(full, g.free_edges))


def _search_max_family(
    g: Multigraph,
    host: Iterable[SlotEdge],
    role: Callable[[SlotEdge], int],
    gain: Callable[[tuple[int, ...]], int | None],
    budget: _Budget,
) -> list[SlotTriangle]:
    """Maximum-cardinality slot-disjoint family of triangles over ``host``.

    The items are the slot triangles whose copies all lie in ``host`` and
    whose roles, one per side in ``tri.edges`` order, have a gain, 0 or 1;
    ``gain`` returns None to reject them.  When some item gains, the family
    must additionally gain as much as the most gaining items that fit
    together; gains are additive because the family's slot edges are
    disjoint.

    The search runs over classes of interchangeable copies, never over
    items.  An *orbit* is the host copies of one edge class with one role,
    and orbits are ordered by their lowest copy.  Whether a slot triangle
    is an item, and its gain, depend only on its three roles, so swapping
    two copies of one orbit maps the items onto themselves and keeps every
    gain.  For the roles ``build_state`` uses, no coarser grouping exists:
    copies of two orbits of one class never lie on items with the same
    other two copies and gain, unless neither lies on any item.  A *type*
    is a triangle, an orbit per side and a gain, taken in order of
    triangle and then orbits; applying the swaps side by side, every
    choice of one copy per side from a type's orbits is an item.
    ``max_type_packing`` takes the orbits as resources, with their copy
    counts as capacities.

    Every family maps to a multiplicity vector within the orbit
    capacities, and every such vector is realized by disjoint copies, so
    the maximum size and the gain target are exactly those of the
    item-level problem.  The best vector is expanded lowest unused
    copy first per orbit.
    """
    copies: dict[tuple[Edge, int], list[int]] = {}
    for u, v, j in sorted(host):
        copies.setdefault(((u, v), role((u, v, j))), []).append(j)
    orbit = {key: o for o, key in enumerate(copies)}
    roles_of: dict[Edge, list[int]] = {}
    for e, r in copies:
        roles_of.setdefault(e, []).append(r)
    types = []
    for t in g.triangles:
        for roles in itertools.product(*(roles_of.get(e, ()) for e in t.edges)):
            gn = gain(roles)
            if gn is not None:
                types.append((t, tuple(orbit[k] for k in zip(t.edges, roles)), gn))
    best = max_type_packing(
        [orbits for _, orbits, _ in types],
        [len(c) for c in copies.values()],
        (3, [1] * len(copies)),
        gains=[gn for _, _, gn in types],
        budget=budget,
    )
    unused = [iter(c) for c in copies.values()]
    return sorted(
        SlotTriangle(tri, tuple(next(unused[o]) for o in orbits))  # type: ignore[arg-type]
        for (tri, orbits, _), m in zip(types, best)
        for _ in range(m)
    )


def _share(k: int) -> Callable[[tuple[int, ...]], int | None]:
    """Gain 0 for triangles whose roles sum to ``k``; rejects the rest."""
    return lambda roles: 0 if sum(roles) == k else None


def _slot_edges(members: Iterable[SlotTriangle]) -> set[SlotEdge]:
    """The slot edges of a family, which must be pairwise slot-disjoint."""
    edges: set[SlotEdge] = set()
    for st in members:
        es = st.slot_edges
        if any(e in edges for e in es):
            raise InvariantViolation("family is not slot-disjoint")
        edges.update(es)
    return edges


def _anchors(
    g: Multigraph,
    members: Iterable[SlotTriangle],
    family: Sequence[SlotTriangle],
    family_edges: set[SlotEdge],
    host: frozenset[SlotEdge],
) -> tuple[AnchoredTriangle, ...]:
    """Anchor each type-1 triangle to its partner in ``family``; no two share one."""
    out: list[AnchoredTriangle] = []
    for st in members:
        shared = [e for e in st.slot_edges if e in family_edges]
        if len(shared) != 1:
            raise InvariantViolation("anchored triangle must share exactly one edge")
        e = shared[0]
        partners = [m for m in family if e in m.slot_edges]
        if len(partners) != 1:
            raise InvariantViolation("shared edge must belong to exactly one member")
        partner = partners[0]
        apex = next(x for x in st.tri if x not in e[:2])
        papex = next(x for x in partner.tri if x not in e[:2])
        lo, hi = (apex, papex) if apex < papex else (papex, apex)
        rungs = tuple(
            s for s in ((lo, hi, j) for j in range(g.weight_map.get((lo, hi), 0)))
            if s in host
        ) if apex != papex else ()
        out.append(AnchoredTriangle(st, partner, e, apex, papex, rungs))
    if len({a.partner for a in out}) != len(out):
        raise InvariantViolation("two anchored triangles share a partner")
    return tuple(out)


def _expand_packing(mult: Mapping[Triangle, int]) -> list[SlotTriangle]:
    """Assign parallel copies to a packing, lowest unused copy first."""
    unused: dict[Edge, Iterator[int]] = defaultdict(itertools.count)
    return [
        SlotTriangle(t, tuple(next(unused[e]) for e in t.edges))  # type: ignore[arg-type]
        for t in sorted(mult)
        for _ in range(mult[t])
    ]


def _compress(g: Multigraph, slots: Iterable[SlotEdge]) -> Multigraph:
    counts = Counter(e[:2] for e in slots)
    return Multigraph.from_edges(g.n, ((u, v, c) for (u, v), c in counts.items()))


def _max_i_family(
    members: Sequence[AnchoredTriangle],
    bprime_edges: set[SlotEdge],
    budget: _Budget,
) -> tuple[tuple[AnchoredTriangle, ...], dict[SlotTriangle, tuple[SlotEdge, SlotEdge]]]:
    """Largest subfamily admitting two private rungs off the packing.

    Each selected triangle needs two rung slots outside the family edges;
    rung pairs are mutually disjoint and avoid every selected triangle's
    own edges.  Deterministic depth-first search.
    """
    pools = [
        tuple(e for e in a.rungs if e not in bprime_edges) for a in members
    ]
    n = len(members)
    best: list[int] = []
    best_f: dict[SlotTriangle, tuple[SlotEdge, SlotEdge]] = {}
    chosen: list[int] = []
    fmap: dict[SlotTriangle, tuple[SlotEdge, SlotEdge]] = {}
    taken_f: set[SlotEdge] = set()
    member_edges: set[SlotEdge] = set()

    def dfs(i: int) -> Iterator:
        nonlocal best, best_f
        if len(chosen) + (n - i) <= len(best):
            return
        a = members[i]
        own = a.t.slot_edges
        if not any(e in taken_f for e in own):
            avail = [
                e for e in pools[i]
                if e not in taken_f and e not in member_edges and e not in own
            ]
            for f1, f2 in itertools.combinations(avail, 2):
                taken_f.update((f1, f2))
                member_edges.update(own)
                chosen.append(i)
                fmap[a.t] = (f1, f2)
                if len(chosen) > len(best):
                    best = list(chosen)
                    best_f = dict(fmap)
                yield (i + 1,)
                del fmap[a.t]
                chosen.pop()
                member_edges.difference_update(own)
                taken_f.difference_update((f1, f2))
        yield (i + 1,)

    run_search(dfs, (0,), budget)
    return tuple(members[i] for i in best), best_f


def _slot_tri_from_edges(*edges: SlotEdge) -> SlotTriangle:
    # Three distinct pairs on three vertices are exactly a triangle's sides.
    bypair = {e[:2]: e[2] for e in edges}
    verts = sorted({x for pair in bypair for x in pair})
    if len(verts) != 3 or len(bypair) != 3:
        raise InvariantViolation("three edges do not span a triangle")
    t = Triangle(*verts)
    return SlotTriangle(t, tuple(bypair[p] for p in t.edges))  # type: ignore[arg-type]


def reference_build_state(g: Multigraph, *, budget: int = DEFAULT_BUDGET) -> ReferenceState:
    """Assemble the nested families by exact search.

    The sequence: a maximum packing ``b``; a maximum family ``b1`` of
    triangles sharing exactly one edge with it; in the graph without
    ``b1``'s edges, a maximum family ``b_prime`` whose surplus of fresh
    edges matches a maximum family of share-two triangles, so that its
    share-two part is such a family, ``b2``; anchored families
    ``b1_prime``, ``i`` (with its two-rung assignment), ``i_prime`` and
    ``k``.  Every structural guarantee the size bounds rely on is asserted
    here, for the one ``b_prime`` kept; with ``alpha + eta <= 1 - gamma``
    the fixed combination of the five bounds is at most ``(73/25) nu``.
    """
    nu, cert = nu_exact(g)
    if nu == 0:
        # Every triangle has a capacity-0 edge, so no slot triangle exists.
        return ReferenceState(g, 0, (), (), (), (), (), (), (), {})
    bud = _Budget(budget)

    b = tuple(_expand_packing(cert.multiplicities))
    eb = _slot_edges(b)
    if not verify_transversal(g, _cover(g, eb)):
        raise InvariantViolation("a triangle avoids the maximum packing")
    # A copy's role is whether b uses it.
    in_b = eb.__contains__
    all_slots = frozenset(_all_slot_edges(g))
    b1 = _search_max_family(g, all_slots, in_b, _share(1), bud)
    anchors_b1 = _anchors(g, b1, b, eb, all_slots)

    gp_slots = all_slots - _slot_edges(b1)
    gp = _compress(g, gp_slots)
    nu_gp, _ = nu_exact(gp)
    if nu_gp != nu - len(anchors_b1):
        raise InvariantViolation("reduced packing number is off")

    def surplus(roles: tuple[int, ...]) -> int:  # fresh edges of a reduced triangle
        if sum(roles) < 2:
            raise InvariantViolation("reduced graph keeps a share-one triangle")
        return 3 - sum(roles)

    bp = _search_max_family(g, gp_slots, in_b, surplus, bud)
    ebp = _slot_edges(bp)
    b2 = tuple(m for m in bp if reference_btype(m, eb) == 2)

    # The b1_prime search reads 0 off b_prime, 1 on it but off b, and 2 on both.
    def on_bp(e: SlotEdge) -> int:
        return (e in ebp) * (1 + (e in eb))

    b1p = _anchors(
        g, _search_max_family(g, gp_slots, on_bp, _share(1), bud), bp, ebp, gp_slots
    )
    i_anchors, fmap = _max_i_family(b1p, ebp, bud) if b1p else ((), {})
    # Two private rungs need a parallel pair somewhere in the reduced graph.
    if i_anchors and not any(w >= 2 for _, _, w in gp.edges):
        raise InvariantViolation("rung family appeared without parallel pairs")

    # Independent-family witness for alpha + eta <= 1 - gamma: replace each
    # selected partner by the two triangles its rungs complete.
    ihat = {a.partner for a in i_anchors}
    witness: list[SlotTriangle] = [m for m in bp if m not in ihat]
    for a in i_anchors:
        own = {e[:2]: e for e in a.t.slot_edges}
        par = {e[:2]: e for e in a.partner.slot_edges}
        for x, f in zip(a.shared[:2], fmap[a.t]):
            sides = own[norm_edge(x, a.apex)], par[norm_edge(x, a.partner_apex)], f
            witness.append(_slot_tri_from_edges(*sides))
    if not _slot_edges(witness) <= gp_slots:
        raise InvariantViolation("rung-witness family is not independent")
    if len(witness) != len(bp) + len(i_anchors) or len(witness) > nu_gp:
        raise InvariantViolation("rung-witness family breaks the packing cap")
    if len(bp) + len(i_anchors) > nu - len(anchors_b1):
        raise InvariantViolation("alpha + eta exceeds 1 - gamma")

    all_f = {e for pair in fmap.values() for e in pair}
    i_prime = tuple(
        a for a in b1p
        if a not in i_anchors and any(e in all_f for e in a.t.slot_edges)
    )
    if len(i_prime) > 2 * len(i_anchors):
        raise InvariantViolation("crowding family exceeds twice the rung family")

    return ReferenceState(
        graph=g, nu=nu, b=b, b2=b2, b_prime=tuple(bp),
        anchors_b1=anchors_b1, anchors_b1_prime=b1p,
        i_family=i_anchors, i_prime=i_prime, fmap=fmap,
    )


def _certify(
    g: Multigraph,
    label: str,
    slots: set[SlotEdge],
    bound: Rational,
) -> CandidateTransversal:
    cert = _cover(g, slots)
    if not verify_transversal(g, cert):
        raise InvariantViolation(f"candidate {label} misses a triangle")
    if not cert.weight <= len(slots) <= bound:
        raise InvariantViolation(f"candidate {label} exceeds its size bound")
    return CandidateTransversal(label, cert, len(slots), bound)


def reference_candidate_transversals(st: ReferenceState) -> list[CandidateTransversal]:
    """The five constructed covers of ``st.graph``, each verified and within its bound."""
    g = st.graph
    nu = st.nu
    eb, eb1, eb2, ebp, eb1p = (
        _slot_edges(f) for f in (st.b, st.b1, st.b2, st.b_prime, st.b1_prime)
    )
    out: list[CandidateTransversal] = []

    # a: kept packing edges, shared edges, and all rungs of the anchors.
    bhat1 = {a.partner for a in st.anchors_b1}
    c1 = {e for m in st.b if m not in bhat1 for e in m.slot_edges}
    c1.update(a.shared for a in st.anchors_b1)
    ca = set(c1)
    for a in st.anchors_b1:
        extra = [e for e in a.rungs if e not in c1]
        if len(extra) > 2:
            raise InvariantViolation("anchor keeps more than two free rungs")
        ca.update(a.rungs)
    out.append(_certify(g, "a", ca, (3 - Fraction(2, 3) * st.gamma) * nu))

    # b: both side families plus the cheap half of the leftover packing edges.
    h_slots = eb - eb1 - eb2
    if len(h_slots) != 3 * nu - len(st.anchors_b1) - 2 * len(st.b2):
        raise InvariantViolation("leftover packing-edge count is off")
    cb = set(eb1) | set(eb2)
    if h_slots:
        hg = _compress(g, h_slots)
        crossing = {(u, v) for u, v, _ in cut_large(hg).cut_edges}
        kept = {e for e in h_slots if (e[0], e[1]) not in crossing}
        if 2 * len(kept) > len(h_slots):
            raise InvariantViolation("bipartite half is too small")
        cb |= kept
    out.append(_certify(
        g, "b", cb, (Fraction(3, 2) + Fraction(5, 2) * st.gamma + 2 * st.beta) * nu
    ))

    # c: both anchored families plus the packing edges reused by b_prime.
    cc = set(eb1) | set(eb1p) | (eb & ebp)
    out.append(_certify(
        g, "c", cc, (3 * st.gamma + 3 * st.delta + 3 * st.alpha - st.beta) * nu
    ))

    # d: drop the partners of the fully-surrounded anchors, keep their shared edges.
    khat = {a.partner for a in st.k_family}
    cd = set(eb1)
    cd.update(e for m in st.b_prime if m not in khat for e in m.slot_edges)
    cd.update(a.shared for a in st.k_family)
    out.append(_certify(g, "d", cd, (3 * st.gamma + 3 * st.alpha - 2 * st.delta0) * nu))

    # e: the layered cover around the rung family.
    crowded = set(st.i_prime) | set(st.k_family)
    ce = eb1 | st.e0
    for a in st.anchors_b1_prime:
        if a in st.i_family:
            ce.update(a.t.slot_edges)
            ce.update(a.partner.slot_edges)
            ce.update(st.fmap[a.t])
        elif a in crowded:
            ce.update(a.partner.slot_edges)
        else:
            ce.update(a.rungs)
    out.append(_certify(g, "e", ce, (3 - st.delta + 4 * st.eta + st.delta0) * nu))
    return out



def reference_transversal_292(g: Multigraph, *, budget: int = DEFAULT_BUDGET) -> HaxellCovers:
    """The five candidate covers and the lightest, which weighs at most ``(3 - 2/25) nu``.

    Each candidate weighs at most its slot count, which is at most its size
    bound.  The fixed convex combination 1/5, 4/75, 8/75, 8/25, 8/25 of the
    five size bounds collapses to ``(73/25) nu`` once ``alpha + eta <= 1 -
    gamma`` holds, so the lightest, ties going to the earlier label, is
    checked against that limit exactly.  ``best`` is that candidate cut
    down by ``reference_drop_redundant``.
    """
    st = reference_build_state(g, budget=budget)
    cands = reference_candidate_transversals(st)
    best = min(cands, key=lambda c: (c.certificate.weight, c.label))
    limit = Fraction(73, 25) * st.nu
    if best.certificate.weight > limit:
        raise InvariantViolation("lightest candidate exceeds (3 - 2/25) nu")
    trimmed = TransversalCertificate.from_edges(g, reference_drop_redundant(g, best.certificate.edges))
    return HaxellCovers(st, cands, replace(best, certificate=trimmed), limit)


def reference_slot_triangles(g: Multigraph, available: frozenset[SlotEdge]) -> list[SlotTriangle]:
    """Every triangle of the slot graph spanned by ``available``, sorted."""
    pools: dict[Edge, list[int]] = {}
    for u, v, j in available:
        pools.setdefault((u, v), []).append(j)
    for p in pools.values():
        p.sort()
    return [
        SlotTriangle(t, (c0, c1, c2))
        for t in g.triangles
        if all(e in pools for e in t.edges)
        for c0 in pools[t.edges[0]]
        for c1 in pools[t.edges[1]]
        for c2 in pools[t.edges[2]]
    ]


def reference_btype(st: SlotTriangle, base: set[SlotEdge]) -> int:
    """How many slot edges of ``st`` lie in ``base``."""
    return sum(e in base for e in st.slot_edges)


def reference_max_family(
    items: Sequence[SlotTriangle],
    *,
    gains: Sequence[int] | None = None,
    target: int = 0,
) -> list[SlotTriangle]:
    """Maximum slot-disjoint subfamily of ``items`` with ``sum(gains) >= target``.

    Depth-first over the items in order, include branch first, pruned by
    the count and the gain of the items left; no budget.
    """
    n = len(items)
    edges_of = [it.slot_edges for it in items]
    suffix_gain = [0] * (n + 1)
    if gains is not None:
        for i in range(n - 1, -1, -1):
            suffix_gain[i] = suffix_gain[i + 1] + gains[i]

    best: list[SlotTriangle] = []
    best_size = -1 if target > 0 else 0
    used: set[SlotEdge] = set()
    chosen: list[SlotTriangle] = []
    chosen_gain = 0

    def leaf() -> None:
        nonlocal best, best_size
        if chosen_gain >= target and len(chosen) > best_size:
            best_size = len(chosen)
            best = list(chosen)

    def dfs(i: int) -> Iterator:
        nonlocal chosen_gain
        if len(chosen) + (n - i) <= best_size:
            return
        if gains is not None and chosen_gain + suffix_gain[i] < target:
            return
        if i == n:
            leaf()
            return
        es = edges_of[i]
        if not (es[0] in used or es[1] in used or es[2] in used):
            used.update(es)
            chosen.append(items[i])
            chosen_gain += gains[i] if gains is not None else 0
            if gains is None:
                leaf()
            yield (i + 1,)
            chosen_gain -= gains[i] if gains is not None else 0
            chosen.pop()
            used.difference_update(es)
        yield (i + 1,)

    run_search(dfs, (0,))
    if target > 0 and best_size < 0:
        raise InvariantViolation("no family reaches the required surplus")
    return best


def reference_swap_rung_sizes(st: ReferenceState) -> list[int]:
    """Rung-family size of every partner-swap variant of ``st.b_prime``.

    A variant replaces the partners of a non-empty subset of
    ``st.anchors_b1_prime`` by their anchored triangles.  Each variant gets
    its own ``b1_prime`` search and rung search, as ``build_state`` once
    ran them to keep the variant with the strictly largest rung family;
    there are ``2**len(b1_prime) - 1`` of them.
    """
    g = st.graph
    budget = _Budget(10**9)
    eb = {e for m in st.b for e in m.slot_edges}
    gp_slots = frozenset(_all_slot_edges(g)) - {e for m in st.b1 for e in m.slot_edges}
    b1p = st.anchors_b1_prime
    sizes = []
    for mask in range(1, 1 << len(b1p)):
        swapped = [a for i, a in enumerate(b1p) if mask >> i & 1]
        dropped = {a.partner for a in swapped}
        variant = sorted([m for m in st.b_prime if m not in dropped] + [a.t for a in swapped])
        v_edges = {e for m in variant for e in m.slot_edges}

        def role(e: SlotEdge) -> int:
            return (e in v_edges) * (1 + (e in eb))

        found = _search_max_family(g, gp_slots, role, _share(1), budget)
        v_b1p = _anchors(g, found, variant, v_edges, gp_slots)
        sizes.append(len(_max_i_family(v_b1p, v_edges, budget)[0]))
    return sizes


def reference_tau_exact(g: Multigraph) -> tuple[int, TransversalCertificate]:
    """Minimum-weight triangle transversal with a verified certificate.

    Edges of capacity 0 are taken for free.  The search branches on the
    three edges of the first uncovered triangle; the lower bound greedily
    collects edge-disjoint uncovered triangles, each forcing at least its
    cheapest edge, and the search stops once it meets the root's bound.
    Deterministic: the first optimum found is kept.
    """
    free_edges = g.free_edges
    free_set = set(free_edges)
    open_tris = [t for t in g.triangles if not any(e in free_set for e in t.edges)]
    tri_edges = [t.edges for t in open_tris]
    ntri = len(open_tris)
    all_mask = (1 << ntri) - 1
    cover_mask: dict[Edge, int] = {}
    for j, es in enumerate(tri_edges):
        for e in es:
            cover_mask[e] = cover_mask.get(e, 0) | (1 << j)
    wmap = g.weight_map
    min_edge_w = [min(wmap[e] for e in es) for es in tri_edges]

    best_w = sum(wmap[e] for e in cover_mask) + 1
    best_set: list[Edge] | None = None

    def lower_bound(mask: int, start: int) -> int:
        # Every triangle before ``start`` is covered.
        lb = 0
        used_edges: set[Edge] = set()
        for j in range(start, ntri):
            if mask & (1 << j):
                continue
            es = tri_edges[j]
            if used_edges.isdisjoint(es):
                lb += min_edge_w[j]
                used_edges.update(es)
        return lb

    root_lb = lower_bound(0, 0)
    chosen: list[Edge] = []

    def dfs(mask: int, wsum: int, j: int) -> Iterator:
        nonlocal best_w, best_set
        if mask == all_mask:
            if wsum < best_w:
                best_w = wsum
                best_set = list(chosen)
            return
        # Before the first leaf, wsum + lb is below the sentinel best_w.
        if best_set is not None and wsum + lower_bound(mask, j) >= best_w:
            return
        while mask & (1 << j):
            j += 1
        for e in tri_edges[j]:
            chosen.append(e)
            yield mask | cover_mask[e], wsum + wmap[e], j
            chosen.pop()
            if best_w == root_lb:
                return

    run_search(dfs, (0, 0, 0))
    assert best_set is not None
    cert = TransversalCertificate.from_edges(g, best_set + list(free_edges))
    if cert.weight != best_w or not verify_transversal(g, cert):
        raise InvariantViolation("transversal certificate failed verification")
    return best_w, cert


def reference_nu_exact(g: Multigraph) -> tuple[int, PackingCertificate]:
    """The packing search of ``nu_exact`` started from the empty packing.

    ``max_type_packing`` priced by y* and without ``start``: the first
    maximum in canonical triangle order, largest multiplicity first.
    """
    tris = g.triangles
    if not tris:
        return 0, PackingCertificate.from_map({})
    index = {(u, v): o for o, (u, v, _) in enumerate(g.edges)}
    counts = max_type_packing(
        [tuple(index[e] for e in t.edges) for t in tris],
        [w for _, _, w in g.edges],
        (g.lp.yden, g.lp.y),
    )
    cert = PackingCertificate.from_map(dict(zip(tris, counts)))
    return cert.value, cert


def lp_solution(g: Multigraph, x: dict[Triangle, Fraction], y: dict[Edge, Fraction]) -> LPSolution:
    """An ``LPSolution`` of ``g`` from values by triangle and by edge, absent keys 0,
    each vector over the lcm of its values' denominators."""
    inc = g.incidence
    xs = [Fraction(x.get(t, 0)) for t in inc.triangles]
    ys = [Fraction(y.get(e, 0)) for e in inc.edges]
    xden, yden = lcm(*(v.denominator for v in xs)), lcm(*(v.denominator for v in ys))
    return LPSolution(xden, [int(v * xden) for v in xs], yden, [int(v * yden) for v in ys])


def lp_assignments(g: Multigraph, sol: LPSolution) -> tuple[FractionalAssignment, FractionalAssignment]:
    """``sol``'s x* keyed by triangle and y* keyed by edge of ``g.incidence``, as ``Fraction``s."""
    inc = g.incidence
    xs = (Fraction(v, sol.xden) for v in sol.x)
    ys = (Fraction(v, sol.yden) for v in sol.y)
    return (FractionalAssignment.on_triangles(g, dict(zip(inc.triangles, xs))),
            FractionalAssignment.on_edges(g, dict(zip(inc.edges, ys))))


def reference_lp_packing(g: Multigraph) -> dict[Triangle, int]:
    """The ν incumbent, on ``Fraction``s: floor(x*), then every triangle by
    descending fractional part of x* (ties by canonical order) takes the
    room its edges have left."""
    x = lp_assignments(g, g.lp)[0].triangle_values
    start = {t: x.get(t, 0) // 1 for t in g.triangles}
    left = dict(g.weight_map)
    for t, m in start.items():
        for e in t.edges:
            left[e] -= m
    for _, t in sorted((-(x.get(t, 0) - start[t]), t) for t in g.triangles):
        m = min(left[e] for e in t.edges)
        start[t] += m
        for e in t.edges:
            left[e] -= m
    return {t: m for t, m in start.items() if m}


def reference_drop_redundant(g: Multigraph, cover: Iterable[Edge]) -> frozenset[Edge]:
    """Reverse-delete by full re-checks: each edge of positive capacity,
    heaviest first (ties by edge), goes when the rest still covers."""
    keep = set(cover)
    for e in sorted(keep, key=lambda e: (-g.weight_map[e], e)):
        if g.weight_map[e] and all(any(f in keep and f != e for f in t.edges) for t in g.triangles):
            keep.remove(e)
    return frozenset(keep)


def reference_lp_cover(g: Multigraph) -> frozenset[Edge]:
    """The τ incumbent, on ``Fraction``s: the free edges, then each edge on a
    triangle by y* (largest first), weight, edge, kept when it covers a
    triangle not yet covered; then ``reference_drop_redundant``."""
    ys = lp_assignments(g, g.lp)[1].edge_values
    edges = sorted({e for t in g.triangles for e in t.edges}, key=lambda e: (-ys.get(e, 0), g.weight_map[e], e))
    cover = set(g.free_edges)
    for e in edges:
        if any(e in t.edges and cover.isdisjoint(t.edges) for t in g.triangles):
            cover.add(e)
    return reference_drop_redundant(g, cover)


def reference_gen_random(n: int, m: int, max_mult: int, seed: int) -> Multigraph:
    """A seeded random multigraph: ``m`` distinct pairs, capacities 1..max_mult."""
    if n < 2 or m < 0 or max_mult < 1:
        raise ValueError("bad parameters")
    pairs = list(itertools.combinations(range(n), 2))
    if m > len(pairs):
        raise ValueError(f"at most {len(pairs)} edges fit on {n} vertices")
    rng = random.Random(seed)
    chosen = rng.sample(pairs, m)
    return Multigraph.from_edges(
        n, ((u, v, rng.randint(1, max_mult)) for u, v in chosen)
    )


def _reference_conflict_graph_blowup(
    g: Multigraph, b_edges: tuple[Edge, ...], tight_tris: set[Triangle]
) -> tuple[Multigraph, list[Edge]]:
    """Triangle-free conflict graph on the parallel copies of the B edges.

    Each capacity unit of a B edge is one vertex; two copies are adjacent
    when their underlying edges lie in a common tight triangle.  Copies of
    the same edge are never adjacent, so an independent set can always be
    closed under whole parallel classes.
    """
    slots: list[Edge] = []
    for e in b_edges:
        slots.extend([e] * g.weight_map[e])
    index_of: dict[Edge, list[int]] = {}
    for i, e in enumerate(slots):
        index_of.setdefault(e, []).append(i)

    bset = set(b_edges)
    adj_edges: set[tuple[int, int]] = set()
    for t in tight_tris:
        in_b = [e for e in t.edges if e in bset and g.weight_map[e] > 0]
        for i in range(len(in_b)):
            for j in range(i + 1, len(in_b)):
                for p in index_of[in_b[i]]:
                    for q in index_of[in_b[j]]:
                        adj_edges.add((p, q) if p < q else (q, p))
    h = Multigraph.from_edges(len(slots), ((p, q, 1) for p, q in sorted(adj_edges)))
    return h, slots


def reference_transversal_2nustar(g: Multigraph) -> TransversalCertificate:
    """A verified transversal of weight at most ``2*nustar - sqrt(nustar)/4``.

    Built from the LP optimum ``g.lp``.  Returns the empty certificate on
    triangle-free input, without solving the LP.  When the fractional
    optimum is 0 but triangles exist, they all ride on capacity-0 edges,
    which are returned at zero cost.  The size bound is compared exactly by
    squaring.
    """
    if not g.triangles:
        return TransversalCertificate.from_edges(g, ())

    sol = g.lp
    part, tpart = classify(g, sol)
    tight_tris = set(tpart.T1 + tpart.T2 + tpart.T3 + tpart.T4 + tpart.T5)

    h, slots = _reference_conflict_graph_blowup(g, part.B, tight_tris)
    if h.triangles:
        raise InvariantViolation("conflict graph on half-value edges has a triangle")
    i_classes: set[Edge] = set()
    if slots:
        picked = independent_set_triangle_free(h, [1] * h.n)
        i_classes = {slots[i] for i in picked}

    # Induced graph on the below-1/2 edges plus the independent half edges,
    # with full multiplicities: cuts are vertex-based, so the complement of
    # the cut is a union of whole parallel classes and its slot count equals
    # its weight.
    gp_members = sorted(set(part.A) | i_classes)
    gp_items = [(u, v, g.weight_map[(u, v)]) for u, v in gp_members if g.weight_map[(u, v)] > 0]
    r_edges: list[Edge] = []
    if gp_items:
        gp = Multigraph.from_edges(g.n, gp_items)
        cut = cut_large(gp)
        crossing = {(u, v) for u, v, _ in cut.cut_edges}
        r_edges = [e for (u, v, _) in gp_items if (e := (u, v)) not in crossing]

    chosen = (set(part.B) - i_classes) | set(part.C) | set(r_edges) | set(g.free_edges)
    cert = TransversalCertificate.from_edges(g, sorted(chosen))
    if not verify_transversal(g, cert):
        raise InvariantViolation("constructed edge set misses a triangle")

    # weight <= 2*nustar - sqrt(nustar)/4; at nustar = 0 this demands weight 0.
    if not dominates_sqrt(2 * sol.value - cert.weight, sol.value / 16):
        raise InvariantViolation("constructed transversal exceeds its bound")
    return cert
