"""Brute-force reference implementations and corpus builders for tests.

Every oracle here is deliberately naive (full enumeration, no pruning) and
shares no code with the solvers it checks, apart from two references
that the faster kernels replaced and must agree with exactly:

- ``reference_simplex_packing``, the dense ``Fraction`` tableau that the
  sparse integer simplex in ``tripack.exact`` replaced.  It reads the same
  ``incidence`` and must take the same Bland pivots.
- ``reference_reduction_steps`` and ``reference_reduce_and_certify``, the
  planar engine that rescans and rebuilds the whole graph at every step and
  checks every triangle when it minimalizes a cover.  ``tripack.planar``
  replaced it with one incrementally updated working state and must take
  the same steps and return the same certificates.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from tripack import (
    Edge,
    InvariantViolation,
    Multigraph,
    PackingCertificate,
    TransversalCertificate,
    Triangle,
    enumerate_triangles,
    incidence,
)
from tripack.core import norm_edge
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
            not g.has_pair(a, b) for a, b in itertools.combinations(chosen, 2)
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


def reference_simplex_packing(g: Multigraph) -> tuple[dict[Triangle, Fraction], dict[Edge, Fraction], Fraction]:
    """Maximize the fractional packing; return (x, y, value) exactly.

    Dense reference: every tableau entry is a ``Fraction``.  Rows are restricted to edges lying in at least one triangle (all other
    dual values are 0).  Entering and leaving variables follow Bland's
    rule over the canonical triangle-then-edge order.
    """
    inc = incidence(g)
    tris = inc.triangles
    if not tris:
        return {}, {}, Fraction(0)

    used_rows = sorted({i for col in inc.columns for i in col})
    row_of = {orig: i for i, orig in enumerate(used_rows)}
    m = len(used_rows)
    nt = len(tris)
    width = nt + m + 1
    zero = Fraction(0)
    one = Fraction(1)

    rows: list[list[Fraction]] = []
    for i, orig in enumerate(used_rows):
        row = [zero] * width
        row[nt + i] = one
        row[-1] = Fraction(g.weight_map[inc.edges[orig]])
        rows.append(row)
    for j, col in enumerate(inc.columns):
        for orig in col:
            rows[row_of[orig]][j] = one

    # obj[j] = z_j - c_j; optimal when all entries are nonnegative.
    obj = [zero] * width
    for j in range(nt):
        obj[j] = -one

    basis = [nt + i for i in range(m)]

    while True:
        enter = -1
        for j in range(width - 1):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio: Fraction | None = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise InvariantViolation("packing LP is unbounded")
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
            x[tris[b]] = rows[i][-1]
    y: dict[Edge, Fraction] = {}
    for i, orig in enumerate(used_rows):
        val = obj[nt + i]
        if val != 0:
            y[inc.edges[orig]] = val
    return x, y, obj[-1]


def _reference_triangles_per_edge(g: Multigraph) -> dict[Edge, list[Triangle]]:
    per: dict[Edge, list[Triangle]] = {(u, v): [] for u, v, _ in g.edges}
    for t in g.triangles:
        for e in t.edges:
            per[e].append(t)
    return per


def _reference_cycle_order(g: Multigraph, v: int) -> tuple[int, ...] | None:
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


def _reference_find_reduction(g: Multigraph) -> ReductionStep | None:
    """Full scan: every edge per rule, then every vertex."""
    per = _reference_triangles_per_edge(g)
    wmap = g.weight_map
    for u, v, w in g.edges:
        if w == 0:
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
    for v in range(g.n):
        cycle = _reference_cycle_order(g, v)
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
