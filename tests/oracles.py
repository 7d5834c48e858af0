"""Brute-force reference implementations and corpus builders for tests.

Every oracle here is deliberately naive (full enumeration, no pruning) and
shares no code with the solvers it checks, apart from
``reference_simplex_packing``: the dense ``Fraction`` tableau that the
sparse integer simplex in ``tripack.exact`` replaced.  It reads the same
``incidence`` and must take the same Bland pivots, so the two agree exactly.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from tripack import Edge, InvariantViolation, Multigraph, Triangle, enumerate_triangles, incidence


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
