"""Exact optimizers for triangle packing and covering.

``nu_exact`` and ``tau_exact`` compute the integer optima by deterministic
branch and bound.  ``lp_optimal`` solves the fractional relaxation with an
exact simplex on sparse integer rows, each row carrying one positive
denominator and kept divided by its gcd.  Pivots follow Bland's rule, so
termination is guaranteed; the dual solution is read off the optimal
tableau, which makes the primal and dual values identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import (
    Edge,
    FractionalAssignment,
    InvariantViolation,
    Multigraph,
    PackingCertificate,
    Rational,
    TransversalCertificate,
    Triangle,
    incidence,
    is_fractional_packing,
    is_fractional_transversal,
    verify_packing,
    verify_transversal,
)


@dataclass(frozen=True)
class LPSolution:
    """An optimal primal/dual pair for the fractional relaxation.

    ``packing`` assigns rationals to triangles, ``transversal`` to edges,
    and both have the same exact objective ``value`` (strong duality).
    """

    packing: FractionalAssignment
    transversal: FractionalAssignment
    value: Rational


@dataclass(frozen=True)
class TightSets:
    """Constraints holding with equality at a given optimal pair.

    An edge is tight when its packing load equals its capacity; a triangle
    is tight when its transversal values sum to exactly 1.
    """

    tight_edges: tuple[Edge, ...]
    tight_triangles: tuple[Triangle, ...]


def _simplex_packing(g: Multigraph) -> tuple[dict[Triangle, Fraction], dict[Edge, Fraction], Fraction]:
    """Maximize the fractional packing; return (x, y, value) exactly.

    Rows are restricted to edges lying in at least one triangle (all other
    dual values are 0).  Entering and leaving variables follow Bland's
    rule over the canonical triangle-then-edge order.

    Each row, the objective row included, is a sparse ``column -> int`` map
    of numerators plus an integer right-hand side over one positive
    denominator, divided by the gcd of all of them after every update.  A
    ``column -> rows`` index limits a pivot to the rows it changes.
    """
    inc = incidence(g)
    tris = inc.triangles
    if not tris:
        return {}, {}, Fraction(0)

    used_rows = sorted({i for col in inc.columns for i in col})
    row_of = {orig: i for i, orig in enumerate(used_rows)}
    m = len(used_rows)
    nt = len(tris)

    # Row m is the objective, obj[j] = z_j - c_j; optimal when no entry is
    # negative.
    rows: list[dict[int, int]] = [{nt + i: 1} for i in range(m)]
    rows.append({j: -1 for j in range(nt)})
    rhs = [g.weight_map[inc.edges[orig]] for orig in used_rows] + [0]
    den = [1] * (m + 1)
    col_rows: list[set[int]] = [{m} for _ in range(nt)] + [{i} for i in range(m)]
    for j, col in enumerate(inc.columns):
        for orig in col:
            i = row_of[orig]
            rows[i][j] = 1
            col_rows[j].add(i)

    basis = [nt + i for i in range(m)]

    while True:
        enter = min((j for j, v in rows[m].items() if v < 0), default=-1)
        if enter < 0:
            break
        # Row denominators cancel in b_i / a_i, so ratios compare as
        # cross-multiplied numerators.  The objective entry is negative, so
        # the objective row never leaves.
        leave = -1
        piv = 0
        for i in col_rows[enter]:
            a = rows[i][enter]
            if a > 0:
                if leave < 0:
                    leave, piv = i, a
                    continue
                lhs = rhs[i] * piv
                cur = rhs[leave] * a
                if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                    leave, piv = i, a
        if leave < 0:
            raise InvariantViolation("packing LP is unbounded")
        prow = rows[leave]
        prhs = rhs[leave]

        # row <- row * (piv/k) - prow * (f/k), k = gcd(piv, f): the entering
        # column cancels and the denominator grows by piv/k.
        for i in col_rows[enter] - {leave}:
            row = rows[i]
            f = row[enter]
            k = gcd(piv, f)
            s, t = piv // k, f // k
            r, d = rhs[i], den[i]
            if s != 1:
                row = {j: v * s for j, v in row.items()}
                r *= s
                d *= s
            for j, p in prow.items():
                if j in row:
                    v = row[j] - t * p
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                        col_rows[j].discard(i)
                else:
                    row[j] = -t * p
                    col_rows[j].add(i)
            r -= t * prhs
            if d != 1:
                k = gcd(d, r, *row.values())
                if k != 1:
                    row = {j: v // k for j, v in row.items()}
                    r //= k
                    d //= k
            rows[i], rhs[i], den[i] = row, r, d

        # The pivot row divided by its pivot entry.
        k = gcd(prhs, *prow.values())
        if k != 1:
            rows[leave] = {j: v // k for j, v in prow.items()}
            rhs[leave] = prhs // k
        den[leave] = piv // k
        basis[leave] = enter

    x: dict[Triangle, Fraction] = {}
    for i, b in enumerate(basis):
        if b < nt and rhs[i]:
            x[tris[b]] = Fraction(rhs[i], den[i])
    obj = rows[m]
    y: dict[Edge, Fraction] = {}
    for i, orig in enumerate(used_rows):
        val = obj.get(nt + i)
        if val:
            y[inc.edges[orig]] = Fraction(val, den[m])
    return x, y, Fraction(rhs[m], den[m])


def lp_optimal(g: Multigraph) -> LPSolution:
    """Exact rational optimum of the fractional packing/transversal pair.

    The LP is always feasible and bounded (the zero packing and the all-1
    transversal are feasible), so this never fails.  The result is
    deterministic for a given graph.
    """
    x, y, value = _simplex_packing(g)
    packing = FractionalAssignment.on_triangles(g, x)
    transversal = FractionalAssignment.on_edges(g, y)
    if not (packing.value == transversal.value == value):
        raise InvariantViolation("strong duality violated by solver output")
    if not is_fractional_packing(g, packing):
        raise InvariantViolation("simplex produced an infeasible packing")
    if not is_fractional_transversal(g, transversal):
        raise InvariantViolation("simplex produced an infeasible transversal")
    return LPSolution(packing=packing, transversal=transversal, value=value)


def tight_sets(g: Multigraph, s: LPSolution) -> TightSets:
    """Edges and triangles whose LP constraints hold with equality.

    Requires an optimal pair (equal values).  Complementary slackness is
    asserted: a positive transversal value forces its edge tight, and a
    positive packing value forces its triangle tight; a violation means the
    pair was not optimal and is reported as a solver bug.
    """
    if s.packing.value != s.transversal.value:
        raise ValueError("not an optimal pair: primal and dual values differ")
    if not (is_fractional_packing(g, s.packing) and is_fractional_transversal(g, s.transversal)):
        raise ValueError("not an optimal pair: assignment infeasible")
    load: dict[Edge, Fraction] = {}
    assert s.packing.triangle_values is not None
    for t, x in s.packing.triangle_values.items():
        for e in t.edges:
            load[e] = load.get(e, Fraction(0)) + x
    tight_edges = tuple(
        (u, v)
        for u, v, w in g.edges
        if load.get((u, v), Fraction(0)) == w
    )
    tight_edge_set = set(tight_edges)
    one = Fraction(1)
    tight_tris = tuple(
        t
        for t in g.triangles
        if sum((s.transversal.edge_value(e) for e in t.edges), Fraction(0)) == one
    )
    tight_tri_set = set(tight_tris)
    assert s.transversal.edge_values is not None
    for e, y in s.transversal.edge_values.items():
        if y > 0 and e not in tight_edge_set:
            raise InvariantViolation(f"complementary slackness fails at edge {e}")
    for t, x in s.packing.triangle_values.items():
        if x > 0 and t not in tight_tri_set:
            raise InvariantViolation(f"complementary slackness fails at triangle {tuple(t)}")
    return TightSets(tight_edges=tight_edges, tight_triangles=tight_tris)


def nu_exact(g: Multigraph) -> tuple[int, PackingCertificate]:
    """Maximum integral triangle packing with a verified certificate.

    Branch and bound over triangle multiplicities in canonical order.  The
    subtree bound counts residual capacity on edges of still-usable
    triangles (every packed triangle consumes three units), and the search
    stops as soon as it matches the floor of the LP optimum.
    Deterministic: ties never replace the incumbent.
    """
    if not g.triangles:
        return 0, PackingCertificate.empty()
    return _nu_from_lp(g, lp_optimal(g))


def _nu_from_lp(g: Multigraph, sol: LPSolution) -> tuple[int, PackingCertificate]:
    """``nu_exact`` stopped by an already solved LP optimum of ``g``."""
    tris = g.triangles
    tri_edges = [t.edges for t in tris]
    caps = dict(g.weight_map)
    lp_floor = int(sol.value)

    best_count = -1
    best_mult: dict[Triangle, int] = {}
    counts = [0] * len(tris)

    def residual_bound(i: int) -> int:
        usable: set[Edge] = set()
        for j in range(i, len(tris)):
            es = tri_edges[j]
            if caps[es[0]] > 0 and caps[es[1]] > 0 and caps[es[2]] > 0:
                usable.update(es)
        return sum(caps[e] for e in usable) // 3

    def record(total: int) -> None:
        nonlocal best_count, best_mult
        if total > best_count:
            best_count = total
            best_mult = {tris[j]: counts[j] for j in range(len(tris)) if counts[j]}

    def dfs(i: int, total: int) -> bool:
        # Returns True when the proven global optimum was reached.
        while i < len(tris):
            es = tri_edges[i]
            if caps[es[0]] > 0 and caps[es[1]] > 0 and caps[es[2]] > 0:
                break
            i += 1
        if i == len(tris):
            record(total)
            return best_count >= lp_floor
        if total + residual_bound(i) <= best_count:
            return False
        es = tri_edges[i]
        m_max = min(caps[es[0]], caps[es[1]], caps[es[2]])
        for m in range(m_max, -1, -1):
            for e in es:
                caps[e] -= m
            counts[i] = m
            done = dfs(i + 1, total + m)
            counts[i] = 0
            for e in es:
                caps[e] += m
            if done:
                return True
        return False

    dfs(0, 0)
    cert = PackingCertificate.from_map(best_mult)
    if cert.value != best_count or not verify_packing(g, cert):
        raise InvariantViolation("packing certificate failed verification")
    return best_count, cert


def tau_exact(g: Multigraph) -> tuple[int, TransversalCertificate]:
    """Minimum-weight triangle transversal with a verified certificate.

    Edges of capacity 0 are taken for free.  The search branches on the
    three edges of the first uncovered triangle; the lower bound greedily
    collects edge-disjoint uncovered triangles, each forcing at least its
    cheapest edge.  Deterministic: the first optimum found is kept.
    """
    free_edges = g.free_edges
    free_set = set(free_edges)
    open_tris = [t for t in g.triangles if not any(e in free_set for e in t.edges)]
    if not open_tris:
        cert = TransversalCertificate.from_edges(g, free_edges)
        if not verify_transversal(g, cert):
            raise InvariantViolation("transversal certificate failed verification")
        return 0, cert

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

    def lower_bound(mask: int) -> int:
        lb = 0
        used_edges: set[Edge] = set()
        for j in range(ntri):
            if mask & (1 << j):
                continue
            es = tri_edges[j]
            if used_edges.isdisjoint(es):
                lb += min_edge_w[j]
                used_edges.update(es)
        return lb

    chosen: list[Edge] = []

    def dfs(mask: int, wsum: int) -> None:
        nonlocal best_w, best_set
        if mask == all_mask:
            if wsum < best_w:
                best_w = wsum
                best_set = list(chosen)
            return
        if wsum + lower_bound(mask) >= best_w:
            return
        j = 0
        while mask & (1 << j):
            j += 1
        for e in tri_edges[j]:
            chosen.append(e)
            dfs(mask | cover_mask[e], wsum + wmap[e])
            chosen.pop()

    dfs(0, 0)
    assert best_set is not None
    cert = TransversalCertificate.from_edges(g, best_set + list(free_edges))
    if cert.weight != best_w or not verify_transversal(g, cert):
        raise InvariantViolation("transversal certificate failed verification")
    return best_w, cert
