"""Exact optimizers for triangle packing and covering.

``nu_exact`` and ``tau_exact`` compute the integer optima by deterministic
branch and bound on ``core.run_search``, whose explicit stack bounds the
depth only by memory; they take no node budget.  Both read the cached LP
optimum ``g.lp`` for an incumbent and their bounds, and search only when
the incumbent misses the bound: ``nu_exact`` rounds x* and runs on
``max_type_packing``, which also searches the Haxell families, up to
``floor(nustar)``; ``tau_exact`` covers greedily from y*, then prunes on
x*'s mass over the uncovered triangles down to ``ceil(nustar)``.
``lp_optimal`` solves the fractional relaxation with a revised simplex,
once per triangle-connected component: one sparse integer row of B^-1 per
edge and one row of duals y, each over one positive denominator kept
divided by its gcd; triangle columns are priced from y and B^-1 only when
needed.  The most negative reduced cost enters, and Bland's rule takes
over during a long run of degenerate pivots, so the loop terminates; y is
the dual optimum, so primal and dual values agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

from .core import (
    Edge,
    FractionalAssignment,
    InvariantViolation,
    Multigraph,
    PackingCertificate,
    Rational,
    TransversalCertificate,
    Triangle,
    _Budget,
    _drop_redundant,
    _on_edge,
    incidence,
    is_fractional_packing,
    is_fractional_transversal,
    run_search,
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


# Consecutive degenerate pivots after which Bland's rule prices until the
# next nondegenerate pivot.
DEGENERATE_RUN = 20


def _simplex_packing(g: Multigraph) -> tuple[dict[Triangle, Fraction], dict[Edge, Fraction], Fraction]:
    """Maximize the fractional packing; return (x, y, value) exactly.

    Revised simplex on sparse integer rows, one per edge on a triangle (the
    other duals are 0).  Row ``i`` keeps only its B^-1 part, a ``slack ->
    int`` map, and each objective row only the duals y.  Each has an
    integer right-hand side over one positive denominator, divided by their
    gcd (and the pivot entry's, for the pivot row) after every update.
    Triangle columns are never stored: triangle j on edges e1, e2, e3 is
    priced as ``y[e1] + y[e2] + y[e3] - den`` and a slack as ``y[e]``, and
    the entering column is ``R[i][e1] + R[i][e2] + R[i][e3]`` over the rows
    a ``slack -> rows`` index lists for those edges.

    Triangles sharing an edge fall in one component (union-find over the
    rows), and the pivot loop runs once per component on its own objective
    row; x, y and the value are merged.  The entering variable has the most
    negative reduced cost (Dantzig), ties to the lowest index in the
    canonical triangle-then-edge order.  After ``DEGENERATE_RUN`` degenerate
    pivots in a row, Bland's rule (the first negative in that order) picks
    it until a pivot is nondegenerate.  Bland's rule cannot cycle, so every
    degenerate run ends, and each nondegenerate pivot strictly raises the
    objective, so no basis comes back and the loop ends.  The leaving row
    wins the ratio test, ties to the lowest basis index.
    """
    inc = incidence(g)
    tris = inc.triangles
    if not tris:
        return {}, {}, Fraction(0)

    used = sorted({e for col in inc.columns for e in col})
    row_of = {e: i for i, e in enumerate(used)}
    cols = [tuple(row_of[e] for e in col) for col in inc.columns]
    m = len(used)
    nt = len(tris)
    root = list(range(m))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b, c in cols:
        r = find(a)
        root[find(b)] = r
        root[find(c)] = r
    comps: dict[int, list[int]] = {}  # the triangles of each component, in order
    for j, col in enumerate(cols):
        comps.setdefault(find(col[0]), []).append(j)

    # Row i < m is row i of B^-1 and row m + k holds the duals y of
    # component k, all over the slack columns; entry e of row i is
    # rows[i][e] / den[i].
    rows: list[dict[int, int]] = [{i: 1} for i in range(m)] + [{} for _ in comps]
    rhs = [g.weight_map[inc.edges[e]] for e in used] + [0] * len(comps)
    den = [1] * len(rows)
    col_rows: list[set[int]] = [{i} for i in range(m)]
    basis = [nt + i for i in range(m)]

    for obj, tids in enumerate(comps.values(), m):
        streak = 0  # degenerate pivots in a row
        while True:
            y, yden = rows[obj], den[obj]
            if streak < DEGENERATE_RUN:
                # The most negative reduced cost; a slack must beat the
                # triangles strictly, as they come first.
                enter, low = -1, 0
                for j in tids:
                    a, b, c = cols[j]
                    d = y.get(a, 0) + y.get(b, 0) + y.get(c, 0) - yden
                    if d < low:
                        enter, low = j, d
                e = min(((v, e) for e, v in y.items() if v < low), default=(0, -1))[1]
            else:
                # Bland: the first negative reduced cost.
                enter = next((j for j in tids if sum(y.get(i, 0) for i in cols[j]) < yden), -1)
                e = -1 if enter >= 0 else min((e for e, v in y.items() if v < 0), default=-1)
            if e >= 0:
                enter = nt + e
                col = {i: rows[i][e] for i in col_rows[e]}
            elif enter >= 0:
                a, b, c = cols[enter]
                col = {}
                for i in col_rows[a] | col_rows[b] | col_rows[c]:
                    row = rows[i]
                    v = row.get(a, 0) + row.get(b, 0) + row.get(c, 0)
                    if v:
                        col[i] = v
                col[obj] = col.get(obj, 0) - yden
            else:
                break
            # Row denominators cancel in b_i / a_i, so ratios compare as cross-
            # multiplied numerators.  The objective row's entry is negative: it
            # never leaves.
            leave = -1
            piv = 0
            for i, a in col.items():
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
            streak = 0 if prhs else streak + 1

            # row <- row * (piv/k) - prow * (f/k), k = gcd(piv, f): the entering
            # column cancels and the denominator grows by piv/k.
            for i, f in col.items():
                if i == leave:
                    continue
                row = rows[i]
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
            k = gcd(prhs, piv, *prow.values())
            if k != 1:
                rows[leave] = {j: v // k for j, v in prow.items()}
                rhs[leave] = prhs // k
            den[leave] = piv // k
            basis[leave] = enter

    x = {tris[b]: Fraction(rhs[i], den[i]) for i, b in enumerate(basis) if b < nt and rhs[i]}
    ys = {inc.edges[used[e]]: Fraction(v, den[obj]) for obj in range(m, len(rows)) for e, v in rows[obj].items()}
    value = sum((Fraction(rhs[obj], den[obj]) for obj in range(m, len(rows))), Fraction(0))
    return x, dict(sorted(ys.items())), value


def lp_optimal(g: Multigraph) -> LPSolution:
    """Exact rational optimum of the fractional packing/transversal pair.

    The LP is always feasible and bounded (the zero packing and the all-1
    transversal are feasible), so this never fails.  The result is
    deterministic for a given graph.  Each call solves afresh; solvers read
    the cached ``Multigraph.lp`` instead.
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


def max_type_packing(
    types: Sequence[tuple[int, int, int]],
    caps: Sequence[int],
    *,
    gains: Sequence[int] | None = None,
    target: int = 0,
    ceiling: int | None = None,
    budget: _Budget | None = None,
    start: Sequence[int] | None = None,
) -> list[int] | None:
    """A multiplicity per type with the largest total within ``caps``.

    Every triangle of a type draws one unit from each of the type's three
    distinct resources; resource ``o`` holds ``caps[o]`` units.  With
    ``gains`` (nonnegative, per type) the total gain must reach ``target``;
    returns None when it cannot.

    Branch and bound on ``core.run_search``: types in order, largest
    multiplicity first, the incumbent replaced only by a strictly larger
    total.  With a type's room its smallest residual capacity, the types
    not yet branched on add at most (a) their summed rooms and (b) a third
    of the residual capacity of the resources they use while they have
    room.  A subtree is cut when the total plus either bound cannot beat
    the incumbent, or the gain plus the rooms weighted by gain misses
    ``target``.  The search stops once the incumbent reaches the root's
    bound or ``ceiling``, which must bound the optimum.  The first
    incumbent is ``start`` if given (it must fit ``caps`` and reach
    ``target``, else ``InvariantViolation``), returned at once if it
    reaches that stop.  No cut removes a strictly better leaf, so the
    result is ``start`` if it is optimal, else the first optimum in branch
    order.  A draw updates only the later types sharing a resource with
    it; the budget pays one node per search node.
    """
    n = len(types)
    gain_of = gains if gains is not None else [0] * n
    caps = list(caps)
    users: list[list[int]] = [[] for _ in caps]  # the types drawing on each resource
    for j, t in enumerate(types):
        for o in t:
            users[o].append(j)
    later = [sorted({k for o in t for k in users[o] if k > j}) for j, t in enumerate(types)]
    # Over the types not yet branched on: rooms, bound (a) and its gain-weighted
    # twin, the residual capacity of (b), and how many with room use each resource.
    room = [0] * n
    rest = rest_gain = resid = 0
    live = [0] * len(caps)

    def set_room(k: int, r: int) -> None:
        nonlocal rest, rest_gain, resid
        old = room[k]
        if r == old:
            return
        room[k] = r
        rest += r - old
        rest_gain += (r - old) * gain_of[k]
        if not (r and old):
            d = 1 if r else -1
            for o in types[k]:
                was = live[o]
                live[o] += d
                if not (was and live[o]):
                    resid += d * caps[o]

    def draw(j: int, m: int) -> None:
        """Take ``m`` more triangles of type ``j`` (give back when negative)."""
        nonlocal resid
        if not m:
            return
        for o in types[j]:
            caps[o] -= m
            if live[o]:
                resid -= m
        for k in later[j]:
            a, b, c = types[k]
            r = min(caps[a], caps[b], caps[c])
            if r != room[k]:
                set_room(k, r)

    for k, (a, b, c) in enumerate(types):
        set_room(k, min(caps[a], caps[b], caps[c]))
    stop = min(rest, resid // 3, rest if ceiling is None else ceiling)
    best: list[int] | None = [0] * n if target <= 0 else None
    best_size = 0 if target <= 0 else -1
    if start is not None:
        if (len(start) != n or min(start, default=0) < 0 or sum(m * w for m, w in zip(start, gain_of)) < target
                or any(sum(start[k] for k in ks) > c for ks, c in zip(users, caps))):
            raise InvariantViolation("start overdraws a resource or misses the target")
        best, best_size = list(start), sum(start)
        if best_size >= stop:
            return best
    counts = [0] * n

    def dfs(i: int, size: int, gain: int) -> Iterator:
        nonlocal best, best_size
        if size + min(rest, resid // 3) <= best_size or gain + rest_gain < target:
            return
        while i < n and room[i] == 0:
            i += 1
        if i == n:
            best_size = size
            best = list(counts)
            return
        r, g = room[i], gain_of[i]
        set_room(i, 0)
        for m in range(r, -1, -1):
            draw(i, m)
            counts[i] = m
            yield dfs(i + 1, size + m, gain + m * g)
            counts[i] = 0
            draw(i, -m)
            if best_size >= stop:
                break
        set_room(i, r)

    run_search(dfs(0, 0, 0), budget)
    return best


def _over_lcm(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """A common denominator of ``xs`` and their numerators over it."""
    den = lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def nu_exact(g: Multigraph) -> tuple[int, PackingCertificate]:
    """Maximum integral triangle packing with a verified certificate.

    ``max_type_packing`` with the edges as resources, each triangle as a
    type and ``floor(nustar)`` as the ceiling, started from x* rounded
    down and completed greedily: each triangle, by descending fractional
    part of x* (ties by index), takes its residual room.  Deterministic:
    that start if it is optimal, else the first maximum in branch order.
    """
    tris = g.triangles
    if not tris:
        return 0, PackingCertificate.empty()
    index = {(u, v): o for o, (u, v, _) in enumerate(g.edges)}
    types = [tuple(index[e] for e in t.edges) for t in tris]  # type: ignore[misc]
    den, num = _over_lcm([g.lp.packing.triangle_value(t) for t in tris])
    start, on = [x // den for x in num], _on_edge(g)
    left = [w - sum(start[j] for j in on.get((u, v), ())) for u, v, w in g.edges]
    for j in sorted(range(len(tris)), key=lambda j: (-(num[j] % den), j)):
        m = min(left[o] for o in types[j])
        start[j] += m
        for o in types[j]:
            left[o] -= m
    counts = max_type_packing(types, [w for _, _, w in g.edges], ceiling=int(g.lp.value), start=start)
    assert counts is not None
    cert = PackingCertificate.from_map(dict(zip(tris, counts)))
    if cert.value != sum(counts) or not verify_packing(g, cert):
        raise InvariantViolation("packing certificate failed verification")
    return cert.value, cert


def tau_exact(g: Multigraph) -> tuple[int, TransversalCertificate]:
    """Minimum-weight triangle transversal with a verified certificate.

    Edges of capacity 0 are taken for free.  The first incumbent takes the
    other edges by the LP optimum y* (largest first), then weight, then
    edge, each if it covers a new triangle, and then ``_drop_redundant``.
    The search branches on the three edges of the first uncovered triangle,
    in order, and keeps only a strictly lighter cover.  The optimal packing
    x* restricted to the uncovered triangles is a fractional packing, so
    any cover of them weighs at least the ceiling of their x* mass (an
    integer numerator over one common denominator).  A subtree is cut when
    the weight so far plus this bound reaches the best cover; the search
    stops, or never starts, once that weighs ``ceil(nustar)``.  No cut
    removes a strictly lighter leaf, so the result is the incumbent if it
    is optimal, else the first optimum in branch order.
    """
    tris, wmap, on = g.triangles, g.weight_map, _on_edge(g)
    cover_mask = {e: sum(1 << j for j in js) for e, js in on.items()}
    all_mask = (1 << len(tris)) - 1
    # x* vanishes on every triangle with a free edge, and those start covered.
    den, num = _over_lcm([g.lp.packing.triangle_value(t) for t in tris])
    free = sum(1 << j for j, t in enumerate(tris) if not all(wmap[e] for e in t.edges))
    stop = -(-sum(num) // den)
    y = dict(zip(on, _over_lcm([g.lp.transversal.edge_value(e) for e in on])[1]))
    best_set, hit = list(g.free_edges), free
    for e in sorted(on, key=lambda e: (-y[e], wmap[e], e)):
        if cover_mask[e] & ~hit:
            best_set.append(e)
            hit |= cover_mask[e]
    best_set = _drop_redundant(g, best_set)
    best_w = sum(wmap[e] for e in best_set)
    chosen: list[Edge] = []

    def dfs(mask: int, wsum: int, rest: int, j: int) -> Iterator:
        # ``rest`` is the x* mass of the uncovered triangles, times ``den``.
        nonlocal best_w, best_set
        if wsum - (-rest // den) >= best_w:
            return
        if mask == all_mask:
            best_w = wsum
            best_set = list(chosen)
            return
        while mask & (1 << j):
            j += 1
        for e in tris[j].edges:
            mass = sum(num[i] for i in on[e] if not mask >> i & 1)
            chosen.append(e)
            yield dfs(mask | cover_mask[e], wsum + wmap[e], rest - mass, j)
            chosen.pop()
            if best_w == stop:
                return

    run_search(dfs(free, 0, sum(num), 0))
    cert = TransversalCertificate.from_edges(g, best_set + list(g.free_edges))
    if cert.weight != best_w or not verify_transversal(g, cert):
        raise InvariantViolation("transversal certificate failed verification")
    return best_w, cert
