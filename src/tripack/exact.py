"""Exact optimizers for triangle packing and covering.

``nu_exact`` and ``tau_exact`` compute the integer optima by deterministic
branch and bound on ``core.run_search``, whose explicit stack bounds the
depth only by memory; they take no node budget.  Both read the cached LP
optimum ``g.lp`` for an incumbent and their bounds, and search only when
the incumbent misses the bound: ``nu_exact`` rounds x* and runs on
``max_type_packing``, which also searches the Haxell families, up to
``floor(nustar)``, pruning on y*'s price of the residual capacities;
``tau_exact`` covers greedily from y*, then prunes on x*'s mass over the
uncovered triangles down to ``ceil(nustar)``.  Both bounds are LP duality
(each packing weighs at most any fractional cover, and each cover at least
any fractional packing), so they cut only subtrees without a strictly
better leaf and change no result, only the size of the tree.
``lp_optimal`` solves the fractional relaxation with a revised simplex,
once per triangle-connected component: one sparse integer row of B^-1 per
edge of the component and one row of duals y, each over one positive
denominator kept divided by its gcd, built for the component and dropped
after it.  The triangles' reduced costs are kept between pivots, and a
pivot reprices only the triangles on the pivot row's support; a triangle
column is built from B^-1 only when it enters.  The most negative reduced
cost enters, ratio-test ties go to the sparsest row of B^-1, and Bland's
rule takes over during a long run of degenerate pivots, so the loop
terminates; y is the dual optimum, so primal and dual values agree.  All
three read the graph's cached ``g.incidence``: the simplex loops over its
components, ``nu_exact`` and ``tau_exact`` use its triangles through each
edge, and ``tau_exact`` counts the chosen edges of each triangle.
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
    int`` map, and the objective row only the duals y.  Each has an
    integer right-hand side over one positive denominator, divided by their
    gcd after every update.  The pivot row over its pivot entry is already
    in lowest terms: row ``r`` of B^-1 over ``d`` has ``r B = d e_i``, so
    gcd(r) divides d, and gcd(d, rhs, r) = 1 forces gcd(rhs, r) = 1.
    Triangle columns are never stored: the entering column of triangle j
    on edges e1, e2, e3 is ``R[i][e1] + R[i][e2] + R[i][e3]`` over the rows
    a ``slack -> rows`` index lists for those edges.  A slack is priced as
    ``y[e]``.  The reduced cost ``y[e1] + y[e2] + y[e3] - den`` of every
    triangle is kept between pivots: a pivot sets ``y' = (s*y - t*prow)/k``,
    so each one becomes ``(s*d - t*(prow . a_j))/k``, and only the
    triangles on an edge of the pivot row's support take the second term.

    Triangles sharing an edge fall in one component of ``g.incidence``,
    and the pivot loop runs once per component, on rows built for it and
    dropped after it; x, y and the value are merged.  The entering variable
    has the most negative reduced cost (Dantzig), ties to the lowest index
    in the canonical triangle-then-edge order.  After ``DEGENERATE_RUN``
    degenerate pivots in a row, Bland's rule (the first negative in that
    order) picks it until a pivot is nondegenerate.  Bland's rule cannot
    cycle, so every degenerate run ends, and each nondegenerate pivot
    strictly raises the objective, so no basis comes back and the loop
    ends.  The leaving row wins the ratio test.  Ties go to the row of B^-1
    with the fewest nonzeros, then the largest pivot entry, then the lowest
    basis index (Markowitz 1957: a pivot costs about the entering column's
    nonzeros times the pivot row's); under Bland's rule, straight to the
    lowest basis index.

    A component of one triangle skips the loop and takes its one pivot in
    closed form: x is the smallest capacity (omitted when 0), y is 1 on the
    lowest-index edge of that capacity, and the value grows by it.
    """
    inc = g.incidence
    tris, edges, columns = inc.triangles, inc.edges, inc.columns
    weight_map = g.weight_map
    x: dict[Triangle, Fraction] = {}
    ys: dict[Edge, Fraction] = {}
    value: dict[int, int] = {}  # the objective's numerators, summed per denominator
    for tids in inc.components:
        if len(tids) == 1:
            # The one pivot the loop would make: the triangle enters, and
            # the ratio test ties (all entries 1) go to the lowest index.
            w, e = min((weight_map[edges[e]], e) for e in columns[tids[0]])
            if w:
                x[tris[tids[0]]] = Fraction(w)
            ys[edges[e]] = Fraction(1)
            value[1] = value.get(1, 0) + w
            continue
        used = sorted({e for j in tids for e in columns[j]})
        m, nt = len(used), len(tids)
        obj = m
        row_of = dict(zip(used, range(m)))
        cols = [(row_of[a], row_of[b], row_of[c]) for a, b, c in map(columns.__getitem__, tids)]
        on: list[list[int]] = [[] for _ in used]  # the triangles on each slack's edge
        for p, col in enumerate(cols):
            for i in col:
                on[i].append(p)

        # Row i < m is row i of B^-1 and row m holds the duals y, all over
        # the slack columns; entry e of row i is rows[i][e] / den[i].  Basis
        # index p < nt is triangle tids[p] and nt + e is slack e.
        rows: list[dict[int, int]] = [{i: 1} for i in range(m)] + [{}]
        rhs = [weight_map[edges[e]] for e in used] + [0]
        den = [1] * (m + 1)
        col_rows: list[set[int]] = [{i} for i in range(m)]
        basis = list(range(nt, nt + m))
        dn = [-1] * nt  # reduced cost of triangle tids[p], over den[obj]
        streak = 0  # degenerate pivots in a row

        while True:
            y = rows[obj]
            bland = streak >= DEGENERATE_RUN
            if not bland:
                # The most negative reduced cost; a slack must beat the
                # triangles strictly, as they come first.
                low = min(dn)
                enter = dn.index(low) if low < 0 else -1
                low = min(low, 0)
                e = min(((v, e) for e, v in y.items() if v < low), default=(0, -1))[1]
            else:
                # Bland: the first negative reduced cost.
                enter = next((p for p, d in enumerate(dn) if d < 0), -1)
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
                col[obj] = dn[enter]
            else:
                break
            # Row denominators cancel in b_i / a_i, so ratios compare as cross-
            # multiplied numerators, and so do the pivot entries a_i / den_i.
            # The objective row's entry is negative: it never leaves.
            leave = -1
            piv = 0
            for i, a in col.items():
                if a > 0:
                    if leave < 0:
                        leave, piv = i, a
                        continue
                    lhs = rhs[i] * piv
                    cur = rhs[leave] * a
                    if lhs == cur and not bland:
                        # Markowitz: the sparser row, then the larger pivot.
                        lhs, cur = (len(rows[i]), piv * den[i]), (len(rows[leave]), a * den[leave])
                    if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                        leave, piv = i, a
            if leave < 0:
                raise InvariantViolation("packing LP is unbounded")
            prow = rows[leave]
            prhs = rhs[leave]
            streak = 0 if prhs else streak + 1

            # row <- (row * s - prow * t) / k, with s/t = piv/f in lowest
            # terms: the entering column cancels, the denominator grows by s,
            # and k is the gcd left over.
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
                k = gcd(d, r, *row.values()) if d != 1 else 1
                if k != 1:
                    row = {j: v // k for j, v in row.items()}
                    r //= k
                    d //= k
                rows[i], rhs[i], den[i] = row, r, d
                if i == obj:
                    hit: dict[int, int] = {}  # prow . a_p, on the triangles it reaches
                    for j, v in prow.items():
                        for p in on[j]:
                            hit[p] = hit.get(p, 0) + v
                    if s != 1 or k != 1:
                        old, dn = dn, [v * s // k for v in dn]
                        for p, q in hit.items():
                            dn[p] = (s * old[p] - t * q) // k
                    else:
                        for p, q in hit.items():
                            dn[p] -= t * q

            den[leave] = piv  # prow over piv is in lowest terms already, as the docstring shows
            basis[leave] = enter

        for i, b in enumerate(basis):
            if b < nt and rhs[i]:
                x[tris[tids[b]]] = Fraction(rhs[i], den[i])
        for e, v in rows[obj].items():
            ys[edges[used[e]]] = Fraction(v, den[obj])
        value[den[obj]] = value.get(den[obj], 0) + rhs[obj]
    return x, dict(sorted(ys.items())), sum((Fraction(v, d) for d, v in value.items()), Fraction(0))


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
    dual: Sequence[Fraction] | None = None,
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
    room.  ``dual`` gives each resource a price y_o >= 0 such that every
    type's prices sum to at least 1 (an LP dual; else
    ``InvariantViolation``); then (b) is also at most the sum of y_o times
    the residual capacity over those resources, since each triangle there
    pays at least 1 and draws only on them.  A subtree is cut when the
    total plus either bound cannot beat the incumbent, or the gain plus the
    rooms weighted by gain misses ``target``.  The search stops once the
    incumbent reaches the root's bound or ``ceiling``, which must bound the
    optimum.  The first incumbent is ``start`` if given (it must fit
    ``caps`` and reach ``target``, else ``InvariantViolation``), returned
    at once if it reaches that stop.  No cut removes a strictly better
    leaf, so the result is ``start`` if it is optimal, else the first
    optimum in branch order: the same with or without ``dual``, which only
    shrinks the tree.  A draw updates only the later types sharing a
    resource with it; the budget pays one node per search node.
    """
    n = len(types)
    gain_of = gains if gains is not None else [0] * n
    caps = list(caps)
    # Bound (b) by y: the prices as integers over one denominator.
    yden, price = _over_lcm(dual) if dual else (1, [])
    if dual is not None and (len(dual) != len(caps) or min(price, default=0) < 0
                             or any(sum(price[o] for o in t) < yden for t in types)):
        raise InvariantViolation("dual is negative, of the wrong length or prices some type below 1")
    users: list[list[int]] = [[] for _ in caps]  # the types drawing on each resource
    for j, t in enumerate(types):
        for o in t:
            users[o].append(j)
    later = [sorted({k for o in t for k in users[o] if k > j}) for j, t in enumerate(types)]
    # Over the types not yet branched on: rooms, bound (a) and its gain-weighted
    # twin, the residual capacity of (b) and its y-weighted twin, and how many
    # with room use each resource.
    room = [0] * n
    rest = rest_gain = resid = yres = 0
    live = [0] * len(caps)

    def set_room(k: int, r: int) -> None:
        nonlocal rest, rest_gain, resid, yres
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
                    if price:
                        yres += d * caps[o] * price[o]

    def draw(j: int, m: int) -> None:
        """Take ``m`` more triangles of type ``j`` (give back when negative)."""
        nonlocal resid, yres
        if not m:
            return
        for o in types[j]:
            caps[o] -= m
            if live[o]:
                resid -= m
                if price:
                    yres -= m * price[o]
        for k in later[j]:
            a, b, c = types[k]
            r = min(caps[a], caps[b], caps[c])
            if r != room[k]:
                set_room(k, r)

    for k, (a, b, c) in enumerate(types):
        set_room(k, min(caps[a], caps[b], caps[c]))
    stop = min(rest, resid // 3, rest if ceiling is None else ceiling)
    if price:
        stop = min(stop, yres // yden)
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
        if price and size + yres // yden <= best_size:
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
    part of x* (ties by index), takes its residual room.  When that start
    misses the ceiling, the search also gets y* as its ``dual``: a subtree
    is cut once its packing plus y*'s price of the capacity left cannot
    beat the incumbent.  Deterministic: that start if it is optimal, else
    the first maximum in branch order, with or without y*, so the
    certificate does not depend on the bound.
    """
    inc = g.incidence
    tris, types = inc.triangles, inc.columns
    if not tris:
        return 0, PackingCertificate.from_map({})
    den, num = _over_lcm([g.lp.packing.triangle_value(t) for t in tris])
    start, wts = [x // den for x in num], [w for _, _, w in g.edges]
    left = [w - sum(start[j] for j in on) for w, on in zip(wts, inc.on_edge)]
    for j in sorted(range(len(tris)), key=lambda j: (-(num[j] % den), j)):
        m = min(left[o] for o in types[j])
        start[j] += m
        for o in types[j]:
            left[o] -= m
    ceiling = int(g.lp.value)
    dual = [g.lp.transversal.edge_value(e) for e in inc.edges] if sum(start) < ceiling else None
    counts = max_type_packing(types, wts, ceiling=ceiling, start=start, dual=dual)
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
    inc, wts = g.incidence, [w for _, _, w in g.edges]
    tris, edges, cols, on = inc.triangles, inc.edges, inc.columns, inc.on_edge
    # Per triangle, how many of its edges are free or chosen; x* vanishes on
    # every triangle with a free edge, and those start covered.
    hits = [sum(not wts[i] for i in col) for col in cols]
    den, num = _over_lcm([g.lp.packing.triangle_value(t) for t in tris])
    stop = -(-sum(num) // den)
    y = _over_lcm([g.lp.transversal.edge_value(e) for e in edges])[1]
    best_set, got = list(g.free_edges), hits.copy()
    for i in sorted(range(len(edges)), key=lambda i: (-y[i], wts[i], i)):
        if not all(got[j] for j in on[i]):
            best_set.append(edges[i])
            for j in on[i]:
                got[j] += 1
    best_set = _drop_redundant(g, best_set)
    best_w = sum(g.weight_map[e] for e in best_set)
    chosen: list[Edge] = []

    def dfs(wsum: int, rest: int, j: int) -> Iterator:
        # ``rest`` is the x* mass of the uncovered triangles, times ``den``,
        # and every triangle before ``j`` is covered.
        nonlocal best_w, best_set
        if wsum - (-rest // den) >= best_w:
            return
        while j < len(tris) and hits[j]:
            j += 1
        if j == len(tris):
            best_w = wsum
            best_set = list(chosen)
            return
        for i in cols[j]:
            mass = sum(num[k] for k in on[i] if not hits[k])
            chosen.append(edges[i])
            for k in on[i]:
                hits[k] += 1
            yield dfs(wsum + wts[i], rest - mass, j)
            for k in on[i]:
                hits[k] -= 1
            chosen.pop()
            if best_w == stop:
                return

    run_search(dfs(0, sum(num), 0))
    cert = TransversalCertificate.from_edges(g, best_set + list(g.free_edges))
    if cert.weight != best_w or not verify_transversal(g, cert):
        raise InvariantViolation("transversal certificate failed verification")
    return best_w, cert
