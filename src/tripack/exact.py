"""Exact optimizers for triangle packing and covering.

``nu_exact`` and ``tau_exact`` compute the integer optima by deterministic
branch and bound on ``core.run_search`` (depth bounded only by memory,
state freed on return); they take no node budget.  Both read the cached LP
optimum ``g.lp`` for an incumbent and their bounds, and search only when
the incumbent misses the bound: ``nu_exact`` rounds x* and runs on
``max_type_packing``, which also searches the Haxell families, up to
``floor(nustar)``, pruning on y*'s price of the residual capacities, y* as
the simplex's integer pair ``(yden, y)`` (a family search with gaining
types first searches them alone for its gain target, priced by their LP
dual, which then prices the gain it can still reach); ``tau_exact``
covers greedily from y*, then prunes on x*'s mass over the uncovered
triangles down to ``ceil(nustar)``.  Both bounds
are LP duality (each packing weighs at most any fractional cover, and each
cover at least any fractional packing), so they cut only subtrees without a
strictly better leaf and change no result, only the size of the tree.
``lp_optimal`` solves the fractional relaxation on ``_simplex_packing``, an
exact revised simplex on the resource model of ``max_type_packing``: each
column draws one unit from three resources of given capacities, here a
triangle from its edges.
It runs once per component of columns sharing resources, which it finds
with ``core._components``, on one of two kernels chosen from the
component's sizes.  Where B^-1 is sparse, one sparse integer row of B^-1
per resource and one row of duals y, each over one positive denominator
kept divided by its gcd; a pivot reprices only the columns on the pivot
row's support.  Where it is dense anyway (more columns than resources),
the adjugate D B^-1 with D = det B, each column one int of lanes that a
pivot rewrites with one fraction-free update, whose division by the old D
is exact (Bareiss 1968).  Hadamard's inequality sizes the lanes to hold
every entry.  Either is built for the component and dropped after it,
and a column is built from B^-1 only when it enters.  Both kernels make
every choice with ``_entering`` and ``_leaving``, so they make the same
pivots; ``_simplex_packing``'s docstring states the rule, which
terminates, and y is the dual optimum, so primal and dual values agree.
All three read the graph's cached ``g.incidence``: ``lp_optimal`` passes
its columns to the simplex, ``nu_exact`` and ``tau_exact`` use its
triangles through each edge, and ``tau_exact`` counts the chosen edges
of each triangle.  The optimum is the simplex's ``LPSolution``, its
integer vectors and nothing else, which every reader uses; it holds no
reference to its graph, so the graph caching it as ``g.lp`` is freed by
reference counting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    Edge,
    InvariantViolation,
    Multigraph,
    PackingCertificate,
    Rational,
    TransversalCertificate,
    Triangle,
    _Budget,
    _components,
    _covers,
    _drop_redundant,
    _fits,
    run_search,
    verify_packing,
    verify_transversal,
)


class LPSolution(NamedTuple):
    """An optimal primal/dual pair from ``_simplex_packing``, exactly.

    x* is ``x[j] / xden`` on column ``j`` and y* is ``y[o] / yden`` on
    resource ``o``, each over the least common denominator; ``lp_optimal``'s
    columns are the triangles of ``g.incidence`` and its resources the
    edges.  ``value`` is the objective of both (strong duality).
    """

    xden: int
    x: list[int]
    yden: int
    y: list[int]

    @property
    def value(self) -> Rational:
        return Fraction(sum(self.x), self.xden)


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


def _simplex_packing(
    columns: Sequence[tuple[int, int, int]], caps: Sequence[int]
) -> LPSolution:
    """Maximize ``sum x`` with ``x >= 0`` and each resource's load within its capacity.

    Column ``j`` draws one unit from each of the three distinct resources
    ``columns[j]``, and resource ``o`` holds ``caps[o]`` units; the pivot
    loop runs once per component that ``core._components`` finds, columns
    linked by shared resources.  Returns the ``LPSolution`` ``(xden, x,
    yden, y)``: x* is ``x[j] / xden`` on column ``j`` and the dual y* is
    ``y[o] / yden`` on resource ``o`` (0 on a resource of no column), each
    denominator the lcm of its entries' lowest-terms denominators.

    Revised simplex on one of two kernels per component, each taking the
    component's columns ranked and its resources renumbered ``0 .. m-1``.
    ``_sparse_component`` keeps sparse rows of B^-1, each over its own
    denominator.  ``_dense_component`` keeps A = D B^-1 with D = det B, the
    adjugate, so A stays integral and a pivot's update divides exactly by
    the old D (fraction-free, Bareiss 1968); each column of A is one int
    with a lane per row.  A component with more columns than resources
    takes the dense kernel: its B^-1 fills anyway, as on complete graphs,
    and packed columns cost one big-int operation each per pivot.  Every
    other component takes the sparse kernel.  Both make every choice with
    ``_entering`` (pricing) and ``_leaving`` (the ratio test), so they make
    the same pivots, under the rule below.

    Order.  A component's columns are ranked by their degree, the number of
    the component's columns drawing on each of their resources, summed
    (ties by index), and its slacks follow them by resource.  The entering
    variable has the most negative reduced cost (Dantzig), ties to the
    lowest rank; a slack is priced as ``y[e]``.  After ``DEGENERATE_RUN``
    degenerate pivots in a row, Bland's rule (the first negative by rank)
    picks it until a pivot is nondegenerate.  Bland's rule cannot cycle
    under any fixed order, so every degenerate run ends, and each
    nondegenerate pivot strictly raises the objective, so no basis comes
    back and the loop ends.  The leaving row wins the ratio test.  Ties go
    to the row of B^-1 with the fewest nonzeros, then the largest pivot
    entry, then the lowest-ranked basic variable (Markowitz 1957: a pivot
    costs about the entering column's nonzeros times the pivot row's);
    under Bland's rule, straight to the lowest rank.  Columns of low degree
    enter first, which is the minimum-degree order of sparse elimination
    (Tinney and Walker 1967): a column meeting few others spreads B^-1 over
    few rows, where the hub columns of a stacked triangulation, entering
    first under ties by index, filled it densely.  When every degree is
    equal, as on a complete graph, the ranks are the indices.

    A component of one column skips the loop and takes its one pivot in
    closed form: x is the smallest capacity, and y is 1 on the lowest-index
    resource of that capacity.
    """
    # Entries in lowest terms: xn[j] / xd[j] and yn[o] / yd[o].
    xn, xd, yn, yd = [0] * len(columns), [1] * len(columns), [0] * len(caps), [1] * len(caps)
    for tids in _components(columns, len(caps)):
        if len(tids) == 1:
            # The one pivot the loop would make: the column enters, and the
            # ratio test ties (all entries 1) go to the lowest index.
            xn[tids[0]], e = min((caps[e], e) for e in columns[tids[0]])
            yn[e] = 1
            continue
        deg = Counter(e for j in tids for e in columns[j])
        tids = sorted(tids, key=lambda j: (sum(map(deg.__getitem__, columns[j])), j))
        used = sorted(deg)
        row_of = dict(zip(used, range(len(used))))
        cols = [(row_of[a], row_of[b], row_of[c]) for a, b, c in map(columns.__getitem__, tids)]
        # Over one pass of the benchmark's LPs, the dense kernel took about
        # 40% of the sparse one's time on components with more columns than
        # resources, about the same at equal counts, and 2.3x with fewer
        # columns.
        kernel = _dense_component if len(used) < len(tids) else _sparse_component
        x, y = kernel(cols, [caps[e] for e in used])
        for p, v, d in x:
            k = gcd(v, d)
            xn[tids[p]], xd[tids[p]] = v // k, d // k
        for e, v, d in y:
            k = gcd(v, d)
            yn[used[e]], yd[used[e]] = v // k, d // k
    xden, yden = lcm(*xd), lcm(*yd)
    return LPSolution(xden, [v * (xden // d) for v, d in zip(xn, xd)],
                      yden, [v * (yden // d) for v, d in zip(yn, yd)])


def _entering(dn: list[int], y: Iterable[int], pairs: Iterable[tuple[int, int]],
              streak: int) -> tuple[int, bool]:
    """The entering variable after ``streak`` degenerate pivots in a row, and whether Bland's rule chose it.

    ``dn[p]`` is column ``p``'s reduced cost, ``y`` holds the slacks' (the
    duals), and ``pairs`` the same as ``(e, y[e])`` (a slack in neither
    prices 0), all over one positive denominator.  The variable is a basis
    index, ``len(dn) + e`` for slack ``e``, or -1 at an optimum.
    """
    nt = len(dn)
    if streak >= DEGENERATE_RUN:
        enter = next((p for p, v in enumerate(dn) if v < 0), -1)
        return (enter if enter >= 0 else min((nt + e for e, v in pairs if v < 0), default=-1)), True
    low = min(min(dn), 0)
    if min(y, default=0) < low:  # a check in C before the scan in Python
        return nt + min((v, e) for e, v in pairs if v < low)[1], False
    return (dn.index(low) if low < 0 else -1), False


def _leaving(col: Iterable[tuple[int, int]], rhs: Sequence[int], den: Sequence[int], basis: Sequence[int],
             nnz: Callable[[int], int], bland: bool) -> int:
    """The leaving row for an entering column of entries ``(i, a)``, where its ratio is ``rhs[i] / a``.

    Row ``i``'s entry is ``a / den[i]``, its basic variable ``basis[i]``
    and its count of nonzeros in B^-1 ``nnz(i)``, read once on a tie;
    ``bland`` is ``_entering``'s second value.
    """
    leave, piv, ties = -1, 0, []
    for i, a in col:
        if a > 0:
            # Ratios, and pivot entries below, compare cross-multiplied.
            d = rhs[i] * piv - rhs[leave] * a if ties else -1
            if d < 0:
                leave, piv, ties = i, a, [(i, a)]
            elif d == 0:
                ties.append((i, a))
    if not ties:
        raise InvariantViolation("packing LP is unbounded")
    count = {i: nnz(i) for i, _ in ties} if len(ties) > 1 and not bland else {}
    for i, a in ties[1:]:
        if (basis[i] < basis[leave] if bland else
                (count[i], piv * den[i], basis[i]) < (count[leave], a * den[leave], basis[leave])):
            leave, piv = i, a
    return leave


def _sparse_component(
    cols: list[tuple[int, int, int]], caps: list[int]
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """One component of ``_simplex_packing`` on sparse integer rows of B^-1.

    ``cols`` are the component's columns in rank order over its resources
    ``0 .. m-1`` of capacities ``caps``.  Returns x* as ``(p, num, den)``
    for each basic column ``p`` and y* as ``(e, num, den)`` for each
    nonzero dual, not in lowest terms.

    Row ``i`` keeps only its B^-1 part, a ``slack -> int`` map, and the
    objective row only the duals y.  Each has an integer right-hand side
    over one positive denominator, divided by their gcd after every
    update.  The pivot row over its pivot entry is already in lowest terms:
    row ``r`` of B^-1 over ``d`` has ``r B = d e_i``, so gcd(r) divides d,
    and gcd(d, rhs, r) = 1 forces gcd(rhs, r) = 1.  Columns are never
    stored: the entering column of j on resources e1, e2, e3 is ``R[i][e1]
    + R[i][e2] + R[i][e3]`` over the rows a ``slack -> rows`` index lists
    for those resources.  The reduced cost ``y[e1] + y[e2] + y[e3] - den``
    of every column is kept between pivots: a pivot sets ``y' = (s*y -
    t*prow)/k``, so each one becomes ``(s*d - t*(prow . a_j))/k``, and only
    the columns on a resource of the pivot row's support take the second
    term.
    """
    m, nt = len(caps), len(cols)
    obj = m
    on: list[list[int]] = [[] for _ in caps]  # the columns on each slack's resource
    for p, col in enumerate(cols):
        for i in col:
            on[i].append(p)

    # Row i < m is row i of B^-1 and row m holds the duals y, all over
    # the slack columns; entry e of row i is rows[i][e] / den[i].  Basis
    # index p < nt is column p and nt + e is slack e.
    rows: list[dict[int, int]] = [{i: 1} for i in range(m)] + [{}]
    rhs = caps + [0]
    den = [1] * (m + 1)
    col_rows: list[set[int]] = [{i} for i in range(m)]
    basis = list(range(nt, nt + m))
    dn = [-1] * nt  # reduced cost of column p, over den[obj]
    streak = 0  # degenerate pivots in a row

    while True:
        enter, bland = _entering(dn, rows[obj].values(), rows[obj].items(), streak)
        if enter < 0:
            break
        if enter >= nt:
            e = enter - nt
            col = {i: rows[i][e] for i in col_rows[e]}
        else:
            a, b, c = cols[enter]
            col = {}
            for i in col_rows[a] | col_rows[b] | col_rows[c]:
                row = rows[i]
                v = row.get(a, 0) + row.get(b, 0) + row.get(c, 0)
                if v:
                    col[i] = v
            col[obj] = dn[enter]
        leave = _leaving(col.items(), rhs, den, basis, lambda i: len(rows[i]), bland)
        piv, prow, prhs = col[leave], rows[leave], rhs[leave]
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
                hit: dict[int, int] = {}  # prow . a_p, on the columns it reaches
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

    return ([(b, rhs[i], den[i]) for i, b in enumerate(basis) if b < nt],
            [(e, v, den[obj]) for e, v in rows[obj].items()])


def _lane_width(m: int) -> int:
    """The least ``w`` with 3^(m/2) < 2^(w-1): the width of ``_dense_component``'s lanes on ``m`` rows."""
    return ((3 ** m).bit_length() + 3) // 2


def _dense_component(
    cols: list[tuple[int, int, int]], caps: list[int]
) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """``_sparse_component`` on A = D B^-1, D = det B, one packed int per column of A.

    A stays integral (it is the adjugate of B), and so do the right-hand
    side D B^-1 b and the duals D y, kept as plain lists.  A pivot on entry
    ``piv`` of the entering column a' = A a_j in row ``r`` makes ``piv`` the
    new D, keeps row ``r`` and sets every other row to ``(piv*row - a'_i*row_r)
    / D``, an exact division (Edmonds 1967, Bareiss 1968).  Column ``e`` of A
    is one int with row ``i``'s entry, plus a bias of 2^(w-1), in the
    ``w``-bit lane at bit ``at[i] = w*i``.  Every column of B has at most
    three ones, so by Hadamard's inequality det B, each entry of A and each
    entry of an entering column A a_j (a Cramer numerator) is at most
    3^(m/2) in absolute value, and ``w`` is the least width with 3^(m/2) <
    2^(w-1).  So a pivot updates a whole column in one expression, and the
    entering column is the sum of three columns, unpacked once.  All
    entries share D, so ``_leaving`` takes D as every row's denominator.
    """
    m, nt = len(caps), len(cols)
    w = _lane_width(m)
    at = [w * i for i in range(m)]
    mask, zero = (1 << w) - 1, 1 << (w - 1)
    bias = ((1 << w * m) - 1) // mask << (w - 1)  # 2^(w-1) in every lane
    cs = [bias + (1 << s) for s in at]  # the columns of A = I
    rhs, y, dn = caps, [0] * m, [-1] * nt  # D B^-1 b, D y and D times each reduced cost
    basis = list(range(nt, nt + m))
    d = 1
    streak = 0  # degenerate pivots in a row

    def row(i: int) -> list[int]:
        """Row ``i`` of A, unpacked from every column."""
        return [((v >> at[i]) & mask) - zero for v in cs]

    while True:
        enter, bland = _entering(dn, y, enumerate(y), streak)
        if enter < 0:
            break
        if enter >= nt:
            f, s = y[enter - nt], cs[enter - nt]
        else:
            a, b, c = cols[enter]
            f, s = dn[enter], cs[a] + cs[b] + cs[c] - 2 * bias
        col = [((s >> a) & mask) - zero for a in at]
        tied: dict[int, list[int]] = {}  # the rows unpacked to count their nonzeros on a tie
        r = _leaving([(i, v) for i, v in enumerate(col) if v > 0], rhs, [d] * m, basis,
                     lambda i: m - tied.setdefault(i, row(i)).count(0), bland)
        piv, prhs = col[r], rhs[r]
        streak = 0 if prhs else streak + 1
        prow = tied[r] if r in tied else row(r)
        # Row r's entry of the entering column as piv - D, so that the
        # update keeps row r.
        col[r] -= d
        s -= bias + (d << at[r])
        if piv == d:  # then a column off the pivot row's support keeps its value
            cs = [v - p * s // d if p else v for v, p in zip(cs, prow)]
        else:
            k = (d - piv) * bias
            cs = [(piv * v - p * s + k) // d for v, p in zip(cs, prow)]
        rhs = [(piv * v - a * prhs) // d for v, a in zip(rhs, col)]
        y = [(piv * v - f * p) // d for v, p in zip(y, prow)]
        dn = [y[a] + y[b] + y[c] - piv for a, b, c in cols]
        d = piv
        basis[r] = enter
    return [(b, rhs[i], d) for i, b in enumerate(basis) if b < nt], [(e, v, d) for e, v in enumerate(y) if v]


def lp_optimal(g: Multigraph) -> LPSolution:
    """Exact rational optimum of the fractional packing/transversal pair.

    ``_simplex_packing`` with the triangles as columns and the edges as
    resources, whose ``LPSolution`` it returns once the integer vectors
    pass three checks: strong duality, x* a fractional packing and y* a
    fractional transversal.  The LP is always feasible and bounded (the
    zero packing and the all-1 transversal are feasible), so this never
    fails.  The result is deterministic for a given graph.  Each call
    solves afresh; solvers read the cached ``Multigraph.lp`` instead.
    """
    caps = [w for _, _, w in g.edges]
    xden, x, yden, y = sol = _simplex_packing(g.incidence.columns, caps)
    if sum(x) * yden != sum(v * w for v, w in zip(y, caps)) * xden:
        raise InvariantViolation("strong duality violated by solver output")
    if not _fits(g, xden, x):
        raise InvariantViolation("simplex produced an infeasible packing")
    if not _covers(g, yden, y):
        raise InvariantViolation("simplex produced an infeasible transversal")
    return sol


def tight_sets(g: Multigraph, s: LPSolution) -> TightSets:
    """Edges and triangles whose LP constraints hold with equality.

    Requires an optimal pair: equal values, and both vectors feasible,
    which is checked in integers on them (``ValueError`` otherwise).
    Complementary slackness is asserted: a positive transversal value
    forces its edge tight, and a positive packing value forces its triangle
    tight; a violation means the pair was not optimal and is reported as a
    solver bug.
    """
    inc, xden, x, yden, y = g.incidence, s.xden, s.x, s.yden, s.y
    if len(x) != len(inc.triangles) or len(y) != len(inc.edges):
        raise ValueError("not an optimal pair: vectors not on the triangles and edges of g")
    if sum(x) * yden != sum(v * w for v, (_, _, w) in zip(y, g.edges)) * xden:
        raise ValueError("not an optimal pair: primal and dual values differ")
    slack = [w * xden - sum(map(x.__getitem__, on)) for on, (_, _, w) in zip(inc.on_edge, g.edges)]
    surplus = [y[a] + y[b] + y[c] - yden for a, b, c in inc.columns]
    if min(x + y + slack + surplus, default=0) < 0:
        raise ValueError("not an optimal pair: assignment infeasible")
    for e, v, r in zip(inc.edges, y, slack):
        if v and r:
            raise InvariantViolation(f"complementary slackness fails at edge {e}")
    for t, v, r in zip(inc.triangles, x, surplus):
        if v and r:
            raise InvariantViolation(f"complementary slackness fails at triangle {tuple(t)}")
    return TightSets(tuple(e for e, r in zip(inc.edges, slack) if not r),
                     tuple(t for t, r in zip(inc.triangles, surplus) if not r))


def max_type_packing(
    types: Sequence[tuple[int, int, int]],
    caps: Sequence[int],
    dual: tuple[int, Sequence[int]],
    *,
    gains: Sequence[int] | None = None,
    budget: _Budget | None = None,
    start: Sequence[int] | None = None,
) -> list[int]:
    """A multiplicity per type with the largest total within ``caps``.

    Every triangle of a type draws one unit from each of the type's three
    distinct resources; resource ``o`` holds ``caps[o]`` units.  ``gains``
    marks each type 0 or 1 (else ``InvariantViolation``); when some type
    gains, the total gain must reach the target, the most gaining types
    that fit together.

    Branch and bound on ``core.run_search``: types in order, largest
    multiplicity first, the incumbent replaced only by a strictly larger
    total.  ``dual`` is the pair ``(yden, y)`` of ``_simplex_packing``:
    resource ``o`` costs ``y[o] / yden``, with ``yden >= 1``, no price
    negative and every type costing at least 1 (else
    ``InvariantViolation``).  With a type's room its smallest residual
    capacity, the types not yet branched on add at most (a) their summed
    rooms, (b) a third of the residual capacity of the resources they use
    while they have room, and (c) y's price of that capacity, since each
    triangle there pays at least 1 and draws only on those resources.  A
    caller without an LP passes the uniform third ``(3, [1] * len(caps))``,
    under which (c) is (b).  At the LP optimum y*, (c) at the root is the LP
    value: y* > 0 only where x* fills the capacity, and a resource no type
    with room uses has load 0.  The target comes from the LP of the gaining
    types alone, solved once on ``_simplex_packing``: its dual z prices a
    first search over just those types, whose total is the target, and
    then the gain, since every gaining type costs at least 1 under z, so
    the types not yet branched on gain at most z's price of the residual
    capacity over those resources.  A subtree is cut when the total plus
    any size bound cannot beat the incumbent, or the gain plus the gaining
    rooms, or plus z's price, misses the target.  The search stops once the
    incumbent reaches the root's bound, at y* the floor of the LP value.
    The first incumbent is ``start`` if given (it must fit ``caps`` and
    reach the target, else ``InvariantViolation``), returned at once if it
    reaches that stop.  No cut removes a strictly better leaf, and a gain
    cut only a subtree whose every leaf misses the target, so the result
    is ``start`` if it is optimal, else the first optimum in branch order
    under any dual, which like z only shrinks the tree.  A draw walks its
    resources' users down to it, so no index outgrows the types; the budget
    pays one node per search node, the first search's included.
    """
    n = len(types)
    gain_of = gains if gains is not None else [0] * n
    yden, price = dual
    if (yden < 1 or len(price) != len(caps) or min(price, default=0) < 0
            or any(sum(price[o] for o in t) < yden for t in types)):
        raise InvariantViolation("dual has yden < 1, a negative price, the wrong length or a type below 1")
    if len(gain_of) != n or any(w not in (0, 1) for w in gain_of):
        raise InvariantViolation("gains are not a 0/1 mark per type")
    # The target and the gain bound by z, the gaining types' LP dual.
    target, zden, zprice = 0, 1, []
    gaining = [t for t, w in zip(types, gain_of) if w]
    if gaining:
        _, _, zden, zprice = _simplex_packing(gaining, caps)
        target = sum(max_type_packing(gaining, caps, (zden, zprice), budget=budget))
    caps = list(caps)
    users: list[list[int]] = [[] for _ in caps]  # the types drawing on each resource, descending
    for j in range(n - 1, -1, -1):
        for o in types[j]:
            users[o].append(j)
    # Over the types not yet branched on: rooms, bound (a) and its gain-weighted
    # twin, the residual capacity of (b), its y-priced twin (c) and its z-priced
    # twin, and how many with room use each resource.
    room = [0] * n
    rest = rest_gain = resid = yres = zres = 0
    live = [0] * len(caps)

    def set_room(k: int, r: int) -> None:
        nonlocal rest, rest_gain, resid, yres, zres
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
                    yres += d * caps[o] * price[o]
                    if zprice:
                        zres += d * caps[o] * zprice[o]

    def draw(j: int, m: int) -> None:
        """Take ``m`` more triangles of type ``j`` (give back when negative)."""
        nonlocal resid, yres, zres
        if not m:
            return
        for o in types[j]:
            caps[o] -= m
            if live[o]:
                resid -= m
                yres -= m * price[o]
                if zprice:
                    zres -= m * zprice[o]
            for k in users[o]:  # the types after j come first
                if k <= j:
                    break
                a, b, c = types[k]
                r = min(caps[a], caps[b], caps[c])
                if r != room[k]:
                    set_room(k, r)

    for k, (a, b, c) in enumerate(types):
        set_room(k, min(caps[a], caps[b], caps[c]))
    stop = min(rest, resid // 3, yres // yden)
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
        if size + yres // yden <= best_size or gain + zres // zden < target:
            return
        while i < n and room[i] == 0:
            i += 1
        if i == n:
            best_size, best = size, list(counts)
            return
        r, g = room[i], gain_of[i]
        set_room(i, 0)
        for m in range(r, -1, -1):
            draw(i, m)
            counts[i] = m
            yield i + 1, size + m, gain + m * g
            counts[i] = 0
            draw(i, -m)
            if best_size >= stop:
                break
        set_room(i, r)

    run_search(dfs, (0, 0, 0), budget)
    if best is None:
        raise InvariantViolation("no family reaches the gain target")
    return best


def nu_exact(g: Multigraph) -> tuple[int, PackingCertificate]:
    """Maximum integral triangle packing with a verified certificate.

    Starts from x* rounded down and completed greedily: each triangle, by
    descending fractional part of x* (ties by index), takes its residual
    room.  Unless that reaches ``floor(nustar)``, ``max_type_packing``
    searches on from it with the edges as resources, each triangle as a type
    and ``(lp.yden, lp.y)`` as the ``dual``, which stops it at
    ``floor(nustar)``.  Deterministic: that start if it is optimal, else the
    first maximum in branch order under any dual, so the certificate does
    not depend on the bound.
    """
    inc, lp = g.incidence, g.lp
    tris, types, den, num = inc.triangles, inc.columns, lp.xden, lp.x
    start, wts = [x // den for x in num], [w for _, _, w in g.edges]
    left = [w - sum(start[j] for j in on) for w, on in zip(wts, inc.on_edge)]
    for j in sorted(range(len(tris)), key=lambda j: (-(num[j] % den), j)):
        m = min(left[o] for o in types[j])
        start[j] += m
        for o in types[j]:
            left[o] -= m
    counts = start
    if sum(start) < sum(num) // den:
        counts = max_type_packing(types, wts, (lp.yden, lp.y), start=start)
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
    den, num, y = g.lp.xden, g.lp.x, g.lp.y
    stop = -(-sum(num) // den)
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
            best_w, best_set = wsum, list(chosen)
            return
        for i in cols[j]:
            mass = sum(num[k] for k in on[i] if not hits[k])
            chosen.append(edges[i])
            for k in on[i]:
                hits[k] += 1
            yield wsum + wts[i], rest - mass, j
            for k in on[i]:
                hits[k] -= 1
            chosen.pop()
            if best_w == stop:
                return

    run_search(dfs, (0, sum(num), 0))
    cert = TransversalCertificate.from_edges(g, best_set + list(g.free_edges))
    if cert.weight != best_w or not verify_transversal(g, cert):
        raise InvariantViolation("transversal certificate failed verification")
    return best_w, cert
