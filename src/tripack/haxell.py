"""Five candidate transversals built from a maximum packing.

An edge of capacity ``w`` stands for ``w`` parallel copies, and a triangle
of copies takes one copy per side; a family of them is independent when
no copy is used twice.  Nothing here lists copies.  Each family search
gives every copy a *role* (say, whether the maximum packing uses it); the
copies of one edge class with one role are interchangeable and form an
*orbit*.  A *type* is a triangle with one orbit per side, and a family is
a multiplicity per type, found by ``exact.max_type_packing`` within the
orbits' sizes under a node budget.  Every such vector is realized by
distinct copies, so the maxima are exactly those over single copies.
The bounds need true maxima, so running out of budget is an error.

A family takes the lowest unused ranks of each orbit, type by type, so a
copy is named by its orbit and rank.  Only two steps read ranks: matching
an anchored triangle to its partner, and the rung picks that decide
``i_family`` and ``i_prime``.  Every family is checked as a packing of
the graph it must fit.

The five constructions (labels ``a`` .. ``e``) have sizes at most

    (3 - 2g/3) nu,  (3/2 + 5g/2 + 2b) nu,  (3g + 3d + 3a - b) nu,
    (3g + 3a - 2d0) nu,  (3 - d + 4h + d0) nu

in the state's scalars, each the size of one family over nu (g = gamma
from ``b1``, b = beta from ``b2``, a = alpha from ``b_prime``, d = delta
from ``b1_prime``, h = eta from ``i_family``, d0 = delta0 from
``k_family``), and a fixed convex combination of these bounds shows that
the smallest is at most ``(3 - 2/25) nu``.  Sizes count copies.  A
candidate's copies are a count per edge class, and its cover is the full
edge classes plus the capacity-0 edges: it verifies exactly when the
copies meet every triangle of copies, and weighs at most the copy count,
which is at most the bound.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple

from .core import (
    _Budget,
    Edge,
    InvariantViolation,
    Multigraph,
    PackingCertificate,
    Rational,
    TransversalCertificate,
    Triangle,
    norm_edge,
    run_search,
    verify_packing,
    verify_transversal,
)
from .cuts import cut_large
from .exact import max_type_packing, nu_exact

#: Search-node allowance for one state build, for about 50 triangles of
#: capacity at most 2.  ``build_state`` spends 2,384 and 14,026 nodes on
#: ``gen_random(14, 46, 2, s)`` for s = 0, 1, 363,371 on
#: ``gen_random(15, 52, 2, 0)`` and 185,839 on ``gen_random(15, 52, 2, 3)``.
DEFAULT_BUDGET = 20_000_000

#: Per class, ``(role, length)`` runs of its copies in copy order.  Dropped
#: copies leave no run, which keeps the order of the rest.
Layout = dict[Edge, list[tuple[int, int]]]


class Type(NamedTuple):
    """A triangle with the role of each side's orbit, in ``tri.edges`` order."""

    tri: Triangle
    roles: tuple[int, ...]


class Anchor(NamedTuple):
    """A triangle sharing exactly the edge class ``shared`` with a family member ``partner``.

    ``rung`` joins the two vertices off ``shared`` (None when they coincide),
    and ``rungs`` counts its copies in the host of the finding search.
    """

    tri: Triangle
    shared: Edge
    partner: Triangle
    rung: Edge | None
    rungs: int


@dataclass(frozen=True)
class HaxellState:
    """The nested families driving the five constructions.

    Only families are stored: ``b``, ``b2`` and ``b_prime`` as a
    multiplicity per type, the anchored families ``b1`` and ``b1_prime`` as
    a count per anchor, and of those the copies that take two private rungs
    (``i_family``) or lose a side to one (``i_prime``).  ``k_family`` is
    derived through ``e0``; each scalar is a family size over nu, or 0.
    """

    graph: Multigraph
    nu: int
    b: Counter[Type]
    b2: Counter[Type]
    b_prime: Counter[Type]
    anchors_b1: Counter[Anchor]
    anchors_b1_prime: Counter[Anchor]
    i_family: Counter[Anchor]
    i_prime: Counter[Anchor]

    @cached_property
    def e0(self) -> Counter[Edge]:
        """Copies of ``b_prime`` off the partners of ``b1_prime``, plus the shared copies."""
        return _swap_partners(_slots(self.b_prime), self.anchors_b1_prime)

    @cached_property
    def k_family(self) -> Counter[Anchor]:
        """The anchors of ``b1_prime`` whose rungs all lie in ``e0``."""
        # e0 lies in the host, so it holds all rungs exactly when it holds as many.
        return Counter({a: m for a, m in self.anchors_b1_prime.items()
                        if a.rungs <= self.e0[a.rung]})

    def _per_nu(self, family: Counter) -> Rational:
        return Fraction(family.total(), self.nu) if self.nu else Fraction(0)

    gamma = property(lambda self: self._per_nu(self.anchors_b1))
    beta = property(lambda self: self._per_nu(self.b2))
    alpha = property(lambda self: self._per_nu(self.b_prime))
    delta = property(lambda self: self._per_nu(self.anchors_b1_prime))
    eta = property(lambda self: self._per_nu(self.i_family))
    eta_prime = property(lambda self: self._per_nu(self.i_prime))
    delta0 = property(lambda self: self._per_nu(self.k_family))


#: The scalars of a ``HaxellState``, in report order.
SCALARS = ("gamma", "beta", "alpha", "delta", "eta", "eta_prime", "delta0")


def _tally(groups: Iterable[tuple[Iterable[Hashable], int]]) -> Counter:
    """``m`` of each key of each group, summed."""
    out: Counter = Counter()
    for keys, m in groups:
        for k in keys:
            out[k] += m
    return out


def _slots(family: Mapping[Type, int], role: int | None = None) -> Counter[Edge]:
    """Copies per class of a family, or of its sides with one role."""
    return _tally(
        ([e for e, r in zip(ty.tri.edges, ty.roles) if role in (None, r)], m)
        for ty, m in family.items()
    )


def _tris(family: Mapping) -> Counter[Triangle]:
    """Copies per triangle of a family of types or anchors."""
    return _tally(((key.tri,), m) for key, m in family.items())


def _swap_partners(slots: Counter[Edge], anchors: Counter[Anchor]) -> Counter[Edge]:
    """``slots`` less the copies of the anchors' partners, but with their shared copies."""
    partners = _tally((a.partner.edges, m) for a, m in anchors.items())
    return slots - partners + _tally(((a.shared,), m) for a, m in anchors.items())


def _require_packing(h: Multigraph, tris: Mapping[Triangle, int], what: str = "family") -> None:
    """Raise unless copies of ``tris`` fit into ``h`` with no copy used twice."""
    try:
        ok = verify_packing(h, PackingCertificate.from_map(tris))
    except ValueError:  # a negative count, or a triangle missing from h
        ok = False
    if not ok:
        raise InvariantViolation(f"{what} is not independent")


def _compress(g: Multigraph, slots: Mapping[Edge, int]) -> Multigraph:
    return Multigraph.from_edges(g.n, ((u, v, c) for (u, v), c in slots.items() if c > 0))


def _cover(g: Multigraph, slots: Mapping[Edge, int]) -> TransversalCertificate:
    """The edge classes with every copy counted in ``slots``, plus the free edges.

    A triangle of copies takes one copy per side, so the copies meet all of
    them exactly when each triangle has a side of capacity 0 or a full
    side: exactly when this cover verifies.  It weighs at most the count.
    """
    if any(c > g.weight_map[e] for e, c in slots.items()):
        raise InvariantViolation("a copy count exceeds its edge class")
    full = [e for e, c in slots.items() if c and c == g.weight_map[e]]
    return TransversalCertificate.from_edges(g, itertools.chain(full, g.free_edges))


def _cut(
    layout: Layout, family: Mapping[Type, int], role: Callable[[int, bool], int | None]
) -> Layout:
    """Split each orbit into the copies ``family`` took, its lowest ranks, and the rest.

    ``role(r, took)`` gives each part its new role, or None to drop it.
    """
    drawn = _tally((zip(ty.tri.edges, ty.roles), m) for ty, m in family.items())
    out: Layout = {}
    for e, runs in layout.items():
        left: dict[int, int] = {}
        new: list[tuple[int, int]] = []
        for r, n in runs:
            head = min(n, left.setdefault(r, drawn[(e, r)]))
            left[r] -= head
            for nr, size in ((role(r, True), head), (role(r, False), n - head)):
                if size and nr is not None:
                    new.append((nr, size))
        if new:
            out[e] = new
    return out


def _position(layout: Layout, e: Edge, role: int, rank: int) -> int:
    """Where the copy at ``rank`` in the orbit of ``role`` lies among the copies of ``e``."""
    pos = 0
    for r, n in layout[e]:
        if r == role and rank < n:
            return pos + rank
        rank -= n if r == role else 0
        pos += n
    raise InvariantViolation("rank beyond its orbit")


def _ranked(family: Mapping[Type, int]) -> Iterator[tuple[Type, int, tuple[int, ...]]]:
    """Each type with its multiplicity and the rank its first copy takes in each side's orbit."""
    drawn: Counter = Counter()
    for ty, m in family.items():
        keys = tuple(zip(ty.tri.edges, ty.roles))
        yield ty, m, tuple(drawn[k] for k in keys)
        for k in keys:
            drawn[k] += m


def _search_max_family(
    g: Multigraph, layout: Layout, gain: Callable[[tuple[int, ...]], int | None],
    budget: _Budget, *, target: int = 0,
) -> Counter[Type]:
    """Maximum family of independent triangles of the copies in ``layout``, per type.

    A triangle of copies is an item when its roles, one per side, have a
    gain (``gain`` returns None to reject it); with ``target`` the family
    must also reach that total gain.  Copies of one orbit are
    interchangeable, and for the roles ``build_state`` uses no coarser
    grouping exists.  The types, in order of triangle and then of each
    side's orbits by lowest copy, go to ``max_type_packing`` with the
    orbits as resources of their sizes.
    """
    sizes = _tally(([(e, r)], n) for e, runs in layout.items() for r, n in runs)
    roles_of = {e: list(dict.fromkeys(r for r, _ in runs)) for e, runs in layout.items()}
    index = {k: o for o, k in enumerate(sizes)}
    types = []
    for t in g.triangles:
        for roles in itertools.product(*(roles_of.get(e, ()) for e in t.edges)):
            gn = gain(roles)
            if gn is not None:
                types.append((Type(t, roles), gn))
    best = max_type_packing(
        [tuple(index[k] for k in zip(ty.tri.edges, ty.roles)) for ty, _ in types],
        list(sizes.values()),
        gains=[gn for _, gn in types],
        target=target,
        budget=budget,
    )
    if best is None:
        raise InvariantViolation("no family reaches the required surplus")
    return Counter({ty: m for (ty, _), m in zip(types, best) if m})


def _share(k: int) -> Callable[[tuple[int, ...]], int | None]:
    """Gain 0 for triangles whose roles sum to ``k``; rejects the rest."""
    return lambda roles: 0 if sum(roles) == k else None


def _anchors(found: Counter[Type], family: Counter[Type], family_role: int, host: Mapping) -> list:
    """Anchor each copy in ``found`` to its partner in ``family``; no two share one.

    A found copy shares its one side of nonzero role, whose rank names the
    family copy that took it from the orbit of ``family_role``.  Returns
    runs ``(type, first ranks, k0, k1, anchor)``: copies ``k0 .. k1 - 1`` of
    the type.  ``host`` counts the copies of each class the search could use.
    """
    owners: dict[Edge, list[tuple[int, int, int, Triangle]]] = {}
    for j, (ty, m, starts) in enumerate(_ranked(family)):
        for e, r, s in zip(ty.tri.edges, ty.roles, starts):
            if r == family_role:
                owners.setdefault(e, []).append((s, s + m, j, ty.tri))
    out = []
    claimed: dict[int, list[tuple[int, int]]] = {}
    for ty, m, starts in _ranked(found):
        sides = [i for i, r in enumerate(ty.roles) if r]
        if len(sides) != 1:
            raise InvariantViolation("anchored triangle must share exactly one edge")
        e, lo = ty.tri.edges[sides[0]], starts[sides[0]]
        covered = 0
        for first, end, j, partner in owners.get(e, ()):
            k0, k1 = max(first, lo), min(end, lo + m)
            if k0 < k1:
                covered += k1 - k0
                claimed.setdefault(j, []).append((k0 - first, k1 - first))
                apex, papex = (next(x for x in t if x not in e) for t in (ty.tri, partner))
                rung = norm_edge(apex, papex) if apex != papex else None
                a = Anchor(ty.tri, e, partner, rung, host.get(rung, 0))
                out.append((ty, starts, k0 - lo, k1 - lo, a))
        if covered != m:
            raise InvariantViolation("shared edge must belong to exactly one member")
    for spans in claimed.values():
        spans.sort()
        if any(p[1] > q[0] for p, q in zip(spans, spans[1:])):
            raise InvariantViolation("two anchored triangles share a partner")
    return out


def _max_i_family(
    runs: list, layout: Layout, budget: _Budget
) -> tuple[Counter[Anchor], Counter[Anchor]]:
    """Largest set of anchored copies admitting two private rungs off the packing.

    Returns it with the anchored copies that lose a side to a chosen rung.
    A copy's rungs are the role-0 copies of its rung class; rung pairs are
    disjoint and avoid the sides of every chosen copy.  Depth-first over
    the copies by triangle and copy positions, pairs lowest ranks first.
    The lowest ranks of a rung orbit are sides of anchored copies and the
    rest are free: of pairs that differ only in free ranks, which lead to
    the same subtree, only the first is tried.
    """
    copies = sorted(
        (ty.tri, tuple(_position(layout, e, r, s + k) for e, r, s in sides),
         frozenset((e, s + k) for e, r, s in sides if r == 0), a)
        for ty, starts, k0, k1, a in runs
        for sides in [list(zip(ty.tri.edges, ty.roles, starts))] for k in range(k0, k1)
    )
    holder = {x: i for i, c in enumerate(copies) for x in c[2]}
    held = Counter(e for e, _ in holder)  # ranks 0 .. held[e] - 1 of each role-0 orbit
    best: list[int] = []
    crowd: list[int] = []
    chosen: list[int] = []
    taken, blocked = set(), set()
    free_taken: Counter[Edge] = Counter()  # always the lowest free ranks

    def dfs(i: int) -> Iterator:
        nonlocal best, crowd
        if len(chosen) + len(copies) - i <= len(best):
            return
        _, _, own, a = copies[i]
        if a.rung is not None and not taken & own:
            r, used = a.rung, taken | blocked | own
            avail = [(r, q) for q in range(held[r]) if (r, q) not in used]
            free = sum(n for q, n in layout.get(r, ()) if q == 0) - held[r] - free_taken[r]
            picks: list[tuple] = []
            for j, x in enumerate(avail):
                picks += [(x, y) for y in avail[j + 1:]] + [(x,)] * (free > 0)
            for pick in picks + [()] * (free > 1):
                taken.update(pick)
                blocked.update(own)
                free_taken[r] += 2 - len(pick)
                chosen.append(i)
                if len(chosen) > len(best):
                    best, crowd = list(chosen), [holder[x] for x in taken]
                yield dfs(i + 1)
                chosen.pop()
                free_taken[r] -= 2 - len(pick)
                blocked.difference_update(own)
                taken.difference_update(pick)
        yield dfs(i + 1)

    run_search(dfs(0), budget)
    return Counter(copies[i][3] for i in best), Counter(copies[i][3] for i in crowd)


def build_state(g: Multigraph, *, budget: int = DEFAULT_BUDGET) -> HaxellState:
    """Assemble the nested families by exact search.

    The sequence: a maximum packing ``b``; a maximum family ``b1`` of
    triangles sharing exactly one edge with it; in the graph without
    ``b1``'s copies, a maximum family ``b2`` of share-two triangles, then a
    maximum family ``b_prime`` whose surplus of fresh edges matches
    ``b2``; anchored families ``b1_prime``, ``i`` (with its two-rung
    assignment), ``i_prime`` and ``k``.  Every structural guarantee the
    size bounds rely on is asserted here, for the one ``b_prime`` kept;
    with ``alpha + eta <= 1 - gamma`` the fixed combination of the five
    bounds is at most ``(73/25) nu``.
    """
    nu, cert = nu_exact(g)
    if nu == 0:
        # Every triangle has a capacity-0 edge, so no triangle of copies exists.
        return HaxellState(g, 0, *(Counter() for _ in range(7)))
    bud = _Budget(budget)

    b = Counter({Type(t, (1, 1, 1)): m for t, m in cert.multiplicities.items()})
    if not verify_transversal(g, _cover(g, _slots(b))):
        raise InvariantViolation("a triangle avoids the maximum packing")
    # A copy's role is whether b uses it; b takes the lowest copies of each class.
    layout = _cut({(u, v): [(1, w)] for u, v, w in g.edges if w}, b, lambda r, took: int(took))
    b1 = _search_max_family(g, layout, _share(1), bud.begin("b1"))
    _require_packing(g, _tris(b1))
    anchors_b1 = _tally(((a,), k1 - k0) for *_, k0, k1, a in _anchors(b1, b, 1, g.weight_map))

    gp_layout = _cut(layout, b1, lambda r, took: None if took else r)
    gp = _compress(g, Counter(g.weight_map) - _slots(b1))
    nu_gp, _ = nu_exact(gp)
    if nu_gp != nu - anchors_b1.total():
        raise InvariantViolation("reduced packing number is off")

    b2 = _search_max_family(g, gp_layout, _share(2), bud.begin("b2"))
    target = b2.total()

    def surplus(roles: tuple[int, ...]) -> int:  # fresh edges of a reduced triangle
        if sum(roles) < 2:
            raise InvariantViolation("reduced graph keeps a share-one triangle")
        return 3 - sum(roles)

    bp = _search_max_family(g, gp_layout, surplus, bud.begin("b_prime"), target=target)
    _require_packing(gp, _tris(bp))
    if _slots(bp, 0).total() < target:
        raise InvariantViolation("family misses its fresh-edge surplus")

    # The b1_prime search reads 0 off b_prime, 1 on it but off b, and 2 on both.
    bp_layout = _cut(gp_layout, bp, lambda r, took: r + 1 if took else 0)
    runs = _anchors(_search_max_family(g, bp_layout, _share(1), bud.begin("b1_prime")), bp, 0, gp.weight_map)
    b1p = _tally(((a,), k1 - k0) for *_, k0, k1, a in runs)
    i_family, i_prime = (_max_i_family(runs, bp_layout, bud.begin("rung family")) if runs
                         else (Counter(), Counter()))
    # Two private rungs need a parallel pair somewhere in the reduced graph.
    if i_family and not any(w >= 2 for _, _, w in gp.edges):
        raise InvariantViolation("rung family appeared without parallel pairs")

    # Independent-family witness for alpha + eta <= 1 - gamma: replace each
    # selected partner by the two triangles its rungs complete.
    witness = _tris(bp)
    for a, m in i_family.items():
        witness[a.partner] -= m
        apex, papex = (next(x for x in t if x not in a.shared) for t in (a.tri, a.partner))
        for x in a.shared:
            witness[Triangle.of(x, apex, papex)] += m
    _require_packing(gp, witness, "rung-witness family")
    if witness.total() != bp.total() + i_family.total() or witness.total() > nu_gp:
        raise InvariantViolation("rung-witness family breaks the packing cap")
    if bp.total() + i_family.total() > nu - anchors_b1.total():
        raise InvariantViolation("alpha + eta exceeds 1 - gamma")
    if i_prime.total() > 2 * i_family.total():
        raise InvariantViolation("crowding family exceeds twice the rung family")

    return HaxellState(g, nu, b, b2, bp, anchors_b1, b1p, i_family, i_prime)


@dataclass(frozen=True)
class CandidateTransversal:
    """One constructed cover: certificate weight <= ``slot_size`` <= ``size_bound``."""

    label: str
    certificate: TransversalCertificate
    slot_size: int
    size_bound: Rational


def _certify(
    g: Multigraph, label: str, slots: Counter[Edge], bound: Rational
) -> CandidateTransversal:
    cert = _cover(g, slots)
    if not verify_transversal(g, cert):
        raise InvariantViolation(f"candidate {label} misses a triangle")
    if not cert.weight <= slots.total() <= bound:
        raise InvariantViolation(f"candidate {label} exceeds its size bound")
    return CandidateTransversal(label, cert, slots.total(), bound)


def candidate_transversals(st: HaxellState) -> list[CandidateTransversal]:
    """The five constructed covers of ``st.graph``, each verified and within its bound.

    Each cover's copies are counted per class, summed over parts that share
    no copy by construction.
    """
    g, nu = st.graph, st.nu
    eb1 = _tally((a.tri.edges, m) for a, m in st.anchors_b1.items())
    gp = _compress(g, Counter(g.weight_map) - eb1)
    families = (st.b, st.anchors_b1, st.b2, st.b_prime, st.anchors_b1_prime)
    for h, family in zip((g, g, gp, gp, gp), families):
        _require_packing(h, _tris(family))
    out: list[CandidateTransversal] = []

    # a: kept packing edges, shared edges, and all rungs of the anchors.
    c1 = _swap_partners(_slots(st.b), st.anchors_b1)
    ca = Counter(c1)
    for a in st.anchors_b1:
        if a.rungs:  # every copy of the rung class
            if a.rungs - c1[a.rung] > 2:
                raise InvariantViolation("anchor keeps more than two free rungs")
            ca[a.rung] = a.rungs
    out.append(_certify(g, "a", ca, (3 - Fraction(2, 3) * st.gamma) * nu))

    # b: both side families plus the cheap half of the leftover packing edges.
    shared = _tally(((a.shared,), m) for a, m in st.anchors_b1.items())
    h_slots = _slots(st.b) - shared - _slots(st.b2, 1)
    if h_slots.total() != 3 * nu - st.anchors_b1.total() - 2 * st.b2.total():
        raise InvariantViolation("leftover packing-edge count is off")
    cb = eb1 + _slots(st.b2)
    if h_slots:
        crossing = {(u, v) for u, v, _ in cut_large(_compress(g, h_slots)).cut_edges}
        kept = Counter({e: c for e, c in h_slots.items() if e not in crossing})
        if 2 * kept.total() > h_slots.total():
            raise InvariantViolation("bipartite half is too small")
        cb += kept
    bound = (Fraction(3, 2) + Fraction(5, 2) * st.gamma + 2 * st.beta) * nu
    out.append(_certify(g, "b", cb, bound))

    # c: both anchored families plus the packing edges reused by b_prime.
    cc = eb1 + _tally((a.tri.edges, m) for a, m in st.anchors_b1_prime.items())
    cc += _slots(st.b_prime, 1)
    out.append(_certify(g, "c", cc, (3 * st.gamma + 3 * st.delta + 3 * st.alpha - st.beta) * nu))

    # d: drop the partners of the fully-surrounded anchors, keep their shared edges.
    cd = eb1 + _swap_partners(_slots(st.b_prime), st.k_family)
    out.append(_certify(g, "d", cd, (3 * st.gamma + 3 * st.alpha - 2 * st.delta0) * nu))

    # e: the layered cover around the rung family.  Its copies add their
    # own and their partner's unshared sides and two rungs, crowded copies
    # their partner's unshared sides, and the rest every rung copy, which
    # with b1's copies fill the rung class.
    ce = eb1 + st.e0
    full = []
    for a, m in st.anchors_b1_prime.items():
        n_i = st.i_family[a]
        n_crowded = m - n_i if a in st.k_family else st.i_prime[a]
        ce += _tally((
            ([e for e in a.tri.edges if e != a.shared], n_i),
            ([e for e in a.partner.edges if e != a.shared], n_i + n_crowded),
            ((a.rung, a.rung), n_i),
        ))
        if n_i + n_crowded < m and a.rungs:
            full.append(a.rung)
    ce.update({r: g.weight_map[r] - ce[r] for r in full})
    out.append(_certify(g, "e", ce, (3 - st.delta + 4 * st.eta + st.delta0) * nu))
    return out


class HaxellCovers(NamedTuple):
    """The state, its five candidate covers, the lightest, and the limit it meets."""

    state: HaxellState
    candidates: list[CandidateTransversal]
    best: CandidateTransversal
    limit: Rational


def transversal_292(g: Multigraph, *, budget: int = DEFAULT_BUDGET) -> HaxellCovers:
    """The five candidate covers and the lightest, which weighs at most ``(3 - 2/25) nu``.

    Each candidate weighs at most its slot count, which is at most its size
    bound.  The fixed convex combination 1/5, 4/75, 8/75, 8/25, 8/25 of the
    five size bounds collapses to ``(73/25) nu`` once ``alpha + eta <= 1 -
    gamma`` holds, so the lightest, ties going to the earlier label, is
    checked against that limit exactly.
    """
    st = build_state(g, budget=budget)
    cands = candidate_transversals(st)
    best = min(cands, key=lambda c: (c.certificate.weight, c.label))
    limit = Fraction(73, 25) * st.nu
    if best.certificate.weight > limit:
        raise InvariantViolation("lightest candidate exceeds (3 - 2/25) nu")
    return HaxellCovers(st, cands, best, limit)
