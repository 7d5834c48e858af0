"""Five candidate transversals built from a maximum packing.

Everything here works on the expanded multigraph: an edge of capacity
``w`` contributes ``w`` distinguishable parallel copies ("slots"), and a
triangle is a choice of one slot per side.  Families of triangles are
independent when pairwise slot-disjoint, which is exactly edge-disjointness
counting multiplicity.  Every family maximization is an exact search on
``core.run_search`` under a node budget; the bounds need true maxima, so
running out of budget is an error, never a silent heuristic.

The search never lists slot triangles, of which a triangle whose sides
have capacity ``w`` has ``w**3``.  Each family is defined by one *role*
per copy (for instance, whether the packing uses it), so copies of one
edge class with the same role are interchangeable: they form an *orbit*.
The items fall into *types* (a triangle, one orbit per side, a gain), and
``exact.max_type_packing``, which also computes nu, chooses how many of
each type to take within the orbits' copy counts.  Every family yields
such counts and every such count vector is realized by distinct copies,
so the maxima, and whether a family reaches a required gain, are exactly
those of the slot-level problem; the budget counts these multiplicity
nodes.

The five constructions (labels ``a`` .. ``e``) have sizes at most

    (3 - 2g/3) nu,  (3/2 + 5g/2 + 2b) nu,  (3g + 3d + 3a - b) nu,
    (3g + 3a - 2d0) nu,  (3 - d + 4h + d0) nu

in the state's scalars, each the size of one family over nu (g = gamma
from ``b1``, b = beta from ``b2``, a = alpha from ``b_prime``, d = delta
from ``b1_prime``, h = eta from ``i_family``, d0 = delta0 from
``k_family``), and a fixed convex combination of these bounds shows that
the smallest is at most ``(3 - 2/25) nu``.  Sizes count slots.  A
candidate's cover is the full edge classes, whose copies all lie in its
slot set, plus the capacity-0 edges: it verifies exactly when the slots
meet every slot triangle, and weighs at most the slot count, which is at
most the bound.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    _Budget,
    Edge,
    InvariantViolation,
    Multigraph,
    Rational,
    TransversalCertificate,
    Triangle,
    norm_edge,
    run_search,
    verify_transversal,
)
from .cuts import cut_large
from .exact import max_type_packing, nu_exact

#: Search-node allowance for one state build.  Suited to about 50 triangles
#: of capacity at most 2: ``gen_random(14, 46, 2, s)`` (46 and 56 triangles)
#: needs at most 15K nodes for s = 0, 1, and ``gen_random(15, 52, 2, 0)``
#: (53 triangles) about 16.1M, nearly all in the ``b_prime`` surplus search.
DEFAULT_BUDGET = 20_000_000

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
class HaxellState:
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
    *,
    target: int = 0,
) -> list[SlotTriangle]:
    """Maximum-cardinality slot-disjoint family of triangles over ``host``.

    The items are the slot triangles whose copies all lie in ``host`` and
    whose roles, one per side in ``tri.edges`` order, have a gain; ``gain``
    returns None to reject them.  With ``target`` the family must
    additionally reach that total gain; gains are nonnegative and additive
    because the family's slot edges are disjoint.

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
    the maximum size and whether ``target`` is reachable are exactly those
    of the item-level problem.  The best vector is expanded lowest unused
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
        gains=[gn for _, _, gn in types],
        target=target,
        budget=budget,
    )
    if best is None:
        raise InvariantViolation("no family reaches the required surplus")
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
                yield dfs(i + 1)
                del fmap[a.t]
                chosen.pop()
                member_edges.difference_update(own)
                taken_f.difference_update((f1, f2))
        yield dfs(i + 1)

    run_search(dfs(0), budget)
    return tuple(members[i] for i in best), best_f


def _slot_tri_from_edges(*edges: SlotEdge) -> SlotTriangle:
    # Three distinct pairs on three vertices are exactly a triangle's sides.
    bypair = {e[:2]: e[2] for e in edges}
    verts = sorted({x for pair in bypair for x in pair})
    if len(verts) != 3 or len(bypair) != 3:
        raise InvariantViolation("three edges do not span a triangle")
    t = Triangle(*verts)
    return SlotTriangle(t, tuple(bypair[p] for p in t.edges))  # type: ignore[arg-type]


def build_state(g: Multigraph, *, budget: int = DEFAULT_BUDGET) -> HaxellState:
    """Assemble the nested families by exact search.

    The sequence: a maximum packing ``b``; a maximum family ``b1`` of
    triangles sharing exactly one edge with it; in the graph without
    ``b1``'s edges, a maximum family ``b2`` of share-two triangles, then a
    maximum family ``b_prime`` whose surplus of fresh edges matches
    ``b2``; anchored families ``b1_prime``, ``i`` (with its two-rung
    assignment), ``i_prime`` and ``k``.  Every structural guarantee the
    size bounds rely on is asserted here, for the one ``b_prime`` kept;
    with ``alpha + eta <= 1 - gamma`` the fixed combination of the five
    bounds is at most ``(73/25) nu``.
    """
    nu, cert = nu_exact(g)
    if nu == 0:
        # Every triangle has a capacity-0 edge, so no slot triangle exists.
        return HaxellState(g, 0, (), (), (), (), (), (), (), {})
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

    b2 = tuple(_search_max_family(g, gp_slots, in_b, _share(2), bud))
    target = len(b2)

    def surplus(roles: tuple[int, ...]) -> int:  # fresh edges of a reduced triangle
        if sum(roles) < 2:
            raise InvariantViolation("reduced graph keeps a share-one triangle")
        return 3 - sum(roles)

    bp = _search_max_family(g, gp_slots, in_b, surplus, bud, target=target)
    ebp = _slot_edges(bp)
    if len(ebp - eb) < target:
        raise InvariantViolation("family misses its fresh-edge surplus")

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

    return HaxellState(
        graph=g, nu=nu, b=b, b2=b2, b_prime=tuple(bp),
        anchors_b1=anchors_b1, anchors_b1_prime=b1p,
        i_family=i_anchors, i_prime=i_prime, fmap=fmap,
    )


@dataclass(frozen=True)
class CandidateTransversal:
    """One constructed cover: certificate weight <= ``slot_size`` <= ``size_bound``."""

    label: str
    certificate: TransversalCertificate
    slot_size: int
    size_bound: Rational


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


def candidate_transversals(st: HaxellState) -> list[CandidateTransversal]:
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
