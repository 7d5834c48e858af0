"""Five candidate transversals built from a maximum packing.

Everything here works on the expanded multigraph: an edge of capacity
``w`` contributes ``w`` distinguishable parallel copies ("slots"), and a
triangle is a choice of one slot per side.  Families of triangles are
independent when pairwise slot-disjoint, which is exactly edge-disjointness
counting multiplicity.  Every family maximization is an exact search on
``core.run_search`` under a node budget; the bounds need true maxima, so
running out of budget is an error, never a silent heuristic.

The five constructions (labels ``a`` .. ``e``) have sizes at most

    (3 - 2g/3) nu,  (3/2 + 5g/2 + 2b) nu,  (3g + 3d + 3a - b) nu,
    (3g + 3a - 2d0) nu,  (3 - d + 4h + d0) nu

in the state's scalars, and a fixed convex combination of these bounds
shows that the smallest is at most ``(3 - 2/25) nu``.  Sizes count slots;
the returned certificates are per-edge-class (taking a class costs its
full capacity) and coincide with slot counts on simple graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import (
    BudgetExceeded,
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
from .exact import nu_exact

#: Search-node allowance for one state build; suited to ~25 triangles.
DEFAULT_BUDGET = 20_000_000

#: Largest anchored family for which switch variants are enumerated.
MAX_SWITCH_BASE = 12

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
class TriangleFamily:
    """An edge-disjoint family of slot triangles."""

    members: tuple[SlotTriangle, ...]

    def __len__(self) -> int:
        return len(self.members)

    def slot_edges(self) -> set[SlotEdge]:
        return {e for st in self.members for e in st.slot_edges}


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
    """The nested families and scalars driving the five constructions."""

    graph: Multigraph
    nu: int
    b: TriangleFamily
    b1: TriangleFamily
    b2: TriangleFamily
    b_prime: TriangleFamily
    b1_prime: TriangleFamily
    i_family: TriangleFamily
    i_prime: TriangleFamily
    k_family: TriangleFamily
    fmap: Mapping[SlotTriangle, tuple[SlotEdge, SlotEdge]]
    anchors_b1: tuple[AnchoredTriangle, ...]
    anchors_b1_prime: tuple[AnchoredTriangle, ...]
    gamma: Rational
    beta: Rational
    alpha: Rational
    delta: Rational
    eta: Rational
    eta_prime: Rational
    delta0: Rational
    # Every triangle of the slot graph, sorted; each candidate must meet all.
    slot_triangles: tuple[SlotTriangle, ...] = field(repr=False)


def _all_slot_edges(g: Multigraph) -> list[SlotEdge]:
    return [(u, v, j) for u, v, w in g.edges for j in range(w)]


def _slot_triangles(g: Multigraph, available: frozenset[SlotEdge]) -> list[SlotTriangle]:
    """Every triangle of the slot graph spanned by ``available``, sorted."""
    pools: dict[Edge, list[int]] = {}
    for u, v, j in available:
        pools.setdefault((u, v), []).append(j)
    for p in pools.values():
        p.sort()
    out: list[SlotTriangle] = []
    for t in g.triangles:
        e0, e1, e2 = t.edges
        if e0 in pools and e1 in pools and e2 in pools:
            for c0 in pools[e0]:
                for c1 in pools[e1]:
                    for c2 in pools[e2]:
                        out.append(SlotTriangle(t, (c0, c1, c2)))
    return out


def _search_max_family(
    items: Sequence[SlotTriangle],
    budget: _Budget,
    *,
    gains: Sequence[int] | None = None,
    target: int = 0,
) -> list[SlotTriangle]:
    """Maximum-cardinality pairwise slot-disjoint subfamily of ``items``.

    With ``gains``/``target`` the family must additionally reach
    ``sum(gains) >= target``; gains are per-item and additive because the
    family's slot edges are disjoint.  Deterministic: depth-first in item
    order, include branch first, strict improvement only.
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
            yield dfs(i + 1)
            chosen_gain -= gains[i] if gains is not None else 0
            chosen.pop()
            used.difference_update(es)
        yield dfs(i + 1)

    run_search(dfs(0), budget)
    if target > 0 and best_size < 0:
        raise InvariantViolation("no family reaches the required surplus")
    return best


def _btype(st: SlotTriangle, base: set[SlotEdge]) -> int:
    return sum(e in base for e in st.slot_edges)


def _anchor(
    st: SlotTriangle,
    family: Sequence[SlotTriangle],
    family_edges: set[SlotEdge],
    host_slots: frozenset[SlotEdge],
) -> AnchoredTriangle:
    """Anchor a type-1 triangle to its unique partner in ``family``."""
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
        s for s in sorted(host_slots) if s[0] == lo and s[1] == hi
    ) if apex != papex else ()
    return AnchoredTriangle(st, partner, e, apex, papex, rungs)


def _expand_packing(mult: Mapping[Triangle, int]) -> list[SlotTriangle]:
    """Assign parallel copies to a packing, lowest unused copy first."""
    counters: dict[Edge, int] = {}
    out: list[SlotTriangle] = []
    for t in sorted(mult):
        for _ in range(mult[t]):
            s0, s1, s2 = (counters.get(e, 0) for e in t.edges)
            for e in t.edges:
                counters[e] = counters.get(e, 0) + 1
            out.append(SlotTriangle(t, (s0, s1, s2)))
    return out


def _compress(g: Multigraph, slots: Iterable[SlotEdge]) -> Multigraph:
    counts: dict[Edge, int] = {}
    for u, v, _ in slots:
        counts[(u, v)] = counts.get((u, v), 0) + 1
    return Multigraph.from_edges(
        g.n, ((u, v, c) for (u, v), c in sorted(counts.items()))
    )


def _max_i_family(
    members: Sequence[AnchoredTriangle],
    bprime_edges: set[SlotEdge],
    budget: _Budget,
) -> tuple[list[AnchoredTriangle], dict[SlotTriangle, tuple[SlotEdge, SlotEdge]]]:
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
        if i == n:
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
    return [members[i] for i in best], best_f


def _slot_tri_from_edges(e1: SlotEdge, e2: SlotEdge, e3: SlotEdge) -> SlotTriangle:
    verts = sorted({e1[0], e1[1], e2[0], e2[1], e3[0], e3[1]})
    if len(verts) != 3:
        raise InvariantViolation("three edges do not span a triangle")
    t = Triangle(*verts)
    bypair = {(e[0], e[1]): e[2] for e in (e1, e2, e3)}
    if len(bypair) != 3 or set(bypair) != set(t.edges):
        raise InvariantViolation("three edges do not span a triangle")
    return SlotTriangle(t, tuple(bypair[p] for p in t.edges))  # type: ignore[arg-type]


def _empty_state(g: Multigraph) -> HaxellState:
    # nu = 0: every triangle has a capacity-0 edge, so no slot triangle exists.
    empty = TriangleFamily(())
    zero = Fraction(0)
    return HaxellState(
        graph=g, nu=0,
        b=empty, b1=empty, b2=empty, b_prime=empty, b1_prime=empty,
        i_family=empty, i_prime=empty, k_family=empty,
        fmap={}, anchors_b1=(), anchors_b1_prime=(),
        gamma=zero, beta=zero, alpha=zero, delta=zero,
        eta=zero, eta_prime=zero, delta0=zero,
        slot_triangles=(),
    )


def build_state(g: Multigraph, *, budget: int = DEFAULT_BUDGET) -> HaxellState:
    """Assemble the nested families by exact search.

    The sequence: a maximum packing ``b``; a maximum family ``b1`` of
    triangles sharing exactly one edge with it; in the graph without
    ``b1``'s edges, a maximum family ``b2`` of share-two triangles, then a
    maximum family ``b_prime`` whose surplus of fresh edges matches
    ``b2``; anchored families ``b1_prime``, ``i`` (with its two-rung
    assignment, maximized over partner-swap variants of ``b_prime``),
    ``i_prime`` and ``k``.  Every structural guarantee the size bounds
    rely on is asserted here.
    """
    nu, cert = nu_exact(g)
    if nu == 0:
        return _empty_state(g)
    bud = _Budget(budget)

    b_members = _expand_packing(cert.multiplicities)
    eb = {e for st in b_members for e in st.slot_edges}
    if len(eb) != 3 * nu:
        raise InvariantViolation("maximum packing is not slot-disjoint")
    all_slots = frozenset(_all_slot_edges(g))
    all_tris = _slot_triangles(g, all_slots)
    if any(_btype(st, eb) == 0 for st in all_tris):
        raise InvariantViolation("a triangle avoids the maximum packing")

    type1 = [st for st in all_tris if _btype(st, eb) == 1]
    b1_members = _search_max_family(type1, bud)
    gamma = Fraction(len(b1_members), nu)
    anchors_b1 = tuple(
        _anchor(st, b_members, eb, all_slots) for st in b1_members
    )
    if len({a.partner for a in anchors_b1}) != len(anchors_b1):
        raise InvariantViolation("two anchored triangles share a partner")

    eb1 = {e for st in b1_members for e in st.slot_edges}
    gp_slots = frozenset(all_slots - eb1)
    gp_tris = _slot_triangles(g, gp_slots)
    if any(_btype(st, eb) not in (2, 3) for st in gp_tris):
        raise InvariantViolation("reduced graph keeps a share-one triangle")
    nu_gp, _ = nu_exact(_compress(g, gp_slots)) if gp_slots else (0, None)
    if nu_gp != nu - len(b1_members):
        raise InvariantViolation("reduced packing number is off")

    type2 = [st for st in gp_tris if _btype(st, eb) == 2]
    b2_members = _search_max_family(type2, bud)
    beta = Fraction(len(b2_members), nu)

    gains = [3 - _btype(st, eb) for st in gp_tris]
    target = len(b2_members)
    bp_members = _search_max_family(gp_tris, bud, gains=gains, target=target)
    alpha = Fraction(len(bp_members), nu)

    def check_bprime(members: Sequence[SlotTriangle]) -> set[SlotEdge]:
        edges: set[SlotEdge] = set()
        for st in members:
            es = st.slot_edges
            if any(e in edges for e in es):
                raise InvariantViolation("family is not slot-disjoint")
            edges.update(es)
        if len(edges - eb) < target:
            raise InvariantViolation("family misses its fresh-edge surplus")
        return edges

    def b1prime_for(
        members: Sequence[SlotTriangle], edges: set[SlotEdge]
    ) -> tuple[list[SlotTriangle], tuple[AnchoredTriangle, ...]]:
        cands = []
        for st in gp_tris:
            shared = [e for e in st.slot_edges if e in edges]
            if len(shared) == 1 and shared[0] not in eb:
                cands.append(st)
        found = _search_max_family(cands, bud)
        anchors = tuple(
            _anchor(st, members, edges, gp_slots) for st in found
        )
        if len({a.partner for a in anchors}) != len(anchors):
            raise InvariantViolation("two anchored triangles share a partner")
        return found, anchors

    ebp = check_bprime(bp_members)
    b1p_members, b1p_anchors = b1prime_for(bp_members, ebp)

    # Two private rungs need a parallel pair somewhere in the reduced graph;
    # without one, every partner-swap variant yields an empty family.
    class_counts: dict[Edge, int] = {}
    for u, v, _ in gp_slots:
        class_counts[(u, v)] = class_counts.get((u, v), 0) + 1
    may_have_i = any(c >= 2 for c in class_counts.values())

    i_anchors: list[AnchoredTriangle] = []
    fmap: dict[SlotTriangle, tuple[SlotEdge, SlotEdge]] = {}
    if may_have_i and b1p_members:
        if len(b1p_members) > MAX_SWITCH_BASE:
            raise BudgetExceeded(
                f"switch enumeration over {len(b1p_members)} anchored triangles"
            )
        best: tuple | None = None
        base_anchors = b1p_anchors
        for mask in range(1 << len(base_anchors)):
            swapped = [a for i, a in enumerate(base_anchors) if mask >> i & 1]
            dropped = {a.partner for a in swapped}
            variant = sorted(
                [m for m in bp_members if m not in dropped] + [a.t for a in swapped]
            )
            v_edges = check_bprime(variant)
            v_b1p, v_anchors = b1prime_for(variant, v_edges)
            v_i, v_f = _max_i_family(v_anchors, v_edges, bud)
            if best is None or len(v_i) > len(best[3]):
                best = (variant, v_b1p, v_anchors, v_i, v_f, v_edges)
        assert best is not None
        bp_members, b1p_members, b1p_anchors, i_anchors, fmap, ebp = best
    elif b1p_members:
        i_anchors, fmap = _max_i_family(b1p_anchors, ebp, bud)
        if i_anchors:
            raise InvariantViolation("rung family appeared without parallel pairs")

    delta = Fraction(len(b1p_members), nu)
    eta = Fraction(len(i_anchors), nu)

    # Independent-family witness for alpha + eta <= 1 - gamma: replace each
    # selected partner by the two triangles its rungs complete.
    ihat = {a.partner for a in i_anchors}
    witness: list[SlotTriangle] = [m for m in bp_members if m not in ihat]
    for a in i_anchors:
        f1, f2 = fmap[a.t]
        x, y = a.shared[0], a.shared[1]
        own = {e[:2]: e for e in a.t.slot_edges}
        par = {e[:2]: e for e in a.partner.slot_edges}
        witness.append(
            _slot_tri_from_edges(own[norm_edge(x, a.apex)], par[norm_edge(x, a.partner_apex)], f1)
        )
        witness.append(
            _slot_tri_from_edges(own[norm_edge(y, a.apex)], par[norm_edge(y, a.partner_apex)], f2)
        )
    wedges: set[SlotEdge] = set()
    for st in witness:
        es = st.slot_edges
        if any(e in wedges for e in es) or any(e not in gp_slots for e in es):
            raise InvariantViolation("rung-witness family is not independent")
        wedges.update(es)
    if len(witness) != len(bp_members) + len(i_anchors) or len(witness) > nu_gp:
        raise InvariantViolation("rung-witness family breaks the packing cap")
    if alpha + eta > 1 - gamma:
        raise InvariantViolation("alpha + eta exceeds 1 - gamma")

    all_f = {e for pair in fmap.values() for e in pair}
    iset = {a.t for a in i_anchors}
    i_prime_anchors = [
        a
        for a in b1p_anchors
        if a.t not in iset and any(e in all_f for e in a.t.slot_edges)
    ]
    eta_prime = Fraction(len(i_prime_anchors), nu)
    if eta_prime > 2 * eta:
        raise InvariantViolation("crowding family exceeds twice the rung family")

    b1p_hat = {a.partner for a in b1p_anchors}
    e0 = {e for m in bp_members if m not in b1p_hat for e in m.slot_edges}
    e0.update(a.shared for a in b1p_anchors)
    k_anchors = [a for a in b1p_anchors if set(a.rungs) <= e0]
    delta0 = Fraction(len(k_anchors), nu)

    return HaxellState(
        graph=g,
        nu=nu,
        b=TriangleFamily(tuple(b_members)),
        b1=TriangleFamily(tuple(b1_members)),
        b2=TriangleFamily(tuple(b2_members)),
        b_prime=TriangleFamily(tuple(bp_members)),
        b1_prime=TriangleFamily(tuple(b1p_members)),
        i_family=TriangleFamily(tuple(a.t for a in i_anchors)),
        i_prime=TriangleFamily(tuple(a.t for a in i_prime_anchors)),
        k_family=TriangleFamily(tuple(a.t for a in k_anchors)),
        fmap=dict(fmap),
        anchors_b1=anchors_b1,
        anchors_b1_prime=b1p_anchors,
        gamma=gamma,
        beta=beta,
        alpha=alpha,
        delta=delta,
        eta=eta,
        eta_prime=eta_prime,
        delta0=delta0,
        slot_triangles=tuple(all_tris),
    )


@dataclass(frozen=True)
class CandidateTransversal:
    """One constructed cover: its certificate, slot size, and size bound."""

    label: str
    certificate: TransversalCertificate
    slot_size: int
    size_bound: Rational


def _certify(
    g: Multigraph,
    label: str,
    slots: set[SlotEdge],
    bound: Rational,
    all_tris: Sequence[SlotTriangle],
) -> CandidateTransversal:
    for st in all_tris:
        if not any(e in slots for e in st.slot_edges):
            raise InvariantViolation(f"candidate {label} misses a triangle")
    if len(slots) > bound:
        raise InvariantViolation(f"candidate {label} exceeds its size bound")
    classes = sorted({(u, v) for u, v, _ in slots} | set(g.free_edges))
    cert = TransversalCertificate.from_edges(g, classes)
    if not verify_transversal(g, cert):
        raise InvariantViolation(f"candidate {label} fails class-level checking")
    return CandidateTransversal(label, cert, len(slots), bound)


def candidate_transversals(st: HaxellState) -> list[CandidateTransversal]:
    """The five constructed covers of ``st.graph``, each verified and within its bound."""
    g = st.graph
    nu = st.nu
    all_tris = st.slot_triangles
    eb = st.b.slot_edges()
    eb1 = st.b1.slot_edges()
    eb2 = st.b2.slot_edges()
    ebp = st.b_prime.slot_edges()
    eb1p = st.b1_prime.slot_edges()
    out: list[CandidateTransversal] = []

    # a: kept packing edges, shared edges, and all rungs of the anchors.
    bhat1 = {a.partner for a in st.anchors_b1}
    c1 = {e for m in st.b.members if m not in bhat1 for e in m.slot_edges}
    c1.update(a.shared for a in st.anchors_b1)
    ca = set(c1)
    for a in st.anchors_b1:
        extra = [e for e in a.rungs if e not in c1]
        if len(extra) > 2:
            raise InvariantViolation("anchor keeps more than two free rungs")
        ca.update(a.rungs)
    out.append(
        _certify(g, "a", ca, (3 - Fraction(2, 3) * st.gamma) * nu, all_tris)
    )

    # b: both side families plus the cheap half of the leftover packing edges.
    h_slots = eb - eb1 - eb2
    if len(h_slots) != (3 - st.gamma - 2 * st.beta) * nu:
        raise InvariantViolation("leftover packing-edge count is off")
    cb = set(eb1) | set(eb2)
    if h_slots:
        hg = _compress(g, h_slots)
        crossing = {(u, v) for u, v, _ in cut_large(hg).cut_edges}
        kept = {e for e in h_slots if (e[0], e[1]) not in crossing}
        if 2 * len(kept) > len(h_slots):
            raise InvariantViolation("bipartite half is too small")
        cb |= kept
    out.append(
        _certify(
            g, "b",
            cb,
            (Fraction(3, 2) + Fraction(5, 2) * st.gamma + 2 * st.beta) * nu,
            all_tris,
        )
    )

    # c: both anchored families plus the packing edges reused by b_prime.
    cc = set(eb1) | set(eb1p) | (eb & ebp)
    out.append(
        _certify(
            g, "c",
            cc,
            (3 * st.gamma + 3 * st.delta + 3 * st.alpha - st.beta) * nu,
            all_tris,
        )
    )

    # d: drop the partners of the fully-surrounded anchors, keep their shared edges.
    k_set = set(st.k_family.members)
    k_anchors = [a for a in st.anchors_b1_prime if a.t in k_set]
    khat = {a.partner for a in k_anchors}
    cd = set(eb1)
    cd.update(e for m in st.b_prime.members if m not in khat for e in m.slot_edges)
    cd.update(a.shared for a in k_anchors)
    out.append(
        _certify(
            g, "d",
            cd,
            (3 * st.gamma + 3 * st.alpha - 2 * st.delta0) * nu,
            all_tris,
        )
    )

    # e: the layered cover around the rung family.
    b1p_hat = {a.partner for a in st.anchors_b1_prime}
    e0 = {e for m in st.b_prime.members if m not in b1p_hat for e in m.slot_edges}
    e0.update(a.shared for a in st.anchors_b1_prime)
    iset = set(st.i_family.members)
    ipset = set(st.i_prime.members)
    ce = set(eb1) | e0
    for a in st.anchors_b1_prime:
        if a.t in iset:
            ce.update(a.t.slot_edges)
            ce.update(a.partner.slot_edges)
            ce.update(st.fmap[a.t])
        elif a.t in ipset or a.t in k_set:
            ce.update(a.partner.slot_edges)
        else:
            ce.update(a.rungs)
    out.append(
        _certify(
            g, "e",
            ce,
            (3 - st.delta + 4 * st.eta + st.delta0) * nu,
            all_tris,
        )
    )
    return out


def transversal_292(
    g: Multigraph, *, budget: int = DEFAULT_BUDGET
) -> TransversalCertificate:
    """The smallest of the five candidate covers; at most ``(3 - 2/25) nu``.

    The fixed convex combination 1/5, 4/75, 8/75, 8/25, 8/25 of the five
    size bounds collapses to ``(73/25) nu`` once ``alpha + eta <= 1 -
    gamma`` holds, so the minimum is checked against that value exactly.
    """
    st = build_state(g, budget=budget)
    cands = candidate_transversals(st)
    best = min(cands, key=lambda c: (c.slot_size, c.label))
    if best.slot_size > Fraction(73, 25) * st.nu:
        raise InvariantViolation("smallest candidate exceeds (3 - 2/25) nu")
    return best.certificate
