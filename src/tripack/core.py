"""Weighted multigraph data model and certificate checking.

A :class:`Multigraph` stores each parallel class of edges once, as an
unordered vertex pair with a nonnegative integer capacity.  A capacity of
``w`` plays the role of ``w`` parallel copies of that edge, so the integer
packing number of the stored graph equals the packing number of the
expanded multigraph.  Capacity 0 is allowed: such an edge still exists
structurally (it supports triangles and costs nothing in a transversal).

All numeric values in fractional (LP) code are exact rationals; no module
in this package ever uses floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

if TYPE_CHECKING:
    from .exact import LPSolution

#: Exact rational number type used throughout the package.
Rational = Fraction

#: An unordered vertex pair, normalized so that ``u < v``.
Edge = tuple[int, int]


class InvariantViolation(RuntimeError):
    """A constructed object breaks a guarantee it was supposed to carry.

    This signals a bug in a solver or a construction, never bad user input.
    """


class BudgetExceeded(RuntimeError):
    """An exhaustive search exceeded its configured node budget."""


class _Budget:
    __slots__ = ("limit", "remaining", "search", "start")

    def __init__(self, limit: int):
        self.limit = self.remaining = limit
        self.begin("family")

    def begin(self, search: str) -> "_Budget":
        """Charge the nodes from here on to ``search``; returns the budget."""
        self.search, self.start = search, self.remaining
        return self

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceeded(f"{self.search} search ran past the node budget of {self.limit}"
                                 f" nodes after spending {self.start} of them")


def run_search(root: Iterator[Iterator], budget: _Budget | None = None) -> None:
    """Depth-first search over generator nodes, on an explicit stack.

    A node yields each child's generator where it would call itself, and
    resumes once that child is exhausted; depth is bounded only by memory.
    A budget pays one node for the root and one for each child.
    """
    if budget is not None:
        budget.spend()
    stack = [root]
    while stack:
        for child in stack[-1]:
            if budget is not None:
                budget.spend()
            stack.append(child)
            break
        else:
            stack.pop()


def norm_edge(u: int, v: int) -> Edge:
    """Normalize a vertex pair to the canonical ``u < v`` form."""
    if u == v:
        raise ValueError(f"loop edge ({u},{v}) is not allowed")
    return (u, v) if u < v else (v, u)


class Triangle(NamedTuple):
    """A triangle given by its sorted vertex triple ``a < b < c``."""

    a: int
    b: int
    c: int

    @classmethod
    def of(cls, x: int, y: int, z: int) -> "Triangle":
        a, b, c = sorted((x, y, z))
        if a == b or b == c:
            raise ValueError(f"degenerate triangle ({x},{y},{z})")
        return cls(a, b, c)

    @property
    def edges(self) -> tuple[Edge, Edge, Edge]:
        """The three unordered pairs, in canonical order."""
        return (self.a, self.b), (self.a, self.c), (self.b, self.c)


@dataclass(frozen=True)
class Multigraph:
    """An edge-weighted multigraph on vertices ``0 .. n-1``.

    ``edges`` holds one entry per unordered pair, sorted lexicographically,
    each as ``(u, v, w)`` with ``u < v`` and integer capacity ``w >= 0``.
    Instances are immutable.  Derived objects (``weight_map``,
    ``triangles``, ``free_edges``, ``incidence``, ``lp``) are cached on
    first access, outside equality and hashing.  No per-vertex table is
    kept, so the declared ``n`` costs no memory.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        prev: Edge | None = None
        for u, v, w in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if w < 0:
                raise ValueError(f"edge ({u},{v}) has negative capacity {w}")
            if prev is not None and prev >= (u, v):
                raise ValueError("edges must be sorted and pairwise distinct")
            prev = (u, v)

    @classmethod
    def from_edges(cls, n: int, items: Iterable[tuple[int, int, int]]) -> "Multigraph":
        """Build a graph from ``(u, v, w)`` items, normalizing pair order."""
        seen: dict[Edge, int] = {}
        for u, v, w in items:
            e = norm_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen[e] = w
        edges = tuple((u, v, seen[(u, v)]) for (u, v) in sorted(seen))
        return cls(n, edges)

    @cached_property
    def weight_map(self) -> Mapping[Edge, int]:
        return {(u, v): w for u, v, w in self.edges}

    @cached_property
    def triangles(self) -> tuple[Triangle, ...]:
        """Every vertex triple whose three pairs are edges, sorted.

        Capacity is irrelevant here: an edge of capacity 0 still supports
        triangles.
        """
        # Keyed by the vertices on an edge: n may far exceed them.
        adj: dict[int, set[int]] = {}
        for u, v, _ in self.edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        out: list[Triangle] = []
        for u, v, _ in self.edges:
            for c in sorted(adj[u] & adj[v]):
                if c > v:
                    out.append(Triangle(u, v, c))
        return tuple(out)

    @cached_property
    def free_edges(self) -> tuple[Edge, ...]:
        """The capacity-0 edges lying on a triangle, sorted.

        They cost nothing in a transversal, so every cover may include them.
        """
        wmap = self.weight_map
        return tuple(sorted({e for t in self.triangles for e in t.edges if wmap[e] == 0}))

    @cached_property
    def incidence(self) -> "Incidence":
        """The edge-triangle incidence ``incidence(self)``, which every solver reads."""
        return incidence(self)

    @cached_property
    def lp(self) -> "LPSolution":
        """The exact LP optimum ``exact.lp_optimal(self)``, which every solver reads."""
        # Imported on use because ``exact`` imports this module.
        from .exact import lp_optimal

        return lp_optimal(self)

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)


def enumerate_triangles(g: Multigraph) -> list[Triangle]:
    """A fresh sorted list of the triangles of ``g`` (see ``Multigraph.triangles``)."""
    return list(g.triangles)


@dataclass(frozen=True)
class Incidence:
    """Sparse edge-triangle incidence structure.

    Rows are indexed by ``edges`` (canonical order), columns by
    ``triangles`` (canonical order).  ``columns[j]`` lists the three row
    indices of triangle ``j`` and ``on_edge[i]`` the triangles on edge
    ``i``.  ``components`` lists the triangle-connected components (linked
    by shared edges); all lists ascend, components by lowest triangle.
    """

    edges: tuple[Edge, ...]
    triangles: tuple[Triangle, ...]
    columns: tuple[tuple[int, int, int], ...]
    on_edge: tuple[tuple[int, ...], ...]
    components: tuple[tuple[int, ...], ...]


def incidence(g: Multigraph) -> Incidence:
    """Edge-triangle incidence of ``g``; solvers read the cached ``Multigraph.incidence``."""
    edges = tuple(g.weight_map)
    index = {e: i for i, e in enumerate(edges)}
    columns = tuple((index[a, b], index[a, c], index[b, c]) for a, b, c in g.triangles)
    on: list[list[int]] = [[] for _ in edges]
    root = list(range(len(edges)))  # union-find over the edges

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for j, col in enumerate(columns):
        for i in col:
            on[i].append(j)
            root[find(i)] = find(col[0])
    comps: dict[int, list[int]] = {}  # keyed by root, in order of lowest triangle
    for j, col in enumerate(columns):
        comps.setdefault(find(col[0]), []).append(j)
    return Incidence(
        edges, g.triangles, columns, tuple(map(tuple, on)), tuple(map(tuple, comps.values()))
    )


@dataclass(frozen=True)
class PackingCertificate:
    """An integral triangle packing: multiplicities per triangle.

    Feasible when every edge ``e`` is used at most ``w(e)`` times, counting
    multiplicity.  ``value`` is the total number of triangles packed.
    """

    multiplicities: Mapping[Triangle, int]
    value: int

    @classmethod
    def from_map(cls, mult: Mapping[Triangle, int]) -> "PackingCertificate":
        clean = {t: m for t, m in sorted(mult.items()) if m != 0}
        if any(m < 0 for m in clean.values()):
            raise ValueError("negative triangle multiplicity")
        return cls(clean, sum(clean.values()))


@dataclass(frozen=True)
class TransversalCertificate:
    """A 0/1 edge set meeting every triangle; ``weight`` sums capacities."""

    edges: frozenset[Edge]
    weight: int

    @classmethod
    def from_edges(cls, g: Multigraph, edges: Iterable[Edge]) -> "TransversalCertificate":
        es = frozenset(edges)
        return cls(es, weight(g, es))

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def verify_packing(g: Multigraph, p: PackingCertificate) -> bool:
    """True iff the capacity constraint holds at every edge of ``g``.

    Raises ``ValueError`` if the certificate uses a triangle that does not
    exist in ``g``.
    """
    load: dict[Edge, int] = {}
    for t, m in p.multiplicities.items():
        if m < 0:
            raise ValueError("negative triangle multiplicity")
        for e in t.edges:
            if e not in g.weight_map:
                raise ValueError(f"unknown triangle {tuple(t)}: missing edge {e}")
            load[e] = load.get(e, 0) + m
    return all(load[e] <= g.weight_map[e] for e in load)


def verify_transversal(g: Multigraph, c: TransversalCertificate) -> bool:
    """True iff every triangle of ``g`` contains an edge of the certificate.

    Raises ``ValueError`` if the certificate contains an unknown edge.
    """
    for e in c.edges:
        if e not in g.weight_map:
            raise ValueError(f"unknown edge {e}")
    return all(any(e in c.edges for e in t.edges) for t in g.triangles)


def weight(g: Multigraph, edges: Iterable[Edge]) -> int:
    """Total capacity of an edge set; the empty set weighs 0."""
    total = 0
    for e in set(edges):
        if e not in g.weight_map:
            raise ValueError(f"unknown edge {e}")
        total += g.weight_map[e]
    return total


@dataclass(frozen=True)
class FractionalAssignment:
    """A nonnegative rational assignment on triangles or on edges.

    Exactly one of ``triangle_values`` / ``edge_values`` is set.  Values of
    0 may be omitted from the mapping; absent keys read as 0.  ``value`` is
    the objective value: the plain sum for a packing, the capacity-weighted
    sum for a transversal.
    """

    triangle_values: Mapping[Triangle, Rational] | None
    edge_values: Mapping[Edge, Rational] | None
    value: Rational

    @classmethod
    def on_triangles(cls, g: Multigraph, values: Mapping[Triangle, Rational]) -> "FractionalAssignment":
        clean: dict[Triangle, Rational] = {}
        for t, x in sorted(values.items()):
            x = Fraction(x)
            if x < 0:
                raise ValueError(f"negative value on triangle {tuple(t)}")
            for e in t.edges:
                if e not in g.weight_map:
                    raise ValueError(f"unknown triangle {tuple(t)}")
            if x != 0:
                clean[t] = x
        return cls(clean, None, sum(clean.values(), Fraction(0)))

    @classmethod
    def on_edges(cls, g: Multigraph, values: Mapping[Edge, Rational]) -> "FractionalAssignment":
        clean: dict[Edge, Rational] = {}
        total = Fraction(0)
        for e, y in sorted(values.items()):
            y = Fraction(y)
            if y < 0:
                raise ValueError(f"negative value on edge {e}")
            if e not in g.weight_map:
                raise ValueError(f"unknown edge {e}")
            if y != 0:
                clean[e] = y
                total += y * g.weight_map[e]
        return cls(None, clean, total)

    def triangle_value(self, t: Triangle) -> Rational:
        assert self.triangle_values is not None
        return self.triangle_values.get(t, Fraction(0))

    def edge_value(self, e: Edge) -> Rational:
        assert self.edge_values is not None
        return self.edge_values.get(e, Fraction(0))


def is_fractional_packing(g: Multigraph, f: FractionalAssignment) -> bool:
    """Exact feasibility for the packing constraints ``load(e) <= w(e)``."""
    if f.triangle_values is None:
        raise ValueError("assignment is not on triangles")
    load: dict[Edge, Rational] = {}
    for t, x in f.triangle_values.items():
        if x < 0:
            return False
        for e in t.edges:
            load[e] = load.get(e, Fraction(0)) + x
    return all(load[e] <= g.weight_map[e] for e in load)


def is_fractional_transversal(g: Multigraph, f: FractionalAssignment) -> bool:
    """Exact feasibility: every triangle's edge values sum to at least 1."""
    if f.edge_values is None:
        raise ValueError("assignment is not on edges")
    if any(y < 0 for y in f.edge_values.values()):
        return False
    one = Fraction(1)
    for t in g.triangles:
        if sum((f.edge_value(e) for e in t.edges), Fraction(0)) < one:
            return False
    return True


def dominates_sqrt(x: Rational, y: Rational) -> bool:
    """Exact test of ``x >= sqrt(y)`` for rationals ``x`` and ``y >= 0``.

    Squaring avoids irrational arithmetic, so the comparison is exact.
    """
    if y < 0:
        raise ValueError("radicand must be nonnegative")
    return x >= 0 and x * x >= y


def _drop_redundant(g: Multigraph, cover: Iterable[Edge]) -> list[Edge]:
    """Reverse-delete: drop each positive edge ``cover`` can spare, heaviest first (ties by edge)."""
    inc, wmap, keep = g.incidence, g.weight_map, set(cover)
    hits = [sum(e in keep for e in t.edges) for t in inc.triangles]
    for _, e, on in sorted((-wmap[e], e, on) for e, on in zip(inc.edges, inc.on_edge) if e in keep):
        if wmap[e] and all(hits[j] > 1 for j in on):
            keep.remove(e)
            for j in on:
                hits[j] -= 1
    return sorted(keep)
