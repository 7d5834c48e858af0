"""Plain-text graph format.

The format is line oriented::

    # comment
    p <n>
    e <u> <v> <w>

The ``p`` line gives the vertex count and must come first.  Each ``e`` line
adds capacity ``w`` to the edge ``{u, v}`` (0-based vertex ids); repeated
lines for the same pair sum their capacities.  Blank lines and lines
whose first word starts with ``#`` are ignored.
"""

from __future__ import annotations

from .core import Multigraph


class ParseError(ValueError):
    """Malformed graph text; the message includes the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_graph(text: str) -> Multigraph:
    """Parse the text graph format into a :class:`Multigraph`."""
    n: int | None = None
    acc: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        kind = fields[0]
        if kind == "e":
            if n is None:
                raise ParseError(lineno, "'e' line before 'p' line")
            if len(fields) != 4:
                raise ParseError(lineno, "expected 'e <u> <v> <w>'")
            try:
                u, v, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(lineno, f"bad integer in {raw.strip()!r}") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"vertex id out of range in {raw.strip()!r}")
            if u == v:
                raise ParseError(lineno, f"loop edge ({u},{v})")
            if w < 0:
                raise ParseError(lineno, f"negative weight {w}")
            e = (u, v) if u < v else (v, u)
            acc[e] = acc.get(e, 0) + w
        elif kind == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate 'p' line")
            if len(fields) != 2:
                raise ParseError(lineno, "expected 'p <n>'")
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(lineno, f"bad vertex count {fields[1]!r}") from None
            if n < 0:
                raise ParseError(lineno, "vertex count must be nonnegative")
        else:
            raise ParseError(lineno, f"unknown line kind {kind!r}")
    if n is None:
        raise ParseError(1, "missing 'p' line")
    return Multigraph(n, tuple((*e, w) for e, w in sorted(acc.items())))


def emit_graph(g: Multigraph) -> str:
    """Serialize a graph; ``parse_graph(emit_graph(g)) == g``."""
    lines = [f"p {g.n}"]
    lines.extend(f"e {u} {v} {w}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"
