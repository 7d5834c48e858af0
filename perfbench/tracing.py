"""Outside-in tracing of tripack's public functions.

``Tracer.install`` replaces each listed function by a wrapper in its
defining module and in every ``tripack`` module that re-binds it through
``from .x import y``, so calls between modules are seen too.  A wrapper
records one span per call: function, start, end (``perf_counter_ns``),
parent span, and whether it raised.  Spans stay in memory; ``uninstall``
puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

#: Layer (module) -> wrapped public functions.
LAYERS: dict[str, tuple[str, ...]] = {
    "graphio": ("parse_graph",),
    "core": (
        "enumerate_triangles",
        "incidence",
        "verify_packing",
        "verify_transversal",
        "is_fractional_packing",
        "is_fractional_transversal",
    ),
    "exact": ("lp_optimal", "tight_sets", "nu_exact", "tau_exact"),
    "cuts": ("cut_large", "cut_connected", "independent_set_triangle_free"),
    "krivelevich": ("transversal_2nustar", "classify"),
    "haxell": ("build_state", "candidate_transversals"),
    "planar": ("reduce_and_certify", "find_reduction", "apply_step"),
    "cli": ("main",),
}

FUNCTIONS: tuple[str, ...] = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)

ROOT = "cli.main"


class Tracer:
    """Span recorder for one process; install before the calls, uninstall after."""

    def __init__(self) -> None:
        # Span = (function index, start ns, end ns, parent span index or -1, raised).
        self.spans: list[tuple[int, int, int, int, bool] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            raised = False
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (fid, start, end, parent, raised)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for fid, name in enumerate(FUNCTIONS):
            mod, fn = name.split(".")
            orig = getattr(sys.modules[f"tripack.{mod}"], fn)
            originals[id(orig)] = (orig, self._wrap(fid, orig))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "tripack" or modname.startswith("tripack.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, int]]:
        """Per function: ``calls``, ``total_ns``, ``self_ns``, ``errors``.

        Self time is a span's duration minus the durations of its direct
        children; one thread means children never overlap.
        """
        done = [s for s in self.spans if s is not None]
        if len(done) != len(self.spans):
            raise RuntimeError("summary taken while a traced call is open")
        child_ns = [0] * len(done)
        for fid, start, end, parent, _ in done:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "errors": 0} for name in FUNCTIONS}
        for i, (fid, start, end, _, raised) in enumerate(done):
            row = out[FUNCTIONS[fid]]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
            row["errors"] += raised
        return out
