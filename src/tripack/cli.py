"""Command-line front end emitting machine-readable certified reports.

Commands::

    tripack generate --family gk --k 2 > g2.graph
    tripack certify-chain --input g2.graph
    tripack lp --input g2.graph
    tripack kriv --input w5.graph
    tripack haxell --input k4.graph --budget 1000000
    tripack planar --input wheel.graph
    tripack solve --input k4.graph

Reports are one line of JSON on stdout; rationals are serialized as
``"p/q"`` strings in lowest terms, never as floats.  Exit code 0 means
every asserted bound passed, 1 means a bound failed (or an internal
guarantee broke), 2 means the invocation or input was unusable, or a run
hit a resource limit: a node budget, memory, or recursion depth.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

from .core import (
    BudgetExceeded,
    InvariantViolation,
    Multigraph,
    PackingCertificate,
    TransversalCertificate,
    dominates_sqrt,
)
# lp_optimal is unused, but perfbench's tracer tests look it up in this module.
from .exact import LPSolution, lp_optimal, nu_exact, tau_exact  # noqa: F401
from .generators import (
    gen_apex,
    gen_complete,
    gen_cycle,
    gen_gk,
    gen_octahedron,
    gen_petersen,
    gen_random,
    gen_stacked,
    gen_wheel,
)
from .graphio import ParseError, emit_graph, parse_graph
from .haxell import DEFAULT_BUDGET, SCALARS, transversal_292
from .krivelevich import transversal_2nustar
from .planar import COMPLETE, reduce_and_certify


def _rat(x: Fraction | int) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _over(num: int, den: int) -> str:
    """``num / den`` in lowest terms, as ``_rat`` writes it."""
    k = gcd(num, den)
    return f"{num // k}/{den // k}"


def _packing_json(p: PackingCertificate) -> dict:
    return {
        "value": p.value,
        "triangles": [
            {"vertices": list(t), "count": m}
            for t, m in sorted(p.multiplicities.items())
        ],
    }


def _transversal_json(c: TransversalCertificate) -> dict:
    return {"weight": c.weight, "edges": [list(e) for e in c.sorted_edges()]}


def _certificates(pc: PackingCertificate, tc: TransversalCertificate) -> dict:
    return {"packing": _packing_json(pc), "transversal": _transversal_json(tc)}


def _bound(name: str, claimed: str, achieved: str, ok: bool | None) -> dict:
    return {"name": name, "claimed": claimed, "achieved": achieved, "pass": ok}


def _duality(g: Multigraph, sol: LPSolution) -> dict:
    p, t = sum(sol.x), sum(v * w for v, (_, _, w) in zip(sol.y, g.edges))
    return _bound("strong duality", _over(p, sol.xden), _over(t, sol.yden), p * sol.yden == t * sol.xden)


def _instance_json(g: Multigraph) -> dict:
    return {
        "vertices": g.n,
        "edges": len(g.edges),
        "total_weight": g.total_weight,
        "triangles": len(g.triangles),
    }


def _read_graph(path: str) -> Multigraph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_graph(text)


def _cmd_solve(g: Multigraph, args: argparse.Namespace) -> dict:
    nu, pc = nu_exact(g)
    tau, tc = tau_exact(g)
    return {
        "nu": nu,
        "tau": tau,
        "bounds": [
            _bound("nu <= tau", str(tau), str(nu), nu <= tau),
            _bound("tau <= 3 nu", str(3 * nu), str(tau), tau <= 3 * nu),
        ],
        "certificates": _certificates(pc, tc),
    }


def _cmd_lp(g: Multigraph, args: argparse.Namespace) -> dict:
    # Both sides in the canonical order of g.incidence, without zeros; each
    # side's value is its half of the strong-duality row.
    sol, inc = g.lp, g.incidence
    duality = _duality(g, sol)
    triangles = [{"vertices": list(t), "value": _over(v, sol.xden)}
                 for t, v in zip(inc.triangles, sol.x) if v]
    edges = [{"edge": list(e), "value": _over(v, sol.yden)} for e, v in zip(inc.edges, sol.y) if v]
    return {
        "nustar": _rat(sol.value),
        "bounds": [duality],
        "certificates": {
            "fractional_packing": {"value": duality["claimed"], "triangles": triangles},
            "fractional_transversal": {"value": duality["achieved"], "edges": edges},
        },
    }


def _cmd_kriv(g: Multigraph, args: argparse.Namespace) -> dict:
    nustar = g.lp.value
    cert = transversal_2nustar(g)
    ok = dominates_sqrt(2 * nustar - cert.weight, nustar / 16)
    claimed = f"2*({_rat(nustar)}) - sqrt({_rat(nustar)})/4"
    return {
        "nustar": _rat(nustar),
        "bounds": [_bound("cover <= 2 nustar - sqrt(nustar)/4", claimed, str(cert.weight), ok)],
        "certificates": {"transversal": _transversal_json(cert)},
    }


def _cmd_haxell(g: Multigraph, args: argparse.Namespace) -> dict:
    st, cands, best, limit = transversal_292(g, budget=args.budget)
    rows = [(f"candidate {c.label} size <= bound", c.size_bound, c.certificate.weight) for c in cands]
    rows.append(("best cover <= (3 - 2/25) nu", limit, best.certificate.weight))
    return {
        "nu": st.nu,
        "scalars": {name: _rat(getattr(st, name)) for name in SCALARS},
        "bounds": [_bound(name, _rat(bound), str(w), w <= bound) for name, bound, w in rows],
        "certificates": {
            "candidates": [
                {
                    "label": c.label,
                    "slot_size": c.slot_size,
                    "size_bound": _rat(c.size_bound),
                    "transversal": _transversal_json(c.certificate),
                }
                for c in cands
            ],
            "best": _transversal_json(best.certificate),
        },
    }


def _cmd_planar(g: Multigraph, args: argparse.Namespace) -> dict:
    pc, tc, status = reduce_and_certify(g)
    ok = tc.weight <= 2 * pc.value if status == COMPLETE else None
    bounds = [_bound("cover weight <= 2 packing", str(2 * pc.value), str(tc.weight), ok)]
    report: dict = {"status": status, "bounds": bounds, "certificates": _certificates(pc, tc)}
    if not args.skip_exact:
        nu, _ = nu_exact(g)
        tau, _ = tau_exact(g)
        report["nu"] = nu
        report["tau"] = tau
        bounds.append(_bound("packing <= nu", str(nu), str(pc.value), pc.value <= nu))
        bounds.append(_bound("cover >= tau", str(tau), str(tc.weight), tc.weight >= tau))
    return report


#: The chain's bounds that need nu and tau, in report order.
_CHAIN = ("tau >= nustar", "nustar >= nu", "2 nu >= nustar")


def _cmd_chain(g: Multigraph, args: argparse.Namespace) -> dict:
    sol = g.lp
    nustar = sol.value
    report: dict = {"nustar": _rat(nustar)}
    if args.skip_exact:
        rows = [(_rat(nustar), "unchecked", None)] * len(_CHAIN)
    else:
        nu, pc = nu_exact(g)
        tau, tc = tau_exact(g)
        report["nu"] = nu
        report["tau"] = tau
        report["certificates"] = _certificates(pc, tc)
        rows = [
            (_rat(nustar), str(tau), Fraction(tau) >= nustar),
            (str(nu), _rat(nustar), nustar >= nu),
            (_rat(nustar), str(2 * nu), 2 * nu >= nustar),
        ]
    report["bounds"] = [_duality(g, sol)] + [_bound(name, *row) for name, row in zip(_CHAIN, rows)]
    return report


def _flag(args: argparse.Namespace, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--family {args.family} needs --{name}")
    return value


def _apex(args: argparse.Namespace) -> Multigraph:
    if args.host == "petersen":
        host = gen_petersen()
    elif args.host == "cycle":
        host = gen_cycle(_flag(args, "n"))
    else:
        raise ValueError(f"unknown apex host {args.host!r}")
    return gen_apex(host)


#: ``generate --family`` name -> the graph it writes; the keys are also the parser's choices.
_FAMILIES = {
    "gk": lambda a: gen_gk(_flag(a, "k")).graph,
    "complete": lambda a: gen_complete(_flag(a, "n")),
    # The rim size is --k, or --n when --k is absent.
    "wheel": lambda a: gen_wheel(a.n if a.k is None and a.n is not None else _flag(a, "k")),
    "cycle": lambda a: gen_cycle(_flag(a, "n")),
    "petersen": lambda a: gen_petersen(),
    "octahedron": lambda a: gen_octahedron(),
    "stacked": lambda a: gen_stacked(_flag(a, "n"), a.seed),
    "random": lambda a: gen_random(_flag(a, "n"), _flag(a, "m"), a.max_mult, a.seed),
    "apex": _apex,
}


def _cmd_generate(args: argparse.Namespace) -> int:
    sys.stdout.write(emit_graph(_FAMILIES[args.family](args)))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "lp": _cmd_lp,
    "kriv": _cmd_kriv,
    "haxell": _cmd_haxell,
    "planar": _cmd_planar,
    "certify-chain": _cmd_chain,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: each parse starts from a fresh namespace, and
    # building the tree costs more than many whole commands.
    top = argparse.ArgumentParser(
        prog="tripack",
        description="Exact triangle packing/covering with certified bounds.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated instance as graph text")
    gen.add_argument("--family", required=True, choices=list(_FAMILIES))
    gen.add_argument("--k", type=int, default=None, help="level (gk) or rim size (wheel)")
    gen.add_argument("--n", type=int, default=None, help="vertex count")
    gen.add_argument("--m", type=int, default=None, help="edge count (random)")
    gen.add_argument("--max-mult", type=int, default=1, help="largest capacity (random)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--host", default="cycle", help="apex host: cycle or petersen")

    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run {name} and report JSON")
        p.add_argument("--input", default="-", help="graph file, or - for stdin")
        if name in ("planar", "certify-chain"):
            p.add_argument("--skip-exact", action="store_true",
                           help="skip exponential integer solves; affected bounds unchecked")
        if name == "haxell":
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="search-node budget for family searches")
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "haxell" and args.budget < 1:
            raise ValueError(f"--budget must be at least 1 node, got {args.budget}")
        g = _read_graph(args.input)
        report = {"command": args.command, "instance": _instance_json(g)}
        report.update(_COMMANDS[args.command](g, args))
        del g  # the last reference: the graph, incidence and LP go before encoding
        print(json.dumps(report))
        failed = any(b["pass"] is False for b in report.get("bounds", []))
        return 1 if failed else 0
    except (ParseError, ValueError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        # Resource limits, like a spent budget: the input is too large to run.
        detail = str(exc) or "resource limit reached"
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"guarantee violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
