"""Command-line front end emitting machine-readable certified reports.

Commands::

    tripack generate --family gk --k 2 > g2.graph
    tripack certify-chain --input g2.graph
    tripack lp --input g2.graph
    tripack kriv --input w5.graph
    tripack haxell --input k4.graph --budget 1000000
    tripack planar --input wheel.graph
    tripack solve --input k4.graph

Reports are JSON on stdout; rationals are serialized as ``"p/q"`` strings,
never as floats.  Exit code 0 means every asserted bound passed, 1 means a
bound failed (or an internal guarantee broke), 2 means the invocation or
input was unusable, or a run hit a resource limit: a node budget, memory,
or recursion depth.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .core import (
    BudgetExceeded,
    FractionalAssignment,
    InvariantViolation,
    Multigraph,
    PackingCertificate,
    TransversalCertificate,
    dominates_sqrt,
)
# lp_optimal is unused, but perfbench's tracer tests look it up in this module.
from .exact import lp_optimal, nu_exact, tau_exact  # noqa: F401
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
from .haxell import DEFAULT_BUDGET, transversal_292
from .krivelevich import transversal_2nustar
from .planar import COMPLETE, reduce_and_certify


def _rat(x: Fraction | int) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


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


def _fractional_json(f: FractionalAssignment) -> dict:
    if f.triangle_values is not None:
        return {
            "value": _rat(f.value),
            "triangles": [
                {"vertices": list(t), "value": _rat(x)}
                for t, x in sorted(f.triangle_values.items())
            ],
        }
    assert f.edge_values is not None
    return {
        "value": _rat(f.value),
        "edges": [
            {"edge": list(e), "value": _rat(x)}
            for e, x in sorted(f.edge_values.items())
        ],
    }


def _bound(name: str, claimed: str, achieved: str, ok: bool | None) -> dict:
    return {"name": name, "claimed": claimed, "achieved": achieved, "pass": ok}


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
        "certificates": {
            "packing": _packing_json(pc),
            "transversal": _transversal_json(tc),
        },
    }


def _cmd_lp(g: Multigraph, args: argparse.Namespace) -> dict:
    sol = g.lp
    return {
        "nustar": _rat(sol.value),
        "bounds": [
            _bound(
                "strong duality",
                _rat(sol.packing.value),
                _rat(sol.transversal.value),
                sol.packing.value == sol.transversal.value,
            )
        ],
        "certificates": {
            "fractional_packing": _fractional_json(sol.packing),
            "fractional_transversal": _fractional_json(sol.transversal),
        },
    }


def _cmd_kriv(g: Multigraph, args: argparse.Namespace) -> dict:
    nustar = g.lp.value
    cert = transversal_2nustar(g)
    ok = dominates_sqrt(2 * nustar - cert.weight, nustar / 16)
    return {
        "nustar": _rat(nustar),
        "bounds": [
            _bound(
                "cover <= 2 nustar - sqrt(nustar)/4",
                f"2*({_rat(nustar)}) - sqrt({_rat(nustar)})/4",
                str(cert.weight),
                ok,
            )
        ],
        "certificates": {"transversal": _transversal_json(cert)},
    }


def _cmd_haxell(g: Multigraph, args: argparse.Namespace) -> dict:
    st, cands, best, limit = transversal_292(g, budget=args.budget)
    bounds = [
        _bound(
            f"candidate {c.label} size <= bound",
            _rat(c.size_bound),
            str(c.certificate.weight),
            c.certificate.weight <= c.size_bound,
        )
        for c in cands
    ]
    bounds.append(
        _bound(
            "min candidate <= (3 - 2/25) nu",
            _rat(limit),
            str(best.certificate.weight),
            best.certificate.weight <= limit,
        )
    )
    return {
        "nu": st.nu,
        "scalars": {
            "gamma": _rat(st.gamma),
            "beta": _rat(st.beta),
            "alpha": _rat(st.alpha),
            "delta": _rat(st.delta),
            "eta": _rat(st.eta),
            "eta_prime": _rat(st.eta_prime),
            "delta0": _rat(st.delta0),
        },
        "bounds": bounds,
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
    bounds = [
        _bound(
            "cover weight <= 2 packing",
            str(2 * pc.value),
            str(tc.weight),
            tc.weight <= 2 * pc.value if status == COMPLETE else None,
        )
    ]
    report: dict = {
        "status": status,
        "bounds": bounds,
        "certificates": {
            "packing": _packing_json(pc),
            "transversal": _transversal_json(tc),
        },
    }
    if not args.skip_exact:
        nu, _ = nu_exact(g)
        tau, _ = tau_exact(g)
        report["nu"] = nu
        report["tau"] = tau
        bounds.append(_bound("packing <= nu", str(nu), str(pc.value), pc.value <= nu))
        bounds.append(_bound("cover >= tau", str(tau), str(tc.weight), tc.weight >= tau))
    return report


def _cmd_chain(g: Multigraph, args: argparse.Namespace) -> dict:
    sol = g.lp
    nustar = sol.value
    report: dict = {"nustar": _rat(nustar)}
    bounds = [
        _bound(
            "strong duality",
            _rat(sol.packing.value),
            _rat(sol.transversal.value),
            sol.packing.value == sol.transversal.value,
        )
    ]
    if args.skip_exact:
        bounds.append(_bound("tau >= nustar", _rat(nustar), "unchecked", None))
        bounds.append(_bound("nustar >= nu", _rat(nustar), "unchecked", None))
        bounds.append(_bound("2 nu >= nustar", _rat(nustar), "unchecked", None))
    else:
        nu, pc = nu_exact(g)
        tau, tc = tau_exact(g)
        report["nu"] = nu
        report["tau"] = tau
        bounds.append(_bound("tau >= nustar", _rat(nustar), str(tau), Fraction(tau) >= nustar))
        bounds.append(_bound("nustar >= nu", str(nu), _rat(nustar), nustar >= nu))
        bounds.append(_bound("2 nu >= nustar", _rat(nustar), str(2 * nu), 2 * nu >= nustar))
        report["certificates"] = {
            "packing": _packing_json(pc),
            "transversal": _transversal_json(tc),
        }
    report["bounds"] = bounds
    return report


def _flag(args: argparse.Namespace, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"--family {args.family} needs --{name}")
    return value


def _cmd_generate(args: argparse.Namespace) -> int:
    fam = args.family
    if fam == "gk":
        g = gen_gk(_flag(args, "k")).graph
    elif fam == "random":
        g = gen_random(_flag(args, "n"), _flag(args, "m"), args.max_mult, args.seed)
    elif fam == "apex":
        if args.host == "petersen":
            host = gen_petersen()
        elif args.host == "cycle":
            host = gen_cycle(_flag(args, "n"))
        else:
            raise ValueError(f"unknown apex host {args.host!r}")
        g = gen_apex(host)
    elif fam == "complete":
        g = gen_complete(_flag(args, "n"))
    elif fam == "cycle":
        g = gen_cycle(_flag(args, "n"))
    elif fam == "wheel":
        # The rim size is --k, or --n when --k is absent.
        g = gen_wheel(args.n if args.k is None and args.n is not None else _flag(args, "k"))
    elif fam == "stacked":
        g = gen_stacked(_flag(args, "n"), args.seed)
    elif fam == "petersen":
        g = gen_petersen()
    elif fam == "octahedron":
        g = gen_octahedron()
    else:
        raise ValueError(f"unknown family {fam!r}")
    sys.stdout.write(emit_graph(g))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "lp": _cmd_lp,
    "kriv": _cmd_kriv,
    "haxell": _cmd_haxell,
    "planar": _cmd_planar,
    "certify-chain": _cmd_chain,
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tripack",
        description="Exact triangle packing/covering with certified bounds.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a generated instance as graph text")
    gen.add_argument(
        "--family",
        required=True,
        choices=[
            "gk", "complete", "wheel", "cycle", "petersen",
            "octahedron", "stacked", "random", "apex",
        ],
    )
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
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
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
