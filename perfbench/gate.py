"""Correctness gate: re-verify every report of a pass, outside the timed region.

Certificates are rebuilt from the JSON report and checked with tripack's
own verifiers.  Values that are unique (nu, tau, nustar) and the planar
status are compared with the golden file wherever it knows the instance;
G_k nustar is compared with the closed form.  Haxell candidate sizes and
which certificate a command chose are not compared: a valid change may
alter them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from tripack.core import (
    FractionalAssignment,
    Multigraph,
    PackingCertificate,
    TransversalCertificate,
    Triangle,
    dominates_sqrt,
    is_fractional_packing,
    is_fractional_transversal,
    verify_packing,
    verify_transversal,
)
from tripack.generators import gk_optimum

from corpus import BUDGET, Call

OK = "ok"
KNOWN = "known"  # a known failure the call is allowed to end with
WRONG = "wrong"


def golden_key(call: Call, graph_text: str) -> str:
    digest = hashlib.sha256(graph_text.encode()).hexdigest()[:16]
    return " ".join((call.command, digest, *call.extra))


def _packing(p: dict) -> PackingCertificate:
    return PackingCertificate.from_map(
        {Triangle(*t["vertices"]): t["count"] for t in p["triangles"]}
    )


def _transversal(g: Multigraph, c: dict) -> TransversalCertificate:
    return TransversalCertificate.from_edges(g, (tuple(e) for e in c["edges"]))


def _check_packing(g: Multigraph, p: dict, what: str) -> list[str]:
    cert = _packing(p)
    errs = []
    if not verify_packing(g, cert):
        errs.append(f"{what} packing violates capacities")
    if cert.value != p["value"]:
        errs.append(f"{what} packing value {p['value']} != {cert.value}")
    return errs


def _check_transversal(g: Multigraph, c: dict, what: str) -> list[str]:
    cert = _transversal(g, c)
    errs = []
    if not verify_transversal(g, cert):
        errs.append(f"{what} transversal misses a triangle")
    if cert.weight != c["weight"]:
        errs.append(f"{what} transversal weight {c['weight']} != {cert.weight}")
    return errs


def _check_fractional(g: Multigraph, certs: dict, nustar: Fraction) -> list[str]:
    fp = certs["fractional_packing"]
    ft = certs["fractional_transversal"]
    pack = FractionalAssignment.on_triangles(
        g, {Triangle(*t["vertices"]): Fraction(t["value"]) for t in fp["triangles"]}
    )
    cover = FractionalAssignment.on_edges(
        g, {tuple(e["edge"]): Fraction(e["value"]) for e in ft["edges"]}
    )
    errs = []
    if not is_fractional_packing(g, pack):
        errs.append("fractional packing infeasible")
    if not is_fractional_transversal(g, cover):
        errs.append("fractional transversal infeasible")
    # Feasible primal and dual with equal values prove optimality.
    if not (pack.value == cover.value == nustar):
        errs.append(f"fractional values {pack.value}, {cover.value} != nustar {nustar}")
    return errs


def _check_report(call: Call, g: Multigraph, r: dict) -> list[str]:
    errs: list[str] = []
    cmd = call.command
    certs = r.get("certificates", {})
    if r.get("command") != cmd:
        errs.append(f"report is for command {r.get('command')!r}")
    for b in r.get("bounds", []):
        if b["pass"] is False:
            errs.append(f"bound {b['name']!r} failed")
    if cmd == "lp":
        errs += _check_fractional(g, certs, Fraction(r["nustar"]))
    elif cmd == "kriv":
        errs += _check_transversal(g, certs["transversal"], "kriv")
        nustar = Fraction(r["nustar"])
        weight = certs["transversal"]["weight"]
        if weight != 0 if nustar == 0 else not dominates_sqrt(2 * nustar - weight, nustar / 16):
            errs.append("kriv cover exceeds 2 nustar - sqrt(nustar)/4")
    elif cmd == "haxell":
        for c in certs["candidates"]:
            errs += _check_transversal(g, c["transversal"], f"haxell {c['label']}")
        errs += _check_transversal(g, certs["best"], "haxell best")
    elif cmd in ("solve", "planar") or (cmd == "certify-chain" and "nu" in r):
        if "packing" in certs:
            errs += _check_packing(g, certs["packing"], cmd)
            errs += _check_transversal(g, certs["transversal"], cmd)
        if cmd in ("solve", "certify-chain"):
            if certs["packing"]["value"] != r["nu"]:
                errs.append("packing value differs from nu")
            if certs["transversal"]["weight"] != r["tau"]:
                errs.append("transversal weight differs from tau")
        if cmd == "planar":
            p, c = certs["packing"]["value"], certs["transversal"]["weight"]
            if r["status"] == "complete" and c > 2 * p:
                errs.append("planar cover exceeds twice the packing")
            if "nu" in r and not (p <= r["nu"] and c >= r["tau"]):
                errs.append("planar certificates outside [nu, tau]")
        if "nu" in r and not r["nu"] <= r["tau"]:
            errs.append("nu > tau")
    if "nustar" in r and "nu" in r and not (r["nu"] <= Fraction(r["nustar"]) <= r["tau"]):
        errs.append("chain nu <= nustar <= tau broken")
    expect = dict(call.expect)
    if "gk" in expect and Fraction(r["nustar"]) != gk_optimum(expect["gk"]):
        errs.append(f"G_{expect['gk']} nustar {r['nustar']} != {gk_optimum(expect['gk'])}")
    for key in ("nu", "tau"):
        if key in expect and r.get(key) != expect[key]:
            errs.append(f"{key} {r.get(key)} != constructed {expect[key]}")
    return errs


def unique_values(r: dict) -> dict:
    """The values a valid change may not alter: nu, tau, nustar, status."""
    return {k: r[k] for k in ("nu", "tau", "nustar", "status") if k in r}


def failure_kind(rc: int | None, exc: str | None, stderr: str) -> str | None:
    """Classify a failed call; ``None`` when the call succeeded."""
    if exc is not None:
        return exc
    if rc == 0:
        return None
    if rc == 2 and "budget" in stderr:
        return BUDGET
    return f"exit {rc}"


def check(call: Call, graph_text: str, g: Multigraph, rc: int | None, exc: str | None,
          stdout: str, stderr: str, golden: dict) -> dict:
    """Gate one call: ``verdict`` (``OK``, ``KNOWN`` or ``WRONG``) with a
    ``reason``, plus the golden ``key``, the ``failure`` kind and the
    report's unique ``values``, from which a golden file is recorded."""
    key = golden_key(call, graph_text)
    want = golden.get(key)
    kind = failure_kind(rc, exc, stderr)
    out = {"key": key, "failure": kind, "values": {}}
    if kind is not None:
        if kind == call.may_fail and (want is None or want.get("failure") == kind):
            return {**out, "verdict": KNOWN, "reason": kind}
        return {**out, "verdict": WRONG, "reason": f"failed: {kind}"}
    try:
        report = json.loads(stdout)
        errs = _check_report(call, g, report)
    except (KeyError, TypeError, ValueError) as exc_:
        return {**out, "verdict": WRONG, "reason": f"malformed report: {exc_!r}"}
    out["values"] = got = unique_values(report)
    if want is not None:
        for k, v in want.get("values", {}).items():
            if got.get(k) != v:
                errs.append(f"{k} {got.get(k)!r} != golden {v!r}")
    return {**out, "verdict": WRONG if errs else OK, "reason": "; ".join(errs)}
