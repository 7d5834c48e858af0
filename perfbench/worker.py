"""Child process of the benchmark: set-up, or one closed-loop pass.

    worker.py setup --workload W --seed S --dir D
    worker.py pass --dir D --trace 0|1 --out FILE [--golden FILE]

``setup`` imports tripack, builds the workload's graphs and writes them
with the call list (``manifest.json``) into ``D``.  ``pass`` runs every
call once through ``tripack.cli.main``, in-process, one after another,
timing each with ``perf_counter_ns``; with ``--trace 1`` the public
functions are wrapped for the pass.  The correctness gate runs after the
timed loop, with the original functions back in place.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns


def setup(workload: str, seed: int, out_dir: Path) -> None:
    from tripack.graphio import emit_graph

    from corpus import build

    calls, graphs = build(workload, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, g in graphs.items():
        (out_dir / f"{name}.graph").write_text(emit_graph(g), encoding="utf-8")
    manifest = {"workload": workload, "seed": seed, "calls": [c.to_json() for c in calls]}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


def load_calls(work_dir: Path):
    from corpus import Call

    manifest = json.loads((work_dir / "manifest.json").read_text(encoding="utf-8"))
    return [Call.from_json(c) for c in manifest["calls"]]


def run_calls(calls, work_dir: Path, tracer=None) -> list[dict]:
    """Run each call once; return per-call records with times in ns.

    Cyclic garbage left by the previous call is collected before each call,
    outside its timing, as a process per command would start clean.  An
    exception escaping ``cli.main`` (``RecursionError`` included) is
    recorded against its call and the loop goes on.
    """
    from tripack import cli

    records = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for call in calls:
            argv = call.argv(str(work_dir / f"{call.graph}.graph"))
            out, err = io.StringIO(), io.StringIO()
            rc, exc = None, None
            gc.collect()
            start = perf_counter_ns()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception as e:  # noqa: BLE001 - counted as a failed call
                exc = type(e).__name__
                err.write(traceback.format_exc(limit=3))
            ns = perf_counter_ns() - start
            records.append({"id": call.id, "command": call.command, "ns": ns, "rc": rc,
                            "exc": exc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return records


def apply_gate(calls, records: list[dict], work_dir: Path, golden: dict) -> None:
    """Add the gate's verdict to each record, dropping the call's output."""
    from tripack.graphio import parse_graph

    from gate import check

    for call, rec in zip(calls, records):
        text = (work_dir / f"{call.graph}.graph").read_text(encoding="utf-8")
        rec.update(check(
            call, text, parse_graph(text), rec["rc"], rec["exc"],
            rec.pop("stdout"), rec.pop("stderr"), golden,
        ))


def run_pass(work_dir: Path, traced: bool, golden_path: Path | None) -> dict:
    from tracing import Tracer

    calls = load_calls(work_dir)
    golden = json.loads(golden_path.read_text(encoding="utf-8")) if golden_path else {}
    tracer = Tracer() if traced else None
    records = run_calls(calls, work_dir, tracer)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"traced": traced, "wall_ns": sum(r["ns"] for r in records), "maxrss_kb": maxrss_kb,
              "layers": tracer.summary() if tracer else None}
    apply_gate(calls, records, work_dir, golden.get("calls", {}))
    result["calls"] = records
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="worker.py")
    p.add_argument("mode", choices=["setup", "pass"])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--golden", type=Path)
    a = p.parse_args(argv)
    if a.mode == "setup":
        setup(a.workload, a.seed, a.dir)
    else:
        result = run_pass(a.dir, bool(a.trace), a.golden)
        a.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
