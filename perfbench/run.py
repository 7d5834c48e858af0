"""tripack benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload lp_dense --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; tripack is imported from ``src/``.
The run sets the workload up several times in fresh interpreters
(``setup_s`` is their median), then runs closed-loop passes over the
workload's calls, each pass in a fresh child process, for about
``--seconds``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics instead of the end-to-end ones.  Human-
readable lines come first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
WORK = BENCH / ".work"

SETUPS = 5
CHILD_TIMEOUT_S = 150

COMMANDS = {"lp": "cmd_lp_s", "kriv": "cmd_kriv_s", "certify-chain": "cmd_chain_s",
            "solve": "cmd_solve_s", "haxell": "cmd_haxell_s", "planar": "cmd_planar_s"}


#: Nominal length (s) of one pass, measured on a shared 2-core x86 machine.
#: It fixes how many passes fit in a run, so the pooled call sample, and the
#: percentile ``call_tail_s`` reports, are the same on every run.
PASS_SECONDS = {"lp_dense": 6.5, "bb_search": 11.0, "sparse_large": 25.0}


def passes_for(workload: str, seconds: float) -> int:
    """Passes in a run of about ``seconds``; at least two."""
    return max(2, round(seconds / PASS_SECONDS[workload]))


class BenchError(RuntimeError):
    pass


def worker(*args: str) -> float:
    """Run ``worker.py`` with ``args`` in a fresh interpreter; return its wall time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {CHILD_TIMEOUT_S} s") from None
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return elapsed


def setup(workload: str, seed: int, work: Path) -> float:
    return worker("setup", "--workload", workload, "--seed", str(seed), "--dir", str(work))


def run_pass(work: Path, traced: bool, golden: Path | None = GOLDEN) -> dict:
    out = work / "pass.json"
    args = ["pass", "--dir", str(work), "--trace", str(int(traced)), "--out", str(out)]
    if golden is not None:
        args += ["--golden", str(golden)]
    worker(*args)
    return json.loads(out.read_text(encoding="utf-8"))


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n <= 10:
        raise BenchError(f"{n} call samples cannot give a tail with ten beyond it")
    p = 100 * (n - 10) // n
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def end_to_end(passes: list[dict], setup_s: list[float]) -> tuple[dict, list[str]]:
    calls = [c for p in passes for c in p["calls"]]
    times = [c["ns"] / 1e9 for c in calls]
    pct, tail_s = tail(times)
    cmd: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        per: dict[str, int] = defaultdict(int)
        for c in p["calls"]:
            per[COMMANDS[c["command"]]] += c["ns"]
        for name, ns in per.items():
            cmd[name].append(ns / 1e9)
    per_call: dict[str, list[float]] = defaultdict(list)
    for c in calls:
        per_call[c["id"]].append(c["ns"] / 1e9)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(p["wall_ns"] / 1e9 for p in passes), "s"),
        "call_p50_s": (statistics.median(times), "s"),
        "call_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] / 1024 for p in passes), "MB"),
    }
    failed = sum(c["verdict"] != "ok" for c in calls)
    lines = [
        f"passes {len(passes)}, calls per pass {len(per_call)}, "
        f"call samples {len(times)}, call_tail_s is p{pct}",
        "pass wall_s " + " ".join(f"{p['wall_ns'] / 1e9:.4f}" for p in passes),
        f"fail_ratio {failed / len(calls):.4f} ({failed} of {len(calls)} calls)",
    ]
    lines += [f"{name} {statistics.median(v):.4f} s" for name, v in sorted(cmd.items())]
    lines += [f"  call {cid:28s} {statistics.median(v):.4f} s" for cid, v in per_call.items()]
    return metrics, lines


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    from tracing import FUNCTIONS, LAYERS, ROOT as ROOT_SPAN

    def med(fn: str, field: str) -> float:
        return statistics.median(p["layers"][fn][field] for p in traced)

    root_ns = med(ROOT_SPAN, "total_ns")
    cmds = med(ROOT_SPAN, "calls")
    metrics: dict[str, tuple[float, str]] = {}
    lines = [f"{'function':42s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s} {'self%':>6s} errors"]
    for fn in FUNCTIONS:
        calls, total, self_ns, errors = (med(fn, f) for f in ("calls", "total_ns", "self_ns", "errors"))
        metrics[f"{fn}.calls"] = (calls, "count")
        metrics[f"{fn}.total_s"] = (total / 1e9, "s")
        metrics[f"{fn}.self_s"] = (self_ns / 1e9, "s")
        metrics[f"{fn}.self_pct"] = (100 * self_ns / root_ns, "%")
        metrics[f"{fn}.errors"] = (errors, "count")
        lines.append(f"{fn:42s} {calls:7.0f} {total / 1e9:9.4f} {self_ns / 1e9:9.4f} "
                     f"{100 * self_ns / root_ns:6.2f} {errors:.0f}")
    for layer, fns in LAYERS.items():
        self_ns = sum(metrics[f"{layer}.{f}.self_s"][0] for f in fns)
        metrics[f"{layer}.self_s"] = (self_ns, "s")
        metrics[f"{layer}.self_pct"] = (100 * self_ns * 1e9 / root_ns, "%")
        lines.append(f"layer {layer:14s} self_s {self_ns:.4f} ({100 * self_ns * 1e9 / root_ns:.2f}%)")
    for fn in ("exact.lp_optimal", "core.enumerate_triangles"):
        metrics[f"{fn}.calls_per_cmd"] = (metrics[f"{fn}.calls"][0] / cmds, "ratio")
    plain_wall = statistics.median(p["wall_ns"] for p in plain) / 1e9
    traced_wall = statistics.median(p["wall_ns"] for p in traced) / 1e9
    metrics["traced_wall_s"] = (traced_wall, "s")
    metrics["trace_overhead"] = (traced_wall / plain_wall, "ratio")
    lines.append(f"trace_overhead {traced_wall / plain_wall:.4f} "
                 f"(traced wall_s {traced_wall:.4f} s, untraced {plain_wall:.4f} s)")
    return metrics, lines


def listed_metrics(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if not (SRC / "tripack" / "cli.py").is_file():
        print(f"error: no tripack sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{a.workload}-{a.seed}-", dir=WORK))
    try:
        setup_s = [setup(a.workload, a.seed, work) for _ in range(SETUPS)]
        n = passes_for(a.workload, a.seconds)
        if a.trace:
            results = [run_pass(work, traced=bool(i % 2)) for i in range(2 * max(1, n // 2))]
        else:
            results = [run_pass(work, traced=False) for _ in range(n)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    e2e, lines = end_to_end(plain, setup_s)
    if a.trace:
        metrics, layer_lines = per_layer(traced, plain)
        lines += layer_lines
        names = listed_metrics("per_layer")
    else:
        metrics = e2e
        names = listed_metrics("end_to_end")
    calls = [c for r in results for c in r["calls"]]
    wrong = [c for c in calls if c["verdict"] == "wrong"]
    known = sorted({f"{c['id']} ({c['reason']})" for c in calls if c["verdict"] == "known"})
    print(f"workload {a.workload} seed {a.seed} trace {a.trace}")
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    for line in lines:
        print(line)
    baseline = "?"
    if GOLDEN.is_file():
        baseline = json.loads(GOLDEN.read_text(encoding="utf-8"))["known_failures"].get(a.workload, "?")
    print(f"known failures ({len(known)} calls per pass, {baseline} at the golden seed): "
          + ", ".join(known))
    for c in wrong:
        print(f"WRONG {c['id']}: {c['reason']}")
    result = {
        "correct": not wrong,
        "attempted": len(calls),
        "failed": sum(c["verdict"] != "ok" for c in calls),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
