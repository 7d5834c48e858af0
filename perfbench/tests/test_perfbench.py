"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench/tests``)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tripack
import tripack.cli
import tripack.exact
import tripack.haxell
import tripack.krivelevich
from tripack.generators import gen_gk, gen_random

import corpus
import run
import worker
from corpus import Call, k_w, s_w, triangle_union
from gate import KNOWN, OK, WRONG, golden_key
from tracing import FUNCTIONS, Tracer

BENCH = Path(run.__file__).resolve().parent


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", sorted(run.PASS_SECONDS))
def test_same_seed_gives_identical_files(tmp_path, workload):
    worker.setup(workload, 7, tmp_path / "a")
    worker.setup(workload, 7, tmp_path / "b")
    worker.setup(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a != c  # the seed draws the seeded instances and the call order


def _small_calls(d: Path) -> list[Call]:
    """One cheap call per command, written to ``d``."""
    graphs = {
        "k6": (k_w(6, 3), "lp", ()),
        "k6b": (k_w(6, 4), "kriv", ()),
        "k6c": (k_w(6, 5), "certify-chain", ()),
        "s9": (s_w(9, 1), "solve", ()),
        "s10": (s_w(10, 2), "planar", ()),
        "r8": (gen_random(8, 14, 2, 1), "haxell", ("--budget", "100000")),
        "g1": (gen_gk(1).graph, "lp", ()),
        "u5": (triangle_union(5), "solve", ()),
    }
    calls = []
    for name, (g, command, extra) in graphs.items():
        (d / f"{name}.graph").write_text(tripack.emit_graph(g), encoding="utf-8")
        expect = (("gk", 1),) if name == "g1" else ((("nu", 5), ("tau", 5)) if name == "u5" else ())
        calls.append(Call(f"{command}:{name}", command, name, extra, expect, corpus.BUDGET
                          if command == "haxell" else None))
    return calls


def test_traced_and_untraced_reports_identical(tmp_path):
    calls = _small_calls(tmp_path)
    plain = worker.run_calls(calls, tmp_path)
    tracer = Tracer()
    traced = worker.run_calls(calls, tmp_path, tracer)
    assert [r["stdout"] for r in plain] == [r["stdout"] for r in traced]
    assert all(r["rc"] == 0 for r in plain)
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == len(calls)
    # Calls made through re-bound names are seen.
    assert summary["exact.lp_optimal"]["calls"] > 0
    assert summary["exact.nu_exact"]["calls"] > 0
    assert summary["haxell.build_state"]["calls"] == 1
    for row in summary.values():
        assert 0 <= row["self_ns"] <= row["total_ns"]


def _bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, mod in sys.modules.items()
        if name == "tripack" or name.startswith("tripack.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def _defined(name: str):
    mod, fn = name.split(".")
    return getattr(sys.modules[f"tripack.{mod}"], fn)


def test_wrappers_restore_every_binding():
    before = _bindings()
    originals = {name: _defined(name) for name in FUNCTIONS}
    rebound = (tripack.cli.lp_optimal, tripack.krivelevich.lp_optimal,
               tripack.haxell.nu_exact, tripack.lp_optimal)
    with Tracer():
        assert all(_defined(name) is not fn for name, fn in originals.items())
        assert all(_defined(name).__wrapped__ is fn for name, fn in originals.items())
        assert tripack.cli.lp_optimal is tripack.krivelevich.lp_optimal is tripack.lp_optimal
        assert tripack.cli.lp_optimal is not rebound[0]
        assert tripack.haxell.nu_exact is tripack.exact.nu_exact is not rebound[2]
    assert _bindings() == before


def test_tracer_keeps_exception_and_counts_error():
    tracer = Tracer()
    with tracer:
        with pytest.raises(ValueError):
            tripack.parse_graph("p 2\ne 0 5 1\n")
    row = tracer.summary()["graphio.parse_graph"]
    assert (row["calls"], row["errors"]) == (1, 1)
    assert row["self_ns"] == row["total_ns"] > 0


def test_wrong_golden_value_counts_as_failure(tmp_path):
    calls = _small_calls(tmp_path)
    manifest = {"workload": "test", "seed": 0, "calls": [c.to_json() for c in calls]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    solve = next(c for c in calls if c.graph == "s9")
    text = (tmp_path / "s9.graph").read_text()
    golden = tmp_path / "golden.json"

    golden.write_text(json.dumps({"calls": {}}))
    good = worker.run_pass(tmp_path, False, golden)
    assert {r["verdict"] for r in good["calls"]} == {OK}
    nu = next(r for r in good["calls"] if r["id"] == solve.id)["values"]["nu"]

    golden.write_text(json.dumps({"calls": {golden_key(solve, text): {"values": {"nu": nu + 1}}}}))
    bad = worker.run_pass(tmp_path, False, golden)
    verdicts = {r["id"]: r["verdict"] for r in bad["calls"]}
    assert verdicts.pop(solve.id) == WRONG
    assert set(verdicts.values()) == {OK}


def test_known_failure_is_counted_and_unknown_is_wrong(tmp_path):
    g = triangle_union(3)
    (tmp_path / "u.graph").write_text(tripack.emit_graph(g))
    allowed = Call("haxell:u", "haxell", "u", ("--budget", "0"), (), corpus.BUDGET)
    not_allowed = Call("haxell:u2", "haxell", "u", ("--budget", "0"), (), None)
    recs = worker.run_calls([allowed, not_allowed], tmp_path)
    assert [r["rc"] for r in recs] == [2, 2]
    manifest = {"calls": [allowed.to_json(), not_allowed.to_json()]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    result = worker.run_pass(tmp_path, False, None)
    assert [r["verdict"] for r in result["calls"]] == [KNOWN, WRONG]


def test_tail_percentile_has_ten_beyond():
    samples = [float(i) for i in range(30)]
    p, value = run.tail(samples)
    assert p == 66
    assert sum(s > value for s in samples) >= 10
    with pytest.raises(run.BenchError):
        run.tail(samples[:10])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "lp_dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
