import json
import time
from fractions import Fraction

import pytest

import tripack.cli
import tripack.core
import tripack.exact
from tripack import (
    InvariantViolation,
    Multigraph,
    TransversalCertificate,
    emit_graph,
    parse_graph,
    verify_transversal,
)
from tripack.cli import main
from tripack.generators import (
    gen_complete,
    gen_cycle,
    gen_gk,
    gen_octahedron,
    gen_petersen,
    gen_random,
    gen_stacked,
    gen_wheel,
)
from tripack.graphio import ParseError

from oracles import rand_connected_multigraph, triangle_union


class TestParse:
    def test_k3(self):
        g = parse_graph("p 3\ne 0 1 1\ne 1 2 1\ne 0 2 1\n")
        assert g == gen_complete(3)

    def test_weighted_edge(self):
        g = parse_graph("p 2\ne 0 1 2\n")
        assert g.edges == ((0, 1, 2),)

    def test_duplicate_lines_sum(self):
        g = parse_graph("p 3\ne 0 1 1\ne 1 0 2\n")
        assert g.weight_map[(0, 1)] == 3

    def test_comments_and_blanks(self):
        g = parse_graph("# header\n\np 2\n# mid\ne 0 1 1\n")
        assert len(g.edges) == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("p 2\ne 0 5 1\n")

    def test_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("p 2\ne 1 1 1\n")

    def test_negative_weight(self):
        with pytest.raises(ParseError, match="negative"):
            parse_graph("p 2\ne 0 1 -2\n")

    def test_missing_p(self):
        with pytest.raises(ParseError):
            parse_graph("e 0 1 1\n")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown line kind"):
            parse_graph("p 2\nq 0 1\n")

    def test_roundtrip(self):
        corpus = [gen_complete(5), gen_wheel(6), gen_gk(1).graph]
        corpus += [rand_connected_multigraph(7, 8, 3, s) for s in range(5)]
        corpus.append(Multigraph.from_edges(3, [(0, 1, 0), (0, 2, 1), (1, 2, 1)]))
        for g in corpus:
            assert parse_graph(emit_graph(g)) == g


def run_cli(capsys, args, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_certify_chain_k4(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "k4.graph"
        path.write_text(emit_graph(gen_complete(4)))
        code, out, _ = run_cli(capsys, ["certify-chain", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["nu"] == 1 and report["tau"] == 2
        assert report["nustar"] == "2/1"
        assert all(b["pass"] for b in report["bounds"])

    def test_lp_on_generated_g1(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["generate", "--family", "gk", "--k", "1"])
        assert code == 0
        code, out, _ = run_cli(capsys, ["lp"], stdin=out, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["nustar"] == "5/2"

    def test_kriv_w5(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "w5.graph"
        path.write_text(emit_graph(gen_wheel(5)))
        code, out, _ = run_cli(capsys, ["kriv", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["certificates"]["transversal"]["weight"] <= 4
        assert report["bounds"][0]["pass"] is True
        # Capacity 10**6 on every edge: one conflict vertex per spoke class.
        wide = gen_wheel(5)
        path.write_text(emit_graph(Multigraph.from_edges(6, ((u, v, 10**6) for u, v, _ in wide.edges))))
        code, out, _ = run_cli(capsys, ["kriv", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["certificates"]["transversal"]["weight"] == 3_000_000
        assert report["bounds"][0]["pass"] is True
        # nustar = 0 with a triangle on a capacity-0 edge: the bound demands weight 0.
        path.write_text(emit_graph(Multigraph.from_edges(3, [(0, 1, 0), (0, 2, 1), (1, 2, 1)])))
        code, out, _ = run_cli(capsys, ["kriv", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["nustar"] == "0/1"
        assert report["certificates"]["transversal"]["weight"] == 0
        assert report["bounds"][0]["pass"] is True

    def test_haxell_k4(self, capsys, tmp_path):
        path = tmp_path / "k4.graph"
        path.write_text(emit_graph(gen_complete(4)))
        code, out, _ = run_cli(capsys, ["haxell", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert len(report["certificates"]["candidates"]) == 5
        assert all(b["pass"] for b in report["bounds"])

    def test_planar_skip_exact(self, capsys, tmp_path):
        path = tmp_path / "w6.graph"
        path.write_text(emit_graph(gen_wheel(6)))
        code, out, _ = run_cli(
            capsys, ["planar", "--input", str(path), "--skip-exact"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "complete"
        assert "nu" not in report

    def test_planar_skip_exact_400_disjoint_triangles(self, capsys, tmp_path):
        path = tmp_path / "u400.graph"
        path.write_text(emit_graph(triangle_union(400)))
        code, out, _ = run_cli(capsys, ["planar", "--input", str(path), "--skip-exact"])
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "complete"
        assert report["certificates"]["packing"]["value"] == 400
        assert report["certificates"]["transversal"]["weight"] == 400

    def test_chain_skip_exact_unchecked(self, capsys, tmp_path):
        path = tmp_path / "k4.graph"
        path.write_text(emit_graph(gen_complete(4)))
        code, out, _ = run_cli(
            capsys, ["certify-chain", "--input", str(path), "--skip-exact"]
        )
        assert code == 0
        report = json.loads(out)
        unchecked = [b for b in report["bounds"] if b["pass"] is None]
        assert len(unchecked) == 3

    def test_solve_reports_certificates(self, capsys, tmp_path):
        path = tmp_path / "k5.graph"
        path.write_text(emit_graph(gen_complete(5)))
        code, out, _ = run_cli(capsys, ["solve", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["nu"] == 2 and report["tau"] == 4
        assert report["certificates"]["packing"]["value"] == 2

    def test_solve_1100_disjoint_triangles(self, capsys, tmp_path):
        path = tmp_path / "u1100.graph"
        path.write_text(emit_graph(triangle_union(1100)))
        code, out, _ = run_cli(capsys, ["solve", "--input", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["nu"] == 1100 and report["tau"] == 1100

    @pytest.mark.parametrize("command", ["lp", "solve", "haxell"])
    def test_declared_vertex_count_far_above_the_edges(self, capsys, tmp_path, command):
        # Building adjacency over all declared vertices took 3 s and 250 MB
        # for lp here, and 11 s for haxell.
        path = tmp_path / "sparse.graph"
        path.write_text("p 1000000\ne 0 1 1\ne 0 2 1\ne 1 2 1\n")
        start = time.process_time()
        code, out, _ = run_cli(capsys, [command, "--input", str(path)])
        assert time.process_time() - start < 1
        assert code == 0
        report = json.loads(out)
        assert report["instance"]["vertices"] == 1000000
        assert report["instance"]["triangles"] == 1
        assert all(b["pass"] for b in report["bounds"])

    @pytest.mark.parametrize(
        "command", ["lp", "kriv", "haxell", "solve", "planar", "certify-chain"]
    )
    def test_one_lp_solve_per_command(self, capsys, monkeypatch, tmp_path, command):
        g = parse_graph("p 5\ne 0 1 2\ne 0 2 1\ne 1 2 3\ne 1 3 1\ne 2 3 2\n"
                        "e 0 4 1\ne 1 4 1\ne 3 4 2\n")
        path = tmp_path / "g.graph"
        path.write_text(emit_graph(g))
        solved, indexed = [], []

        def counting(real, calls):
            def wrapper(h):
                calls.append(h)
                return real(h)

            return wrapper

        monkeypatch.setattr(
            tripack.exact, "_simplex_packing", counting(tripack.exact._simplex_packing, solved)
        )
        monkeypatch.setattr(tripack.core, "incidence", counting(tripack.core.incidence, indexed))
        code, _, _ = run_cli(capsys, [command, "--input", str(path)])
        assert code == 0
        assert solved.count(g) <= 1
        assert indexed.count(g) <= 1

    def test_generate_random_deterministic(self, capsys):
        args = ["generate", "--family", "random", "--n", "6", "--m", "9",
                "--max-mult", "3", "--seed", "4"]
        code, out1, _ = run_cli(capsys, args)
        code, out2, _ = run_cli(capsys, args)
        assert out1 == out2
        assert parse_graph(out1) == gen_random(6, 9, 3, 4)

    def test_generate_named_families(self, capsys):
        named = [
            (["cycle", "--n", "6"], gen_cycle(6)),
            (["stacked", "--n", "8", "--seed", "3"], gen_stacked(8, 3)),
            (["petersen"], gen_petersen()),
            (["octahedron"], gen_octahedron()),
        ]
        for args, g in named:
            code, out, _ = run_cli(capsys, ["generate", "--family", *args])
            assert code == 0 and parse_graph(out) == g, args
        code, out, err = run_cli(capsys, ["generate", "--family", "apex", "--host", "foo"])
        assert code == 2 and out == ""
        assert "unknown apex host 'foo'" in err

    def test_generate_apex_petersen(self, capsys):
        code, out, _ = run_cli(capsys, ["generate", "--family", "apex", "--host", "petersen"])
        assert code == 0
        g = parse_graph(out)
        assert g.n == 11 and len(g.edges) == 25

    def test_bad_input_exits_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["solve"], stdin="p 2\ne 0 5 1\n",
                               monkeypatch=monkeypatch)
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p 3\np 3\n", "line 2: duplicate 'p' line"),
            ("p 3 4\n", "line 1: expected 'p <n>'"),
            ("# n\np three\n", "line 2: bad vertex count 'three'"),
            ("p -1\n", "line 1: vertex count must be nonnegative"),
            ("p 3\ne 0 1\n", "line 2: expected 'e <u> <v> <w>'"),
            ("p 3\ne 0 1 1\ne 0 x 1\n", "line 3: bad integer in 'e 0 x 1'"),
            ("# only\n# comments\n", "line 1: missing 'p' line"),
        ],
    )
    def test_malformed_input_exits_2_and_names_its_line(self, capsys, monkeypatch, text, message):
        code, out, err = run_cli(capsys, ["lp"], stdin=text, monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_broken_guarantee_exits_1(self, capsys, monkeypatch):
        def broken(g):
            raise InvariantViolation("packing certificate failed verification")

        monkeypatch.setattr(tripack.cli, "nu_exact", broken)
        code, out, err = run_cli(capsys, ["solve"], stdin=emit_graph(gen_complete(4)),
                                 monkeypatch=monkeypatch)
        assert code == 1 and out == ""
        assert err == "guarantee violated: packing certificate failed verification\n"

    def test_failed_bound_prints_the_report_and_exits_1(self, capsys, monkeypatch):
        # Every edge of K4 weighs 6, above 2 nustar - sqrt(nustar)/4 at nustar = 2.
        def heavy(g):
            return TransversalCertificate.from_edges(g, g.weight_map)

        monkeypatch.setattr(tripack.cli, "transversal_2nustar", heavy)
        code, out, err = run_cli(capsys, ["kriv"], stdin=emit_graph(gen_complete(4)),
                                 monkeypatch=monkeypatch)
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["bounds"][0]["pass"] is False
        assert report["certificates"]["transversal"]["weight"] == 6

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["lp", "--input", "/nonexistent.graph"])
        assert code == 2

    def test_budget_exceeded_exits_2(self, capsys, tmp_path):
        path = tmp_path / "k6.graph"
        path.write_text(emit_graph(gen_complete(6)))
        code, _, err = run_cli(capsys, ["haxell", "--input", str(path), "--budget", "10"])
        assert code == 2
        assert "node budget of 10 nodes" in err
        # A budget below one node is refused before the input is read.
        for budget in ("-5", "0"):
            code, _, err = run_cli(capsys, ["haxell", "--input", "/nonexistent.graph",
                                            "--budget", budget])
            assert code == 2
            assert f"--budget must be at least 1 node, got {budget}" in err

    @pytest.mark.parametrize("n, m", [(11, 30), (12, 34)])
    def test_haxell_parallel_copies_fit_the_budget(self, capsys, tmp_path, n, m):
        g = gen_random(n, m, 2, 0)
        path = tmp_path / "r.graph"
        path.write_text(emit_graph(g))
        code, out, _ = run_cli(capsys, ["haxell", "--input", str(path), "--budget", "1000000"])
        assert code == 0
        report = json.loads(out)
        best = TransversalCertificate.from_edges(
            g, (tuple(e) for e in report["certificates"]["best"]["edges"])
        )
        assert verify_transversal(g, best)
        cands = report["certificates"]["candidates"]
        assert all(c["transversal"]["weight"] <= c["slot_size"] for c in cands)
        size = min(c["slot_size"] for c in cands)
        assert best.weight <= size <= Fraction(73, 25) * report["nu"]

    def test_haxell_best_weight_meets_the_bound(self, capsys, monkeypatch):
        # The best cover here used to weigh 23 while the report said 15.
        code, text, _ = run_cli(capsys, ["generate", "--family", "random", "--n", "7",
                                         "--m", "12", "--max-mult", "3", "--seed", "9"])
        assert code == 0
        code, out, _ = run_cli(capsys, ["haxell"], stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["nu"] == 6
        assert 25 * report["certificates"]["best"]["weight"] <= 73 * report["nu"]
        for c in report["certificates"]["candidates"]:
            assert c["transversal"]["weight"] <= c["slot_size"] <= Fraction(c["size_bound"])
        assert all(b["pass"] for b in report["bounds"])
        assert report["bounds"][-1]["achieved"] == str(report["certificates"]["best"]["weight"])

    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_resource_limit_exits_2(self, capsys, monkeypatch, exc):
        def exhausted(g):
            raise exc()

        monkeypatch.setattr(tripack.cli, "nu_exact", exhausted)
        code, out, err = run_cli(capsys, ["solve"], stdin="p 3\ne 0 1 1\ne 0 2 1\ne 1 2 1\n",
                                 monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {exc.__name__}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--family", "random", "--n", "6"], "--m"),
            (["--family", "gk"], "--k"),
            (["--family", "apex", "--host", "cycle"], "--n"),
            (["--family", "complete"], "--n"),
            (["--family", "cycle"], "--n"),
            (["--family", "stacked", "--seed", "3"], "--n"),
            (["--family", "wheel"], "--k"),
        ],
    )
    def test_generate_missing_flag_exits_2(self, capsys, args, flag):
        code, out, err = run_cli(capsys, ["generate", *args])
        assert code == 2 and out == ""
        assert f"needs {flag}" in err

    @pytest.mark.parametrize(
        "args", [["solve", "--skip-exact"], ["lp", "--budget", "5"]]
    )
    def test_flag_of_another_command_exits_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_parser_is_built_once_and_keeps_no_state(self):
        parser = tripack.cli._build_parser()
        assert tripack.cli._build_parser() is parser
        first = parser.parse_args(["haxell", "--budget", "7", "--input", "g.txt"])
        again = parser.parse_args(["haxell"])
        assert (first.budget, first.input) == (7, "g.txt")
        assert (again.budget, again.input) == (tripack.cli.DEFAULT_BUDGET, "-")
        assert parser.parse_args(["planar", "--skip-exact"]).skip_exact
        assert not parser.parse_args(["planar"]).skip_exact
