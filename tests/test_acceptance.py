"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All comparisons are
exact (integer or rational; square-root bounds via squared rationals).
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from tripack import (
    Multigraph,
    dominates_sqrt,
    enumerate_triangles,
    lp_optimal,
    nu_exact,
    tau_exact,
    verify_packing,
    verify_transversal,
)
from tripack.cuts import cut_connected, cut_large, independent_set_triangle_free
from tripack.generators import (
    gen_apex,
    gen_complete,
    gen_cycle,
    gen_gk,
    gen_octahedron,
    gen_petersen,
    gen_random,
    gen_stacked,
    gen_wheel,
    gk_optimum,
    fractional_packing_fk,
    fractional_transversal_gka,
    with_random_weights,
)
from tripack.haxell import build_state, candidate_transversals
from tripack.krivelevich import transversal_2nustar
from tripack.planar import COMPLETE, reduce_and_certify

from oracles import (
    atlas_with_triangle,
    brute_max_cut,
    brute_max_independent_set,
    rand_connected_multigraph,
    rand_triangle_free,
)


@lru_cache(maxsize=None)
def _atlas():
    return tuple(atlas_with_triangle())


@lru_cache(maxsize=None)
def _random_multigraphs():
    out = []
    for seed in range(60):
        n = 4 + seed % 5
        m = min(5 + seed % 9, n * (n - 1) // 2)
        out.append(gen_random(n, m, 3, seed))
    return tuple(out)


@lru_cache(maxsize=None)
def _planar_corpus():
    corpus = [gen_complete(4), gen_octahedron()]
    corpus += [gen_wheel(k) for k in range(3, 9)]
    corpus += [gen_stacked(4 + s % 7, seed=s) for s in range(20)]
    return tuple(
        with_random_weights(g, (1, 2, 3), seed=i) for i, g in enumerate(corpus)
    )


def done(msg: str) -> None:
    print(f"PASS  {msg}")


def test_criterion_1_gk_exact_lp_values():
    expected = {0: Fraction(0), 1: Fraction(5, 2), 2: Fraction(105, 4)}
    for k, want in expected.items():
        got = lp_optimal(gen_gk(k).graph).value
        assert got == want == gk_optimum(k)
    done("criterion 1: recursive-family LP optima are 0, 5/2, 105/4 exactly")


def test_criterion_2_scaled_optimum_is_odd():
    for k in (1, 2):
        scaled = 2**k * lp_optimal(gen_gk(k).graph).value
        assert scaled.denominator == 1
        assert scaled.numerator % 2 == 1
    done("criterion 2: 2^k times the level-k optimum is an odd integer (k = 1, 2)")


def test_criterion_3_matching_primal_dual_certificates():
    for k in (1, 2):
        inst = gen_gk(k)
        f = fractional_packing_fk(k)
        gka = fractional_transversal_gka(k, 0)
        from tripack import is_fractional_packing, is_fractional_transversal

        assert is_fractional_packing(inst.graph, f)
        assert is_fractional_transversal(inst.graph, gka)
        assert f.value == gka.value == gk_optimum(k)
    done("criterion 3: explicit packing and cover certify each other at k = 1, 2")


def test_criterion_4_krivelevich_construction():
    corpus = list(_atlas()) + list(_random_multigraphs())
    corpus += [gen_wheel(5), gen_gk(1).graph]
    assert len(corpus) >= 200
    for g in corpus:
        cert = transversal_2nustar(g)
        assert verify_transversal(g, cert)
        star = lp_optimal(g).value
        slack = 2 * star - cert.weight
        assert dominates_sqrt(slack, star / 16)
    done(
        f"criterion 4: cover within 2*nustar - sqrt(nustar)/4 on {len(corpus)} instances"
    )


def test_criterion_5_cut_lemmas():
    checked_against_oracle = 0
    for seed in range(200):
        n = 2 + seed % 9
        g = rand_connected_multigraph(n, seed % 14, 3, seed)
        e = g.total_weight
        cut = cut_connected(g)
        assert Fraction(cut.size) >= Fraction(e, 2) + Fraction(n - 1, 4)
        big = cut_large(g)
        assert dominates_sqrt(Fraction(big.size) - Fraction(e, 2), Fraction(e, 16))
        if n <= 8:
            opt = brute_max_cut(g)
            assert cut.size <= opt and big.size <= opt
            checked_against_oracle += 1
    done(
        "criterion 5: cut guarantees on 200 random connected multigraphs"
        f" ({checked_against_oracle} checked against brute force)"
    )


def test_criterion_6_independent_set_lemma():
    for seed in range(200):
        n = 3 + seed % 28
        h = rand_triangle_free(n, seed)
        s = independent_set_triangle_free(h)
        for i, a in enumerate(s):
            for b in s[i + 1:]:
                assert not h.has_pair(a, b)
        assert 4 * len(s) ** 2 >= h.n
    done("criterion 6: independent sets of size >= sqrt(v)/2 on 200 triangle-free graphs")


def test_criterion_7_planar_engine():
    count = 0
    for g in _planar_corpus():
        p, c, status = reduce_and_certify(g)
        assert status == COMPLETE
        assert verify_packing(g, p) and verify_transversal(g, c)
        assert c.weight <= 2 * p.value
        assert p.value <= nu_exact(g)[0]
        assert c.weight >= tau_exact(g)[0]
        count += 1
    done(f"criterion 7: planar engine complete and 2-to-1 certified on {count} instances")


def test_criterion_8_haxell_construction():
    corpus = list(_atlas()) + [gen_complete(5), gen_complete(6), gen_wheel(5)]
    for g in corpus:
        st = build_state(g)
        cands = candidate_transversals(st)
        tau, _ = tau_exact(g)
        for c in cands:
            assert Fraction(c.slot_size) <= c.size_bound
            assert verify_transversal(g, c.certificate)
        best = min(c.slot_size for c in cands)
        assert Fraction(best) <= Fraction(73, 25) * st.nu
        assert best >= tau
    done(
        f"criterion 8: five bounded covers with min <= (3 - 2/25) nu on {len(corpus)} graphs"
    )


def test_criterion_9_apex_tightness():
    for host, expect_tau in ((gen_cycle(5), 3), (gen_petersen(), 6)):
        g = gen_apex(host)
        alpha = brute_max_independent_set(host)
        tau, _ = tau_exact(g)
        assert tau == host.n - alpha == expect_tau
        assert lp_optimal(g).value <= Fraction(host.n, 2)
    done("criterion 9: apex instances give tau = n - alpha and taustar <= n/2")


def test_criterion_10_inequality_chain():
    corpus = list(_atlas()) + list(_random_multigraphs()) + list(_planar_corpus())
    corpus += [gen_wheel(5), gen_gk(1).graph, gen_apex(gen_cycle(5)), gen_apex(gen_petersen())]
    for g in corpus:
        nu, _ = nu_exact(g)
        tau, _ = tau_exact(g)
        sol = lp_optimal(g)
        assert sol.packing.value == sol.transversal.value
        star = sol.value
        assert Fraction(tau) >= star >= Fraction(nu)
        assert 2 * nu >= star
    done(f"criterion 10: tau >= taustar = nustar >= nu and 2 nu >= nustar on {len(corpus)} instances")
