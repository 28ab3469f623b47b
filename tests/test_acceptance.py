"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or via the CLI (`kedges selftest all`) for the same checks in
suite form.  Every comparison is exact; the only tolerances are the
wall-clock budgets stated alongside each criterion.
"""

import time

import pytest

from kedges import bounds, golden
from kedges.central import verify_central
from kedges.circseq import compute_s, halfperiod_from_points
from kedges.constructions import (
    SrConfig,
    build_cluster_polygon,
    build_polygon_center,
    build_sr,
    count_bichromatic_monochromatic,
    sr_expected_bichromatic,
    sr_expected_leq,
    sr_expected_monochromatic,
)
from kedges.edgestats import (
    crossings_bruteforce,
    crossings_from_edge_vector,
    edge_vector_bruteforce,
    edge_vector_from_halfperiod,
    pair_levels,
)
from kedges.selftest import build_corpus

CORPUS_SEED = 20240901


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(trials=500, nmin=5, nmax=12, seed=CORPUS_SEED)


def _report(num, ok, budget, elapsed, desc):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {status}  ({elapsed:.2f}s / budget {budget:.0f}s)  {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_table1_halving():
    t0 = time.time()
    got = tuple(bounds.halving_upper_bound(n) for n in golden.TABLE1_N)
    _report(1, got == golden.TABLE1_H, 1.0, time.time() - t0,
            f"halving upper bounds for n=14..27: {got}")


def test_criterion_02_table1_crossings():
    t0 = time.time()
    got = tuple(bounds.cr_lower_bound(n, "table1").value for n in golden.TABLE1_N)
    anchors = (bounds.cr_lower_bound(20, "table1").value,
               bounds.cr_lower_bound(23, "table1").value,
               bounds.cr_lower_bound(24, "table1").value)
    _report(2, got == golden.TABLE1_CR and anchors == (1657, 3077, 3699),
            1.0, time.time() - t0, f"crossing lower bounds for n=14..27: {got}")


def test_criterion_03_table2_upper():
    t0 = time.time()
    got = tuple(bounds.halving_upper_bound(n) for n in golden.TABLE2_N)
    _report(3, got == golden.TABLE2_H_UPPER, 1.0, time.time() - t0,
            f"halving upper bounds for n=28..33: {got}")


def test_criterion_04_section5_table():
    t0 = time.time()
    got = {n: bounds.cr_lower_bound(n, "section5").value for n in golden.SECTION5_CR}
    ok = got == golden.SECTION5_CR and got[28] == 7233 and got[50] == 84146 and got[99] == 1402932
    _report(4, ok, 5.0, time.time() - t0, "all 72 published values for 28 <= n <= 99")


def test_criterion_05_sr_tightness():
    t0 = time.time()
    bad = []
    for r in (3, 4, 5):
        res = build_sr(SrConfig(r=r))
        for k in range(4 * r):
            if res.edge_vector.leq(k) != sr_expected_leq(r, k):
                bad.append((r, k))
    _report(5, not bad, 120.0, time.time() - t0,
            "brute-force E_<=k of perturbed S_r equals the closed form for all "
            f"k <= 4r-1, r in (3,4,5); mismatches: {bad}")


def test_criterion_06_bichromatic_split(s3):
    t0 = time.time()
    levels = pair_levels(s3.perturbed.point_set)
    bad = []
    for k in range(12):
        bi, mono = count_bichromatic_monochromatic(s3.perturbed, k, levels)
        if (bi, mono) != (sr_expected_bichromatic(3, k), sr_expected_monochromatic(3, k)):
            bad.append((k, bi, mono))
    anchor = count_bichromatic_monochromatic(s3.perturbed, 11, levels)
    _report(6, not bad and anchor == (216, 39), 5.0, time.time() - t0,
            f"S_3 split matches for all k <= 11 (k=11: {anchor[0]} + {anchor[1]} = {sum(anchor)})")


def test_criterion_07_identity_suite(corpus):
    t0 = time.time()
    fails = 0
    for ps in corpus:
        ev = edge_vector_bruteforce(ps)
        h = halfperiod_from_points(ps, tie_break=True)
        f1, f2 = crossings_from_edge_vector(ev)
        if edge_vector_from_halfperiod(h) != ev or crossings_bruteforce(ps) != f1 or f1 != f2:
            fails += 1
    _report(7, fails == 0, 60.0, time.time() - t0,
            f"{len(corpus)} random sets, 5 <= n <= 12: brute force = identity form1 = form2, "
            "sweep edge vectors = brute force (zero tolerance)")


def test_criterion_08_central_sweep(corpus):
    t0 = time.time()
    violations = 0
    instances = 0
    for ps in corpus:
        h = halfperiod_from_points(ps, tie_break=True)
        for k in range(1, (ps.n - 1) // 2 + 1):
            instances += 1
            rep = verify_central(h, k)
            if not (rep.holds and all(rep.aux_checks.values())):
                violations += 1
    _report(8, violations == 0, 120.0, time.time() - t0,
            f"central inequality + weight/cutting checks on {instances} (halfperiod, k) "
            "instances (zero violations)")


def test_criterion_09_equality_constructions():
    t0 = time.time()
    ps = build_polygon_center(3, 9)
    ev = edge_vector_bruteforce(ps)
    s = compute_s(halfperiod_from_points(ps, tie_break=True), 3).s_value
    ok_pc = ev.counts[2] == 7 and ev.geq(3) == 15 and s == 2 \
        and ev.geq(3) == (9 - 2 * 3 - 1) * ev.counts[2] + bounds.comb2(s)
    ps = build_cluster_polygon(1, 3)
    ev = edge_vector_bruteforce(ps)
    s0 = compute_s(halfperiod_from_points(ps, tie_break=True), 3).s_value
    ok_cp = ev.counts[2] == 9 and ev.geq(3) == 18 and s0 == 0
    _report(9, ok_pc and ok_cp, 5.0, time.time() - t0,
            "polygon-center(k=3,n=9): E_2=7, E_>=3=15, s=2 with corollary equality; "
            "cluster-polygon(t=1,m=3): E_2=9, E_>=3=18, s=0")


def test_criterion_10_asymptotic_constants():
    t0 = time.time()
    rep = bounds.asymptotic_constants()
    ok = (rep["integral1_ok"] and rep["integral2_ok"] and rep["sum_ok"]
          and rep["crossing_constant_exceeds_0.379972"]
          and rep["three_decomposable_exceeds_0.380029"])
    _report(10, ok, 1.0, time.time() - t0,
            f"integrals = 86/243, 19/729 exactly (sum 277/729); "
            f"(2/27)(15-pi^2) = {rep['three_decomposable_constant']:.8f} > 0.380029")


def test_criterion_11_lemma_brackets():
    t0 = time.time()
    bad = [n for n in range(6, 201) if not bounds.lemma_brackets(n).ok]
    _report(11, not bad, 10.0, time.time() - t0,
            f"bracket lemmas hold exactly for all 6 <= n <= 200; failures: {bad}")
