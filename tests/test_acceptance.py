"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 5-9 read the selftest runners and `sr_audit`, so these
tests and `kedges selftest all` run one implementation of each check.
Every comparison is exact; the only tolerances are the wall-clock budgets
stated alongside each criterion.
"""

import time

import pytest

from kedges import bounds, golden
from kedges.constructions import sr_audit
from kedges.edgestats import pair_levels
from kedges.selftest import (
    build_corpus,
    run_central_suite,
    run_constructions_suite,
    run_identity_suite,
)

CORPUS_SEED = 20240901


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(trials=500, nmax=12, seed=CORPUS_SEED)


@pytest.fixture(scope="module")
def constructions():
    """One run of the constructions suite (S_3..S_5 and both equality
    constructions): its checks by name, and its wall time."""
    t0 = time.time()
    results = run_constructions_suite(rmax=5)
    return {name: (ok, detail) for name, ok, detail in results}, time.time() - t0


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
    got = tuple(bounds.cr_lower_bound(n) for n in golden.TABLE1_N)
    anchors = (bounds.cr_lower_bound(20),
               bounds.cr_lower_bound(23),
               bounds.cr_lower_bound(24))
    _report(2, got == golden.TABLE1_CR and anchors == (1657, 3077, 3699),
            1.0, time.time() - t0, f"crossing lower bounds for n=14..27: {got}")


def test_criterion_03_table2_upper():
    t0 = time.time()
    got = tuple(bounds.halving_upper_bound(n) for n in golden.TABLE2_N)
    _report(3, got == golden.TABLE2_H_UPPER, 1.0, time.time() - t0,
            f"halving upper bounds for n=28..33: {got}")


def test_criterion_04_section5_table():
    t0 = time.time()
    got = {n: bounds.cr_lower_bound(n) for n in golden.SECTION5_CR}
    ok = got == golden.SECTION5_CR and got[28] == 7233 and got[50] == 84146 and got[99] == 1402932
    _report(4, ok, 5.0, time.time() - t0, "all 72 published values for 28 <= n <= 99")


def test_criterion_05_sr_tightness(constructions):
    results, elapsed = constructions
    tight = (results["sr-tightness-r3"], results["sr-tightness-r4"], results["sr-tightness-r5"])
    _report(5, tight == ((True, "bad k: []"),) * 3, 120.0, elapsed,
            "E_<=k of perturbed S_r (sweep = radial orders) equals the closed form for all "
            f"k <= 4r-1, r in (3,4,5); {tight}")


def test_criterion_06_bichromatic_split(s3):
    t0 = time.time()
    rows = sr_audit(s3.perturbed, pair_levels(s3.perturbed))
    anchor = (rows[11].bi, rows[11].mono)
    _report(6, len(rows) == 12 and all(row.split_ok for row in rows) and anchor == (216, 39),
            5.0, time.time() - t0,
            f"S_3 split matches for all k <= 11 (k=11: {anchor[0]} + {anchor[1]} = {sum(anchor)})")


def test_criterion_07_identity_suite(corpus):
    t0 = time.time()
    [(name, ok, detail)] = run_identity_suite(corpus)
    _report(7, ok and name == "identity-suite-500-sets", 60.0, time.time() - t0,
            f"{len(corpus)} random sets, 5 <= n <= 12: radial cr = identity form1 = form2, "
            f"sweep pair levels = radial pair levels, brute force too for n <= 8 "
            f"(zero tolerance); {detail}")


def test_criterion_08_central_sweep(corpus):
    t0 = time.time()
    [(_, ok, detail)] = run_central_suite(corpus)
    _report(8, ok, 120.0, time.time() - t0,
            f"central inequality + weight/cutting checks on {detail} (zero violations)")


def test_criterion_09_equality_constructions(constructions):
    results, elapsed = constructions
    ok = (results["polygon-center-9"] == (True, "E_2=7 E_>=3=15 s=2")
          and results["cluster-polygon-9"] == (True, "E_2=9 E_>=3=18 s=0"))
    _report(9, ok, 5.0, elapsed,
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
    bad = [n for n in range(6, 201) if bounds.lemma_brackets(n)]
    _report(11, not bad, 10.0, time.time() - t0,
            f"bracket lemmas hold exactly for all 6 <= n <= 200; failures: {bad}")
