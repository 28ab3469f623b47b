"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion but 6 reads a selftest runner through a module
fixture: criteria 1-4, 10 and 11 the bounds suite, 5 and 9 the
constructions suite, 7 and 8 the identity and central suites on one
corpus, 8 also on the random reduced words; criterion 6 reads
`sr_audit`.  So these tests and `kedges selftest all` run one
implementation of each check, and the fixtures run every suite of
`selftest all` with its defaults.  The published anchor values
are asserted on the `golden` tables the runners compare against.  Every
comparison is exact; the only tolerances are the wall-clock budgets
stated alongside each criterion, each against its whole suite's time.
"""

import time

import pytest

from kedges import golden, selftest
from kedges.cli import build_parser, main
from kedges.constructions import sr_audit
from kedges.edgestats import pair_levels
from kedges.selftest import (
    SUITES,
    build_corpus,
    build_words,
    run_bounds_suite,
    run_central_suite,
    run_constructions_suite,
    run_identity_suite,
)

CORPUS_TRIALS, CORPUS_NMAX, CORPUS_SEED = 500, 12, 20240901
RMAX = 5


def _timed_checks(run):
    """One run of a suite: its checks by name, and its wall time."""
    t0 = time.time()
    results = run()
    return {name: (ok, detail) for name, ok, detail in results}, time.time() - t0


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(trials=CORPUS_TRIALS, nmax=CORPUS_NMAX, seed=CORPUS_SEED)


@pytest.fixture(scope="module")
def words():
    return build_words(trials=CORPUS_TRIALS, nmax=CORPUS_NMAX, seed=CORPUS_SEED)


@pytest.fixture(scope="module")
def bounds_suite():
    """The golden tables, the section 5 table, the bracket lemmas and the
    asymptotic constants."""
    return _timed_checks(run_bounds_suite)


@pytest.fixture(scope="module")
def constructions():
    """S_3..S_RMAX and both equality constructions."""
    return _timed_checks(lambda: run_constructions_suite(rmax=RMAX))


def _report(num, ok, budget, elapsed, desc):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {status}  ({elapsed:.2f}s / budget {budget:.0f}s)  {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_table1_halving(bounds_suite):
    results, elapsed = bounds_suite
    ok, detail = results["table1-halving"]
    _report(1, ok, 1.0, elapsed, f"halving upper bounds for n=14..27: {detail}")


def test_criterion_02_table1_crossings(bounds_suite):
    results, elapsed = bounds_suite
    ok, detail = results["table1-crossing"]
    table = dict(zip(golden.TABLE1_N, golden.TABLE1_CR))
    anchors = (table[20], table[23], table[24])
    _report(2, ok and anchors == (1657, 3077, 3699), 1.0, elapsed,
            f"crossing lower bounds for n=14..27: {detail}")


def test_criterion_03_table2_upper(bounds_suite):
    results, elapsed = bounds_suite
    ok, detail = results["table2-halving-upper"]
    _report(3, ok, 1.0, elapsed, f"halving upper bounds for n=28..33: {detail}")


def test_criterion_04_section5_table(bounds_suite):
    results, elapsed = bounds_suite
    ok, detail = results["section5-table"]
    table = golden.SECTION5_CR
    anchors = (table[28], table[50], table[99])
    _report(4, ok and len(table) == 72 and anchors == (7233, 84146, 1402932), 5.0, elapsed,
            f"all 72 published values for 28 <= n <= 99: {detail}")


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


def test_criterion_08_central_sweep(corpus, words):
    t0 = time.time()
    [(_, ok, detail)] = run_central_suite(corpus, words)
    _report(8, ok, 120.0, time.time() - t0,
            f"central inequality + weight/cutting checks on {detail} of {len(corpus)} "
            f"swept sets and {len(words)} random reduced words (zero violations)")


def test_criterion_09_equality_constructions(constructions):
    results, elapsed = constructions
    ok = (results["polygon-center-9"] == (True, "E_2=7 E_>=3=15 s=2")
          and results["cluster-polygon-9"] == (True, "E_2=9 E_>=3=18 s=0"))
    _report(9, ok, 5.0, elapsed,
            "polygon-center(k=3,n=9): E_2=7, E_>=3=15, s=2 with corollary equality; "
            "cluster-polygon(t=1,m=3): E_2=9, E_>=3=18, s=0")


def test_criterion_10_asymptotic_constants(bounds_suite):
    results, elapsed = bounds_suite
    ok, detail = results["asymptotic-constants"]
    _report(10, ok, 1.0, elapsed,
            f"integrals = 86/243, 19/729 exactly (sum 277/729), "
            f"(2/27)(15-pi^2) > 0.380029; {detail}")


def test_criterion_11_lemma_brackets(bounds_suite):
    results, elapsed = bounds_suite
    ok, detail = results["lemma-brackets-6..200"]
    _report(11, ok, 10.0, elapsed, f"bracket lemmas hold exactly for all 6 <= n <= 200; {detail}")


def test_fixtures_run_what_selftest_all_runs(monkeypatch, capsys):
    """The fixtures run all four suites of `kedges selftest all`, on its
    default corpus and words and with an rmax no lower than its default,
    so the tier-1 run covers every check that command makes: the command
    builds its corpus and words with the builders the fixtures call, on
    the same arguments, and hands them to the same runners."""
    args = build_parser().parse_args(["selftest", "all"])
    assert SUITES == ("bounds", "identities", "central", "constructions")
    assert (CORPUS_TRIALS, CORPUS_NMAX, CORPUS_SEED) == (args.trials, args.nmax, args.seed)
    assert RMAX >= args.rmax

    built, ran = {}, {}

    def builder(name):
        def build(trials, nmax, seed):
            built[name] = (trials, nmax, seed)
            return name
        return build

    def runner(name):
        def run(*inputs):
            ran[name] = inputs
            return []
        return run

    monkeypatch.setattr(selftest, "build_corpus", builder("corpus"))
    monkeypatch.setattr(selftest, "build_words", builder("words"))
    for name in ("run_bounds_suite", "run_identity_suite", "run_central_suite",
                 "run_constructions_suite"):
        monkeypatch.setattr(selftest, name, runner(name))
    main(["selftest", "all"])
    capsys.readouterr()
    defaults = (CORPUS_TRIALS, CORPUS_NMAX, CORPUS_SEED)
    assert built == {"corpus": defaults, "words": defaults}
    assert ran == {"run_bounds_suite": (), "run_identity_suite": ("corpus",),
                   "run_central_suite": ("corpus", "words"),
                   "run_constructions_suite": (args.rmax,)}
