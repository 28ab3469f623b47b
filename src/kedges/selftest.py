"""Self-contained verification suites behind `kedges selftest` and the
acceptance tests.

Each runner returns a list of (name, ok, detail) check results; a suite
passes iff every ok flag is True.  A failed certificate is always a
VerificationError, and each runner turns one into a failed check, so the
other checks still run.  The randomized suites take an explicit seed so
reruns are byte-identical: the identity and central suites share one
corpus of swept point sets, and the central suite also sweeps as many
random reduced words (abstract halfperiods, stretchable or not) drawn from
a second generator on the same seed.
"""

from __future__ import annotations

import random

from . import bounds, golden
from .central import verify_central
from .circseq import compute_s, halfperiod_from_points
from .constructions import (
    SrConfig,
    build_cluster_polygon,
    build_polygon_center,
    build_sr,
    check_3decomposable,
    sr_letter_partition,
    witness_failures,
)
from .edgestats import crossings_bruteforce, pair_levels, summarize
from .errors import InputError, RearrangementError, VerificationError
from .gensets import random_general_position_set, random_reduced_word


def _result(name, ok, detail=""):
    return (name, bool(ok), detail)


def run_bounds_suite() -> list:
    """Golden-table reproduction plus the exact bracket lemmas."""
    out = []
    h = [bounds.halving_upper_bound(n) for n in golden.TABLE1_N]
    out.append(_result("table1-halving", tuple(h) == golden.TABLE1_H, f"{h}"))
    cr = [bounds.cr_lower_bound(n) for n in golden.TABLE1_N]
    out.append(_result("table1-crossing", tuple(cr) == golden.TABLE1_CR, f"{cr}"))
    h2 = [bounds.halving_upper_bound(n) for n in golden.TABLE2_N]
    out.append(_result("table2-halving-upper", tuple(h2) == golden.TABLE2_H_UPPER, f"{h2}"))
    got5 = {n: bounds.cr_lower_bound(n) for n in golden.SECTION5_CR}
    bad = {n: (got5[n], want) for n, want in golden.SECTION5_CR.items() if got5[n] != want}
    out.append(_result("section5-table", not bad, f"mismatches: {bad}" if bad else "72/72"))
    bracket_bad = [n for n in range(6, 201) if bounds.lemma_brackets(n)]
    out.append(_result("lemma-brackets-6..200", not bracket_bad, f"failures: {bracket_bad}"))
    rep = bounds.asymptotic_constants()
    out.append(
        _result(
            "asymptotic-constants",
            rep["integral1_ok"] and rep["integral2_ok"] and rep["sum_ok"]
            and rep["crossing_constant_exceeds_0.379972"]
            and rep["three_decomposable_exceeds_0.380029"],
            f"I1={float(rep['integral1']):.12f} I2={float(rep['integral2']):.12f}",
        )
    )
    return out


def build_corpus(trials: int, nmax: int, seed: int):
    """`trials` random general-position sets, 5 <= n <= nmax, from one
    seeded generator, each with its halfperiod: the identity and central
    suites share one sweep per set."""
    rng = random.Random(seed)
    sets = [random_general_position_set(rng.randrange(5, nmax + 1), rng) for _ in range(trials)]
    return [(ps, halfperiod_from_points(ps)) for ps in sets]


def build_words(trials: int, nmax: int, seed: int):
    """`trials` random reduced words of the reversal, 5 <= n <= nmax, from
    their own seeded generator, so the corpus is the same with or without
    them: the central suite's abstract halfperiods."""
    rng = random.Random(seed)
    return [random_reduced_word(rng.randrange(5, nmax + 1), rng) for _ in range(trials)]


# Corpus sets up to this size are also checked against the O(n^3) and
# O(n^4) oracles (pair_levels, crossings_bruteforce).
ORACLE_NMAX = 8


def run_identity_suite(corpus) -> list:
    """edgestats.summarize on every corpus set: the sweep's pair levels vs
    the radial orders', and the radial crossing count vs both identity
    forms; sets with n <= ORACLE_NMAX are also checked against brute
    force.  Zero tolerance; a raised VerificationError is a failed set."""
    fails = []
    for idx, (ps, h) in enumerate(corpus):
        try:
            _, crossings = summarize(ps, h)
            if ps.n <= ORACLE_NMAX:
                if pair_levels(ps) != h.point_levels:
                    raise VerificationError("pair levels differ from brute force")
                if crossings_bruteforce(ps) != crossings:
                    raise VerificationError("crossings differ from brute force")
        except VerificationError as exc:
            fails.append((idx, ps.n, str(exc)))
    return [
        _result(
            f"identity-suite-{len(corpus)}-sets",
            not fails,
            f"failures: {fails[:3]}" if fails else f"{len(corpus)} sets, exact agreement",
        )
    ]


def run_central_suite(corpus, words) -> list:
    """verify_central on every corpus halfperiod, then on every word, for
    every admissible k, including all auxiliary weight/cutting checks on
    the rearranged halfperiods.  Zero violations expected; a
    RearrangementError is a failed instance."""
    fails = []
    instances = 0
    for idx, h in enumerate([h for _, h in corpus] + words):
        for k in range(1, (h.n - 1) // 2 + 1):
            instances += 1
            try:
                rep = verify_central(h, k)
            except RearrangementError as exc:
                fails.append((idx, h.n, k, str(exc)))
                continue
            if not rep.all_ok:
                fails.append((idx, h.n, k, rep.aux_checks))
    return [
        _result(
            "central-theorem-sweep",
            not fails,
            f"failures: {fails[:3]}" if fails else f"{instances} (halfperiod, k) instances",
        )
    ]


def _equality_check(name, build):
    """One check on an equality construction at k = 3: build() certifies
    its closed forms, so the check fails only on its VerificationError;
    the detail reports E_2, E_>=3 and s of the certified halfperiod."""
    try:
        _, h = build()
    except VerificationError as exc:
        return _result(name, False, str(exc))
    counts = h.level_counts
    return _result(name, True, f"E_2={counts[2]} E_>=3={sum(counts[3:])} s={compute_s(h, 3)}")


def run_constructions_suite(rmax: int) -> list:
    """S_r tightness and split audits for 3 <= r <= rmax, plus both
    equality constructions.  A builder's VerificationError is one failed
    check: sr-certificate-r{r} in place of that r's three, or the equality
    construction's own check, with the message as its detail."""
    out = []
    for r in range(3, rmax + 1):
        try:
            res = build_sr(SrConfig(r=r))
        except VerificationError as exc:
            out.append(_result(f"sr-certificate-r{r}", False, str(exc)))
            continue
        rows = res.audit
        bad = [row.k for row in rows if not row.tight]
        out.append(_result(f"sr-tightness-r{r}", not bad, f"bad k: {bad}"))
        split_bad = [row.k for row in rows if not row.split_ok]
        out.append(_result(f"sr-split-r{r}", not split_bad, f"bad k: {split_bad}"))
        ps, partition = res.perturbed, sr_letter_partition(r)
        witness = check_3decomposable(ps, partition)
        bad = [0, 1, 2] if witness is None else witness_failures(ps, partition, witness)
        out.append(_result(f"sr-3decomposable-r{r}", not bad, f"failing parts: {bad}" if bad else ""))

    out.append(_equality_check("polygon-center-9", lambda: build_polygon_center(3, 9)))
    out.append(_equality_check("cluster-polygon-9", lambda: build_cluster_polygon(1, 3)))
    return out


SUITES = ("bounds", "identities", "central", "constructions")


def run_scope(scope: str, trials: int, nmax: int, rmax: int, seed: int) -> list:
    """Run one suite of SUITES, or all four in order for 'all' (the CLI's
    parser admits no other scope).  Every argument the chosen suites use
    is checked before any of them runs, and the identity and central
    suites share one corpus; the central suite also runs the words."""
    names = SUITES if scope == "all" else (scope,)
    uses_corpus = "identities" in names or "central" in names
    if uses_corpus and (trials < 1 or nmax < 5):
        raise InputError(f"need trials >= 1 and nmax >= 5, got trials={trials}, nmax={nmax}")
    if "constructions" in names and rmax < 3:
        raise InputError(f"need rmax >= 3 (S_r exists for r >= 3), got rmax={rmax}")
    corpus = build_corpus(trials, nmax, seed) if uses_corpus else None
    out = []
    if "bounds" in names:
        out += run_bounds_suite()
    if "identities" in names:
        out += run_identity_suite(corpus)
    if "central" in names:
        out += run_central_suite(corpus, build_words(trials, nmax, seed))
    if "constructions" in names:
        out += run_constructions_suite(rmax)
    return out
