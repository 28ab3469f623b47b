"""Bound formulas, recursions, the crossing pipeline, and exact bracket checks."""

from fractions import Fraction
from math import comb

import pytest

from kedges import golden
from kedges.bounds import (
    aichholzer_bound,
    asymptotic_constants,
    bound_table,
    comb2,
    cr_lower_bound,
    explicit_bound,
    halving_upper_bound,
    lemma_brackets,
    m_start,
    u_prime_sequence,
    u_sequence,
)
from kedges.edgestats import identity_leq_form
from kedges.errors import InputError


def test_aichholzer_anchors():
    assert aichholzer_bound(24, 8) == 138
    assert aichholzer_bound(24, 9) == 174
    assert aichholzer_bound(20, 6) == 84 + 3 - 2 == 85
    assert aichholzer_bound(9, 0) == 3
    with pytest.raises(InputError):
        aichholzer_bound(24, 12)
    with pytest.raises(InputError):
        aichholzer_bound(24, -1)


def test_u_sequence_anchors():
    u = u_sequence(27)
    assert m_start(27) == 11
    assert (u[10], u[11], u[12]) == (207, 255, 351)
    assert u[12] == comb(27, 2)
    u = u_sequence(28)
    assert (u[11], u[12]) == (249, 314)
    u = u_sequence(20)
    assert (u[7], u[8]) == (113, 152)


def test_u_sequence_seed_is_the_papers_term():
    # the paper's seed 3 C(m+1,2) + 3 C(m+1-q,2) - 3 (m-q) (n/3 - q), with
    # q = floor(n/3), whose last term is the integer (m-q) (n-3q): the
    # closed form at m - 1 that u_sequence is seeded with
    for n in range(3, 2001):
        m, q = m_start(n), n // 3
        seed = 3 * comb2(m + 1) + 3 * comb2(m + 1 - q) - (m - q) * (n - 3 * q)
        assert u_sequence(n)[m - 1] == seed


def test_u_sequence_properties():
    for n in range(9, 120):
        u = u_sequence(n)
        ks = sorted(u)
        assert ks[0] == m_start(n) - 1
        assert ks[-1] == (n - 3) // 2
        # nondecreasing, capped by C(n,2), seed equals the closed form
        assert all(u[a] <= u[b] for a, b in zip(ks, ks[1:]))
        assert all(v <= comb(n, 2) for v in u.values())
        assert u[ks[0]] == aichholzer_bound(n, ks[0])
        # the recursion dominates the closed form on its whole range
        assert all(u[k] >= aichholzer_bound(n, k) for k in ks)
        if n % 2 == 1:
            assert u[ks[-1]] == comb(n, 2)


def _explicit_cmp(n, k, q) -> int:
    """The sign of C(n,2) - (1/9) sqrt(1-(2k+2)/n) (5n^2+19n-31) - q,
    decided exactly: diff = C(n,2) - q against b sqrt(r) by squaring."""
    diff = comb(n, 2) - Fraction(q)
    b, r = Fraction(5 * n * n + 19 * n - 31, 9), Fraction(n - 2 * k - 2, n)
    if diff < 0:
        return -1
    sq = diff * diff - b * b * r
    return (sq > 0) - (sq < 0)


def test_explicit_bound_values():
    assert abs(explicit_bound(27, 11) - (351 - 4127 / 27)) < 1e-9
    assert _explicit_cmp(27, 11, u_sequence(27)[11]) <= 0  # 255
    assert _explicit_cmp(27, 11, 256) < 0
    assert _explicit_cmp(27, 11, 198) > 0
    # radicand 0 at k = (n-2)/2 for even n: the bound reaches C(n,2)
    assert explicit_bound(30, 14) == comb(30, 2) and _explicit_cmp(30, 14, comb(30, 2)) == 0
    assert _explicit_cmp(36, 16, u_prime_sequence(36)[16]) <= 0
    with pytest.raises(InputError, match="below range"):
        explicit_bound(27, 5)
    with pytest.raises(InputError, match="above range"):
        explicit_bound(27, 13)


def test_explicit_bound_is_the_float_of_the_exact_form():
    # each quotient rounded once, then one square root: the float of
    # C(n,2) - b sqrt(r) with b and r the exact rationals
    for n in range(3, 201):
        b = Fraction(5 * n * n + 19 * n - 31, 9)
        for k in range(m_start(n) - 1, (n - 2) // 2 + 1):
            r = Fraction(n - 2 * k - 2, n)
            assert explicit_bound(n, k) == float(comb(n, 2)) - float(b) * float(r) ** 0.5


def test_halving_upper_bound_anchors():
    table1 = {14: 22, 16: 27, 18: 33, 20: 38, 22: 44, 23: 75,
              24: 51, 25: 85, 26: 57, 27: 96}
    for n, v in table1.items():
        assert halving_upper_bound(n) == v
    table2 = {28: 64, 29: 107, 30: 72, 31: 118, 32: 79, 33: 130}
    for n, v in table2.items():
        assert halving_upper_bound(n) == v
    # n = 29 lands exactly on 1926/18 = 107: the floor boundary case
    assert Fraction(26 * 74, 18) + Fraction(1, 9) == 107
    with pytest.raises(InputError):
        halving_upper_bound(7)


def test_cr_lower_bound_anchors():
    assert cr_lower_bound(24) == 3699
    assert cr_lower_bound(23) == 3077
    assert cr_lower_bound(20) == 1657
    assert cr_lower_bound(28) == 7233
    assert cr_lower_bound(50) == 84146
    assert cr_lower_bound(99) == 1402932
    with pytest.raises(InputError, match="n >= 8"):
        cr_lower_bound(7)


def _table1_rows(n):
    """The per-k rows of the deleted `table1` pipeline: the closed form below
    the top k, then C(n,2) - halving_upper_bound(n) at k = floor(n/2)-2."""
    top = n // 2 - 2
    rows = [(k, aichholzer_bound(n, k), "aichholzer") for k in range(top)]
    return rows + [(top, comb(n, 2) - halving_upper_bound(n), "halving")]


# The n where the table1 rows give the same crossing bound as cr_lower_bound.
TABLE1_EQUAL_N = {8, 9, 10, 12, 14, 16, 18, *range(20, 29), 30, 31, 33, 35, 39}


def test_table1_oracle_never_beats_cr_lower_bound():
    oracle = {n: identity_leq_form(n, [b for _, b, _ in _table1_rows(n)]) for n in range(8, 400)}
    value = {n: cr_lower_bound(n) for n in oracle}
    assert [n for n in oracle if oracle[n] > value[n]] == []
    assert {n for n in oracle if oracle[n] == value[n]} == TABLE1_EQUAL_N
    # every Table 1 n is among them, so the one pipeline still reproduces Table 1
    assert tuple(oracle[n] for n in golden.TABLE1_N) == golden.TABLE1_CR


def test_cr_bound_sources():
    # cr_lower_bound sums the bound table's best rows for k <= n/2 - 2, the
    # rows `cr-bound --format json` prints
    rows = bound_table(28)[:13]
    assert rows[0].source == "aichholzer"
    assert rows[12].source == "u_k"
    assert identity_leq_form(28, [r.best for r in rows]) == cr_lower_bound(28) == 7233
    rows = _table1_rows(24)
    assert rows[-1][2] == "halving"
    assert rows[-1][1] == comb(24, 2) - 51


def test_cr_lower_bound_gap_to_the_abstract_constant():
    # 277/729 C(n,4) - cr_lower_bound(n) grows like c n^3, c about 0.0296:
    # the abstract's "277/729 C(n,4) + Theta(n^3)" for this pipeline
    gaps = [(Fraction(277, 729) * comb(n, 4) - cr_lower_bound(n)) / n**3
            for n in (10**3, 10**4, 10**5)]
    assert all(Fraction("0.0294") < g < Fraction("0.0297") for g in gaps), [float(g) for g in gaps]
    assert gaps[0] < gaps[1] < gaps[2]


def test_u_prime_sequence():
    assert u_prime_sequence(36) == {16: 522}
    up = u_prime_sequence(72)
    assert up[33] == 3 * comb(35, 2) + 3 * comb(11, 2) + 18 * comb(3, 2) == 2004
    with pytest.raises(InputError, match="36"):
        u_prime_sequence(27)


def test_asymptotic_constants():
    rep = asymptotic_constants()
    assert rep["integral1"] == Fraction(86, 243)
    assert rep["integral2"] == Fraction(19, 729)
    assert rep["sum"] == Fraction(277, 729)
    assert rep["crossing_constant_exceeds_0.379972"]
    assert rep["three_decomposable_exceeds_0.380029"]


def test_lemma_brackets_spot():
    assert lemma_brackets(27) == ()
    assert lemma_brackets(41) == ()
    for n in range(6, 41):
        # small-n range is empty or a single k; both must pass
        assert lemma_brackets(n) == ()


def test_bound_table_structure():
    rows = bound_table(27)
    assert [r.k for r in rows] == list(range(13))
    best = [r.best for r in rows]
    assert all(a <= b for a, b in zip(best, best[1:]))
    assert best[11] == 255 and rows[11].source == "u_k"
    assert best[10] == 207
    row36 = bound_table(36, with_u_prime=True)[16]
    assert row36.u_prime_k == 522
    # the conditional 3-regular column never feeds `best`
    assert row36.best == max(row36.aichholzer, row36.u_k)


def test_reported_bounds_never_exceed_all_edges():
    # E_<=k(n) <= C(n,2), with equality at k = floor(n/2) - 1
    for n in range(5, 201):
        for row in bound_table(n):
            assert row.aichholzer <= comb(n, 2) and row.best <= comb(n, 2), (n, row)
    assert aichholzer_bound(12, 5) == 66 and bound_table(16)[7].best == 120
