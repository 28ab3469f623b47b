"""Edge vectors, crossing counts, and the linking identity."""

import random
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest

from kedges.circseq import halfperiod_from_points
from kedges.edgestats import (
    crossings_bruteforce,
    identity_leq_form,
    summarize,
)
from kedges.errors import InputError, VerificationError
from kedges.gensets import random_general_position_set
from kedges.geom import PointSet
from oracles import P, convex_polygon_set, edge_vector_bruteforce


def _identity_forms(n, counts):
    """Both closed forms of the identity on the edge vector (E_0, ...) of an
    n-point set."""
    form1 = 3 * comb(n, 4) - sum(k * (n - k - 2) * ek for k, ek in enumerate(counts))
    return form1, identity_leq_form(n, accumulate(counts))


def test_convex_small_vectors():
    quad = PointSet([P(0, 0), P(7, 1), P(5, 6), P(1, 3)])
    assert edge_vector_bruteforce(quad) == (4, 2)
    hexagon = convex_polygon_set(6)
    assert edge_vector_bruteforce(hexagon) == (6, 6, 3)


def test_convex_position_pattern():
    for n in (8, 9, 10, 11):
        ev = edge_vector_bruteforce(convex_polygon_set(n))
        assert all(c == n for c in ev[:-1])
        assert ev[-1] == (n // 2 if n % 2 == 0 else n)
        assert crossings_bruteforce(convex_polygon_set(n)) == comb(n, 4)


def test_halfperiod_route_convex_hexagon():
    h = halfperiod_from_points(convex_polygon_set(6))
    assert h.level_counts == (6, 6, 3)


def test_halfperiod_route_matches_bruteforce():
    rng = random.Random(17)
    for _ in range(25):
        ps = random_general_position_set(rng.randrange(5, 11), rng)
        ev = edge_vector_bruteforce(ps)
        h = halfperiod_from_points(ps)
        assert h.level_counts == ev


def test_crossings_small_cases():
    assert crossings_bruteforce(PointSet([P(0, 0), P(7, 1), P(5, 6), P(1, 3)])) == 1
    assert crossings_bruteforce(PointSet([P(0, 0), P(4, 0), P(0, 4), P(1, 1)])) == 0
    assert crossings_bruteforce(convex_polygon_set(6)) == 15


def test_identity_hand_evaluation_n6():
    f1, f2 = _identity_forms(6, (6, 6, 3))
    assert f1 == 3 * 15 - (0 + 1 * 3 * 6 + 2 * 2 * 3) == 15
    assert f2 == 15


def test_identity_leq_form_lower_bound_vector_n24():
    # the worked bound pipeline value: entry-wise lower bounds for E_<=k
    leq = [3, 9, 18, 30, 45, 63, 84, 108, 138, 174, 225]
    assert identity_leq_form(24, leq) == 3699
    # a value that is not a whole number is a kernel bug, not bad input
    with pytest.raises(VerificationError, match="not an integer"):
        identity_leq_form(24, [Fraction(1, 16)] + leq[1:])
    # fewer values than k = 0..n/2-2 is bad input
    with pytest.raises(InputError, match=r"need E_<=k values for k = 0\.\.10"):
        identity_leq_form(24, leq[:-1])


def test_identity_on_random_sets():
    rng = random.Random(29)
    for _ in range(30):
        ps = random_general_position_set(rng.randrange(5, 11), rng)
        ev = edge_vector_bruteforce(ps)
        f1, f2 = _identity_forms(ps.n, ev)
        assert f1 == f2 == crossings_bruteforce(ps)
        assert summarize(ps) == (ev, f1)


def test_e_leq_monotone_and_total():
    rng = random.Random(31)
    ps = random_general_position_set(10, rng)
    ev = edge_vector_bruteforce(ps)
    leq = list(accumulate(ev))
    assert all(leq[i] <= leq[i + 1] for i in range(len(leq) - 1))
    assert leq[-1] == comb(10, 2)


def test_summarize_convex_octagon():
    counts, crossings = summarize(convex_polygon_set(8))
    assert crossings == 70
    assert counts == (8, 8, 8, 4)  # the last entry is the halving-line count


def test_summarize_halfperiod_input():
    # summarize takes point sets only; a halfperiod's crossing number is
    # read off its edge vector by both identity forms
    h = halfperiod_from_points(convex_polygon_set(7))
    assert _identity_forms(7, h.level_counts) == (comb(7, 4), comb(7, 4))


def test_min_edge_count_lower_bound():
    # E_{k-1} >= 2k+1 on every halfperiod (minimum possible value).
    rng = random.Random(37)
    for _ in range(20):
        ps = random_general_position_set(rng.randrange(5, 11), rng)
        ev = edge_vector_bruteforce(ps)
        for k in range(1, (ps.n - 1) // 2 + 1):
            assert ev[k - 1] >= 2 * k + 1
