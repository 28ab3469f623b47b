"""Edge vectors, crossing counts, and the linking identity."""

import random
from fractions import Fraction
from math import comb

import pytest

from kedges.circseq import halfperiod_from_points
from kedges.edgestats import (
    EdgeVector,
    crossings_bruteforce,
    crossings_from_edge_vector,
    edge_vector_bruteforce,
    edge_vector_from_halfperiod,
    identity_leq_form,
    summarize,
)
from kedges.errors import InputError
from kedges.gensets import convex_polygon_set, random_general_position_set
from kedges.geom import P, PointSet


def test_convex_small_vectors():
    quad = PointSet([P(0, 0), P(7, 1), P(5, 6), P(1, 3)])
    assert edge_vector_bruteforce(quad).counts == (4, 2)
    hexagon = convex_polygon_set(6)
    assert edge_vector_bruteforce(hexagon).counts == (6, 6, 3)


def test_convex_position_pattern():
    for n in (8, 9, 10, 11):
        ev = edge_vector_bruteforce(convex_polygon_set(n))
        assert all(c == n for c in ev.counts[:-1])
        assert ev.counts[-1] == (n // 2 if n % 2 == 0 else n)
        assert crossings_bruteforce(convex_polygon_set(n)) == comb(n, 4)


def test_halfperiod_route_convex_hexagon():
    h = halfperiod_from_points(convex_polygon_set(6), tie_break=True)
    assert edge_vector_from_halfperiod(h).counts == (6, 6, 3)


def test_halfperiod_route_matches_bruteforce():
    rng = random.Random(17)
    for _ in range(25):
        ps = random_general_position_set(rng.randrange(5, 11), rng)
        ev = edge_vector_bruteforce(ps)
        h = halfperiod_from_points(ps, tie_break=True)
        assert edge_vector_from_halfperiod(h) == ev


def test_crossings_small_cases():
    assert crossings_bruteforce(PointSet([P(0, 0), P(7, 1), P(5, 6), P(1, 3)])) == 1
    assert crossings_bruteforce(PointSet([P(0, 0), P(4, 0), P(0, 4), P(1, 1)])) == 0
    assert crossings_bruteforce(convex_polygon_set(6)) == 15


def test_identity_hand_evaluation_n6():
    v = EdgeVector(6, (6, 6, 3))
    f1, f2 = crossings_from_edge_vector(v)
    assert f1 == 3 * 15 - (0 + 1 * 3 * 6 + 2 * 2 * 3) == 15
    assert f2 == 15


def test_identity_leq_form_lower_bound_vector_n24():
    # the worked bound pipeline value: entry-wise lower bounds for E_<=k
    leq = [3, 9, 18, 30, 45, 63, 84, 108, 138, 174, 225]
    assert identity_leq_form(24, leq) == 3699
    # a value that is not a whole number is a kernel bug, not bad input
    with pytest.raises(AssertionError, match="not an integer"):
        identity_leq_form(24, [Fraction(1, 16)] + leq[1:])


def test_identity_on_random_sets():
    rng = random.Random(29)
    for _ in range(30):
        ps = random_general_position_set(rng.randrange(5, 11), rng)
        ev = edge_vector_bruteforce(ps)
        f1, f2 = crossings_from_edge_vector(ev)
        assert f1 == f2 == crossings_bruteforce(ps)


def test_edge_vector_validation():
    with pytest.raises(InputError, match="sum"):
        EdgeVector(6, (6, 6, 2)).validate()
    with pytest.raises(InputError, match="entries"):
        EdgeVector(6, (6, 9)).validate()
    with pytest.raises(InputError):
        crossings_from_edge_vector(EdgeVector(6, (6, 6, 2)))


def test_e_leq_monotone_and_total():
    rng = random.Random(31)
    ps = random_general_position_set(10, rng)
    ev = edge_vector_bruteforce(ps)
    leq = ev.e_leq
    assert all(leq[i] <= leq[i + 1] for i in range(len(leq) - 1))
    assert leq[-1] == comb(10, 2)
    assert ev.halving == ev.counts[-1]


def test_summarize_convex_octagon():
    rep = summarize(convex_polygon_set(8))
    assert rep.crossings == 70
    assert rep.halving_lines == 4
    assert rep.consistent
    assert rep.cr_radial == 70


def test_summarize_halfperiod_input():
    # summarize takes point sets only; a halfperiod's crossing number is
    # read off its edge vector by both identity forms
    h = halfperiod_from_points(convex_polygon_set(7), tie_break=True)
    assert crossings_from_edge_vector(edge_vector_from_halfperiod(h)) == (comb(7, 4), comb(7, 4))


def test_min_edge_count_lower_bound():
    # E_{k-1} >= 2k+1 on every halfperiod (minimum possible value).
    rng = random.Random(37)
    for _ in range(20):
        ps = random_general_position_set(rng.randrange(5, 11), rng)
        ev = edge_vector_bruteforce(ps)
        for k in range(1, (ps.n - 1) // 2 + 1):
            assert ev.counts[k - 1] >= 2 * k + 1
