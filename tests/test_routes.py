"""The two routes for every point-set count, and the exact float filter
of the sorts they make.

Route A is the sweep (`Halfperiod.point_levels`, cr by the identity),
route B the radial orders (`edgestats.radial_counts`); both must equal
the brute-force oracles (`pair_levels`, `crossings_bruteforce`).  The
planted cases put float keys in the filter's way: directions whose
quotients round to the same float but differ exactly, quotients too large
for a float, and exactly parallel pairs.
"""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from kedges.circseq import halfperiod_from_points
from kedges.constructions import SrConfig, build_sr, sr_audit
from kedges.edgestats import (
    crossings_bruteforce,
    pair_levels,
    radial_counts,
    summarize,
)
from kedges.errors import GeneralPositionError
from kedges.geom import Point, PointSet, _event_cmp, _event_direction
from oracles import P, collinear_triples, edge_vector_bruteforce, line_triples

BOXES = (16, 256, 10**4, 10**6, 10**9)


def _general_position(rng, n, draw):
    """n points from draw(rng), each redrawn while it is a duplicate or
    collinear with two points already taken."""
    pts = []
    while len(pts) < n:
        c = draw(rng)
        if c in pts or any(
            (pts[j][0] - pts[i][0]) * (c[1] - pts[i][1]) == (pts[j][1] - pts[i][1]) * (c[0] - pts[i][0])
            for i in range(len(pts)) for j in range(i + 1, len(pts))
        ):
            continue
        pts.append(c)
    return PointSet([Point(Fraction(x), Fraction(y)) for x, y in pts])


def _random_sets():
    rng = random.Random(20261018)
    for _ in range(300):
        box = rng.choice(BOXES)
        n = rng.randint(4, 9 if box == 16 else 29)
        yield _general_position(rng, n, lambda r: (r.randrange(box), r.randrange(box)))
    for _ in range(40):  # rational coordinates: W > 1 in the homogeneous form
        n = rng.randint(4, 16)
        yield _general_position(rng, n, lambda r: (Fraction(r.randrange(-10**6, 10**6), r.randint(1, 997)),
                                                         Fraction(r.randrange(-10**6, 10**6), r.randint(1, 997))))


def _assert_routes_agree(ps):
    h = halfperiod_from_points(ps)
    levels, cr = radial_counts(ps)
    assert h.point_levels == levels == pair_levels(ps)
    assert (h.level_counts, cr) == summarize(ps, h)
    assert cr == crossings_bruteforce(ps)


def test_routes_agree_on_random_sets():
    sets = list(_random_sets())
    assert any(max(p.x.denominator for p in ps) > 1 for ps in sets)
    for ps in sets:
        _assert_routes_agree(ps)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_routes_agree_on_sr(r):
    res = build_sr(SrConfig(r=r))
    _assert_routes_agree(res.perturbed)
    h = halfperiod_from_points(res.perturbed)
    assert h.point_levels == pair_levels(res.perturbed)
    assert h.level_counts == edge_vector_bruteforce(res.perturbed)
    assert res.audit == tuple(sr_audit(res.perturbed, h.point_levels))


def _old_angles(ps):
    """The event order of one cmp_to_key sort on the exact comparator,
    grouped into runs of exactly parallel directions."""
    hom = ps.homogeneous
    events = []
    for i, (xi, yi, wi) in enumerate(hom):
        for j in range(i + 1, len(hom)):
            xj, yj, wj = hom[j]
            events.append((_event_direction(xj * wi - xi * wj, yj * wi - yi * wj), i, j))
    events.sort(key=cmp_to_key(_event_cmp))
    runs = []
    for ev in events:
        if runs and _event_cmp(ev, runs[-1][0]) == 0:
            runs[-1].append(ev)
        else:
            runs.append([ev])
    return tuple(map(tuple, runs))


def _float_key(direction):
    a, b = direction
    return -a / b if b else float("-inf")


BIG = 10**17  # float spacing at 1e17 is 16, so BIG and BIG + 1 round alike
HUGE = 10**2000

PLANTED = {
    # Slopes 1/BIG and 1/(BIG + 1): the keys round to one float.
    "float-ties": [P(0, 0), P(BIG, 1), P(BIG + 1, 1), P(-BIG - 3, -1), P(5, -7), P(-3, 11), P(2, 9)],
    # Directions with |a/b| beyond the float range, and one with b = 0.
    "overflow": [P(0, 0), P(1, HUGE), P(2, HUGE + 1), P(HUGE, 3), P(-7, 5), P(4, -9)],
    # A 3 x 3 grid and one rational point: runs of exactly parallel pairs.
    "parallel": [P(x, y) for x in range(3) for y in range(3)] + [P(Fraction(1, 3), Fraction(2, 7))],
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_angles_equal_the_exact_comparator_sort(name):
    ps = PointSet(PLANTED[name])
    old = _old_angles(ps)
    assert ps.angles == old
    directions = [ev[0] for run in old for ev in run]
    if name == "float-ties":  # some keys tie in float but not exactly
        keys = {}
        for d in directions:
            keys.setdefault(_float_key(d), set()).add(Fraction(d[0], d[1]) if d[1] else None)
        assert any(len(exact) > 1 for exact in keys.values())
    if name == "overflow":
        assert any(b and abs(a) // b > 10**400 for a, b in directions)
    if name == "parallel":
        assert any(len(run) > 1 for run in old)


@pytest.mark.parametrize("name", ["float-ties", "overflow"])
def test_radial_counts_decide_float_ties_exactly(name):
    ps = PointSet(PLANTED[name])
    assert ps.general_position
    _assert_routes_agree(ps)


def test_radial_counts_reject_collinear_triples():
    # Collinear with p between q and r (antipodal directions), and with q
    # and r on one side (parallel directions in one half turn).
    for pts in ([P(0, 0), P(BIG, 1), P(-BIG, -1), P(3, 7)],
                [P(0, 0), P(BIG, 1), P(2 * BIG, 2), P(3, 7)]):
        with pytest.raises(GeneralPositionError):
            radial_counts(PointSet(pts))


def _folded(ps, p):
    """(float key, half, exact slope) of each direction q - p folded into
    the upper half turn, the way route B sorts them around p; the slope
    -dx/dy is None at dy = 0."""
    out = []
    for q in range(ps.n):
        if q != p:
            dx, dy = ps.points[q].x - ps.points[p].x, ps.points[q].y - ps.points[p].y
            half = dy < 0 or (dy == 0 and dx < 0)
            if half:
                dx, dy = -dx, -dy
            try:
                key = float(-dx / dy) if dy else float("-inf")
            except OverflowError:
                key = float("inf") if dx < 0 else float("-inf")
            out.append((key, half, -dx / dy if dy else None))
    return out


def _straddling(ps):
    """The points around which two folded directions from different halves
    have one float key but differ exactly."""
    out = set()
    for p in range(ps.n):
        around = _folded(ps, p)
        if any(k1 == k2 and h1 != h2 and e1 != e2
               for k1, h1, e1 in around for k2, h2, e2 in around):
            out.add(p)
    return out


# Points on the convex curve (i * BIG + i(i+1)/2, i), plus two off it:
# around every inner point i the neighbours on either side fold to slopes
# -(BIG + i) and -(BIG + i + 1), which round to one float.
STRADDLE = [P(i * BIG + i * (i + 1) // 2, i) for i in range(6)] + [P(5, -7), P(-3 * BIG, 11)]


def test_radial_counts_merge_float_ties_across_the_half_turns():
    ps = PointSet(STRADDLE)
    assert ps.general_position
    assert {1, 2, 3, 4} <= _straddling(ps)
    _assert_routes_agree(ps)


def test_radial_counts_merge_overflow_keys_in_both_halves():
    # Around point 2 (the origin) four directions overflow a float, two in
    # each half turn and of both signs, and one horizontal direction keys
    # as -inf like the negative overflows.
    pts = [P(HUGE, 1), P(-HUGE, 1), P(0, 0), P(-HUGE - 1, -1), P(HUGE + 2, -1), P(7, 0), P(3, 5)]
    ps = PointSet(pts)
    assert ps.general_position
    around = {(key, half) for key, half, _ in _folded(ps, 2)}
    inf = float("inf")
    assert {(inf, False), (inf, True), (-inf, False), (-inf, True)} <= around
    _assert_routes_agree(ps)


@pytest.mark.parametrize("far", [-BIG, 2 * BIG])
def test_radial_counts_name_the_collinear_triple_away_from_point_0(far):
    # Point 1 is between points 2 and 3 (far = -BIG: antipodal directions
    # around it) or at one end (far = 2 BIG: one direction twice), among
    # float-equal keys that differ exactly (BIG + 1).
    ps = PointSet([P(3, 7), P(0, 0), P(BIG, 1), P(far, far // BIG), P(BIG + 1, 1)])
    assert line_triples(ps) == collinear_triples(ps) == [(1, 2, 3)]
    with pytest.raises(GeneralPositionError) as err:
        radial_counts(ps)
    assert str(err.value) == "not in general position: points 1, 3, 2 are collinear"


def _fan_point(rng):
    t = rng.randrange(-20, 21)
    return BIG * t + rng.randrange(-60, 61), t


def test_radial_counts_on_fans_of_tied_keys():
    """Derandomised: near-parallel points (BIG t + a, t) with small t and
    a, so most folded slopes round to one float around every point."""
    rng = random.Random(20261020)
    for _ in range(40):
        n = rng.randint(5, 14)
        ps = _general_position(rng, n, _fan_point)
        folded = [key for p in range(n) for key, _, _ in _folded(ps, p)]
        tied = sum(folded.count(key) > 1 for key in folded)
        assert 2 * tied > len(folded)
        assert _straddling(ps)
        _assert_routes_agree(ps)


def test_initial_order_equals_the_rational_projection_order():
    rng = random.Random(7)
    for _ in range(30):
        ps = _general_position(rng, rng.randint(3, 12),
                               lambda r: (Fraction(r.randrange(-999, 999), r.randint(1, 50)),
                                          Fraction(r.randrange(-999, 999), r.randint(1, 50))))
        h = halfperiod_from_points(ps)
        ea, eb = ps.angles[0][0][0]
        pts = ps.points
        want = sorted(range(ps.n), key=lambda i: (pts[i].x * ea + pts[i].y * eb,
                                                  pts[i].x * eb - pts[i].y * ea))
        assert list(h.point_index) == want
