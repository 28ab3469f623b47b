"""The integer point-set kernels against references built on the exact
rational orientation predicate.

Inputs are random rational point sets with mixed denominators (integers,
small fractions, ~160-bit numerators and denominators), optionally with a
planted collinear triple or a planted pair of parallel segments, so both
the general-position paths and the degenerate ones are exercised.
"""

import functools
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kedges.circseq import halfperiod_from_points
from kedges.edgestats import crossings_bruteforce, pair_levels
from kedges.errors import GeneralPositionError, InputError
from kedges.geom import Point, PointSet
from oracles import P, collinear_triples, line_triples, orientation

BIG = 2**160

coords = st.one_of(
    st.integers(-60, 60).map(Fraction),
    st.builds(Fraction, st.integers(-400, 400), st.integers(1, 37)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(BIG // 2, BIG)),
)
steps = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))


@st.composite
def point_sets(draw):
    pts = [Point(draw(coords), draw(coords)) for _ in range(draw(st.integers(4, 8)))]
    plant = draw(st.sampled_from(("none", "collinear", "parallel")))
    if plant != "none":
        i, j, k = draw(st.permutations(range(len(pts))))[:3]
        base = pts[k] if plant == "parallel" else pts[i]
        t = draw(steps)
        pts.append(Point(base.x + t * (pts[j].x - pts[i].x), base.y + t * (pts[j].y - pts[i].y)))
    try:
        return PointSet(pts)
    except InputError:
        assume(False)


def ref_collinear(pts):
    return [t for t in combinations(range(len(pts)), 3) if orientation(*(pts[i] for i in t)) == 0]


def ref_pair_levels(pts):
    n = len(pts)
    levels = {}
    for i, j in combinations(range(n), 2):
        left = sum(orientation(pts[i], pts[j], p) > 0 for p in pts)
        levels[i, j] = min(left, n - 2 - left)
    return levels


def ref_crossings(pts):
    count = 0
    for q in combinations(pts, 4):
        s = sum(orientation(*tri) for tri in combinations(q, 3))
        count += s in (-4, 0, 4)
    return count


ORIGIN = P(0, 0)


def _angle_cmp(e, f):
    return -orientation(ORIGIN, e, f)


def ref_sweep(pts):
    """(transpositions, parallel groups) of the rational sweep: events are
    the normals of p_j - p_i in the upper half plane, sorted by angle and
    then by pair index; labels follow the initial projection order."""
    events = []
    for i, j in combinations(range(len(pts)), 2):
        a, b = pts[i].y - pts[j].y, pts[j].x - pts[i].x
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        events.append((Point(a, b), i, j))

    def cmp(e, f):
        return _angle_cmp(e[0], f[0]) or (e[1:] > f[1:]) - (e[1:] < f[1:])

    events.sort(key=functools.cmp_to_key(cmp))
    groups, run = [], [events[0]]
    for ev in events[1:] + [None]:
        if ev is not None and _angle_cmp(run[-1][0], ev[0]) == 0:
            run.append(ev)
            continue
        if len(run) > 1:
            groups.append(tuple((i, j) for _, i, j in run))
        run = [ev]

    e1 = events[0][0]
    order = sorted(
        range(len(pts)),
        key=lambda i: (pts[i].x * e1.x + pts[i].y * e1.y, pts[i].x * e1.y - pts[i].y * e1.x),
    )
    label = {p: lab for lab, p in enumerate(order, start=1)}
    perm = list(range(1, len(pts) + 1))
    trans = []
    for step, (_, i, j) in enumerate(events, start=1):
        s = min(perm.index(label[i]), perm.index(label[j]))
        trans.append((step, s + 1, (perm[s], perm[s + 1])))
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
    return trans, groups


@settings(derandomize=True, max_examples=150, deadline=None)
@given(point_sets())
def test_integer_kernels_match_rational_reference(ps):
    pts = ps.points
    bad = ref_collinear(pts)
    assert collinear_triples(ps) == bad
    assert line_triples(ps) == bad
    if bad:
        for kernel in (pair_levels, crossings_bruteforce, halfperiod_from_points):
            with pytest.raises(GeneralPositionError):
                kernel(ps)
        return

    assert pair_levels(ps) == ref_pair_levels(pts)
    assert crossings_bruteforce(ps) == ref_crossings(pts)
    trans, groups = ref_sweep(pts)
    h = halfperiod_from_points(ps)
    assert list(h.transpositions) == trans
    assert [tuple((i, j) for _, i, j in run) for run in ps.angles if len(run) > 1] == groups


def test_homogeneous_coordinates():
    ps = PointSet([P("1/6", "-3/4"), P(5, "2/3"), P("7/2", 0)])
    assert ps.homogeneous == ((2, -9, 12), (15, 2, 3), (7, 0, 2))
