"""Extremal constructions and their exact certificates."""

import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kedges.circseq import compute_s, halfperiod_from_points
from kedges.constructions import (
    SrConfig,
    build_cluster_polygon,
    build_polygon_center,
    build_sr,
    check_3decomposable,
    perturb_collinear_families,
    sr_expected_bichromatic,
    sr_expected_monochromatic,
    sr_audit,
    sr_class_tags,
    sr_collinear_families,
    sr_letter_partition,
    witness_failures,
)
from kedges.bounds import bound_table, comb2
from kedges.central import verify_central
from kedges.edgestats import pair_levels
from kedges.errors import InputError, VerificationError
from kedges.gensets import random_general_position_set
from kedges.geom import Point, PointSet, _lines, rotation_cw_2pi3_maps
from oracles import (
    P,
    app_min2_all_pairs,
    app_slope_margin,
    collinear_triples,
    edge_vector_bruteforce,
    line_triples,
    sr_structure_failures,
)


def test_sr_config_validation():
    with pytest.raises(InputError):
        SrConfig(r=2)


def test_sr_config_is_immutable():
    cfg = SrConfig(r=3)
    with pytest.raises(AttributeError):
        cfg.r = 4


def test_s3_raw_collinearities(s3, sr):
    # exactly the named families are collinear, by the O(n^3) scan rather
    # than the sweep: at r = 3 the three flat families (one per rotation
    # class), from r = 4 also each plain and primed block's points 2..r
    assert line_triples(s3.raw) == collinear_triples(s3.raw) == [(6, 7, 8), (15, 16, 17),
                                                                 (24, 25, 26)]
    tags = sr_class_tags(3)
    assert all(tags[i] == "A''" for i in (6, 7, 8))
    assert all(tags[i] == "B''" for i in (15, 16, 17))
    assert all(tags[i] == "C''" for i in (24, 25, 26))
    for r in (3, 4, 5):
        assert collinear_triples(sr(r).raw) == sorted(
            t for family in sr_collinear_families(r) for t in combinations(family, 3))


@pytest.mark.parametrize("r", [3, 4, 5])
def test_build_sr_never_sweeps_the_raw_set(r):
    # the families are named, not read off the raw set's event sort
    assert "angles" not in vars(build_sr(SrConfig(r)).raw)


def test_perturb_moves_exactly_the_flat_families(s3):
    raw = s3.raw
    moved = perturb_collinear_families(raw, sr_collinear_families(3),
                                       SrConfig(3).perturbation_epsilon)
    changed = {i for i in range(raw.n) if moved[i] != raw[i]}
    assert changed == {6, 7, 8, 15, 16, 17, 24, 25, 26}
    assert moved.general_position


def ref_perturb_collinear_families(ps, families, epsilon):
    """The perturbation in Fraction arithmetic, as the reference: the
    centroid as a Fraction mean, each family ordered by its (x, y)
    Fractions, and each moved coordinate p + perp * offset with the unit
    perp = (-dy, dx) / max(|dx|, |dy|) of the family's first step."""
    points = ps.points
    cx = sum((p.x for p in points), Fraction(0)) / ps.n
    cy = sum((p.y for p in points), Fraction(0)) / ps.n
    eps = Fraction(epsilon)
    out = list(points)
    for members in families:
        ordered = sorted(members, key=lambda i: (points[i].x, points[i].y))
        first, second = points[ordered[0]], points[ordered[1]]
        dx, dy = second.x - first.x, second.y - first.y
        scale = max(abs(dx), abs(dy))
        perp = (-dy / scale, dx / scale)
        for rank, i in enumerate(ordered, start=1):
            p = points[i]
            side = (p.x - cx) * perp[0] + (p.y - cy) * perp[1]
            sign = -1 if side < 0 else 1
            off = sign * rank * eps
            out[i] = Point(p.x + perp[0] * off, p.y + perp[1] * off)
    return PointSet(out)


@pytest.mark.parametrize("r", range(3, 13))
def test_perturb_matches_fraction_reference_on_sr(r, sr):
    # the integer perturbation emits the reference's Fractions, so the
    # written file is byte for byte the same
    res, families = sr(r), sr_collinear_families(r)
    eps = SrConfig(r).perturbation_epsilon
    got = perturb_collinear_families(res.raw, families, eps)
    assert got.points == ref_perturb_collinear_families(res.raw, families, eps).points == \
        res.perturbed.points
    assert [str(c) for p in got for c in (p.x, p.y)] == \
        [str(c) for p in res.perturbed for c in (p.x, p.y)]


@st.composite
def collinear_grid_sets(draw):
    """Small-grid point sets with mixed denominators, where one to three
    families of 3-5 points sit on lines (some of them parallel, some
    sharing a point) among a few scattered points; and an epsilon.  The
    test skips the sets whose spanned lines share a point."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    den = rng.choice((1, 2, 3, 6))
    pts = set()
    for _ in range(rng.randint(1, 3)):
        x0, y0 = rng.randint(-9, 9), rng.randint(-9, 9)
        dx, dy = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1), (1, 3), (-3, 2)))
        pts.update((Fraction(x0 + t * dx, den), Fraction(y0 + t * dy, rng.choice((den, 1))))
                   for t in range(rng.randint(3, 5)))
    pts.update((Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 7))) for _ in range(rng.randint(0, 6)))
    pts = sorted(pts)
    rng.shuffle(pts)
    eps = Fraction(1, rng.choice((100, 999, 10**6)))
    return PointSet([Point(x, y) for x, y in pts]), eps


@settings(derandomize=True, max_examples=300, deadline=None)
@given(collinear_grid_sets())
def test_perturb_matches_fraction_reference(case):
    ps, eps = case
    lines = ps.collinear_lines
    assume(len({i for line in lines for i in line}) == sum(map(len, lines)))
    assert perturb_collinear_families(ps, lines, eps).points == \
        ref_perturb_collinear_families(ps, lines, eps).points


def test_s3_class_structure(s3):
    tags = sr_class_tags(3)
    assert len(tags) == s3.raw.n == s3.perturbed.n == 27
    # letter-major order: per letter, r plain, r primed, r double-primed
    for start, cls in zip(range(0, 27, 3), ("A", "A'", "A''", "B", "B'", "B''", "C", "C'", "C''")):
        assert tags[start:start + 3] == (cls,) * 3
    # each letter's points are the previous letter's rotated by 2*pi/3
    rot, _ = rotation_cw_2pi3_maps(SrConfig(3).precision)
    assert [rot(p) for p in s3.raw[:18]] == list(s3.raw[9:])


@pytest.mark.parametrize("r", [3, 4, 5])
def test_sr_letter_partition_follows_class_tags(r):
    tags, part = sr_class_tags(r), sr_letter_partition(r)
    assert [[tags[i][0] for i in g] for g in part] == [[x] * (3 * r) for x in "ABC"]
    assert sorted(i for g in part for i in g) == list(range(9 * r))


@st.composite
def slope_cases(draw):
    """(points, r): 9r random rationals (r = 1..3) with mixed denominators,
    where one pair off A'' may share its y (min2 = 0), one pair may share
    its x (a vertical line), or every point off A'' may lie on one vertical
    line (no min2)."""
    r = draw(st.integers(1, 3))
    n = 9 * r
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    xy = [tuple(Fraction(rng.randint(-999, 999), rng.randint(1, 5)) for _ in "xy")
          for _ in range(n)]
    off_app = [i for i, t in enumerate(sr_class_tags(r)) if t != "A''"]
    plant = draw(st.sampled_from(("none", "equal-y", "vertical", "vertical-line")))
    if plant == "equal-y":
        i, j = rng.sample(off_app, 2)
        xy[j] = (xy[j][0], xy[i][1])
    elif plant == "vertical":
        i, j = rng.sample(off_app, 2)
        xy[j] = (xy[i][0], xy[j][1])
    elif plant == "vertical-line":
        for i in off_app:
            xy[i] = (xy[off_app[0]][0], xy[i][1])
    assume(len(set(xy)) == n)
    return [P(x, y) for x, y in xy], r


@settings(derandomize=True, max_examples=400, deadline=None)
@given(slope_cases())
def test_slope_certificate_matches_all_pairs_reference(case):
    # the y-neighbour reading of min2 on sets that are not S_r: on S_3..S_12
    # the flattest line also joins x-neighbours, so those sets alone do not
    # tell a y-order reading from an x-order one
    points, r = case
    assert app_slope_margin(points, r)[1] == app_min2_all_pairs(points, r)


@pytest.mark.parametrize("r", range(3, 13))
def test_slope_certificate_matches_all_pairs_reference_on_sr(r, sr):
    # the oracle's min2 reads only the y-adjacent pairs off A''; the
    # reference reads all of them
    res = sr(r)
    for points in (res.raw.points, res.perturbed.points):
        min2 = app_min2_all_pairs(points, r)
        assert min2 is not None and app_slope_margin(points, r)[1] == min2


def test_s3_tightness(s3):
    assert s3.perturbed.general_position
    leq = list(accumulate(halfperiod_from_points(s3.perturbed).level_counts))
    best = bound_table(27)
    for k in range(12):
        assert leq[k] == best[k].best
    assert leq[11] == 255 and leq[10] == 207


def test_s3_halfperiod_cross_check(s3):
    # cross-module oracle: the sweep over the perturbed 27-point set yields
    # C(27,2) = 351 transpositions and the same edge vector as brute force
    from math import comb

    h = halfperiod_from_points(s3.perturbed)
    assert len(h.transpositions) == comb(27, 2) == 351
    assert h.level_counts == edge_vector_bruteforce(s3.perturbed)
    # k = 12: one k-critical transposition per (k-1)-edge
    assert len(list(h.k_critical(12))) == h.level_counts[11]


def test_s3_split(s3):
    levels = pair_levels(s3.perturbed)
    rows = sr_audit(s3.perturbed, levels)
    assert [(row.bi, row.mono) for row in rows] == [
        (sr_expected_bichromatic(3, k), sr_expected_monochromatic(3, k)) for k in range(12)
    ]
    # the one-pass histograms agree with a direct per-k count
    tags = sr_class_tags(3)
    for row in rows:
        same = [tags[i][0] == tags[j][0] for (i, j), lev in levels.items() if lev <= row.k]
        assert (row.bi, row.mono) == (same.count(False), same.count(True))
    assert (rows[11].bi, rows[11].mono) == (216, 39)
    assert (rows[9].bi, rows[9].mono) == (162, 6)
    assert all(row.mono == 0 for row in rows[:9])


def test_sr_audit_reuses_build_levels(s3):
    h = halfperiod_from_points(s3.perturbed)
    levels = h.point_levels
    assert levels == pair_levels(s3.perturbed)
    rows = sr_audit(s3.perturbed, levels)
    assert s3.audit == tuple(rows)
    assert [row.k for row in rows] == list(range(12))
    assert all(row.ok for row in rows)
    assert [row.leq for row in rows] == list(accumulate(h.level_counts))[:12]
    assert (rows[11].bi, rows[11].mono) == (216, 39)


def test_s4_tightness():
    res = build_sr(SrConfig(r=4))
    leq = list(accumulate(halfperiod_from_points(res.perturbed).level_counts))
    best = bound_table(36)
    for k in range(16):
        assert leq[k] == best[k].best
    assert leq[15] == 441  # 3 C(17,2) + 3 C(5,2) + 3


def test_sr_expected_consistency():
    # bichromatic + monochromatic = the bounds table's best, for every family size
    for r in (3, 4, 5, 6):
        best = bound_table(9 * r)
        for k in range(4 * r):
            assert sr_expected_bichromatic(r, k) + sr_expected_monochromatic(r, k) == \
                best[k].best


def test_polygon_center_9():
    ps, h = build_polygon_center(3, 9)
    assert h == halfperiod_from_points(ps)
    ev = edge_vector_bruteforce(ps)
    assert ev[2] == 7
    assert sum(ev[3:]) == 15
    s = compute_s(h, 3)
    assert s == 2
    assert sum(ev[3:]) == (9 - 7) * ev[2] + comb2(s)  # corollary equality
    rep = verify_central(h, 3)
    assert rep.holds and rep.all_ok


def test_polygon_center_15():
    ps, h = build_polygon_center(6, 15)
    ev = edge_vector_bruteforce(ps)
    assert ev[5] == 13
    assert sum(ev[6:]) == comb2(2) + 13 * 2 == 27
    assert compute_s(h, 6) == 2


def test_polygon_center_degenerate_rejected():
    with pytest.raises(InputError):
        build_polygon_center(3, 8)  # n = 2k+2: no room for central points


def test_cluster_polygon_cases():
    ps, h = build_cluster_polygon(1, 3)
    assert h == halfperiod_from_points(ps)
    ev = edge_vector_bruteforce(ps)
    assert (ev[2], sum(ev[3:])) == (9, 18)
    assert compute_s(h, 3) == 0

    ps, _ = build_cluster_polygon(2, 2)
    ev = edge_vector_bruteforce(ps)
    assert (ev[3], sum(ev[4:])) == (10, 2 * 5 * comb2(2))
    assert sum(ev[4:]) == 10

    ps, _ = build_cluster_polygon(2, 1)  # plain pentagon
    ev = edge_vector_bruteforce(ps)
    assert ev[1] == 5 and sum(ev[2:]) == 0


def test_cluster_polygon_validation():
    with pytest.raises(InputError):
        build_cluster_polygon(0, 3)


def test_3decomposable_sr(s3):
    w = check_3decomposable(s3.perturbed, sr_letter_partition(3))
    assert w is not None
    assert len(w) == 3


def test_3decomposable_three_clusters():
    # three tight clusters at triangle vertices: trivially 3-decomposable
    base = [(0, 0), (1000, 0), (500, 900)]
    pts = []
    for bx, by in base:
        pts += [P(bx + dx, by + dy * dy) for dx, dy in ((0, 1), (3, 2), (7, 4))]
    ps = PointSet(pts).require_general_position()
    w = check_3decomposable(ps, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    assert w is not None


def test_3decomposable_random_failure():
    rng = random.Random(67)
    ps = random_general_position_set(9, rng)
    # an interleaved partition of a random set essentially never decomposes
    w = check_3decomposable(ps, ((0, 3, 6), (1, 4, 7), (2, 5, 8)))
    assert w is None


def test_3decomposable_partition_validation(s3):
    ps = s3.perturbed
    with pytest.raises(InputError):
        check_3decomposable(ps, ((0,), (1,), (2,)))
    with pytest.raises(InputError):
        check_3decomposable(ps, (range(9), range(9, 18), range(17, 26)))


def _ref_normal(p, q):
    a, b = p.y - q.y, q.x - p.x
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return a, b


def _ref_angle_cmp(u, v):
    cross = u[0] * v[1] - u[1] * v[0]
    return (cross < 0) - (cross > 0)


def ref_check_3decomposable(ps, partition):
    """The exhaustive per-gap search as the reference: the distinct
    spanned-line normals sorted by angle (the lowest index pair stands for
    equal angles), one rational direction per gap between consecutive
    normals (the last gap wraps past pi), every point projected onto it and
    sorted, and each part's first gap with three part blocks and the part
    in the middle."""
    pts = ps.points
    normals = sorted((_ref_normal(pts[i], pts[j]) for i, j in combinations(range(ps.n), 2)),
                     key=cmp_to_key(_ref_angle_cmp))
    uniq = [u for k, u in enumerate(normals) if k == 0 or _ref_angle_cmp(normals[k - 1], u)]
    gaps = [(u[0] + v[0], u[1] + v[1]) for u, v in zip(uniq, uniq[1:])]
    gaps.append((uniq[-1][0] - uniq[0][0], uniq[-1][1] - uniq[0][1]))
    part_of = {i: gi for gi, part in enumerate(partition) for i in part}
    found = {}
    for d in gaps:
        keys = sorted((p.x * d[0] + p.y * d[1], i) for i, p in enumerate(pts))
        if any(keys[k][0] == keys[k + 1][0] for k in range(len(keys) - 1)):
            continue
        letters = [part_of[i] for _, i in keys]
        blocks = [x for k, x in enumerate(letters) if k == 0 or x != letters[k - 1]]
        if len(blocks) == 3:
            found.setdefault(blocks[1], d)
        if len(found) == 3:
            return (found[0], found[1], found[2])
    return None


def ref_sweep_3decomposable(ps, partition):
    """The block-reversal sweep in Fraction arithmetic, as the reference:
    the first order sorted by Fraction projections onto the first gap's
    rational direction, every line of every later run (`_lines`) reversed
    as a block of `order`, and the part boundaries recounted at each
    block's ends."""
    part_of = {i: gi for gi, part in enumerate(partition) for i in part}
    angles, pts, n = ps.angles, ps.points, ps.n
    if len(angles) < 2:
        return None

    def normal(g):
        _, i, j = angles[g][0]
        return _ref_normal(pts[i], pts[j])

    def gap_direction(g):
        u = normal(g)
        if g + 1 < len(angles):
            v = normal(g + 1)
            return (u[0] + v[0], u[1] + v[1])
        v = normal(0)
        return (u[0] - v[0], u[1] - v[1])

    d = gap_direction(0)
    order = sorted(range(n), key=lambda i: pts[i].x * d[0] + pts[i].y * d[1])
    pos = [0] * n
    for p, i in enumerate(order):
        pos[i] = p
    parts = [part_of[i] for i in order]

    def cut(p):
        return 0 <= p < n - 1 and parts[p] != parts[p + 1]

    cuts = sum(cut(p) for p in range(n - 1))
    found = {}
    for g in range(len(angles)):
        if g:
            for line in _lines(angles[g]):
                a = min(map(pos.__getitem__, line))
                b = a + len(line) - 1
                cuts -= cut(a - 1) + cut(b)
                order[a:b + 1] = reversed(order[a:b + 1])
                parts[a:b + 1] = reversed(parts[a:b + 1])
                for p in range(a, b + 1):
                    pos[order[p]] = p
                cuts += cut(a - 1) + cut(b)
        if cuts == 2:
            found.setdefault(3 - parts[0] - parts[-1], g)
            if len(found) == 3:
                return tuple(gap_direction(found[gi]) for gi in range(3))
    return None


@pytest.mark.parametrize("r", range(3, 13))
def test_3decomposable_sweep_matches_fraction_sweep_on_sr(r, sr):
    # raw (whole families collinear) and perturbed, with the letter
    # partition and with one that mixes the letters
    res, letters = sr(r), sr_letter_partition(r)
    mixed = tuple(tuple(range(g, 9 * r, 3)) for g in range(3))
    for ps in (res.raw, res.perturbed):
        for partition in (letters, mixed):
            w = check_3decomposable(ps, partition)
            assert w == ref_sweep_3decomposable(ps, partition)
            if w is not None:
                assert witness_failures(ps, partition, w) == []
    assert check_3decomposable(res.perturbed, letters) is not None


CORNERS = ((0, 0), (24, 0), (12, 20))


@st.composite
def partitioned_sets(draw):
    """(point set, partition, all on one line): three clusters at triangle
    corners on small grids, so collinear triples and parallel pairs are
    common, or points on one line; the partition is the clusters, the
    clusters with two points exchanged, or random thirds."""
    m = draw(st.integers(1, 4))
    den = draw(st.integers(1, 3))
    spread = draw(st.integers(1, 14))
    line = draw(st.integers(0, 5)) == 0
    cell = st.tuples(st.integers(-spread, spread), st.integers(-spread, spread))
    if line:
        dx, dy = draw(cell.filter(any))
        ts = draw(st.lists(st.integers(-30, 30), min_size=3 * m, max_size=3 * m, unique=True))
        xy = [(t * dx, t * dy) for t in ts]
    else:
        xy = [(cx * den + x, cy * den + y) for cx, cy in CORNERS
              for x, y in draw(st.lists(cell, min_size=m, max_size=m, unique=True))]
    assume(len(set(xy)) == len(xy))
    ps = PointSet([P(Fraction(x, den), Fraction(y, den)) for x, y in xy])
    kind = draw(st.sampled_from(("exact", "perturbed", "random")))
    order = list(range(3 * m))
    if kind == "perturbed":
        i = draw(st.integers(0, 3 * m - 1))
        j = draw(st.integers(0, 3 * m - 1).filter(lambda j: j // m != i // m))
        order[i], order[j] = order[j], order[i]
    elif kind == "random":
        order = draw(st.permutations(order))
    partition = tuple(tuple(sorted(order[g * m:(g + 1) * m])) for g in range(3))
    return ps, partition, line


@settings(derandomize=True, max_examples=400, deadline=None)
@given(partitioned_sets())
def test_3decomposable_sweep_matches_per_gap_reference(case):
    ps, partition, line = case
    w = check_3decomposable(ps, partition)
    assert w == ref_check_3decomposable(ps, partition) == ref_sweep_3decomposable(ps, partition)
    if line:
        assert w is None
    elif w is not None:
        assert witness_failures(ps, partition, w) == []


def test_selftest_rejects_swapped_witness(monkeypatch):
    from kedges import selftest

    def swapped(ps, partition):
        d = check_3decomposable(ps, partition)
        return (d[1], d[0], d[2])

    monkeypatch.setattr(selftest, "check_3decomposable", swapped)
    results = {name: (ok, detail) for name, ok, detail in selftest.run_constructions_suite(rmax=3)}
    assert results["sr-3decomposable-r3"] == (False, "failing parts: [0, 1]")


def test_sr_verification_failure_reports(monkeypatch):
    # an absurdly coarse rotation cannot certify, and there is no retry:
    # the audit refuses the set
    monkeypatch.setattr(SrConfig, "precision", 1)
    with pytest.raises(VerificationError, match="could not be certified: audit mismatch"):
        build_sr(SrConfig(r=3))


@pytest.mark.parametrize("far, slope_failure", [
    (100, "(VI): max1 = 15 is not below min2 = 853127969/18750000000"),
    (700, "(VI): a line through A'' is vertical"),  # A''_3 = (-700, 0), A_1 = (-700, -50)
])
def test_sr_tail_too_near_fails_the_audit(far, slope_failure, monkeypatch):
    # an A'' tail reaching in to x = -far lies among the other points: the
    # counts are not tight, and the oracle names both broken premises
    monkeypatch.setattr(SrConfig, "far_factor", Fraction(far))
    with pytest.raises(VerificationError, match=r"^S_3 could not be certified: audit mismatch"):
        build_sr(SrConfig(r=3))
    assert sr_structure_failures(3) == ["(V): A'' is not left of every other point", slope_failure]


def test_sr_tail_too_steep_is_named_by_the_tests(monkeypatch):
    # A'' at x = -2000 is still left of every other point and S_3's counts
    # are still tight, so build_sr certifies it; only the slope margin, a
    # premise of the placement, fails, and the oracle names it
    monkeypatch.setattr(SrConfig, "far_factor", Fraction(2000))
    assert all(row.ok for row in build_sr(SrConfig(r=3)).audit)
    failures = sr_structure_failures(3)
    assert len(failures) == 1 and failures[0].startswith("(VI): max1 = ")


@pytest.mark.parametrize("r", [*range(3, 31), 40, 50])
def test_sr_structure_holds(r):
    # (I)-(VI) and every prime cut, on the placement build_sr emits; S_r is
    # a function of r alone, so these r are checked here once and for all
    assert sr_structure_failures(r) == []


def test_sr_structure_names_a_family_left_unnamed(monkeypatch):
    # a family left out of the names stays collinear after the perturbation,
    # which the sweep of the perturbed set reports
    from kedges import constructions

    named = sr_collinear_families(4)
    monkeypatch.setattr(constructions, "sr_collinear_families", lambda r: named[1:])
    with pytest.raises(VerificationError,
                       match=r"^S_4 could not be certified: not in general position: "
                             r"1 collinear triple\(s\), first \(1, 2, 3\)$"):
        build_sr(SrConfig(r=4))
    assert any(f.startswith("families: collinear lines not named [(1, 2, 3)]")
               for f in sr_structure_failures(4))


def test_sr_structure_names_a_family_off_its_line(monkeypatch):
    # a named "family" that is not collinear is perturbed like the others,
    # and build_sr still certifies the set; the names are checked here
    from kedges import constructions

    named = sr_collinear_families(4)
    monkeypatch.setattr(constructions, "sr_collinear_families", lambda r: named + ((0, 12, 24),))
    assert all(row.ok for row in build_sr(SrConfig(r=4)).audit)
    assert ("families: collinear lines not named [], named families not collinear [(0, 12, 24)]"
            in sr_structure_failures(4))


def test_sr_structure_names_a_misplaced_point(monkeypatch):
    # a placement past the end of its segment.  build_sr's certificates read
    # only the emitted points, and the set misplaced this way is still tight
    # and passes them, so the structure is checked here
    from kedges import constructions

    monkeypatch.setattr(constructions, "_dyadic_between", lambda lo, hi: hi + (hi - lo) / 4)
    assert ("extension t=3: prime cut point: point not interior to segment"
            in sr_structure_failures(4))


@pytest.mark.parametrize("build, args, precision", [
    (build_polygon_center, (3, 9), 10),
    (build_cluster_polygon, (2, 2), 1),
], ids=["polygon-center", "cluster-polygon"])
def test_polygon_verification_failure_reports(build, args, precision, monkeypatch):
    # both fail a count check after one sweep, and there is no retry
    from kedges import constructions

    calls = []

    def counted(ps):
        calls.append(ps.n)
        return halfperiod_from_points(ps)

    monkeypatch.setattr(constructions, "halfperiod_from_points", counted)
    with pytest.raises(VerificationError, match=f"could not be certified at precision {precision}: "):
        build(*args, precision=precision)
    assert len(calls) == 1


@pytest.mark.parametrize("build, args, precision, s_extra, message", [
    (build_polygon_center, (3, 12), 13, 0, "E_0 = 6, want 7"),
    (build_cluster_polygon, (2, 3), 1, 0, "E_>=k = 27, want 30"),
    (build_polygon_center, (2, 9), 10**6, 1, "s = 5, want 4"),
    (build_cluster_polygon, (1, 3), 10**6, 1, "s = 1, want 0"),
], ids=["polygon-center-E_j", "cluster-polygon-E_>=k", "polygon-center-s", "cluster-polygon-s"])
def test_equality_certificate_names_the_failed_count(build, args, precision, s_extra, message,
                                                     monkeypatch):
    # each count is checked against its closed form, in order, and the first
    # that differs is named with both values
    from kedges import constructions

    monkeypatch.setattr(constructions, "compute_s", lambda h, k: compute_s(h, k) + s_extra)
    name = build.__name__.removeprefix("build_").replace("_", "-")
    with pytest.raises(VerificationError) as exc:
        build(*args, precision=precision)
    assert str(exc.value) == f"{name} could not be certified at precision {precision}: {message}"


def test_sr_34_certifies_with_the_parameters_it_derives():
    # S_34's features are far finer than S_12's; both parameters follow r
    cfg = SrConfig(r=34)
    assert (cfg.precision, cfg.perturbation_epsilon) == (10**34, Fraction(1, 10**29))
    res = build_sr(cfg)
    assert res.perturbed.n == 306 and len(res.audit) == 136
    assert all(row.ok for row in res.audit)
