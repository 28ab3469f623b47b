"""Exact geometry kernel: predicates, intersections, file round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kedges.cli import main
from kedges.errors import GeneralPositionError, InputError, PointFileError
from kedges.geom import (
    Point,
    PointSet,
    line_intersection,
    read_points,
    rotation_cw_2pi3_maps,
    write_points,
)
from oracles import P, collinear_triples, line_triples, orientation


def test_orientation_basic():
    assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orientation(P(0, 0), P(1, 0), P(2, 0)) == 0
    assert orientation(P(0, 0), P(1, 0), P(0, -1)) == -1


def test_point_set_is_immutable_and_prints_its_points():
    ps = PointSet([P(0, 0), P(1, 2)])
    with pytest.raises(AttributeError):
        ps.points = ()
    assert repr(ps) == "PointSet(points=(Point(0, 0), Point(1, 2)))"


def test_orientation_base_coordinates():
    # The determinant over the first three base points of the recursive
    # construction, cross-checked against an independent big-int evaluation.
    a1, a2, a3 = P(-700, -50), P(-410, 150), P(-436, 144)
    det = (-410 - (-700)) * (144 - (-50)) - (150 - (-50)) * (-436 - (-700))
    assert det == 3460
    assert orientation(a1, a2, a3) == 1


def test_orientation_antisymmetry():
    rng = random.Random(5)
    for _ in range(200):
        pts = [P(rng.randrange(-50, 50), rng.randrange(-50, 50)) for _ in range(3)]
        p, q, r = pts
        if (p.x, p.y) == (q.x, q.y) or (q.x, q.y) == (r.x, r.y) or (p.x, p.y) == (r.x, r.y):
            continue
        assert orientation(p, q, r) == -orientation(q, p, r) == -orientation(p, r, q)


def test_orientation_degenerate_pair():
    with pytest.raises(InputError, match="degenerate pair"):
        orientation(P(1, 1), P(1, 1), P(0, 0))


def test_line_intersection_examples():
    half = Fraction(1, 2)
    assert line_intersection(P(0, 0), P(1, 1), P(0, 1), P(1, 0)) == P(half, half)
    assert line_intersection(P(0, 0), P(2, 0), P(1, -1), P(1, 1)) == P(1, 0)
    with pytest.raises(InputError, match="no unique intersection"):
        line_intersection(P(0, 0), P(1, 0), P(0, 1), P(1, 1))
    with pytest.raises(InputError, match="no unique intersection"):
        line_intersection(P(0, 0), P(0, 0), P(0, 1), P(1, 1))


def _solve_2x2(a11, a12, a21, a22, b1, b2):
    # independent rational solver (Cramer) over fractions.Fraction
    det = a11 * a22 - a12 * a21
    return (b1 * a22 - b2 * a12) / det, (a11 * b2 - a21 * b1) / det


def test_line_intersection_against_independent_solver():
    # a'_inf = line(a'_2 a'_3) /\ line(a_2 a_3) on the base coordinates.
    a2, a3 = P(-410, 150), P(-436, 144)
    ap2, ap3 = P(-1200, -10), P(-1170, -14)
    got = line_intersection(ap2, ap3, a2, a3)
    # Lines as a x + b y = c with Fraction arithmetic.
    def line_eq(p, q):
        a = Fraction(int(q.y - p.y))
        b = Fraction(int(p.x - q.x))
        return a, b, a * int(p.x) + b * int(p.y)

    (a1c, b1c, c1), (a2c, b2c, c2) = line_eq(ap2, ap3), line_eq(a2, a3)
    x, y = _solve_2x2(a1c, b1c, a2c, b2c, c1, c2)
    assert Fraction(int(got.x.numerator), int(got.x.denominator)) == x
    assert Fraction(int(got.y.numerator), int(got.y.denominator)) == y


def test_intersection_lies_on_both_lines():
    rng = random.Random(9)
    for _ in range(100):
        pts = [P(rng.randrange(-30, 30), rng.randrange(-30, 30)) for _ in range(4)]
        a, b, c, d = pts
        try:
            z = line_intersection(a, b, c, d)
        except InputError:
            continue
        # substitute into both line equations exactly
        assert (b.x - a.x) * (z.y - a.y) - (b.y - a.y) * (z.x - a.x) == 0
        assert (d.x - c.x) * (z.y - c.y) - (d.y - c.y) * (z.x - c.x) == 0


def test_check_general_position():
    for pts, want in (([P(0, 0), P(1, 0), P(0, 1)], []),
                      ([P(0, 0), P(1, 0), P(2, 0)], [(0, 1, 2)]),
                      ([P(0, 0), P(1, 0)], [])):
        ps = PointSet(pts)
        assert line_triples(ps) == collinear_triples(ps) == want


def test_zero_orientation_iff_reported_collinear():
    rng = random.Random(71)
    from itertools import combinations

    for _ in range(10):
        coords = {(rng.randrange(12), rng.randrange(12)) for _ in range(6)}
        if len(coords) < 4:
            continue
        ps = PointSet([P(x, y) for x, y in sorted(coords)])
        reported = set(line_triples(ps))
        for i, j, k in combinations(range(ps.n), 3):
            flat = orientation(ps[i], ps[j], ps[k]) == 0
            assert flat == ((i, j, k) in reported)


def test_pointset_rejects_duplicates_and_certifies():
    with pytest.raises(InputError, match="duplicate"):
        PointSet([P(0, 0), P(0, 0)])
    ps = PointSet([P(0, 0), P(1, 0), P(2, 1), P(3, 3)])
    assert ps.general_position
    bad = PointSet([P(0, 0), P(1, 1), P(2, 2), P(5, 0)])
    assert not bad.general_position
    with pytest.raises(GeneralPositionError) as exc:
        bad.require_general_position()
    assert str(exc.value) == "not in general position: 1 collinear triple(s), first (0, 1, 2)"
    # A 4-point line (y = 0) and two parallel 3-point lines (slope 1), with
    # interleaved indices: the triples read off the angle runs are the
    # O(n^3) scan's, in the same lexicographic order.
    deg = PointSet([P(3, 0), P(0, 5), P(5, 1), P(0, 0), P(1, 6),
                    P(6, 2), P(2, 0), P(2, 7), P(7, 3), P(1, 0)])
    want = [(0, 3, 6), (0, 3, 9), (0, 6, 9), (1, 4, 7), (2, 5, 8), (3, 6, 9)]
    assert line_triples(deg) == collinear_triples(deg) == want
    with pytest.raises(GeneralPositionError) as exc:
        deg.require_general_position()
    assert str(exc.value) == "not in general position: 6 collinear triple(s), first (0, 3, 6)"


def ref_duplicate_scan(points):
    """The duplicate check on (Fraction, Fraction) keys, as the reference:
    the message for the first point equal to an earlier one, or None."""
    seen = {}
    for i, p in enumerate(points):
        key = (p.x, p.y)
        if key in seen:
            return f"duplicate points at indices {seen[key]} and {i}"
        seen[key] = i
    return None


def _duplicate_outcome(points):
    try:
        PointSet(points)
    except InputError as exc:
        return str(exc)
    return None


@st.composite
def grid_points_with_repeats(draw):
    """Up to 12 points on a small grid whose coordinates are ints or
    Fractions made from unreduced numerators and denominators, so one value
    comes in several spellings; some points are repeated."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def coord():
        den = rng.choice((1, 2, 3, 4, 6))
        num = rng.randint(-3, 3) * rng.choice((1, 2)) * den // rng.choice((1, 2))
        return num // den if rng.random() < 0.2 and num % den == 0 else Fraction(num, den)

    pts = [Point(coord(), coord()) for _ in range(rng.randint(1, 12))]
    for _ in range(rng.randint(0, 2)):
        pts.insert(rng.randint(0, len(pts)), rng.choice(pts))
    return pts


@settings(derandomize=True, max_examples=400, deadline=None)
@given(grid_points_with_repeats())
def test_duplicate_check_on_triples_matches_fraction_keys(pts):
    assert _duplicate_outcome(pts) == ref_duplicate_scan(pts)


@pytest.mark.parametrize("r", range(3, 13))
def test_duplicate_check_matches_fraction_keys_on_sr(r, sr):
    res = sr(r)
    for pts in (res.raw.points, res.perturbed.points):
        assert _duplicate_outcome(pts) is None and ref_duplicate_scan(pts) is None
        # one point written again with its value spelled differently
        k = (7 * r) % len(pts)
        again = Point(Fraction(pts[k].x.numerator * 3, pts[k].x.denominator * 3), pts[k].y)
        planted = list(pts[:k + 5]) + [again] + list(pts[k + 5:])
        assert _duplicate_outcome(planted) == ref_duplicate_scan(planted) == \
            f"duplicate points at indices {k} and {k + 5}"


def test_read_points_coordinates_equal_fraction_of_the_token(tmp_path):
    toks = ["2/4", "+3", "-0", "6/3", "-12/8", "007", "+0/5", "1/3"]
    path = tmp_path / "toks.pts"
    path.write_text("4\n" + "".join(f"{x} {y}\n" for x, y in zip(toks[::2], toks[1::2])))
    got = [c for p in read_points(path) for c in (p.x, p.y)]
    assert got == [Fraction(t) for t in toks]
    assert all(type(c) is Fraction for c in got)
    assert [str(c) for c in got] == ["1/2", "3", "0", "2", "-3/2", "7", "0", "1/3"]


def test_read_points_equal_values_spelled_differently_are_duplicates(tmp_path, capsys):
    path = tmp_path / "dup.pts"
    path.write_text("3\n1/2 0\n5 5\n2/4 0/7\n")
    with pytest.raises(InputError) as exc:
        read_points(path)
    assert str(exc.value) == "duplicate points at indices 0 and 2"
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == "error: duplicate points at indices 0 and 2\n"


@pytest.mark.parametrize("coord, err", [
    ("1/0", "line 2: zero denominator in '1/0'"),
    ("1/" + "0" * 5000, "line 2: coordinate too long (5002 characters)"),
    ("9" * 4301, "line 2: coordinate too long (4301 characters)"),
], ids=["zero-denominator", "long-zero-denominator", "long-numerator"])
def test_point_file_coordinate_errors_exit_2_with_one_line(coord, err, tmp_path, capsys):
    path = tmp_path / "bad.pts"
    path.write_text(f"1\n0 {coord}\n")
    with pytest.raises(PointFileError) as exc:
        read_points(path)
    assert str(exc.value) == err
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err}\n"


def test_rational_canonical_equality(tmp_path):
    assert Fraction(2, 4) == Fraction(1, 2)
    assert P(Fraction(2, 4), 0) == P(Fraction(1, 2), 0)
    path = tmp_path / "canonical.txt"
    write_points(path, PointSet([P(Fraction(2, 4), Fraction(-6, 3)), P("4/8", 0), P(1, "-3/1")]))
    assert path.read_text() == "3\n1/2 -2\n1/2 0\n1 -3\n"


def test_rotation_unit_vector():
    rotate = rotation_cw_2pi3_maps(10**12)[0]
    q = rotate(P(1, 0))
    assert abs(float(q.x) - (-0.5)) < 1e-12
    assert abs(float(q.y) - (-(3 ** 0.5) / 2)) < 1e-12
    assert rotate(P(0, 0)) == P(0, 0)


def test_rotation_inverse_is_exact():
    apply, inv = rotation_cw_2pi3_maps(10**12)
    p = P(-700, -50)
    assert apply(inv(p)) == p
    assert inv(apply(p)) == p


def test_rotation_approx_of_base_point():
    import math

    b1 = rotation_cw_2pi3_maps(10**12)[0](P(-700, -50))
    want_x = -700 * math.cos(2 * math.pi / 3) - 50 * math.sin(2 * math.pi / 3)
    want_y = 700 * math.sin(2 * math.pi / 3) - 50 * math.cos(2 * math.pi / 3)
    assert abs(float(b1.x) - want_x) < 1e-8
    assert abs(float(b1.y) - want_y) < 1e-8


def test_point_file_roundtrip(tmp_path):
    ps = PointSet([P(0, 0), P(Fraction(1, 3), Fraction(-2, 7)), P(-5, 4)])
    path = tmp_path / "pts.txt"
    write_points(path, ps, header="roundtrip fixture")
    back = read_points(path)
    assert back.points == ps.points
    text = path.read_text()
    assert text.startswith("# roundtrip fixture\n3\n")
    assert "1/3 -2/7" in text


@pytest.mark.parametrize(
    "content, msg",
    [
        ("", "empty"),
        ("x\n", "expected point count"),
        ("2\n0 0\n", "expected 2 coordinate lines"),
        ("1\n0\n", "expected 'x y'"),
        ("1\n0 1/0\n", "zero denominator"),
        ("1\n0 1.5\n", "bad coordinate"),
        pytest.param("1\n0 1/" + "0" * 5000 + "\n", r"^line 2: coordinate too long \(5002 characters\)$",
                     id="huge-denominator"),
    ],
)
def test_point_file_errors(tmp_path, content, msg):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(PointFileError, match=msg):
        read_points(path)
