"""Exact rational planar geometry kernel.

Points carry exact rational coordinates; the orientation predicate is the
sign of an exactly evaluated 2x2 determinant, so every downstream count
(side counts, convex-position tests, sweep orders) is exact.  Every
rational in the package is a fractions.Fraction (or an int), and str()
of either is the canonical "p" or "p/q" text the point files use.  Floats
appear only as sort keys, in an exact filter (Shewchuk 1997): a key is
the correctly rounded quotient of two ints (CPython's int / int), and
rounding is monotone, so keys that differ order their exact values the
same way.  Only keys that compare equal are re-sorted with the exact
integer comparator (`_sort_exact`); a quotient too large for a float keys
as +-inf and is decided the same way.

The point-set kernels (the sorted sweep events here, pair levels, convex
4-subsets) clear denominators once per point: PointSet.homogeneous holds
integer (X, Y, W) with x = X/W, y = Y/W and W = lcm(den x, den y) > 0,
and orientation(p, q, r) has the sign of the 3x3 integer determinant of
the rows (W, X, Y), since that determinant is the rational one times
Wp*Wq*Wr > 0 (Fortune & Van Wyk 1996).  Plain int arithmetic decides the
same signs without a gcd per operation.  The exact-rational
`orientation` on Points, the reference the tests hold these signs to,
lives in tests/oracles.py.

A PointSet computes its triples once, when it is made, and a point's
triple is its identity there: the coordinates are in lowest terms, so the
triple is canonical, and two points are equal iff their triples are (the
duplicate check compares triples, never Fractions).  Fraction remains
where a rational is a value or text: the coordinates a Point holds, the
"p/q" text read and written here (read_points makes each coordinate as
one Fraction(p, q) from the digits its pattern matched), and the S_r
placement in constructions.

A PointSet sorts its sweep events once (`PointSet.angles`, the circular
sequence of Goodman & Pollack in runs of equal angle).  The points of a
spanned line swap at one angle, so the runs hold every collinearity: the
general-position certificate and the blocks of the 3-decomposition sweep
are the lines of those runs (S_r's placement names its collinear
families, so `build_sr` sweeps only its perturbed set).  The tests check
them against an exhaustive O(n^3) triple scan.

The one unavoidably inexact operation is rotation by 2*pi/3 (irrational
cosine pair).  rotation_cw_2pi3_maps builds it as an exact *rational*
linear map from a rational approximation of sqrt(3); callers that need
combinatorial guarantees re-verify them with exact predicates on the
emitted points (see constructions: S_r derives the precision from r, and
every builder reports a failed certificate).
"""

from __future__ import annotations

import re
from functools import cached_property, cmp_to_key
from fractions import Fraction
from itertools import groupby
from math import comb, inf, isqrt, lcm
from typing import NamedTuple

from .errors import GeneralPositionError, InputError, PointFileError


class Frozen:
    """Base of the package's immutable plain classes: __init__ sets the
    fields (the annotations in the class body) through the instance
    __dict__, and assigning or deleting an attribute raises
    AttributeError.  cached_property still fills the __dict__."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Point(NamedTuple):
    """Planar point with exact rational coordinates."""

    x: object
    y: object

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


def line_intersection(a: Point, b: Point, c: Point, d: Point) -> Point:
    """Exact intersection point of lines ab and cd.

    Raises InputError("no unique intersection") for parallel or degenerate
    input (this includes identical lines).
    """
    if (a.x == b.x and a.y == b.y) or (c.x == d.x and c.y == d.y):
        raise InputError("no unique intersection: degenerate line")
    r = (b.x - a.x, b.y - a.y)
    s = (d.x - c.x, d.y - c.y)
    den = r[0] * s[1] - r[1] * s[0]
    if den == 0:
        raise InputError("no unique intersection: parallel lines")
    t = ((c.x - a.x) * s[1] - (c.y - a.y) * s[0]) / den
    return Point(a.x + t * r[0], a.y + t * r[1])


def _event_direction(dx, dy):
    """Perpendicular of (dx, dy) normalized into the closed upper half plane
    (angle in [0, pi)): returns (a, b) with b > 0, or b == 0 and a > 0."""
    a, b = -dy, dx
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return a, b


def _ratio_key(num: int, den: int) -> float:
    """num / den (den > 0) correctly rounded, +-inf beyond the float range:
    a key that never orders two quotients against their exact order."""
    try:
        return num / den
    except OverflowError:
        return inf if num > 0 else -inf


def _sort_exact(items, keys, cmp) -> list:
    """`items` in the stable order of the exact comparator `cmp`, given
    the float key of each item (`keys[i]` for `items[i]`, see _ratio_key).
    The items are sorted on the keys alone; only runs of equal keys are
    re-sorted with `cmp`, so exactly equal items keep their input order."""
    order = sorted(range(len(items)), key=keys.__getitem__)
    if len(set(keys)) == len(keys):
        return [items[i] for i in order]
    out = []
    for _, run in groupby(order, key=keys.__getitem__):
        run = [items[i] for i in run]
        if len(run) > 1:
            run.sort(key=cmp_to_key(cmp))
        out += run
    return out


def _event_cmp(ev1, ev2) -> int:
    """Exact angular order of two sweep events (direction, i, j) by their
    upper-half-plane directions (cross-product sign)."""
    (a1, b1), (a2, b2) = ev1[0], ev2[0]
    cross = a1 * b2 - b1 * a2
    if cross:
        return -1 if cross > 0 else 1
    return 0


def _lines(run):
    """The point indices of each line spanned at one angle: the pairs of
    an angle run joined by union-find (parallel lines share no point)."""
    root = {}

    def find(x):
        root.setdefault(x, x)
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for _, i, j in run:
        root[find(i)] = find(j)
    lines = {}
    for x in root:
        lines.setdefault(find(x), []).append(x)
    return lines.values()


class PointSet(Frozen):
    """Ordered list of distinct points with a general-position certificate.

    The certificate is computed, never assumed: `general_position` is True
    iff no line spanned by the set holds three of its points, read exactly
    off the sorted sweep events (`angles`).  Equality, hash and repr are
    on `points` alone.
    """

    points: tuple[Point, ...]
    # Integer (X, Y, W) per point, W > 0, and the point's identity: see the
    # module docstring.
    homogeneous: tuple[tuple[int, int, int], ...]

    def __init__(self, points):
        pts = tuple(points)
        hom = []
        for p in pts:
            dx, dy = p.x.denominator, p.y.denominator
            w = lcm(dx, dy)
            hom.append((p.x.numerator * (w // dx), p.y.numerator * (w // dy), w))
        hom = tuple(hom)
        seen = {}
        for i, key in enumerate(hom):
            if key in seen:
                raise InputError(f"duplicate points at indices {seen[key]} and {i}")
            seen[key] = i
        vars(self).update(points=pts, homogeneous=hom)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"PointSet(points={self.points!r})"

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    @property
    def n(self) -> int:
        return len(self.points)

    def pair_lines(self):
        """(i, j, a, b, c) per pair i < j: point t lies strictly left of
        the directed line p_i -> p_j iff a*X + b*Y + c*W > 0 on its
        homogeneous coordinates (X, Y, W), and on the line iff it is 0:
        the cofactor expansion of the (W, X, Y) determinant along its
        last row."""
        hom = self.homogeneous
        for i, (xi, yi, wi) in enumerate(hom):
            for j in range(i + 1, len(hom)):
                xj, yj, wj = hom[j]
                yield i, j, yi * wj - wi * yj, wi * xj - xi * wj, xi * yj - yi * xj

    @cached_property
    def angles(self) -> tuple[tuple[tuple, ...], ...]:
        """The C(n,2) sweep events (direction, i, j), one per pair i < j,
        sorted by angle in [0, pi) and grouped into runs of equal angle;
        within a run the pairs keep index order.  A run holds every pair
        spanning a line of that normal, so every collinearity of the set
        is in one run.

        The direction is the normal of p_j - p_i in the upper half plane,
        formed on the homogeneous coordinates: (Xj*Wi - Xi*Wj, ...) is
        Wi*Wj > 0 times p_j - p_i, so every angular comparison is exact.
        The sort key of (a, b) is -a/b (-inf at b = 0), increasing with
        the angle; `_sort_exact` decides equal keys with `_event_cmp`."""
        hom = self.homogeneous
        events, keys = [], []
        for i, (xi, yi, wi) in enumerate(hom):
            for j in range(i + 1, len(hom)):
                xj, yj, wj = hom[j]
                a, b = _event_direction(xj * wi - xi * wj, yj * wi - yi * wj)
                events.append(((a, b), i, j))
                keys.append(_ratio_key(-a, b) if b else -inf)
        events = _sort_exact(events, keys, _event_cmp)
        if len(set(keys)) == len(keys):  # distinct keys: every angle differs
            return tuple((ev,) for ev in events)
        runs = []
        for ev in events:
            a, b = ev[0]
            if runs and a * b0 == b * a0:  # parallel to the run's direction
                runs[-1].append(ev)
            else:
                runs.append([ev])
                a0, b0 = a, b
        return tuple(map(tuple, runs))

    @cached_property
    def initial_order(self) -> tuple[int, ...]:
        """The point indices in projection order at angle 0-, where the
        circular sequence starts: sorted by x, ties (the points of a
        vertical line) broken by descending y.  Every event angle is in
        [0, pi), so this is the order just before the first angle run.
        x is X / W on the homogeneous coordinates, compared exactly by
        cross-multiplying."""
        hom = self.homogeneous

        def cmp(i, j):
            (x1, y1, w1), (x2, y2, w2) = hom[i], hom[j]
            d = x1 * w2 - x2 * w1 or y2 * w1 - y1 * w2
            return (d > 0) - (d < 0)

        keys = [_ratio_key(x, w) for x, _, w in hom]
        return tuple(_sort_exact(list(range(self.n)), keys, cmp))

    @cached_property
    def collinear_lines(self) -> tuple[tuple[int, ...], ...]:
        """The sorted point indices of each spanned line with >= 3 points,
        in angle order (such a line has C(m,2) >= 3 pairs in its run)."""
        return tuple(
            tuple(sorted(line))
            for run in self.angles if len(run) >= 3
            for line in _lines(run) if len(line) >= 3
        )

    @property
    def general_position(self) -> bool:
        return not self.collinear_lines

    def require_general_position(self):
        """self, or GeneralPositionError naming the number of collinear
        index triples (C(m,3) per line of m points) and the least one (a
        line's least triple is its first three indices)."""
        lines = self.collinear_lines
        if lines:
            count = sum(comb(len(line), 3) for line in lines)
            raise GeneralPositionError(
                f"not in general position: {count} collinear triple(s), "
                f"first {min(line[:3] for line in lines)}"
            )
        return self


def rotation_cw_2pi3_maps(precision: int):
    """The clockwise 2*pi/3 rotation as an exact rational matrix pair.

    Returns (apply, apply_inverse) where apply is built from a rational
    sqrt(3) approximation s = floor(sqrt(3) precision) / precision, so
    0 <= sqrt3 - s < 1/precision (precision >= 1, which callers check):

        apply(x, y)  = (-x/2 + (s/2) y, -(s/2) x - y/2)

    apply_inverse is the exact matrix inverse of apply, so
    apply(apply_inverse(p)) == p holds exactly despite the approximation.
    """
    s = Fraction(isqrt(3 * precision * precision), precision)
    half = Fraction(1, 2)
    a, b = -half, s * half          # row 1: (a, b)
    c, d = -s * half, -half         # row 2: (c, d)
    det = a * d - b * c

    def apply(p: Point) -> Point:
        return Point(a * p.x + b * p.y, c * p.x + d * p.y)

    def apply_inverse(p: Point) -> Point:
        return Point((d * p.x - b * p.y) / det, (a * p.y - c * p.x) / det)

    return apply, apply_inverse


# ---------------------------------------------------------------------------
# Point file format (shared across modules):
#   UTF-8 text; lines starting with '#' are comments; first non-comment line
#   is n; then n lines "x y" where each coordinate is an optionally signed
#   integer or "p/q" rational.  Writers emit canonical-form rationals.
# ---------------------------------------------------------------------------

_COORD_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _excerpt(text: str, width: int = 20) -> str:
    """repr(text), or for longer text the repr of its first `width`
    characters and its length, so an error message stays one short line."""
    if len(text) <= width:
        return repr(text)
    return f"{text[:width]!r}... ({len(text)} characters)"


def _parse_coord(tok: str, lineno: int):
    m = _COORD_RE.match(tok)
    if not m:
        raise PointFileError(f"line {lineno}: bad coordinate {_excerpt(tok)}")
    num, den = m.groups()
    try:
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise PointFileError(f"line {lineno}: zero denominator in {_excerpt(tok)}") from None
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise PointFileError(f"line {lineno}: coordinate too long ({len(tok)} characters)") from None


def read_points(path) -> PointSet:
    """Read a point file; raises PointFileError with a line reference."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise PointFileError(f"cannot read {path}: {exc}") from None
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    rows = [(no, ln) for no, ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise PointFileError("empty point file")
    no0, head = rows[0]
    try:
        n = int(head)
    except ValueError:
        raise PointFileError(f"line {no0}: expected point count, got {_excerpt(head)}") from None
    if n < 1:
        raise PointFileError(f"line {no0}: point count must be positive")
    if len(rows) - 1 != n:
        raise PointFileError(f"expected {n} coordinate lines, found {len(rows) - 1}")
    pts = []
    for no, ln in rows[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise PointFileError(f"line {no}: expected 'x y', got {_excerpt(ln)}")
        pts.append(Point(_parse_coord(toks[0], no), _parse_coord(toks[1], no)))
    return PointSet(pts)


def write_points(path, ps: PointSet, header: str | None = None):
    """Write a point file; raises PointFileError if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            if header:
                for line in header.splitlines():
                    fh.write(f"# {line}\n")
            fh.write(f"{ps.n}\n")
            for p in ps:
                fh.write(f"{p.x} {p.y}\n")
    except OSError as exc:
        raise PointFileError(f"cannot write {path}: {exc}") from None
