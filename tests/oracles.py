"""Test-only oracles and halfperiod tools.

Each is a second, slower route to a number the package computes, a
check of a property the package's output rests on (the S_r placement's
structure), or a helper the property tests use to make and transform
inputs; nothing in kedges calls them.  The tests import them as
`from oracles import ...`.  The O(n^3) and O(n^4) oracles that
`selftest identities` runs (`edgestats.pair_levels`,
`edgestats.crossings_bruteforce`) stay in the package.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from kedges import constructions
from kedges.circseq import (
    Halfperiod,
    Transposition,
    _check_k,
    halfperiod_from_points,
    require_valid,
)
from kedges.edgestats import pair_levels
from kedges.errors import InputError
from kedges.gensets import random_general_position_set, random_reduced_word
from kedges.geom import Point, PointSet, line_intersection


def P(x, y) -> Point:
    """Point constructor that coerces ints/strings to exact rationals."""
    return Point(Fraction(x), Fraction(y))


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the determinant of (q-p, r-p): +1 if r is strictly left of
    the directed line p->q, -1 if strictly right, 0 iff collinear.  The
    exact-rational reference for the integer signs of the point-set
    kernels."""
    if p.x == q.x and p.y == q.y:
        raise InputError("degenerate pair: orientation needs two distinct base points")
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def _segment_param(u: Point, v: Point, w: Point):
    """Parameter of w along segment u->v (w assumed on line uv)."""
    d = (v.x - u.x, v.y - u.y)
    return ((w.x - u.x) * d[0] + (w.y - u.y) * d[1]) / (d[0] * d[0] + d[1] * d[1])


def _abs_slope(p: Point, q: Point):
    """|slope| of line pq as a rational, or None for a vertical line."""
    return None if p.x == q.x else abs((q.y - p.y) / (q.x - p.x))


def app_slope_margin(points, r: int) -> tuple:
    """(max1, min2) of a point list in the S_r layout (`sr_class_tags`):
    max1 the largest |slope| over the lines A'' x (not B''/C''), None if
    one is vertical; min2 the smallest over the non-vertical lines avoiding
    A'', None if there is none.

    min2 reads only the pairs adjacent in y order among the points off A'':
    for y_p < y_r < y_q, pq's dx/dy is the mean of pr's and rq's weighted by
    their dy > 0, so the largest |dx/dy|, the flattest line, is always
    between y-neighbours.  Two points of equal y are neighbours too, and
    give slope 0."""
    tags = constructions.sr_class_tags(r)
    slopes = [_abs_slope(p, q) for i, (p, t) in enumerate(zip(points, tags)) if t == "A''"
              for j, (q, u) in enumerate(zip(points, tags)) if j != i and u not in ("B''", "C''")]
    max1 = None if any(s is None for s in slopes) else max(slopes)
    others = sorted((p for p, t in zip(points, tags) if t != "A''"), key=lambda p: p.y)
    min2 = min((s for p, q in zip(others, others[1:]) if (s := _abs_slope(p, q)) is not None),
               default=None)
    return max1, min2


def app_min2_all_pairs(points, r: int):
    """`app_slope_margin`'s min2 by the all-pairs scan, as the reference for
    its y-neighbour reading."""
    others = [p for p, t in zip(points, constructions.sr_class_tags(r)) if t != "A''"]
    return min((s for p, q in combinations(others, 2) if (s := _abs_slope(p, q)) is not None),
               default=None)


def sr_structure_failures(r: int) -> list[str]:
    """Every violated structural property of the S_r placement, exactly,
    on the families `build_sr` places (`_build_sr_family` at the
    precision SrConfig(r) derives, in the layout `_sr_raw_points`
    assembles); empty when all hold.  In order:

    * the families: the raw set's spanned lines with three or more points
      (`PointSet.collinear_lines`) are the families `build_sr` perturbs,
      `sr_collinear_families(r)`;
    * (V): every A'' point lies strictly left of every other point;
    * (VI): max1 < min2 (`app_slope_margin`), so every line through A''
      and a point outside B'' and C'' is flatter than every line avoiding
      A'';
    * (IV) at every stage t and every j <= t: the line A'_t A_j cuts the
      open segment b_t b_inf (b = the rotated A);
    * at every stage t < r, the prime cut: the line b_{t+1} a_inf cuts
      the open segment A'_t a'_inf, where A'_{t+1} is placed;
    * (I) and (II) on the finished families: the points of A (of A') lie
      on their family line, in order from the second point, short of
      a_inf (of a'_inf);
    * (III): every line A'_i A_j cuts the open segment b_i b_{i+1}.

    Points never move once placed, so (I)-(III) on the finished families
    cover every earlier stage."""
    cfg = constructions.SrConfig(r)
    failures = []
    raw = constructions._sr_raw_points(cfg)
    lines = set(PointSet(raw).collinear_lines)
    named = set(constructions.sr_collinear_families(r))
    if lines != named:
        failures.append(f"families: collinear lines not named {sorted(lines - named)}, "
                        f"named families not collinear {sorted(named - lines)}")
    tags = constructions.sr_class_tags(r)
    if not max(p.x for p, t in zip(raw, tags) if t == "A''") < \
            min(p.x for p, t in zip(raw, tags) if t != "A''"):
        failures.append("(V): A'' is not left of every other point")
    max1, min2 = app_slope_margin(raw, r)
    if max1 is None:
        failures.append("(VI): a line through A'' is vertical")
    elif min2 is None or not max1 < min2:
        failures.append(f"(VI): max1 = {max1} is not below min2 = {min2}")
    A, Ap, rot = constructions._build_sr_family(r, cfg.precision)
    a_inf = line_intersection(A[2], A[3], rot(rot(A[2])), rot(rot(A[3])))
    ap_inf = line_intersection(Ap[2], Ap[3], A[2], A[3])
    b_inf = rot(a_inf)

    def interior(u, v, w, what):
        if not 0 < _segment_param(u, v, w) < 1:
            failures.append(f"{what}: point not interior to segment")

    for t in range(3, r + 1):
        b_t = rot(A[t])
        for j in range(2, t + 1):
            interior(b_t, b_inf, line_intersection(Ap[t], A[j], b_t, b_inf), f"(IV) t={t} j={j}")
        if t < r:
            y_cut = line_intersection(rot(A[t + 1]), a_inf, Ap[t], ap_inf)
            interior(Ap[t], ap_inf, y_cut, f"extension t={t}: prime cut point")
    for fam, inf, name in ((A, a_inf, "(I)"), (Ap, ap_inf, "(II)")):
        base = fam[2]
        failures += [f"{name}: point {i} off the family line"
                     for i in range(3, r + 1) if orientation(base, inf, fam[i])]
        params = [_segment_param(base, inf, fam[i]) for i in range(2, r + 1)]
        if any(not a < b for a, b in zip(params, params[1:])):
            failures.append(f"{name}: points out of order along the segment")
        if not params[-1] < 1:
            failures.append(f"{name}: family overruns the segment")
    b = {i: rot(A[i]) for i in range(2, r + 1)}
    for i in range(2, r):
        for j in range(2, r + 1):
            interior(b[i], b[i + 1], line_intersection(Ap[i], A[j], b[i], b[i + 1]),
                     f"(III) i={i} j={j}")
    return failures


def collinear_triples(ps: PointSet) -> list[tuple[int, int, int]]:
    """All index triples (i<j<k) of collinear points, in lexicographic
    order, by the exhaustive O(n^3) scan: the oracle for `line_triples`,
    which reads them off the angle runs."""
    hom = ps.homogeneous
    bad = []
    for i, j, a, b, c in ps.pair_lines():
        for k in range(j + 1, ps.n):
            xk, yk, wk = hom[k]
            if a * xk + b * yk + c * wk == 0:
                bad.append((i, j, k))
    return bad


def line_triples(ps: PointSet) -> list[tuple[int, int, int]]:
    """The C(m,3) index triples of each line in `PointSet.collinear_lines`,
    in lexicographic order."""
    return sorted(t for line in ps.collinear_lines for t in combinations(line, 3))


def convex_polygon_set(n: int, scale: int = 10**9, phase: float = 0.37) -> PointSet:
    """Integer approximation of a regular n-gon, certified to be in convex
    and general position (both exact checks; scale leaves huge margins)."""
    pts = []
    for i in range(n):
        ang = 2 * math.pi * i / n + phase
        pts.append(Point(Fraction(round(math.cos(ang) * scale)),
                         Fraction(round(math.sin(ang) * scale))))
    ps = PointSet(pts).require_general_position()
    for i in range(n):
        if orientation(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) <= 0:
            raise InputError("polygon approximation lost convexity; increase scale")
    return ps


def edge_vector_bruteforce(ps: PointSet) -> tuple[int, ...]:
    """(E_0, ..., E_{floor(n/2)-1}) by exhaustive side counting
    (`pair_levels`). O(n^3)."""
    n = ps.n
    if n < 2:
        raise InputError("need at least 2 points")
    counts = [0] * (n // 2)
    for level in pair_levels(ps).values():
        counts[level] += 1
    return tuple(counts)


def permutation(h: Halfperiod, i: int) -> tuple[int, ...]:
    """The i-th permutation pi_i of h, 0 <= i <= C(n,2)."""
    if not 0 <= i <= len(h.transpositions):
        raise InputError(f"permutation index {i} out of range")
    perm = list(h.initial)
    for t in h.transpositions[:i]:
        j = t.position - 1
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return tuple(perm)


def k_center(h: Halfperiod, i: int, k: int) -> frozenset:
    """Labels in the middle n-2k slots of permutation pi_i."""
    _check_k(h.n, k)
    return frozenset(permutation(h, i)[k : h.n - k])


def rotate_halfperiod(h: Halfperiod, steps: int = 1) -> Halfperiod:
    """Halfperiod of the same circular sequence starting `steps` events
    later: each shifted transposition reappears at the mirrored position
    n - j acting on the advanced initial permutation."""
    require_valid(h)
    n = h.n
    steps %= len(h.transpositions)
    seq = list(h.transpositions[steps:]) + [
        Transposition(0, n - t.position, (t.pair[1], t.pair[0]))
        for t in h.transpositions[:steps]
    ]
    seq = [Transposition(i + 1, t.position, t.pair) for i, t in enumerate(seq)]
    return require_valid(Halfperiod(n, permutation(h, steps), tuple(seq)))


def reverse_halfperiod(h: Halfperiod) -> Halfperiod:
    """The reversed sweep: transpositions in reverse order at mirrored
    positions j -> n - j, starting from the same initial permutation."""
    require_valid(h)
    n = h.n
    seq = [
        Transposition(i + 1, n - t.position, (t.pair[1], t.pair[0]))
        for i, t in enumerate(reversed(h.transpositions))
    ]
    return require_valid(Halfperiod(n, h.initial, tuple(seq)))


@st.composite
def halfperiods(draw, min_n=5, max_n=30):
    """Strategy: from a drawn seed, one draw in five the halfperiod of a
    swept random general-position set, min_n <= n <= min(14, max_n), and
    otherwise a random reduced word, min_n <= n <= max_n."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 4)) == 0:
        return halfperiod_from_points(
            random_general_position_set(draw(st.integers(min_n, min(14, max_n))), rng))
    return random_reduced_word(draw(st.integers(min_n, max_n)), rng)


def write_halfperiod(path, h: Halfperiod):
    """Write h in the halfperiod file format `circseq.read_halfperiod` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{h.n}\n")
        fh.write(" ".join(str(x) for x in h.initial) + "\n")
        for t in h.transpositions:
            fh.write(f"{t.step} {t.position} {t.pair[0]} {t.pair[1]}\n")
