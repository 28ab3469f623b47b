"""Extremal point-set constructions with machine verification.

Three families are generated here, each emitted as exact rational points
and then *certified*: every count the construction is supposed to achieve
is recomputed from scratch with exact predicates.  Every builder makes
one attempt and reports a failed certificate as VerificationError: S_r
reads its parameters (rotation precision, perturbation size, how far out
the collinear tail goes) off r, and the two polygon builders use the
precision they are given as the polygon's integer radius.

* build_sr: the recursive 9r-point family whose (<=k)-edge counts meet the
  `bounds` table's best lower bound for every k <= 4r-1.  Nine classes of
  size r (A, A', A'', and their images under rotation by 2*pi/3), emitted
  as plain point sets in the fixed order `sr_class_tags` states; the A''
  points sit on the x-axis far to the left.  The raw set is intentionally
  degenerate: the families `sr_collinear_families` names are collinear,
  and perturbing them, with no sweep of the raw set, produces the
  general-position set whose counts are checked against that bound and
  the split's closed forms.  Those certificates are all on the emitted
  points.  The placement's premises are properties of a deterministic
  function of r, and the tests check them: the families' structure
  (I)-(IV), that the names are the raw set's collinear lines, A'' left of
  every other point, and every line from A'' to a point outside B'' and
  C'' flatter than any line avoiding A''.
* build_polygon_center: 2k+1 polygon vertices plus n-2k-1 points near the
  center; meets the central inequality's corollary with equality at
  s = n-2k-1.
* build_cluster_polygon: a (2t+1)-gon with each vertex replaced by m
  near-collinear points pointing at the center; equality at s = 0.

check_3decomposable looks for one projection direction per part that
shows that part between the other two, in a single sweep of the circular
sequence: the projection order is sorted once and then changed only by
the block reversals at the O(n^2) spanned-line normals (a swap of two
adjacent slots for a two-point line), with a running count of part
boundaries deciding each angular gap.

Where Fraction remains: the emitted Point values and their file text, the
S_r placement (the A and A' families, the rotation maps and the A''
tail), and the three printed witness directions.  Every decision in
between (the perturbation's orders and sides, the cluster polygon's
coordinates, the 3-decomposition sweep) is made on integers:
`PointSet.homogeneous` or one common denominator, with one Fraction made
per emitted coordinate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .bounds import bound_table, comb2
from .circseq import Halfperiod, compute_s, halfperiod_from_points
from .edgestats import summarize
from .errors import InputError, VerificationError
from .geom import (
    Frozen,
    Point,
    PointSet,
    _event_direction,
    _lines,
    line_intersection,
    rotation_cw_2pi3_maps,
)

# ---------------------------------------------------------------------------
# The S_r layout
# ---------------------------------------------------------------------------


def sr_class_tags(r: int) -> tuple[str, ...]:
    """The class tag of each point of an S_r set (n = 9r) in emitted order:
    for each letter A, B, C, first r plain points, then r primed, then r
    double-primed.  A tag's letter is the color used by the bichromatic /
    monochromatic split."""
    return tuple(letter + prime for letter in "ABC" for prime in ("", "'", "''") for _ in range(r))


def sr_collinear_families(r: int) -> tuple[tuple[int, ...], ...]:
    """The raw S_r set's collinear families in the `sr_class_tags` layout,
    as disjoint index tuples: each plain and primed block's points 2..r
    (once r >= 4 makes them three) and each whole double-primed block."""
    return tuple(tuple(range(c * r + (c % 3 != 2), (c + 1) * r))  # point 1 is off the line
                 for c in range(9) if c % 3 == 2 or r >= 4)


# ---------------------------------------------------------------------------
# Expected split of the recursive family's (<=k)-edges (n = 9r)
# ---------------------------------------------------------------------------


def sr_expected_bichromatic(r: int, k: int) -> int:
    if k <= 3 * r - 1:
        return 3 * comb2(k + 2)
    return 3 * comb2(3 * r + 1) + (k - 3 * r + 1) * 9 * r


def sr_expected_monochromatic(r: int, k: int) -> int:
    if k <= 3 * r - 1:
        return 0
    if k <= 4 * r - 2:
        return 6 * comb2(k - 3 * r + 2)
    return 6 * comb2(r + 1) + 3


class SrAuditRow(NamedTuple):
    """E_<=k of an S_r set next to the lower bound it must attain
    (`bound_table(9r)` best), and its bichromatic / monochromatic split
    next to the split's closed forms."""

    k: int
    leq: int
    want_leq: int
    bi: int
    mono: int
    want_split: tuple[int, int]

    @property
    def tight(self) -> bool:
        return self.leq == self.want_leq

    @property
    def split_ok(self) -> bool:
        return (self.bi, self.mono) == self.want_split

    @property
    def ok(self) -> bool:
        return self.tight and self.split_ok


def sr_audit(ps: PointSet, levels) -> list[SrAuditRow]:
    """The tightness and split audit of an S_r set (n = 9r, in the
    `sr_class_tags` layout) for 0 <= k <= 4r-1, from its pair levels: every
    (<=k)-edge is either bichromatic or monochromatic, so E_<=k is their
    sum, and it must equal the `bounds` table's best lower bound.  One pass
    makes per-level (bichromatic, monochromatic) histograms; rows read their
    prefix sums."""
    if ps.n % 9:
        raise InputError(f"an S_r set has 9r points, got {ps.n}")
    r = ps.n // 9
    letter = [tag[0] for tag in sr_class_tags(r)]
    top = 4 * r
    hist = [[0, 0] for _ in range(top)]  # per level: [bichromatic, monochromatic]
    for (i, j), lev in levels.items():
        if lev < top:
            hist[lev][letter[i] == letter[j]] += 1
    best = bound_table(ps.n)
    rows = []
    bi = mono = 0
    for k, (bi_k, mono_k) in enumerate(hist):
        bi, mono = bi + bi_k, mono + mono_k
        want_split = (sr_expected_bichromatic(r, k), sr_expected_monochromatic(r, k))
        rows.append(SrAuditRow(k, bi + mono, best[k].best, bi, mono, want_split))
    return rows


# ---------------------------------------------------------------------------
# The recursive family S_r
# ---------------------------------------------------------------------------


def _check_precision(precision: int):
    """A polygon radius `_ring` can scale through floats: P >= 1, and P
    rounds to a finite float (P < 2^1024 - 2^970), so cos * P is finite."""
    if precision < 1:
        raise InputError(f"precision must be a positive integer, got {precision}")
    try:
        float(precision)
    except OverflowError:
        raise InputError(
            f"precision must be below 2^1024 - 2^970, got a {precision.bit_length()}-bit integer"
        ) from None


class SrConfig(Frozen):
    """S_r's parameters.  Only r is set; the rest is read off it.

    The family's features shrink geometrically with r (each recursive step
    halves its segment, and A'' reaches out to -far * 2^(r-1)), so the
    sqrt(3) approximation gets max(12, r) decimal digits and the
    perturbation stays 10^5 grid steps of it.  For r <= 12 that is
    precision 10^12 and epsilon 10^-7."""

    r: int

    far_factor = Fraction(2 * 10**4)  # the rightmost A'' point is at x = -far_factor

    def __init__(self, r):
        if r < 3:
            raise InputError("r >= 3 required")
        vars(self)["r"] = r

    @property
    def precision(self) -> int:
        return 10 ** max(12, self.r)

    @property
    def perturbation_epsilon(self) -> Fraction:
        return Fraction(10**5, self.precision)


class SrResult(NamedTuple):
    raw: PointSet             # both in the `sr_class_tags` layout
    perturbed: PointSet
    config: SrConfig
    audit: tuple              # sr_audit rows of the perturbed set, every one ok


_BASE_A = {1: (-700, -50), 2: (-410, 150), 3: (-436, 144)}
_BASE_AP = {1: (-1300, 20), 2: (-1200, -10), 3: (-1170, -14)}


def _point_on_line_at_x(p1: Point, p2: Point, x) -> Point:
    if p1.x == p2.x:
        raise VerificationError("family line is vertical; cannot parametrize by x")
    slope = (p2.y - p1.y) / (p2.x - p1.x)
    return Point(x, p1.y + slope * (x - p1.x))


def _dyadic_between(lo, hi):
    """The grid point at or just below the midpoint of the open interval
    (lo, hi), on a dyadic grid finer than a quarter of its width, so it
    lies strictly inside.

    Keeps coordinate denominators bounded where the construction says
    "place the point anywhere on the open segment".
    """
    width = hi - lo
    e = max(0, (4 * width.denominator).bit_length() - width.numerator.bit_length() + 2)
    return Fraction(math.floor((lo + hi) / 2 * (1 << e)), 1 << e)


def _build_sr_family(r: int, precision: int):
    """The A and A' families, recursively, and the rotation they use.  It
    only places points and checks nothing: the tests check the families'
    structure (I)-(IV) for r = 3..30, 40 and 50, and `build_sr` certifies
    the points it emits."""
    rot, rot_inv = rotation_cw_2pi3_maps(precision)
    A = {i: Point(Fraction(x), Fraction(y)) for i, (x, y) in _BASE_A.items()}
    Ap = {i: Point(Fraction(x), Fraction(y)) for i, (x, y) in _BASE_AP.items()}
    a_inf = line_intersection(A[2], A[3], rot(rot(A[2])), rot(rot(A[3])))
    ap_inf = line_intersection(Ap[2], Ap[3], A[2], A[3])
    b_inf = rot(a_inf)

    for t in range(3, r):
        # Each new point goes to the middle of its admissible segment: from
        # where the line A'_t A_2 cuts the segment b_t b_inf to its end.
        b_t = rot(A[t])
        cut = line_intersection(Ap[t], A[2], b_t, b_inf)
        lo, hi = sorted((cut.x, b_inf.x))
        b_new = _point_on_line_at_x(b_t, b_inf, _dyadic_between(lo, hi))
        A[t + 1] = rot_inv(b_new)

        y_cut = line_intersection(b_new, a_inf, Ap[t], ap_inf)
        lo, hi = sorted((y_cut.x, ap_inf.x))
        Ap[t + 1] = _point_on_line_at_x(Ap[t], ap_inf, _dyadic_between(lo, hi))

    return A, Ap, rot


def _sr_raw_points(cfg: SrConfig) -> list[Point]:
    """The raw S_r set in the `sr_class_tags` layout: A, A', and A'' on the
    x-axis at x = -far_factor * 2^(r-i), then that block's two rotations."""
    r = cfg.r
    A, Ap, rot = _build_sr_family(r, cfg.precision)
    block_a = [A[i] for i in range(1, r + 1)] + [Ap[i] for i in range(1, r + 1)]
    block_a += [Point(-cfg.far_factor * (1 << (r - i)), Fraction(0)) for i in range(1, r + 1)]
    block_b = [rot(p) for p in block_a]
    return block_a + block_b + [rot(p) for p in block_b]


def perturb_collinear_families(ps: PointSet, families, epsilon) -> PointSet:
    """Break each family (disjoint index tuples of collinear points, as
    `sr_collinear_families` names them): its i-th point along the line
    moves off it by i*epsilon, away from the configuration's centroid.
    The sweep of the perturbed set certifies that no collinearity is left.

    The line's unit is the family's first step (from its first to its
    second point) scaled to max-norm 1, so the offset direction is
    (-DY, DX) / S with S = max(|DX|, |DY|).  Orders, steps and sides are
    decided on integers over the common denominator D of the whole set
    (the lcm of its W); each moved coordinate is one Fraction."""
    hom = ps.homogeneous
    d = math.lcm(*{w for _, _, w in hom})
    xd = [x * (d // w) for x, _, w in hom]
    yd = [y * (d // w) for _, y, w in hom]
    n, sx, sy = ps.n, sum(xd), sum(yd)  # n times the centroid, over d
    eps = Fraction(epsilon)
    e_num, e_den = eps.numerator, eps.denominator
    out = list(ps.points)
    for members in families:
        ordered = sorted(members, key=lambda i: (xd[i], yd[i]))
        first, second = ordered[0], ordered[1]
        dx, dy = xd[second] - xd[first], yd[second] - yd[first]
        scale = max(abs(dx), abs(dy))
        for rank, i in enumerate(ordered, start=1):
            x, y, w = hom[i]
            side = (n * xd[i] - sx) * -dy + (n * yd[i] - sy) * dx
            off = (-rank if side < 0 else rank) * e_num * w
            den = w * scale * e_den
            out[i] = Point(Fraction(x * scale * e_den - dy * off, den),
                           Fraction(y * scale * e_den + dx * off, den))
    return PointSet(out)


def build_sr(cfg: SrConfig) -> SrResult:
    """Build and certify the 9r-point family in one attempt with the
    parameters `cfg` derives from r: place, perturb the named families,
    sweep, audit, and summarize.  Certificates, all on the emitted points:
    general position after the perturbation (the sweep's own check), the
    audit against the `bounds` table and the split, and `summarize`, the
    certificate `analyze` runs.  Any failure raises VerificationError."""
    r = cfg.r
    try:
        raw = PointSet(_sr_raw_points(cfg))
        ps = perturb_collinear_families(raw, sr_collinear_families(r), cfg.perturbation_epsilon)
        h = halfperiod_from_points(ps)
        audit = tuple(sr_audit(ps, h.point_levels))
        bad = [row for row in audit if not row.ok]
        if bad:
            raise VerificationError(f"audit mismatch {bad[0]}")
        summarize(ps, h)
    except (VerificationError, InputError) as exc:
        # A degenerate intersection mid-build is a failed certificate too.
        raise VerificationError(f"S_{r} could not be certified: {exc}") from None
    return SrResult(raw, ps, cfg, audit)


# ---------------------------------------------------------------------------
# Equality constructions
# ---------------------------------------------------------------------------


def _ring(q: int, scale: int, phase: float):
    """Integer approximations of q equally spaced unit vectors * scale."""
    out = []
    for i in range(q):
        ang = 2 * math.pi * i / q + phase
        out.append((round(math.cos(ang) * scale), round(math.sin(ang) * scale)))
    return out


def _certify_equality(name: str, precision: int, pts, k: int,
                      want: dict[str, int]) -> tuple[PointSet, Halfperiod]:
    """The point set of `pts` and its halfperiod, certified in one sweep:
    each count `want` names (E_j, E_>=k or s(k, pi), checked in its order)
    must equal its closed form there, and the set must pass `summarize`,
    the certificate `analyze` runs.  Any failure, a degenerate point set
    included, raises VerificationError naming the builder, the precision
    and the check that failed."""
    try:
        ps = PointSet(pts)
        h = halfperiod_from_points(ps)
        counts = h.level_counts
        got = {f"E_{j}": e for j, e in enumerate(counts)}
        got.update({"E_>=k": sum(counts[k:]), "s": compute_s(h, k)})
        for label, closed in want.items():
            if got[label] != closed:
                raise VerificationError(f"{label} = {got[label]}, want {closed}")
        summarize(ps, h)
    except (VerificationError, InputError) as exc:
        raise VerificationError(
            f"{name} could not be certified at precision {precision}: {exc}") from None
    return ps, h


def build_polygon_center(k: int, n: int, precision: int = 10**6) -> tuple[PointSet, Halfperiod]:
    """2k+1 regular-polygon vertices plus c = n-2k-1 points near the
    center, returned with the halfperiod the certificate was read from.

    Certified properties: E_j = 2k+1 for every j < k, E_{>=k} =
    C(c,2) + (2k+1)c and s(k, pi) = c.  Together they are the equality
    E_{>=k} = c E_{k-1} + C(s,2) of the central inequality's corollary."""
    if k < 1:
        raise InputError("k >= 1 required")
    _check_precision(precision)
    if n < 2 * k + 3:
        raise InputError(f"need n >= 2k+3 central room, got n={n}, k={k}")
    q, c = 2 * k + 1, n - 2 * k - 1
    pts = [Point(Fraction(x), Fraction(y)) for x, y in _ring(q, precision, phase=1.0 / 7)]
    pts += [Point(Fraction(j), Fraction(j * j)) for j in range(1, c + 1)]
    want = {f"E_{j}": q for j in range(k)}
    want.update({"E_>=k": comb2(c) + q * c, "s": c})
    return _certify_equality("polygon-center", precision, pts, k, want)


def build_cluster_polygon(t: int, m: int, precision: int = 10**6) -> tuple[PointSet, Halfperiod]:
    """(2t+1)-gon with each vertex replaced by m points on a small segment
    pointing at the center, returned with the halfperiod the certificate
    was read from.  With n = (2t+1)m and k = tm, certifies E_{k-1} = n,
    E_{>=k} = 2(2t+1) C(m,2) and s = 0.  Since n-2k-1 = m-1, they are the
    equality E_{>=k} = (n-2k-1) E_{k-1} + C(s,2)."""
    if t < 1 or m < 1:
        raise InputError("t >= 1, m >= 1 required")
    _check_precision(precision)
    q, n, k = 2 * t + 1, (2 * t + 1) * m, t * m
    # Point j of vertex (x, y) is (x, y) * (1 - j/100) plus (-y, x) * j^2
    # times the wobble 10^-4 / precision: integers over 10^4 * precision.
    den = 10**4 * precision
    pts = []
    for x, y in _ring(q, precision, phase=1.0 / 11):
        for j in range(m):
            radial, wobble = (100 - j) * 100 * precision, j * j
            pts.append(Point(Fraction(x * radial - y * wobble, den),
                             Fraction(y * radial + x * wobble, den)))
    want = {f"E_{k - 1}": n, "E_>=k": 2 * q * comb2(m), "s": 0}
    return _certify_equality("cluster-polygon", precision, pts, k, want)


# ---------------------------------------------------------------------------
# 3-decomposability
# ---------------------------------------------------------------------------


def check_3decomposable(ps: PointSet, partition):
    """The witness of a 3-decomposition of ps under `partition` (three
    equal, disjoint index groups): a tuple of three exact rational
    directions (dx, dy), the one at index 0/1/2 showing that part between
    the other two; None when some part is between the others along no
    direction.

    The projection order of the points changes only at spanned-line
    normals, so one direction per open angular gap between consecutive
    normals is exhaustive.  The search is one sweep over the circular
    sequence (Goodman & Pollack), on integers: start from the order at
    angle 0- (`PointSet.initial_order`, by x with ties by descending y, the
    halfperiod's start) and cross the set's angle runs (`PointSet.angles`)
    in turn.  At a run, every line spanned with that normal reverses its
    points, a contiguous block of the order whose ends are the line's first
    and last slots; a two-point line, every line of a set in general
    position, is a swap of two adjacent slots.  A running count of part
    boundaries is updated at the block ends only; three blocks (two
    boundaries) in the gap after a run put part 3 - first - last between
    the others.  Each part's witness
    is its first such gap, given as the sum of the rational normals of the
    lowest-index pairs on either side (their difference for the gap that
    wraps past angle pi): the only Fractions the search makes."""
    groups = [set(g) for g in partition]
    if len(groups) != 3:
        raise InputError("partition must have exactly three parts")
    if ps.n % 3 != 0 or any(len(g) != ps.n // 3 for g in groups):
        raise InputError("parts must have equal size n/3")
    if set().union(*groups) != set(range(ps.n)) or sum(len(g) for g in groups) != ps.n:
        raise InputError("parts must be disjoint and cover all indices")
    part_of = [0] * ps.n
    for gi, g in enumerate(groups):
        for i in g:
            part_of[i] = gi

    angles = ps.angles
    if len(angles) < 2:
        return None  # one line: only its middle part can ever be between
    n = ps.n
    pos = [0] * n  # the slot, 1..n, of each point
    for slot, i in enumerate(ps.initial_order, start=1):
        pos[i] = slot
    # The part in each slot between two end slots 0 and n + 1 whose -1
    # differs from every part, so `cuts` is two more than the number of
    # part boundaries and a block never needs a range check.
    parts = [-1] + [part_of[i] for i in ps.initial_order] + [-1]
    cuts = sum(parts[p] != parts[p + 1] for p in range(n + 1))
    found = {}
    for g, run in enumerate(angles):
        for line in (run[0][1:],) if len(run) == 1 else _lines(run):
            if len(line) == 2:  # a swap of two adjacent slots
                i, j = line
                a, b = pos[i], pos[j]
                pos[i], pos[j] = b, a
                if a > b:
                    a, b = b, a
            else:  # a line's points stand contiguously: reverse the block
                a = min(map(pos.__getitem__, line))
                b = a + len(line) - 1
                for i in line:
                    pos[i] = a + b - pos[i]
                parts[a + 1:b] = parts[b - 1:a:-1]
            pa, pb = parts[a], parts[b]
            if pa != pb:  # the ends trade places; only the two boundary cuts change
                left, right = parts[a - 1], parts[b + 1]
                cuts += (left != pb) + (pa != right) - (left != pa) - (pb != right)
                parts[a], parts[b] = pb, pa
        if cuts == 4:  # three blocks in the gap after run g
            found.setdefault(3 - parts[1] - parts[n], g)
            if len(found) == 3:
                return tuple(_gap_direction(ps, found[gi]) for gi in range(3))
    return None


def _gap_direction(ps: PointSet, g):
    """The printed witness direction of the gap after angle run g: the sum of
    the rational normals of the lowest-index pairs on either side (their
    difference for the gap that wraps past angle pi)."""
    angles, pts = ps.angles, ps.points

    def normal(g):
        _, i, j = angles[g][0]
        return _event_direction(pts[j].x - pts[i].x, pts[j].y - pts[i].y)

    u = normal(g)
    if g + 1 < len(angles):
        v = normal(g + 1)
        return (u[0] + v[0], u[1] + v[1])
    v = normal(0)
    return (u[0] - v[0], u[1] - v[1])  # wrap gap: between last and first+pi


def witness_failures(ps: PointSet, partition, directions) -> list[int]:
    """The parts (0, 1, 2) whose direction in `directions`, a witness as
    check_3decomposable returns it, fails a check that does not use the
    sweep: every point is projected onto the direction once in exact
    rational arithmetic, the n values must be distinct, and the part must
    lie strictly between the other two."""
    bad = []
    for gi, (dx, dy) in enumerate(directions):
        proj = [[ps[i].x * dx + ps[i].y * dy for i in part] for part in partition]
        mid = proj[gi]
        a, b = (proj[x] for x in range(3) if x != gi)
        distinct = len({v for vs in proj for v in vs}) == ps.n
        between = any(max(lo) < min(mid) and max(mid) < min(hi) for lo, hi in ((a, b), (b, a)))
        if not (distinct and between):
            bad.append(gi)
    return bad


def sr_letter_partition(r: int):
    """Index partition of an S_r point list (`sr_class_tags` layout) into
    the three rotation classes, one per letter."""
    letters = [tag[0] for tag in sr_class_tags(r)]
    return tuple(tuple(i for i, t in enumerate(letters) if t == letter) for letter in "ABC")
