"""Test-only oracles and halfperiod tools.

Each is a second, slower route to a number the package computes, or a
helper the property tests use to make and transform inputs; nothing in
kedges calls them.  The tests import them as `from oracles import ...`.
The O(n^3) and O(n^4) oracles that `selftest identities` runs
(`edgestats.pair_levels`, `edgestats.crossings_bruteforce`) stay in the
package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from kedges.circseq import Halfperiod, Transposition, _check_k, require_valid
from kedges.edgestats import pair_levels
from kedges.errors import InputError
from kedges.geom import Point, PointSet, orientation


def P(x, y) -> Point:
    """Point constructor that coerces ints/strings to exact rationals."""
    return Point(Fraction(x), Fraction(y))


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


def write_halfperiod(path, h: Halfperiod):
    """Write h in the halfperiod file format `circseq.read_halfperiod` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{h.n}\n")
        fh.write(" ".join(str(x) for x in h.initial) + "\n")
        for t in h.transpositions:
            fh.write(f"{t.step} {t.position} {t.pair[0]} {t.pair[1]}\n")
