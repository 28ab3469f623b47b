"""Exact rational arithmetic.

Every decision made in this package (predicate signs, bound comparisons,
ceilings in recursions) is carried out in exact rational arithmetic.  A
float appears only as a sort key that orders values exactly wherever two
keys differ (see the geom docstring); equal keys are decided in integers.
Rationals are fractions.Fraction; the point-set kernels clear
denominators once per point and decide their predicates on plain ints
(see geom.PointSet.homogeneous).
"""

from __future__ import annotations

import math
from fractions import Fraction


def R(num, den=None):
    """Build a rational from an int, string ("p/q"), or rational."""
    if den is None:
        return Fraction(num)
    return Fraction(num) / Fraction(den)


def is_integral(q) -> bool:
    return int(q.denominator) == 1


def as_int(q) -> int:
    """Exact integer value; raises if q is not integral."""
    if not is_integral(q):
        raise ValueError(f"not an integer: {q}")
    return int(q.numerator)


def rat_floor(q) -> int:
    return int(q.numerator) // int(q.denominator)


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for ints, b > 0."""
    return -((-a) // b)


def to_float(q) -> float:
    """Correctly rounded float of an exact rational (safe for huge terms)."""
    return float(Fraction(int(q.numerator), int(q.denominator)))


def fmt(q) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    n, d = int(q.numerator), int(q.denominator)
    return str(n) if d == 1 else f"{n}/{d}"


def sqrt3_floor(precision: int):
    """Rational lower approximation of sqrt(3) with error < 1/precision."""
    if precision < 1:
        raise ValueError("precision must be a positive integer")
    return R(math.isqrt(3 * precision * precision), precision)


def dyadic_between(lo, hi, target):
    """A dyadic rational strictly inside the open interval (lo, hi), as close
    to `target` as the chosen grid allows.

    Used to keep coordinate denominators bounded when a construction says
    "place the point anywhere on the open segment".
    """
    if not lo < hi:
        raise ValueError("empty interval")
    width = hi - lo
    # Grid step < width/4 so at least two interior grid points exist.
    e = max(0, (4 * int(width.denominator)).bit_length() - int(width.numerator).bit_length() + 2)
    scale = 1 << e
    base = rat_floor(target * scale)
    for cand in (base, base + 1, base - 1, base + 2):
        q = R(cand, scale)
        if lo < q < hi:
            return q
    # Target far outside the interval: fall back to the midpoint grid point.
    mid = (lo + hi) / 2
    q = R(rat_floor(mid * scale), scale)
    if lo < q < hi:
        return q
    return R(rat_floor(mid * scale) + 1, scale)
