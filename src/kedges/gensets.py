"""Deterministic generators for test and selftest point sets."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import InputError
from .geom import Point, PointSet


def random_general_position_set(n: int, rng: random.Random) -> PointSet:
    """Uniform integer points in a box of side max(64, 8n^2), rejected
    until no triple is collinear.  Deterministic for a given rng state."""
    if n < 3:
        raise InputError("n >= 3 required")
    box = max(64, 8 * n * n)
    for _ in range(2000):
        coords = {(rng.randrange(box), rng.randrange(box)) for _ in range(n)}
        if len(coords) != n:
            continue
        ps = PointSet([Point(Fraction(x), Fraction(y)) for x, y in sorted(coords)])
        if ps.general_position:
            return ps
    raise InputError(f"could not draw a general-position {n}-set (box={box})")


def convex_polygon_set(n: int, scale: int = 10**9, phase: float = 0.37) -> PointSet:
    """Integer approximation of a regular n-gon, certified to be in convex
    and general position (both exact checks; scale leaves huge margins)."""
    from .geom import orientation

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
