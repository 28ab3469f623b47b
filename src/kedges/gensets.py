"""The seeded random point sets of the selftest corpus."""

from __future__ import annotations

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
