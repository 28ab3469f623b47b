"""The seeded random inputs of the selftest suites: general-position point
sets and random reduced words of the reversal (abstract halfperiods)."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from .circseq import Halfperiod, Transposition, require_valid
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


def random_reduced_word(n: int, rng: random.Random) -> Halfperiod:
    """A random simple allowable sequence from the identity of 1..n: swap
    a random adjacent pair still in increasing order, one rng.choice per
    step, until the order is reversed.  These include non-stretchable
    sequences.  Returned through require_valid, so its axiom walk is made
    and cached.  Deterministic for a given rng state."""
    perm = list(range(1, n + 1))
    ts = []
    for step in range(1, comb(n, 2) + 1):
        j = rng.choice([q for q in range(n - 1) if perm[q] < perm[q + 1]])
        ts.append(Transposition(step, j + 1, (perm[j], perm[j + 1])))
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return require_valid(Halfperiod(n, tuple(range(1, n + 1)), tuple(ts)))
