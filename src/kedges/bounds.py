"""Lower-bound formulas for E_{<=k}(n) and the crossing-number pipeline.

Every bound is exact: the recursions run over ints with exact ceilings
and the rational values are fractions.Fraction.  The ceiling/floor
boundaries are off-by-one sensitive (n = 29 hits the halving formula
exactly at 1926/18 = 107), which is why no float decides anything.  The
one float is a display value: `explicit`, the asymptotic closed form in
the bound table.  Only lemma_brackets compares against a square root, by
exact squaring.

Bound inventory:

* aichholzer_bound   -- the closed-form 3-binomial bound,
                        3 C(k+2,2) + 3 C(k+2-floor(n/3),2)
                        - max(0, (k+1-floor(n/3)) (n-3 floor(n/3))),
                        clamped at C(n,2).
* u_sequence         -- the recursive improvement, seeded with the
                        closed form at m-1 = ceil((4n-11)/9) - 1, then
                        u_k = ceil((C(n,2) + (n-2k-3) u_{k-1})/(n-2k-2)).
* explicit_bound     -- the asymptotic closed form
                        C(n,2) - (1/9) sqrt(1-(2k+2)/n) (5n^2+19n-31),
                        as a display float.
* halving_upper_bound-- floor(n(n+30)/24 - 3) (even) /
                        floor((n-3)(n+45)/18 + 1/9) (odd), n >= 8.
* cr_lower_bound     -- the identity pipeline fed with the pointwise
                        max(closed form, recursion) for k <= floor(n/2)-2.
* u_prime_sequence   -- the 3-regular variant seeded at m = 17n/36 with a
                        third binomial term 18 C(m+1-floor(4n/9),2).
* asymptotic_constants, lemma_brackets -- exact consistency checks
  around the asymptotic story.
* bound_table        -- every per-k bound above for one n, side by side.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .edgestats import identity_leq_form
from .errors import InputError

# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def comb2(x: int) -> int:
    """C(x,2) with C(x,2) = 0 for x < 2."""
    return x * (x - 1) // 2 if x >= 2 else 0


# ---------------------------------------------------------------------------
# Closed-form and recursive lower bounds
# ---------------------------------------------------------------------------


def _check_nk(n: int, k: int):
    if n < 2:
        raise InputError(f"n too small: {n}")
    if not 0 <= k <= n // 2 - 1:
        raise InputError(f"k out of range: need 0 <= k <= floor(n/2)-1, got k={k}, n={n}")


def aichholzer_bound(n: int, k: int) -> int:
    """Closed-form lower bound on E_{<=k}(n); exact integer.

    Clamped at C(n,2), the number of all edges: the formula exceeds it at
    k = n/2 - 1 for even n <= 16, where E_{<=k} = C(n,2) exactly."""
    _check_nk(n, k)
    q = n // 3
    value = 3 * comb2(k + 2) + 3 * comb2(k + 2 - q) - max(0, (k + 1 - q) * (n - 3 * q))
    return min(value, comb(n, 2))


def m_start(n: int) -> int:
    """ceil((4n-11)/9), the first index the recursion improves from."""
    return -(-(4 * n - 11) // 9)


def _u_recursion(n: int, m: int, seed: int) -> dict[int, int]:
    """u_{m-1} = seed, then u_k = ceil((C(n,2) + (n-2k-3) u_{k-1}) / (n-2k-2))
    up to k = floor((n-3)/2)."""
    out = {m - 1: seed}
    for k in range(m, (n - 3) // 2 + 1):
        out[k] = -(-(comb(n, 2) + (n - 2 * k - 3) * out[k - 1]) // (n - 2 * k - 2))
    return out


def u_sequence(n: int) -> dict[int, int]:
    """u_k for m-1 <= k <= floor((n-3)/2), as exact integers, seeded with
    the closed form at m - 1."""
    if n < 3:
        raise InputError(f"n too small for the recursion: {n}")
    m = m_start(n)
    return _u_recursion(n, m, aichholzer_bound(n, m - 1))


def explicit_bound(n: int, k: int) -> float:
    """C(n,2) - (1/9) sqrt(1 - (2k+2)/n) (5n^2 + 19n - 31) as a float: both
    quotients are correctly rounded int divisions, then one square root."""
    if k < m_start(n) - 1:
        raise InputError(f"k below range: need k >= {m_start(n) - 1}, got {k}")
    if 2 * k > n - 2:
        raise InputError(f"k above range: need k <= (n-2)/2, got {k}")
    return comb(n, 2) - (5 * n * n + 19 * n - 31) / 9 * ((n - 2 * k - 2) / n) ** 0.5


def halving_upper_bound(n: int) -> int:
    """Upper bound on the halving-line count: floor(n(n+30)/24) - 3 for
    even n, floor(((n-3)(n+45) + 2)/18) for odd n, in integers."""
    if n < 8:
        raise InputError(f"halving bound needs n >= 8, got {n}")
    if n % 2 == 0:
        return n * (n + 30) // 24 - 3
    return ((n - 3) * (n + 45) + 2) // 18


def _best(aichholzer: int, u: int | None) -> tuple[int, str]:
    """(bound, source): u_k where it is defined and beats the closed form,
    otherwise the closed form."""
    if u is not None and u > aichholzer:
        return u, "u_k"
    return aichholzer, "aichholzer"


def cr_lower_bound(n: int) -> int:
    """Crossing-number lower bound: the per-k lower bounds
    max(closed form, u_k) on E_{<=k} for k = 0..floor(n/2)-2 (`bound_table`
    best), plugged into the E_{<=k} form of the identity."""
    if n < 8:
        raise InputError(f"cr bound needs n >= 8, got {n}")
    useq = u_sequence(n)
    return identity_leq_form(
        n, [_best(aichholzer_bound(n, k), useq.get(k))[0] for k in range(n // 2 - 1)])


def u_prime_sequence(n: int) -> dict[int, int]:
    """The 3-regular-set recursion, seeded at m = 17n/36; requires 36 | n
    (m must be integral; the seed formula is stated for multiples of 18,
    and 36 | n covers both constraints)."""
    if n % 36 != 0:
        raise InputError(f"u' sequence needs 36 | n, got {n}")
    m = 17 * n // 36
    q3, q49 = n // 3, (4 * n) // 9
    seed = 3 * comb2(m + 1) + 3 * comb2(m + 1 - q3) + 18 * comb2(m + 1 - q49)
    return _u_recursion(n, m, seed)


# ---------------------------------------------------------------------------
# Asymptotic constants
# ---------------------------------------------------------------------------


def _poly_mul(p, q) -> list:
    """Coefficients (constant first) of the product of two polynomials."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_integral(p, a, b):
    """Exact integral over [a, b] of the polynomial sum p[i] x^i."""
    return sum(Fraction(c) * (b ** (i + 1) - a ** (i + 1)) / (i + 1) for i, c in enumerate(p))


def asymptotic_constants() -> dict:
    """Integrate the two pieces of the asymptotic crossing constant exactly
    and compare them with 86/243 and 19/729 (sum 277/729); also decide
    (2/27)(15 - pi^2) > 0.380029 from pi < 355/113.

    Piece 1, 36 (1-2x)(x^2 + max(0, x-1/3)^2) on [0, 4/9], is a polynomial
    on [0, 1/3] and on [1/3, 4/9].  Piece 2, 24 (1-2x)(1/2 - (5/9) sqrt(1-2x))
    on [4/9, 1/2], becomes 12u (1/2 - (5/9) sqrt u) on [0, 1/9] with
    u = 1-2x, and the polynomial 24 t^3 (1/2 - (5/9) t) on [0, 1/3] with
    t = sqrt u (dx = -t dt)."""
    third = Fraction(1, 3)
    one_minus_2x = (1, -2)
    below = _poly_mul((0, 0, 36), one_minus_2x)  # 36 (1-2x) x^2
    above = _poly_mul((4, -24, 72), one_minus_2x)  # 36 (1-2x)(x^2 + (x-1/3)^2)
    i1 = _poly_integral(below, 0, third) + _poly_integral(above, third, Fraction(4, 9))
    i2 = _poly_integral(_poly_mul((0, 0, 0, 24), (Fraction(1, 2), Fraction(-5, 9))), 0, third)
    t1, t2 = Fraction(86, 243), Fraction(19, 729)
    total = Fraction(277, 729)
    return {
        "integral1": i1,
        "integral1_ok": i1 == t1,
        "integral2": i2,
        "integral2_ok": i2 == t2,
        "sum": i1 + i2,
        "sum_ok": i1 + i2 == total,
        "crossing_constant_exceeds_0.379972": total > Fraction("0.379972"),
        # pi < 355/113, so the 3-decomposable constant (2/27)(15 - pi^2)
        # exceeds (2/27)(15 - (355/113)^2) = 0.3800291...
        "three_decomposable_exceeds_0.380029":
            Fraction(2, 27) * (15 - Fraction(355, 113) ** 2) > Fraction("0.380029"),
    }


# ---------------------------------------------------------------------------
# Bracket lemmas (exact restatement)
# ---------------------------------------------------------------------------


def lemma_brackets(n: int) -> tuple[str, ...]:
    """Exact verification of the two growth-estimate brackets:

      (i)  3 sqrt(1-(2k+9/2)/n) < (C(n,2)-u_k)/(C(n,2)-u_{m-1})
                                <= 3 sqrt(1-(2k+2)/n)
           for m-1 <= k <= (n-5)/2;
      (ii) 3 sqrt(1-(2k+9/2)/n) (C(n,2)-u_{m-1}) >= (n-1)(n-2k-3)
           for m <= k <= (n-5)/2.

    Returns one string per violated bracket, empty when all hold; empty
    ranges pass vacuously.  All comparisons by exact squaring."""
    if n < 6:
        raise InputError("bracket check needs n >= 6")
    m = m_start(n)
    useq = u_sequence(n)
    total = comb(n, 2)
    d0 = total - useq[m - 1]
    checked = range(m - 1, (n - 5) // 2 + 1)
    if d0 <= 0:
        return tuple(f"k={k}: seed bound reaches C(n,2)" for k in checked)
    violations = []
    for k in checked:
        lo_sq = Fraction(18 * (n - 2 * k) - 81, 2 * n)  # 9(1-(2k+9/2)/n)
        hi_sq = Fraction(9 * (n - 2 * k - 2), n)
        ratio = Fraction(total - useq[k], d0)
        if not (ratio > 0 and lo_sq < ratio * ratio):
            violations.append(f"k={k}: lower bracket fails")
        if not (ratio * ratio <= hi_sq):
            violations.append(f"k={k}: upper bracket fails")
        if k >= m:
            rhs = (n - 1) * (n - 2 * k - 3)
            if not (lo_sq * d0 * d0 >= rhs * rhs):
                violations.append(f"k={k}: estimate lemma fails")
    return tuple(violations)


# ---------------------------------------------------------------------------
# Per-n bound table
# ---------------------------------------------------------------------------


class BoundTableRow(NamedTuple):
    k: int
    aichholzer: int
    u_k: int | None
    u_prime_k: int | None
    explicit: float | None
    best: int
    source: str


def bound_table(n: int, with_u_prime: bool = False) -> tuple[BoundTableRow, ...]:
    """Per-k rows, k = 0..floor(n/2)-1, of all lower bounds for E_{<=k}(n).

    `best` is the max of the unconditional bounds (closed form and u_k);
    u'_k applies only to 3-regular sets and is reported as a reference
    column, never folded into `best`; with_u_prime needs 36 | n."""
    useq = u_sequence(n)
    upseq = u_prime_sequence(n) if with_u_prime else {}
    m = m_start(n)
    rows = []
    for k in range(n // 2):
        a = aichholzer_bound(n, k)
        u = useq.get(k)
        best, source = _best(a, u)
        expl = None
        if m - 1 <= k and 2 * k <= n - 2:
            expl = explicit_bound(n, k)
        rows.append(BoundTableRow(k, a, u, upseq.get(k), expl, best, source))
    return tuple(rows)
