"""k-edge vectors, halving lines, and rectilinear crossing numbers.

Every count of a point set is made by two independent O(n^2 log n)
routes, and a point set's report is only given when they agree:

* route A, the circular sequence: the sweep's halfperiod labels each pair
  with its level (`Halfperiod.point_levels`: a swap at slots (j, j+1) is a
  (min(j, n-j) - 1)-edge), and cr follows from the edge vector by the
  identity below;
* route B, radial orders (`radial_counts`): around each point p the others
  are sorted by angle, and L_p(q), the points strictly left of p -> q, is
  a half-turn window of that order, so level(p, q) = min(L, n-2-L) and

      cr = C(n,4) - sum_p [C(n-1,3) - sum_q C(L_p(q), 2)],

  since a 4-set is not convex iff one of its points lies in the triangle
  of the other three, and the triangles around p that miss it are counted
  once each by their first vertex counterclockwise (Rote, Woeginger, Zhu &
  Wang 1991, "Counting k-subsets and convex k-gons in the plane").

Route B does not use the sweep's geometry (`PointSet.angles`); it shares
only the generic exact sort (`geom._sort_exact` on `geom._ratio_key`
keys).  The O(n^3) side count (`pair_levels`) and the convex 4-subset
count (`crossings_bruteforce`) are kept as oracles for the tests and one
small-n selftest check.

The edge vector (E_0, ..., E_{floor(n/2)-1}) is a plain tuple of ints,
the sweep's cached `Halfperiod.level_counts`.  Nothing re-checks it;
every pair of a valid halfperiod is exactly one j-edge, so it sums to
C(n,2) and its last entry is the halving-line count.  `summarize`
evaluates the identity in both closed forms, the second through
`identity_leq_form` on the prefix sums E_{<=k}:

    cr = 3 C(n,4) - sum_k k (n-k-2) E_k
       = sum_{k<=n/2-2} (n-2k-3) E_{<=k} - (3/4) C(n,3)
         + (1 + (-1)^(n+1)) (1/8) C(n,2)
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import comb, inf

from .circseq import Halfperiod, halfperiod_from_points
from .errors import GeneralPositionError, InputError
from .geom import PointSet, _ratio_key, _sort_exact


def pair_levels(ps: PointSet) -> dict[tuple[int, int], int]:
    """k-edge level of every unordered pair: the points strictly on the
    smaller side of line (i, j), by exhaustive side counting; the O(n^3)
    oracle for both routes.

    Per pair the line is formed once (PointSet.pair_lines); a point's side
    is then the sign of a*X + b*Y + c*W on its homogeneous coordinates
    (the points i and j give 0 and count on neither side)."""
    ps.require_general_position()
    hom = ps.homogeneous
    n = len(hom)
    levels = {}
    for i, j, a, b, c in ps.pair_lines():
        left = 0
        for x, y, w in hom:
            if a * x + b * y + c * w > 0:
                left += 1
        levels[i, j] = min(left, n - 2 - left)
    return levels


def _collinear(p, q, r):
    return GeneralPositionError(
        f"not in general position: points {p}, {q}, {r} are collinear",
        triples=(tuple(sorted((p, q, r))),),
    )


def radial_counts(ps: PointSet) -> tuple[dict[tuple[int, int], int], int]:
    """Route B: the level of every pair (i, j), i < j, and the crossing
    number, from the radial order of the other points around each point
    (see the module docstring).  O(n^2 log n).

    Around p the direction to q is (Xq*Wp - Xp*Wq, Yq*Wp - Yp*Wq) on the
    homogeneous coordinates, Wp*Wq > 0 times q - p.  The directions are
    split into the half turns [0, pi) and [pi, 2*pi) and each half is
    sorted on the float key -dx/dy (-inf at dy = 0), which increases with
    the angle.  The key is a correctly rounded quotient of ints, so keys
    that differ are in exact order; `_sort_exact` re-sorts runs of equal
    keys by exact cross products.  The antipode of q's direction has q's key in the
    other half, so L_p(q) is the rest of q's half plus a bisection of the
    other half, again with equal keys decided exactly.  Any exact tie is a
    collinear triple: GeneralPositionError."""
    hom = ps.homogeneous
    n = len(hom)
    levels = {}
    inside = 0  # sum over p of the triangles of other points that contain p
    for p, (xp, yp, wp) in enumerate(hom):
        halves = ([], [])
        for q, (xq, yq, wq) in enumerate(hom):
            if q == p:
                continue
            dx, dy = xq * wp - xp * wq, yq * wp - yp * wq
            if dy > 0:
                key = _ratio_key(-dx, dy)
            elif dy < 0:
                key = _ratio_key(dx, -dy)
            else:
                key = -inf
            halves[dy < 0 or (dy == 0 and dx < 0)].append((key, dx, dy, q))
        for half in halves:
            half[:] = _sort_exact(half, [item[0] for item in half],
                                  lambda u, v: _radial_cmp(p, u, v))
        keys = ([item[0] for item in halves[0]], [item[0] for item in halves[1]])
        triangles = comb(n - 1, 3)
        for h in (0, 1):
            mine, other, other_keys = halves[h], halves[1 - h], keys[1 - h]
            rest = len(mine)
            for key, dx, dy, q in mine:
                rest -= 1
                at = bisect_left(other_keys, key)
                end = bisect_right(other_keys, key, at)
                for _, rx, ry, r in other[at:end]:  # equal keys: count those before -d
                    cross = ry * dx - rx * dy
                    if not cross:
                        raise _collinear(p, q, r)
                    at += cross > 0
                left = rest + at
                triangles -= left * (left - 1) // 2
                if p < q:
                    levels[p, q] = min(left, n - 2 - left)
        inside += triangles
    return levels, comb(n, 4) - inside


def _radial_cmp(p, u, v) -> int:
    """Exact order of two directions around p in one half turn."""
    cross = u[1] * v[2] - u[2] * v[1]
    if not cross:
        raise _collinear(p, u[3], v[3])
    return -1 if cross > 0 else 1


def check_routes(ps: PointSet, h: Halfperiod) -> int:
    """Compare route A's pair levels (h, swept from ps) with route B's and
    return route B's crossing number.  Any difference is a kernel bug, not
    bad input, so it raises AssertionError."""
    levels, cr = radial_counts(ps)
    swept = h.point_levels
    if swept != levels:
        pair = next(pair for pair in sorted(levels.keys() | swept.keys())
                    if swept.get(pair) != levels.get(pair))
        raise AssertionError(
            f"pair {pair} has level {swept.get(pair)} in the sweep and "
            f"{levels.get(pair)} in the radial orders"
        )
    return cr


def crossings_bruteforce(ps: PointSet) -> int:
    """Number of crossing segment pairs = number of 4-point subsets in
    convex position.

    One O(n^3) pass writes every triple orientation into a flat bytearray
    (side[(i*n + j)*n + k] = 1 iff orientation(i, j, k) > 0, i < j < k).
    Four points are in convex position iff their four triangle
    orientations do not split 3:1, i.e. an even number of them is
    positive.  The 4-subset loop only reads the table: for fixed i < j < k
    the rows (i, j), (i, k), (j, k) read as little-endian ints are XORed,
    so one popcount covers every l > k at once."""
    ps.require_general_position()
    n = ps.n
    if n < 4:
        return 0
    hom = ps.homogeneous
    side = bytearray(n * n * n)
    for i, j, a, b, c in ps.pair_lines():
        row = (i * n + j) * n
        for k in range(j + 1, n):
            xk, yk, wk = hom[k]
            if a * xk + b * yk + c * wk > 0:
                side[row + k] = 1
    rows = [int.from_bytes(side[r : r + n], "little") for r in range(0, n * n * n, n)]
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            ij = i * n + j
            r_ij = rows[ij]
            for k in range(j + 1, n - 1):
                # Bytes l > k of the XOR hold o(i,j,l) ^ o(i,k,l) ^ o(j,k,l);
                # the subset is convex iff that equals o(i,j,k).
                ones = ((r_ij ^ rows[i * n + k] ^ rows[j * n + k]) >> (8 * k + 8)).bit_count()
                count += ones if side[ij * n + k] else n - k - 1 - ones
    return count


def identity_leq_form(n: int, leq_values) -> int:
    """The E_{<=k} form of the identity, an exact integer:

        sum_{k=0}^{floor(n/2)-2} (n-2k-3) L_k - (3/4) C(n,3)
        + (1 + (-1)^(n+1)) (1/8) C(n,2)

    where L_k are the supplied values for E_{<=k}.  Also used by the bounds
    pipeline with per-k lower bounds in place of true counts.  The value is
    evaluated as eight times itself; a remainder mod 8 is a kernel bug, so it
    raises AssertionError.
    """
    top = n // 2 - 2
    leq_values = list(leq_values)
    if len(leq_values) < top + 1:
        raise InputError(f"need E_<=k values for k = 0..{top}")
    eight = 8 * sum((n - 2 * k - 3) * leq_values[k] for k in range(top + 1)) - 6 * comb(n, 3)
    if n % 2 == 1:
        eight += 2 * comb(n, 2)
    value, rem = divmod(eight, 8)
    if rem:
        raise AssertionError(f"E_<=k identity is not an integer: {eight}/8")
    return value


def summarize(ps: PointSet, h: Halfperiod | None = None) -> tuple[tuple[int, ...], int]:
    """(edge vector, crossing number) of a point set.

    The edge vector is the sweep's `Halfperiod.level_counts` (route A; pass
    the halfperiod as `h` when it is already built with tie_break=True).
    Its pair levels are checked against the radial orders (route B) pair by
    pair, and route B's crossing number against both forms of the
    identity; any disagreement raises AssertionError (it would mean a
    kernel bug, not bad input)."""
    if h is None:
        h = halfperiod_from_points(ps, tie_break=True)
    cr_radial = check_routes(ps, h)
    n, counts = h.n, h.level_counts
    form1 = 3 * comb(n, 4) - sum(k * (n - k - 2) * ek for k, ek in enumerate(counts))
    form2 = identity_leq_form(n, accumulate(counts))
    if not cr_radial == form1 == form2:
        raise AssertionError(
            f"crossing identity mismatch: radial={cr_radial} form1={form1} form2={form2}"
        )
    return counts, form1
