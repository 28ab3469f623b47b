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

      cr = C(n,4) - sum_p [C(n-1,3) - sum_q C(L_p(q), 2)]
         = sum_p sum_q C(L_p(q), 2) - 3 C(n,4),

  since a 4-set is not convex iff one of its points lies in the triangle
  of the other three, and the triangles around p that miss it are counted
  once each by their first vertex counterclockwise (Rote, Woeginger, Zhu &
  Wang 1991, "Counting k-subsets and convex k-gons in the plane").  Each
  pair's direction q - p is folded once into the upper half turn (negated
  when it points down), so p -> q and q -> p share it and differ only in
  the half turn they came from.  One exact sort of the n - 1 folded
  directions around p merges both halves, and the window is a count of
  ranks: the item at merged position c, from half h with o earlier items
  of half h, has L_p(q) = (|half h| - 1 - o) + (c - o).

Route B does not use the sweep's geometry (`PointSet.angles`); it shares
only the generic exact sort (`geom._sort_exact` on `geom._ratio_key`
keys).  The O(n^3) side count (`pair_levels`) and the convex 4-subset
count (`crossings_bruteforce`) are kept as oracles for the tests and one
small-n selftest check.

The edge vector (E_0, ..., E_{floor(n/2)-1}) is a plain tuple of ints,
the sweep's cached `Halfperiod.level_counts`.  Nothing re-checks it;
every pair of a valid halfperiod is exactly one j-edge, so it sums to
C(n,2) and its last entry is the halving-line count.  `summarize` is
the one certificate of a point set: `analyze`, `selftest identities` and
the builders run it, and any disagreement of the routes or of the
identity forms raises VerificationError.  It evaluates the identity in
both closed forms, the second through `identity_leq_form` on the prefix
sums E_{<=k}:

    cr = 3 C(n,4) - sum_k k (n-k-2) E_k
       = sum_{k<=n/2-2} (n-2k-3) E_{<=k} - (3/4) C(n,3)
         + (1 + (-1)^(n+1)) (1/8) C(n,2)
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, inf

from .circseq import Halfperiod, halfperiod_from_points
from .errors import GeneralPositionError, InputError, VerificationError
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


def radial_counts(ps: PointSet) -> tuple[dict[tuple[int, int], int], int]:
    """Route B: the level of every pair (i, j), i < j, and the crossing
    number, from the radial order of the other points around each point
    (see the module docstring).  O(n^2 log n).

    The direction of pair p < q is (Xq*Wp - Xp*Wq, Yq*Wp - Yp*Wq) on the
    homogeneous coordinates, Wp*Wq > 0 times q - p.  It is made once and
    folded into [0, pi): negated when dy < 0, or dy = 0 and dx < 0, with
    the float key -dx/dy (-inf at dy = 0), which increases with the
    angle.  Around p the direction to q came from half h (0 for [0, pi),
    1 for [pi, 2*pi)), and q -> p from the other half.  A point's list is
    filled as its pairs are made and dropped once sorted.  In the merged
    order the later items of q's half are left of p -> q, and so are the
    earlier items of the other half, whose unfolded directions lie within
    a half turn after q's: hence the rank formula.  `_sort_exact` orders
    equal keys by the cross product; a zero one is a collinear triple, p
    between q and r (other halves) or at one end (one half), and raises
    GeneralPositionError."""
    hom = ps.homogeneous
    n = len(hom)
    around = [[] for _ in range(n)]  # (key, dx, dy, h, q) per q, filled as pairs are made
    down = [0] * n  # |half 1| around each point
    mid = (n - 1) // 2  # L < mid iff L < n - 2 - L
    levels = {}
    total = 0  # sum over p and q of C(L_p(q), 2)

    def cmp(u, v):  # exact order of two folded directions around the current p
        cross = u[1] * v[2] - u[2] * v[1]
        if not cross:
            raise GeneralPositionError(f"not in general position: points {p}, {u[4]}, {v[4]} "
                                       "are collinear")
        return -1 if cross > 0 else 1

    for p, (xp, yp, wp) in enumerate(hom):
        items, around[p] = around[p], None
        for q in range(p + 1, n):
            xq, yq, wq = hom[q]
            dx, dy = xq * wp - xp * wq, yq * wp - yp * wq
            h = dy < 0 or (dy == 0 and dx < 0)
            if h:
                dx, dy = -dx, -dy
            down[p if h else q] += 1
            key = _ratio_key(-dx, dy) if dy else -inf
            items.append((key, dx, dy, h, q))
            around[q].append((key, dx, dy, not h, p))
        rest = (n - 2 - down[p], down[p] - 1)  # |half h| - 1
        seen = [0, 0]
        for c, (_, _, _, h, q) in enumerate(_sort_exact(items, [it[0] for it in items], cmp)):
            o = seen[h]
            seen[h] = o + 1
            left = rest[h] - o + c - o
            total += left * (left - 1) // 2
            if p < q:
                levels[p, q] = left if left < mid else n - 2 - left
    return levels, total - 3 * comb(n, 4)


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
    raises VerificationError.
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
        raise VerificationError(f"E_<=k identity is not an integer: {eight}/8")
    return value


def summarize(ps: PointSet, h: Halfperiod | None = None) -> tuple[tuple[int, ...], int]:
    """(edge vector, crossing number) of a point set, certified.

    The edge vector is the sweep's `Halfperiod.level_counts` (route A; pass
    the halfperiod as `h` when it is already built).  Its pair levels are
    checked against the radial orders (route B) pair by pair, and route B's
    crossing number against both forms of the identity; any disagreement
    raises VerificationError (it would mean a kernel bug, not bad input)."""
    if h is None:
        h = halfperiod_from_points(ps)
    levels, cr_radial = radial_counts(ps)
    swept = h.point_levels
    if swept != levels:
        pair = next(pair for pair in sorted(levels.keys() | swept.keys())
                    if swept.get(pair) != levels.get(pair))
        raise VerificationError(f"pair {pair} has level {swept.get(pair)} in the sweep and "
                                f"{levels.get(pair)} in the radial orders")
    n, counts = h.n, h.level_counts
    form1 = 3 * comb(n, 4) - sum(k * (n - k - 2) * ek for k, ek in enumerate(counts))
    form2 = identity_leq_form(n, accumulate(counts))
    if not cr_radial == form1 == form2:
        raise VerificationError(
            f"crossing identity mismatch: radial={cr_radial} form1={form1} form2={form2}"
        )
    return counts, form1
