"""k-edge vectors, halving lines, and rectilinear crossing numbers.

Two independent routes are kept available at all times:

* brute force over point sets (side counts per pair for E_k, convex
  4-subsets for cr) -- the ground-truth oracle, O(n^3) and O(n^4);
* the halfperiod route (transposition positions for E_k, the classical
  identity linking cr to the edge vector) -- the fast path.

The identity evaluated in both closed forms:

    cr = 3 C(n,4) - sum_k k (n-k-2) E_k
       = sum_{k<=n/2-2} (n-2k-3) E_{<=k} - (3/4) C(n,3)
         + (1 + (-1)^(n+1)) (1/8) C(n,2)
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .circseq import Halfperiod, halfperiod_from_points
from .errors import InputError
from .geom import PointSet
from .rat import R, as_int


@dataclass(frozen=True)
class EdgeVector:
    """Counts (E_0, ..., E_{floor(n/2)-1}).

    Invariants: sum of counts = C(n,2) (every pair spans exactly one
    j-edge) and the last entry is the halving-line count h.
    """

    n: int
    counts: tuple[int, ...]

    def validate(self) -> "EdgeVector":
        if self.n < 2:
            raise InputError("edge vector needs n >= 2")
        if len(self.counts) != self.n // 2:
            raise InputError(
                f"edge vector for n={self.n} must have {self.n // 2} entries, "
                f"got {len(self.counts)}"
            )
        if any(c < 0 for c in self.counts):
            raise InputError("negative edge count")
        if sum(self.counts) != comb(self.n, 2):
            raise InputError(
                f"edge counts sum to {sum(self.counts)}, expected C({self.n},2) = {comb(self.n, 2)}"
            )
        return self

    def leq(self, k: int) -> int:
        return sum(self.counts[: k + 1])

    def geq(self, k: int) -> int:
        return sum(self.counts[k:])

    @property
    def e_leq(self) -> tuple[int, ...]:
        out, acc = [], 0
        for c in self.counts:
            acc += c
            out.append(acc)
        return tuple(out)

    @property
    def halving(self) -> int:
        return self.counts[-1]


def pair_levels(ps: PointSet) -> dict[tuple[int, int], int]:
    """k-edge level of every unordered pair: the points strictly on the
    smaller side of line (i, j).  The workhorse for labeled counts
    (bichromatic splits) and for the brute-force edge vector.

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


def edge_vector_bruteforce(ps: PointSet, levels=None) -> EdgeVector:
    """E_k by exhaustive side counting. O(n^3).

    Pass the set's pair levels when they are already computed, so the
    side counts are not made twice."""
    n = ps.n
    if n < 2:
        raise InputError("need at least 2 points")
    if levels is None:
        levels = pair_levels(ps)
    counts = [0] * (n // 2)
    for level in levels.values():
        counts[level] += 1
    return EdgeVector(n, tuple(counts)).validate()


def edge_vector_from_halfperiod(h: Halfperiod) -> EdgeVector:
    """E_k from transposition positions: a swap at slots (j, j+1) is a
    (min(j, n-j) - 1)-edge, so E_k counts positions k+1 and n-k-1 (the
    central position n/2 of an even n counts once).  The tally is the
    instance's cached `level_counts`."""
    return EdgeVector(h.n, h.level_counts).validate()


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


def identity_leq_form(n: int, leq_values) -> object:
    """The E_{<=k} form of the identity as an exact rational:

        sum_{k=0}^{floor(n/2)-2} (n-2k-3) L_k - (3/4) C(n,3)
        + (1 + (-1)^(n+1)) (1/8) C(n,2)

    where L_k are the supplied values for E_{<=k}.  Also used by the bounds
    pipeline with per-k lower bounds in place of true counts.
    """
    top = n // 2 - 2
    leq_values = list(leq_values)
    if len(leq_values) < top + 1:
        raise InputError(f"need E_<=k values for k = 0..{top}")
    total = R(0)
    for k in range(top + 1):
        total += (n - 2 * k - 3) * R(leq_values[k])
    total -= R(3, 4) * comb(n, 3)
    if n % 2 == 1:
        total += R(comb(n, 2), 4)
    return total


def crossings_from_edge_vector(v: EdgeVector) -> tuple[int, int]:
    """Both closed forms of the identity, evaluated exactly; they agree on
    every valid edge vector."""
    v.validate()
    n = v.n
    form1 = 3 * comb(n, 4) - sum(
        k * (n - k - 2) * ek for k, ek in enumerate(v.counts)
    )
    form2 = as_int(identity_leq_form(n, v.e_leq))
    return form1, form2


@dataclass(frozen=True)
class CrossingReport:
    """Crossing number by all available routes plus the edge vector.

    cr_bruteforce is None when the input was an abstract halfperiod (the
    4-subset count needs coordinates); the two identity forms must agree
    in every case, and all three must agree for point sets.
    """

    n: int
    cr_bruteforce: int | None
    cr_identity_form1: int
    cr_identity_form2: int
    edge_vector: EdgeVector

    @property
    def consistent(self) -> bool:
        if self.cr_identity_form1 != self.cr_identity_form2:
            return False
        if self.cr_bruteforce is not None and self.cr_bruteforce != self.cr_identity_form1:
            return False
        return True

    @property
    def crossings(self) -> int:
        return self.cr_identity_form1

    @property
    def halving_lines(self) -> int:
        return self.edge_vector.halving


def summarize(obj) -> CrossingReport:
    """CrossingReport for a PointSet or a Halfperiod.

    For point sets the halfperiod route is cross-checked against brute
    force; any disagreement raises (it would mean a kernel bug, not bad
    input)."""
    if isinstance(obj, PointSet):
        v = edge_vector_bruteforce(obj)
        v2 = edge_vector_from_halfperiod(halfperiod_from_points(obj, tie_break=True))
        if v != v2:
            raise AssertionError(
                f"edge vector mismatch between brute force {v.counts} and sweep {v2.counts}"
            )
        cr_bf = crossings_bruteforce(obj)
    elif isinstance(obj, Halfperiod):
        v = edge_vector_from_halfperiod(obj)
        cr_bf = None
    else:
        raise InputError(f"cannot summarize {type(obj).__name__}")
    f1, f2 = crossings_from_edge_vector(v)
    report = CrossingReport(v.n, cr_bf, f1, f2, v)
    if not report.consistent:
        raise AssertionError(
            f"crossing identity mismatch: brute={cr_bf} form1={f1} form2={f2}"
        )
    return report
