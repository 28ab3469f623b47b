"""Circular sequences and abstract simple allowable sequences.

A halfperiod records the C(n,2)+1 projection orders a point set runs
through as the projection direction rotates by pi: consecutive orders
differ by one adjacent transposition and every unordered pair of labels
swaps exactly once, ending at the reverse of the initial permutation.
Abstract halfperiods (not derived from points) are first-class: every
downstream statistic consumes a Halfperiod, so the machinery applies to
allowable sequences whether or not they are stretchable.

A transposition acting on slots (j, j+1) encodes a (min(j, n-j) - 1)-edge;
that correspondence is what turns sweep combinatorics into edge counts.

A transposition is the plain tuple (step, position, (left, right)): step
is its 1-based index in the halfperiod, position the 1-based left slot of
the swap, and (left, right) the labels as they stood in those two slots
just before it.  A halfperiod holds C(n,2) of them, so they are built as
tuple literals and read by unpacking.  central.classify's rows are plain
tuples too, one per transposition, with the fields of
central.TranspositionRecord in order.
"""

from __future__ import annotations

import functools
from itertools import islice
from math import comb

from .errors import InputError
from .geom import Frozen, PointSet


class Halfperiod(Frozen):
    """n, an initial permutation of 1..n, and C(n,2) transpositions, each
    the plain tuple (step, position, (left, right)).

    Construction does not enforce the allowable-sequence axioms; use
    validate_allowable to obtain the violation report (empty iff valid).
    halfperiod_from_points returns a validated instance.  read_halfperiod
    does not validate; the classify command passes what it reads through
    require_valid.

    The fields are immutable, so the axiom walk is made at most once per
    instance (`axiom_walk`): the violations, which require_valid reads,
    and the per-position index of the transpositions, which `level_counts`
    and each `k_critical(k)` read (and cache) in place of a rescan of the
    transpositions.

    A halfperiod swept from a point set also records the point index
    behind each label (`point_index`, label l is point point_index[l-1]);
    it takes no part in equality, hash or repr.
    """

    n: int
    initial: tuple[int, ...]
    transpositions: tuple[tuple[int, int, tuple[int, int]], ...]
    point_index: tuple[int, ...] | None

    def __init__(self, n, initial, transpositions, point_index=None):
        vars(self).update(n=n, initial=initial, transpositions=transpositions,
                          point_index=point_index)

    def _key(self):
        return self.n, self.initial, self.transpositions

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"Halfperiod(n={self.n!r}, initial={self.initial!r}, "
                f"transpositions={self.transpositions!r})")

    @functools.cached_property
    def axiom_walk(self) -> tuple[tuple[str, ...], tuple]:
        """(violations, index) of this instance's one validate_allowable
        walk: index[j], 0 <= j <= n, lists in order (t, left, right) for
        the transposition of index t at position j, left and right the
        labels standing in its two slots just before it (empty if the
        initial permutation failed)."""
        at: list[list[tuple[int, int, int]]] = []
        report = validate_allowable(self, at)
        return tuple(report), tuple(map(tuple, at))

    @functools.cached_property
    def level_counts(self) -> tuple[int, ...]:
        """(E_0, ..., E_{floor(n/2)-1}) read once per instance off the axiom
        walk's per-position index: a swap at slots (j, j+1) is a
        (min(j, n-j) - 1)-edge.  Requires a valid halfperiod."""
        at = require_valid(self).axiom_walk[1]
        n = self.n
        counts = [0] * (n // 2)
        for j in range(1, n):
            counts[min(j, n - j) - 1] += len(at[j])
        return tuple(counts)

    @functools.cached_property
    def point_levels(self) -> dict[tuple[int, int], int]:
        """The level of every point pair (i, j), i < j, of a swept point
        set: the pair swapped at slots (j, j+1) is a (min(j, n-j) - 1)-edge,
        its labels mapped back to point indices.  Requires a valid
        halfperiod with a `point_index`."""
        if self.point_index is None:
            raise InputError("an abstract halfperiod has no point pairs")
        require_valid(self)
        n, index = self.n, self.point_index
        levels = {}
        for _step, pos, (a, b) in self.transpositions:
            i, j = index[a - 1], index[b - 1]
            levels[(i, j) if i < j else (j, i)] = min(pos, n - pos) - 1
        return levels

    @functools.cached_property
    def _k_critical_by_k(self) -> dict[int, tuple]:
        return {}

    def k_critical(self, k: int) -> tuple[tuple[int, str, int, int], ...]:
        """(index, boundary, entering, leaving) of each k-critical
        transposition in order: a swap in slots (k, k+1) lets the left
        label into the k-center, one in slots (n-k, n-k+1) the right one.
        Read once per k and instance off positions k and n-k of the axiom
        walk's per-position index; requires a valid halfperiod and
        1 <= k < n/2."""
        cache = self._k_critical_by_k
        crit = cache.get(k)
        if crit is None:
            _check_k(self.n, k)
            at = require_valid(self).axiom_walk[1]
            crit = [(idx, "k", left, right) for idx, left, right in at[k]]
            crit += [(idx, "n-k", right, left) for idx, left, right in at[self.n - k]]
            crit.sort()
            crit = cache[k] = tuple(crit)
        return crit


def validate_allowable(h: Halfperiod, at: list | None = None) -> list[str]:
    """Check the simple-allowable-sequence axioms; returns the list of
    violations (empty iff h is a valid halfperiod).

    Violations are data, not errors: axioms checked are the step numbering
    1..C(n,2), slot adjacency of the recorded pairs, every pair swapped
    exactly once, the expected transposition count, and final permutation
    = reverse of initial.  When the list `at` is given and the initial
    permutation passes, it gets n + 1 lists: at[j] holds, in order,
    (t, left, right) for the in-range transposition of index t at position
    j, left and right the labels standing in its two slots just before it.

    The "swapped again" table is a dict keyed by the int a*(n+1) + b of
    each sorted label pair (a, b), one entry per in-range transposition
    read, so its size is bounded by the input and not by (n+1)^2.
    """
    report = []
    n = h.n
    if len(h.initial) != n or sorted(h.initial) != list(range(1, n + 1)):
        report.append(f"initial is not a permutation of 1..{n}")
        return report
    if at is not None:
        at.extend([] for _ in range(n + 1))
    expected = comb(n, 2)
    if len(h.transpositions) != expected:
        report.append(
            f"expected C({n},2) = {expected} transpositions, found {len(h.transpositions)}"
        )
    perm = list(h.initial)
    width = n + 1
    seen: dict[int, int] = {}  # a*(n+1) + b of a sorted label pair -> its first step
    for idx, (step, position, pair) in enumerate(h.transpositions):
        if step != idx + 1:
            report.append(f"step {idx + 1}: recorded step number {step}")
        if not 1 <= position <= n - 1:
            report.append(f"step {idx + 1}: position {position} out of range 1..{n - 1}")
            continue
        j = position - 1
        a, b = here = perm[j], perm[position]
        if at is not None:
            at[position].append((idx, a, b))
        if pair != here and pair != (b, a):
            report.append(
                f"step {idx + 1}: recorded pair {pair} but slots hold {here}"
            )
        key = a * width + b if a < b else b * width + a
        if key in seen:
            report.append(
                f"step {idx + 1}: pair {here if a < b else (b, a)} swapped again "
                f"(first at step {seen[key]})"
            )
        else:
            seen[key] = idx + 1
        perm[j], perm[position] = b, a
    if perm != list(reversed(h.initial)):
        report.append("final permutation is not the reverse of the initial one")
    return report


def require_valid(h: Halfperiod) -> Halfperiod:
    """h itself if it satisfies the axioms, else InputError; walks h only
    on the first call for the instance."""
    report = h.axiom_walk[0]
    if report:
        raise InputError("invalid halfperiod: " + "; ".join(report[:3]))
    return h


# ---------------------------------------------------------------------------
# Sweep construction from a point set
# ---------------------------------------------------------------------------


def halfperiod_from_points(ps: PointSet) -> Halfperiod:
    """Halfperiod of the circular sequence of a point set.

    The sweep starts at angle 0-, from the set's `initial_order` (by x,
    ties broken by descending y): no event angle lies below 0, so that is
    the order just before the first event.  Labels 1..n are assigned in
    that order, so `initial` is the identity.  The events are the set's
    own sorted angle runs (`PointSet.angles`), each recorded as a swap of
    the slots its two labels stand in.  The one validity check is the
    axiom walk of `require_valid`: an event whose labels do not stand in
    adjacent slots fails it as a recorded pair the slots do not hold.

    Point pairs spanning parallel lines swap at the same direction, and
    an angle run keeps them in pair-index order.  General position makes
    the pairs of one run disjoint and slot-disjoint, so any order of them
    is a simple allowable sequence, which the central inequality and the
    bounds cover.
    """
    ps.require_general_position()
    n = ps.n
    if n < 2:
        raise InputError("need at least 2 points")

    order = ps.initial_order
    label_of = [0] * n
    for lab, pt_index in enumerate(order, start=1):
        label_of[pt_index] = lab

    slot_of = list(range(-1, n))  # slot_of[label], 0-based; label 0 unused
    trans = []
    events = (ev for run in ps.angles for ev in run)
    for step, (_, i, j) in enumerate(events, start=1):
        la, lb = label_of[i], label_of[j]
        sa, sb = slot_of[la], slot_of[lb]
        if sa > sb:
            la, lb, sa, sb = lb, la, sb, sa
        trans.append((step, sb, (la, lb)))
        slot_of[la], slot_of[lb] = sb, sa

    h = Halfperiod(n, tuple(range(1, n + 1)), tuple(trans), order)
    return require_valid(h)


# ---------------------------------------------------------------------------
# k-centers and s(k, pi)
# ---------------------------------------------------------------------------


def _check_k(n: int, k: int):
    if not (1 <= k and 2 * k < n):
        raise InputError(f"k out of range: need 1 <= k < n/2, got k={k}, n={n}")


def compute_s(h: Halfperiod, k: int) -> int:
    """s(k, pi): the least |C_0 ∩ C(k, pi_i)| over the halfperiod.

    Maintained incrementally: only k-critical transpositions (positions k
    or n-k) change center membership.  s(k, pi) <= n-2k-1 always, since
    the first k-critical transposition evicts a C_0 element.
    """
    _check_k(h.n, k)
    n = h.n
    c0 = frozenset(h.initial[k : n - k])
    count = s = len(c0)  # |C_0 ∩ center| at step 0
    for _idx, _boundary, entering, leaving in h.k_critical(k):
        count += (entering in c0) - (leaving in c0)
        s = min(s, count)
    return s


# ---------------------------------------------------------------------------
# Halfperiod file format: line 1 "n"; line 2 the initial permutation;
# then C(n,2) lines "step position labelA labelB".  Blank and '#' lines are
# skipped but counted in each "line N" message.
# ---------------------------------------------------------------------------


def read_halfperiod(path) -> Halfperiod:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = enumerate(fh.read().split("\n"), start=1)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    # One pass: the header is the first two lines that are neither blank
    # nor '#', and it is parsed before any transposition line.
    stripped = (ln.strip() for _no, ln in lines)
    header = list(islice((ln for ln in stripped if ln and not ln.startswith("#")), 2))
    if len(header) < 2:
        raise InputError("halfperiod file too short")
    try:
        n = int(header[0])
        initial = tuple(int(t) for t in header[1].split())
    except ValueError as exc:
        raise InputError(f"bad halfperiod header: {exc}") from None
    trans = []
    append = trans.append
    for no, ln in lines:
        toks = ln.split()
        try:
            step, pos, la, lb = map(int, toks)
        except ValueError:
            # Not four integers: a blank or '#' line is skipped, else the
            # arity is reported before the field.
            if not toks or toks[0].startswith("#"):
                continue
            if len(toks) != 4:
                raise InputError(f"line {no}: expected 'step position labelA labelB'") from None
            raise InputError(f"line {no}: non-integer field") from None
        append((step, pos, (la, lb)))
    return Halfperiod(n, initial, tuple(trans))
