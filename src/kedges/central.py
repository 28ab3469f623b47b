"""Transposition classification by blocks, rearrangement, and
verification of the central inequality

    E_{>=k} <= (n-2k-1) E_{k-1} - (s/2) (E_{k-1} - n + 1),

where s = s(k, pi) is the minimum overlap of the initial k-center C_0 with
the k-center over the halfperiod.

Terminology (for a fixed k, writing K = E_{k-1}):

* k-critical transpositions sit at positions k or n-k; they are the only
  swaps that change k-center membership, and they cut the halfperiod into
  K+1 blocks B_0..B_K.  p_j is the label entering the center at tau_j.
* center transpositions sit at positions k+1..n-k-1 (they are the
  (>=k+1)-critical ones, i.e. the (>=k)-edges being bounded); outer
  transpositions sit below k or above n-k and never matter here.
* a center transposition in B_j (j >= 1) is essential if it involves p_j;
  everything before tau_1 is essential by convention.  The rearrangement
  moves each nonessential one back to the block whose entering label it
  involves (block 0 if none), giving an equivalent halfperiod with no
  nonessential transpositions; outer and boundary positions are
  untouched, so E_0..E_{k-1} and E_{>=k} are preserved.
* classes of tau_j: arriving (p_j in C_0; m-augmenting when the C_0
  overlap rises to m, neutral otherwise), returning (p_j re-entering from
  the far region), departing (p_j leaving its starting region; cutting
  when its next critical involvement is on the opposite boundary,
  stalling otherwise).
* weight w(tau_j) = number of center transpositions in B_j not joining
  two C_0 labels; light means w <= n-2k-1-s.

critical_records states the class rules once, for tau_1..tau_K only:
each block is weighed over its own slice of transpositions, the C_0
overlap behind aug_m is a running count over the k-critical
transpositions, and the cutting test reads the next k-critical boundary
of each entering label from one backward pass over the same list.
classify adds the center and outer records around them.

rearrange_essential builds that halfperiod in two forward passes: one
finds the block each center transposition lands in, the other replays the
result once from the initial permutation, one slot swap per
transposition, checking adjacency and slots as it goes.  The replay has
no nested function: one inline loop serves the blocks that are not
rebuilt (their own swaps, then the swaps that landed in them), another
the rebuilt ones (tau_j, p_j's walk, then the outer swaps), over a
list-indexed slot map.

Each quantity has one certificate:

* s(k, pi) is derived where it is used: critical_records reads it with
  compute_s, an O(K) walk over the cached k-critical tuple, and the
  caller never passes it in.
* rearrange_essential certifies its output: the axiom walk, the
  protected counts E_0..E_{k-1} and E_{>=k} (off the cached tuple
  `Halfperiod.level_counts`, K = counts[k-1], E_{>=k} = sum(counts[k:])),
  and s(k, pi), each compared with its input's.
* verify_central checks the inequality on h, and on the rearranged
  halfperiod the per-class weight bounds, the cutting bound 2C <= 4k + K
  - n + s, the augmenting coverage, and the two summed inequalities the
  final calculation rests on.  It reads only the K k-critical records of
  the rearranged halfperiod (critical_records), never the full
  C(n,2)-record classification.  All of these must hold on every valid
  halfperiod; a violation indicates a bug, never bad data.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .circseq import Halfperiod, _check_k, compute_s, require_valid
from .errors import RearrangementError


class TranspositionRecord(NamedTuple):
    step: int
    position: int
    pair: tuple[int, int]
    block_index: int
    kind: str  # "k-critical" | "center" | "outer"
    cls: str   # class for k-criticals, "non-critical" otherwise
    entering: int | None = None
    aug_m: int | None = None
    weight: int | None = None
    heavy: bool | None = None
    essential: bool = True


def critical_records(h: Halfperiod, k: int) -> list[TranspositionRecord]:
    """The records of tau_1..tau_K, the k-critical transpositions, in order.

    tau_j's weight counts the center transpositions in B_j's own slice
    that do not join two C_0 labels; aug_m is the C_0 overlap right after
    tau_j, a running count over h.k_critical(k); the cutting test compares
    tau_j's boundary with the next k-critical boundary p_j stands at, read
    off one backward pass over the same list.  Heaviness compares the
    weight with n-2k-1-s, s = s(k, pi) read off the same list.
    """
    _check_k(h.n, k)
    n = h.n
    c0 = frozenset(h.initial[k : n - k])
    l0 = frozenset(h.initial[:k])
    crit = h.k_critical(k)

    # next_boundary[j]: where p_j is next involved in a k-critical swap.
    next_boundary, upcoming = [None] * len(crit), {}
    for j in reversed(range(len(crit))):
        _idx, boundary, entering, leaving = crit[j]
        next_boundary[j] = upcoming.get(entering)
        upcoming[entering] = upcoming[leaving] = boundary

    trans = h.transpositions
    ends = [c[0] for c in crit[1:]] + [len(trans)]
    light_max = n - 2 * k - 1 - compute_s(h, k)
    records = []
    overlap = len(c0)
    for j, ((idx, boundary, p, leaving), end) in enumerate(zip(crit, ends)):
        overlap += (p in c0) - (leaving in c0)
        w = 0
        for _step, pos, pair in trans[idx + 1 : end]:
            if k < pos < n - k and not (pair[0] in c0 and pair[1] in c0):
                w += 1
        aug_m = None
        if p in c0:
            if leaving in c0:
                cls = "arriving-neutral"
            else:
                cls = "arriving-augmenting"
                aug_m = overlap
        elif (boundary == "k") == (p not in l0):
            cls = "returning"
        elif next_boundary[j] not in (None, boundary):
            cls = "departing-cutting"
        else:
            cls = "departing-stalling"
        step, pos, pair = trans[idx]
        records.append(
            TranspositionRecord(
                step=step, position=pos, pair=pair, block_index=j + 1,
                kind="k-critical", cls=cls, entering=p, aug_m=aug_m, weight=w,
                heavy=w > light_max, essential=True,
            )
        )
    return records


def classify(h: Halfperiod, k: int) -> list[tuple]:
    """Per-transposition records: block membership, class, weight, and
    essentiality, straight from the definitions, one block at a time.
    Block j >= 1 opens with tau_j's record from critical_records, which
    also marks where it starts; every other transposition is a center or
    outer one, essential unless it sits in the center of B_j (j >= 1)
    without p_j.

    Each row is a plain tuple with the fields of TranspositionRecord in
    order: (step, position, (left, right), block_index, kind, cls,
    entering, aug_m, weight, heavy, essential), read by unpacking or
    through TranspositionRecord._make.  h's transpositions are the plain
    tuples (step, position, (left, right)).
    """
    _check_k(h.n, k)
    n = h.n
    crit = critical_records(h, k)
    trans = h.transpositions
    # critical_records accepted h, so its steps are numbered 1..C(n,2) and
    # tau_j stands at index step - 1.
    cuts = [r.step - 1 for r in crit]
    records = []
    entering = None
    for bi, (cut, end) in enumerate(zip([-1, *cuts], [*cuts, len(trans)])):
        if bi:
            tau = crit[bi - 1]
            records.append(tuple(tau))
            entering = tau.entering
        for step, pos, pair in trans[cut + 1 : end]:
            center = k < pos < n - k
            records.append((
                step, pos, pair, bi, "center" if center else "outer", "non-critical",
                None, None, None, None, not center or bi == 0 or entering in pair,
            ))
    return records


# ---------------------------------------------------------------------------
# Rearrangement
# ---------------------------------------------------------------------------


def rearrange_essential(h: Halfperiod, k: int) -> Halfperiod:
    """Equivalent halfperiod with every center transposition essential.

    A nonessential center swap {a, b} of B_j moves before tau_j and keeps
    moving back until it meets a block whose entering label it involves:
    it lands in B_L with L = max(last[a], last[b]), last[x] being the
    latest block (at the swap's own place in h) whose tau let x into the
    center, 0 before any.  Every block in (L, j] then holds the swap as a
    nonessential one and is rebuilt.

    Two forward passes, with no nested function and no call per swap:
    each output transposition is a tuple literal.  The landing pass finds
    where each center swap lands and which blocks are rebuilt.  The replay pass
    starts from h.initial with a slot map (a list indexed by label) and
    has one loop per block kind.  Block 0 and every block that is not
    rebuilt replay their own swaps, then the swaps that landed in them
    from later blocks, in h's order, each at the slots the map gives its
    pair.  A rebuilt B_j replays tau_j, then p_j's monotone walk across
    the partners of its landed swaps (its own essential ones included),
    then its outer swaps in h's order.  Every position outside
    k+1..n-k-1 is kept, hence E_0..E_{k-1} and E_{>=k}.

    Faults raise RearrangementError: a pair replayed by its labels that
    is not adjacent, a tau_j or outer swap of a rebuilt block whose slots
    do not hold its pair, a walk step whose neighbour is no partner, an
    output that fails the axiom walk (this also catches a wrong center
    order left at a block's end), changed protected counts, or a changed
    s(k, pi).
    """
    _check_k(h.n, k)
    require_valid(h)
    n = h.n
    hi = n - k  # center positions are k+1..hi-1
    trans = h.transpositions
    crit = h.k_critical(k)
    starts = [0] + [c[0] for c in crit]
    ends = starts[1:] + [len(trans)]

    # Landing pass.  low[j] ends as the earliest landing of any center
    # swap in B_j or later, so B_j is rebuilt iff low[j] < j.
    last = [0] * (n + 1)
    landed = [[] for _ in starts]
    low = list(range(len(starts)))
    for j, (start, end) in enumerate(zip(starts, ends)):
        if j:
            last[crit[j - 1][2]] = j
        for t in trans[start:end]:
            if k < t[1] < hi:
                a, b = t[2]
                land = last[a] if last[a] > last[b] else last[b]
                if land < j:
                    landed[land].append(t)
                    if land < low[j]:
                        low[j] = land
    for j in reversed(range(len(low) - 1)):
        low[j] = min(low[j], low[j + 1])

    # Replay pass.  step numbers the output swaps; cur[slot[x]] == x.
    cur = list(h.initial)
    slot = [0] * (n + 1)
    for i, lab in enumerate(cur):
        slot[lab] = i
    seq = []
    append = seq.append
    step = 0
    for j, (start, end) in enumerate(zip(starts, ends)):
        if low[j] == j:
            # Own swaps keep the pair h records; a landed swap records its
            # slots' order.
            for swaps, keep in ((trans[start:end], True), (landed[j], False)):
                for t in swaps:
                    pair = t[2]
                    a, b = pair
                    ja, jb = slot[a], slot[b]
                    if ja + 1 == jb:
                        m = ja
                    elif jb + 1 == ja:
                        m = jb
                        if not keep:
                            pair = (b, a)
                    else:
                        raise RearrangementError(f"pair {pair} not adjacent in the replay")
                    step += 1
                    append((step, m + 1, pair))
                    cur[ja], cur[jb] = b, a
                    slot[a], slot[b] = jb, ja
            continue
        _idx, boundary, p, _leaving = crit[j - 1]
        partners = {lab for t in landed[j] for lab in t[2]}
        outer = []
        for t in trans[start + 1 : end]:
            if not k < t[1] < hi:
                outer.append(t)
            elif p in t[2]:
                partners.update(t[2])
        partners.discard(p)
        forward = boundary == "k"
        # tau_j, then p_j's walk (which empties partners), then the outer
        # swaps, each checked against the slots h gives it.
        for t in (trans[start], *outer):
            _step, pos, pair = t
            x, y = cur[pos - 1], cur[pos]
            a, b = pair
            if not (x == a and y == b or x == b and y == a):
                raise RearrangementError(f"pair {pair} displaced from slot {pos}")
            step += 1
            append((step, pos, (x, y)))
            cur[pos - 1], cur[pos] = y, x
            slot[x], slot[y] = pos, pos - 1
            while partners:
                jp = slot[p]
                jq = jp + 1 if forward else jp - 1
                q = cur[jq]
                if q not in partners:
                    raise RearrangementError(f"essential walk out of order at slot {jp + 1}")
                partners.discard(q)
                step += 1
                if forward:
                    append((step, jq, (p, q)))
                else:
                    append((step, jp, (q, p)))
                cur[jp], cur[jq] = q, p
                slot[q], slot[p] = jp, jq

    out = Halfperiod(n, h.initial, tuple(seq))
    report = out.axiom_walk[0]
    if report:
        raise RearrangementError("rearranged halfperiod invalid: " + report[0])
    before, after = h.level_counts, out.level_counts
    if before[:k] != after[:k] or sum(before[k:]) != sum(after[k:]):
        raise RearrangementError(
            f"rearrangement changed protected edge counts: {before} -> {after}"
        )
    if compute_s(out, k) != compute_s(h, k):
        raise RearrangementError("rearrangement changed s(k, pi)")
    return out


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class CentralReport(NamedTuple):
    k: int
    s: int
    K: int
    tallies: dict  # A, N, R, C, S_light, S_heavy
    E_geq_k: int
    bound_value: object  # exact rational
    holds: bool
    aux_checks: dict  # name -> bool, on the rearranged halfperiod

    @property
    def all_ok(self) -> bool:
        return self.holds and all(self.aux_checks.values())


_CLASS_KEYS = {
    "arriving-augmenting": "A",
    "arriving-neutral": "N",
    "returning": "R",
    "departing-cutting": "C",
}


def verify_central(h: Halfperiod, k: int) -> CentralReport:
    """Check the central inequality on h and the proof-level inequalities
    on its rearranged (all-essential) companion.

    The main inequality is evaluated on the original halfperiod; the
    classification-level checks run on the rearranged one, where the
    class/weight bounds are actually asserted by the argument.
    rearrange_essential certifies that E_{k-1}, E_{>=k} and s agree
    between the two."""
    _check_k(h.n, k)
    n = h.n
    counts = h.level_counts
    K = counts[k - 1]
    E_geq = sum(counts[k:])
    s = compute_s(h, k)
    bound = (n - 2 * k - 1) * K - Fraction(s, 2) * (K - n + 1)
    holds = E_geq <= bound

    records = critical_records(rearrange_essential(h, k), k)

    tallies = {"A": 0, "N": 0, "R": 0, "C": 0, "S_light": 0, "S_heavy": 0}
    for r in records:
        if r.cls == "departing-stalling":
            tallies["S_heavy" if r.heavy else "S_light"] += 1
        else:
            tallies[_CLASS_KEYS[r.cls]] += 1

    width = n - 2 * k
    checks = {}
    checks["tally-total"] = sum(tallies.values()) == K
    checks["weight-overall"] = all(r.weight <= width - 1 for r in records)
    checks["weight-neutral"] = all(
        r.weight <= width - s for r in records if r.cls == "arriving-neutral"
    )
    checks["weight-augmenting"] = all(
        r.weight <= width - r.aug_m for r in records if r.cls == "arriving-augmenting"
    )
    checks["weight-returning"] = all(
        r.weight <= width - 1 - s for r in records if r.cls == "returning"
    )
    checks["weight-light-stalling"] = all(
        r.weight <= width - 1 - s
        for r in records
        if r.cls == "departing-stalling" and not r.heavy
    )
    C = tallies["C"]
    checks["cutting-lower"] = C >= 2 * k
    checks["cutting-upper"] = 2 * C <= 4 * k + K - n + s
    # at least n-2k-s arrivals and 2k departures force E_{k-1} >= n-s >= 2k+1
    checks["min-edge-count"] = K >= n - s and K >= 2 * k + 1
    aug_ms = {r.aug_m for r in records if r.cls == "arriving-augmenting"}
    checks["augmenting-coverage"] = all(m in aug_ms for m in range(s + 1, width + 1))
    total_weight = sum(r.weight for r in records)
    checks["degrees-inequality"] = E_geq <= comb(width, 2) - tallies["N"] + total_weight
    heavy_aug_weight = sum(
        r.weight
        for r in records
        if r.cls == "arriving-augmenting"
        or (r.cls == "departing-stalling" and r.heavy)
    )
    checks["augmenting-heavy-stalling"] = heavy_aug_weight <= (width - 1 - s) * (
        tallies["A"] + tallies["S_heavy"]
    ) - comb(width - s, 2)

    return CentralReport(
        k=k, s=s, K=K, tallies=tallies, E_geq_k=E_geq,
        bound_value=bound, holds=bool(holds), aux_checks=checks,
    )
