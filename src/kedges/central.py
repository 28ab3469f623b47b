"""Block decomposition, transposition classification, rearrangement, and
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
  produces an equivalent halfperiod with no nonessential transpositions,
  preserving E_0..E_{k-1} (outer and boundary positions are untouched)
  and hence E_{>=k}.
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

The verifier recomputes everything from scratch on each call and checks
the inequality together with the per-class weight bounds, the cutting
bound 2C <= 4k + K - n + s, the augmenting coverage, and the two summed
inequalities the final calculation rests on.  It reads only the K
k-critical records of the rearranged halfperiod (critical_records), never
the full C(n,2)-record classification.  All of these must hold on every
valid halfperiod; a violation indicates a bug, never bad data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .circseq import Halfperiod, Transposition, _check_k, compute_s, require_valid
from .edgestats import edge_vector_from_halfperiod
from .errors import RearrangementError


@dataclass(frozen=True)
class Block:
    """Transpositions [start, end) of the halfperiod; block j >= 1 opens
    with the k-critical tau_j that lets `entering` into the k-center."""

    index: int
    start: int
    end: int
    entering: int | None
    boundary: str | None  # "k" or "n-k" for j >= 1


class TranspositionRecord(NamedTuple):
    step: int
    position: int
    pair: tuple[int, int]
    block_index: int
    kind: str  # "k-critical" | "center" | "outer"
    cls: str   # class for k-criticals, "non-critical" otherwise
    entering: int | None = None
    boundary: str | None = None
    aug_m: int | None = None
    weight: int | None = None
    heavy: bool | None = None
    essential: bool = True


def blocks(h: Halfperiod, k: int) -> list[Block]:
    """The K+1 blocks delimited by the k-critical transpositions."""
    _check_k(h.n, k)
    cuts = [(idx, entering, boundary) for idx, boundary, entering, _ in h.k_critical(k)]
    out = [Block(0, 0, cuts[0][0] if cuts else len(h.transpositions), None, None)]
    for bi, (idx, entering, boundary) in enumerate(cuts, start=1):
        end = cuts[bi][0] if bi < len(cuts) else len(h.transpositions)
        out.append(Block(bi, idx, end, entering, boundary))
    return out


def critical_records(h: Halfperiod, k: int, s_value: int) -> list[TranspositionRecord]:
    """The records of tau_1..tau_K, the k-critical transpositions, in order.

    tau_j's weight counts the center transpositions in B_j's own slice
    that do not join two C_0 labels; aug_m is the C_0 overlap right after
    tau_j, a running count over h.k_critical(k); the cutting test compares
    tau_j's boundary with the next k-critical boundary p_j stands at, read
    off one backward pass over the same list.  Heaviness compares the
    weight with n-2k-1-s for the given s = s(k, pi).
    """
    _check_k(h.n, k)
    n = h.n
    c0 = frozenset(h.initial[k : n - k])
    l0 = frozenset(h.initial[:k])
    crit = list(h.k_critical(k))

    # next_boundary[j]: where p_j is next involved in a k-critical swap.
    next_boundary, upcoming = [None] * len(crit), {}
    for j in reversed(range(len(crit))):
        _idx, boundary, entering, leaving = crit[j]
        next_boundary[j] = upcoming.get(entering)
        upcoming[entering] = upcoming[leaving] = boundary

    trans = h.transpositions
    ends = [c[0] for c in crit[1:]] + [len(trans)]
    light_max = n - 2 * k - 1 - s_value
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
        t = trans[idx]
        records.append(
            TranspositionRecord(
                step=t.step, position=t.position, pair=t.pair, block_index=j + 1,
                kind="k-critical", cls=cls, entering=p, boundary=boundary,
                aug_m=aug_m, weight=w, heavy=w > light_max, essential=True,
            )
        )
    return records


def classify(h: Halfperiod, k: int, s_value: int | None = None) -> list[TranspositionRecord]:
    """Per-transposition records: block membership, class, weight, and
    essentiality, straight from the definitions, one block at a time.
    Block j >= 1 opens with tau_j's record from critical_records, which
    also marks where it starts; every other transposition is a center or
    outer one, essential unless it sits in the center of B_j (j >= 1)
    without p_j.

    Heaviness needs s(k, pi); it is computed here unless the caller passes
    it in.
    """
    _check_k(h.n, k)
    n = h.n
    if s_value is None:
        s_value = compute_s(h, k)
    crit = critical_records(h, k, s_value)
    trans = h.transpositions
    # critical_records accepted h, so its steps are numbered 1..C(n,2) and
    # tau_j stands at index step - 1.
    cuts = [r.step - 1 for r in crit]
    records = []
    entering = None
    for bi, (cut, end) in enumerate(zip([-1, *cuts], [*cuts, len(trans)])):
        if bi:
            records.append(crit[bi - 1])
            entering = crit[bi - 1].entering
        for t in trans[cut + 1 : end]:
            center = k < t.position < n - k
            records.append(
                TranspositionRecord(
                    t.step, t.position, t.pair, bi,
                    "center" if center else "outer", "non-critical",
                    essential=not center or bi == 0 or entering in t.pair,
                )
            )
    return records


# ---------------------------------------------------------------------------
# Rearrangement
# ---------------------------------------------------------------------------


def _apply(perm, pos):
    j = pos - 1
    perm[j], perm[j + 1] = perm[j + 1], perm[j]


def rearrange_essential(h: Halfperiod, k: int) -> Halfperiod:
    """Equivalent halfperiod with every center transposition essential.

    One backward pass over blocks(h, k), from the last block to block 1.
    A block holding a nonessential center transposition is rebuilt: its
    nonessential swaps are replayed immediately before tau_j, then tau_j,
    then the essential swaps as p_j walks monotonically across the center,
    then the outer-track swaps in original order.  The replayed
    nonessential swaps join the end of the previous block (the entering
    label's wire is absent there, so the same pair order stays
    adjacent-realizable), which the pass visits next; a block without
    nonessential swaps is copied unchanged, and block 0 is essential by
    convention.  Rebuilding keeps each block's final permutation, so the
    permutation at the start of every block is the original one, read off
    one backward walk from the reversed initial permutation.  Every
    position outside k+1..n-k-1 is kept, hence E_0..E_{k-1} and E_{>=k}.
    Outcome invariants are re-validated; violations raise
    RearrangementError.
    """
    _check_k(h.n, k)
    require_valid(h)
    n = h.n
    seq = [(t.position, t.pair) for t in h.transpositions]
    perm = list(reversed(h.initial))  # walked back to the current block's start
    pieces, carry = [], []
    for blk in reversed(blocks(h, k)):
        block = seq[blk.start : blk.end]
        perm_end = list(perm)
        for pos, _ in carry:
            _apply(perm_end, pos)
        for pos, _ in reversed(block):
            _apply(perm, pos)
        block += carry

        nonessential, essential_pairs, outer = [], [], []
        for pos, pair in block[1:]:
            if k + 1 <= pos <= n - k - 1:
                if blk.entering in pair:
                    essential_pairs.append(frozenset(pair))
                else:
                    nonessential.append(pair)
            else:
                outer.append((pos, pair))
        if blk.index == 0 or not nonessential:
            pieces.append(block)
            carry = []
            continue

        cur = list(perm)
        slot = {lab: i for i, lab in enumerate(cur)}
        rebuilt = []

        def swap_slots(j):
            a, b = cur[j], cur[j + 1]
            rebuilt.append((j + 1, (a, b)))
            cur[j], cur[j + 1] = b, a
            slot[a], slot[b] = j + 1, j

        for pair in nonessential:
            a, b = pair
            ja, jb = slot[a], slot[b]
            if abs(ja - jb) != 1:
                raise RearrangementError(
                    f"nonessential pair {pair} not adjacent while replaying block"
                )
            swap_slots(min(ja, jb))

        tau_pos, tau_pair = block[0]
        jt = tau_pos - 1
        if {cur[jt], cur[jt + 1]} != set(tau_pair):
            raise RearrangementError("boundary transposition displaced by replay")
        swap_slots(jt)

        partner_sets = set(essential_pairs)
        direction = 1 if blk.boundary == "k" else -1
        for _ in range(len(essential_pairs)):
            jp = slot[blk.entering]
            jn = jp + direction
            pair_here = frozenset((blk.entering, cur[jn]))
            if pair_here not in partner_sets:
                raise RearrangementError(
                    f"essential replay out of order at slot {jp + 1}"
                )
            partner_sets.discard(pair_here)
            swap_slots(min(jp, jn))

        for pos, pair in outer:
            j = pos - 1
            if {cur[j], cur[j + 1]} != set(pair):
                raise RearrangementError(f"outer-track pair {pair} displaced")
            swap_slots(j)

        if cur != perm_end:
            raise RearrangementError("block-final permutation changed by replay")
        carry = rebuilt[: len(nonessential)]
        pieces.append(rebuilt[len(nonessential) :])

    seq = [t for piece in reversed(pieces) for t in piece]
    out = Halfperiod(
        n,
        h.initial,
        tuple(Transposition(i + 1, pos, pair) for i, (pos, pair) in enumerate(seq)),
    )
    report = out.axiom_walk[0]
    if report:
        raise RearrangementError("rearranged halfperiod invalid: " + report[0])
    ev_in = edge_vector_from_halfperiod(h)
    ev_out = edge_vector_from_halfperiod(out)
    if ev_in.counts[: k - 1] != ev_out.counts[: k - 1] or ev_in.geq(k) != ev_out.geq(k):
        raise RearrangementError(
            f"rearrangement changed protected edge counts: {ev_in.counts} -> {ev_out.counts}"
        )
    return out


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralReport:
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
    class/weight bounds are actually asserted by the argument.  E_{k-1},
    E_{>=k} and s agree between the two (asserted)."""
    _check_k(h.n, k)
    n = h.n
    ev = edge_vector_from_halfperiod(h)
    K = ev.counts[k - 1]
    E_geq = ev.geq(k)
    s = compute_s(h, k)
    bound = (n - 2 * k - 1) * K - Fraction(s, 2) * (K - n + 1)
    holds = E_geq <= bound

    lam = rearrange_essential(h, k)
    if compute_s(lam, k) != s:
        raise RearrangementError("rearrangement changed s(k, pi)")
    records = critical_records(lam, k, s)

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
