"""Classification, rearrangement, and the central inequality."""

import functools
import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings

import kedges.central as central
import kedges.circseq as circseq
from kedges.central import (
    TranspositionRecord,
    classify,
    critical_records,
    rearrange_essential,
    verify_central,
)
from kedges.circseq import (
    Halfperiod,
    Transposition,
    compute_s,
    halfperiod_from_points,
    validate_allowable,
)
from kedges.cli import _records_text, main
from kedges.errors import InputError, RearrangementError
from kedges.gensets import random_general_position_set, random_reduced_word
from oracles import convex_polygon_set, halfperiods, write_halfperiod


def test_classification_tally_and_consistency():
    rng = random.Random(43)
    for _ in range(15):
        ps = random_general_position_set(10, rng)
        h = halfperiod_from_points(ps)
        records = classify(h, 3)
        crit = [r for r in records if r.kind == "k-critical"]
        assert len(crit) == h.level_counts[2]
        c0 = frozenset(h.initial[3 : 10 - 3])
        for r in crit:
            if r.cls.startswith("arriving"):
                assert r.entering in c0
            else:
                assert r.entering not in c0
            if r.cls == "arriving-augmenting":
                assert r.aug_m is not None
            assert r.weight is not None and r.weight >= 0


def test_classification_covers_all_transpositions():
    ps = convex_polygon_set(8)
    h = halfperiod_from_points(ps)
    records = classify(h, 2)
    assert len(records) == comb(8, 2)
    kinds = {r.kind for r in records}
    assert kinds <= {"k-critical", "center", "outer"}
    assert all(r.cls == "non-critical" for r in records if r.kind != "k-critical")


def test_rearrange_fixed_point():
    h = halfperiod_from_points(convex_polygon_set(8))
    lam = rearrange_essential(h, 3)
    assert lam.transpositions == h.transpositions  # already all-essential
    lam2 = rearrange_essential(lam, 2)
    assert rearrange_essential(lam2, 2).transpositions == lam2.transpositions


def test_rearrange_preserves_protected_counts():
    rng = random.Random(47)
    for _ in range(20):
        ps = random_general_position_set(8, rng)
        h = halfperiod_from_points(ps)
        ev = h.level_counts
        lam = rearrange_essential(h, 2)
        assert validate_allowable(lam) == []
        evl = lam.level_counts
        assert evl[:1] == ev[:1]  # E_0, ..., E_{k-1}
        assert sum(evl[2:]) == sum(ev[2:])
        # no nonessential center transpositions remain
        assert all(r.essential for r in classify(lam, 2))


def test_rearrange_convex_keeps_full_vector():
    for n in (6, 8, 9, 11):
        h = halfperiod_from_points(convex_polygon_set(n))
        for k in range(1, (n - 1) // 2 + 1):
            assert rearrange_essential(h, k).level_counts == h.level_counts


def test_rearrange_preserves_s():
    rng = random.Random(53)
    for _ in range(10):
        ps = random_general_position_set(9, rng)
        h = halfperiod_from_points(ps)
        for k in range(1, 5):
            assert compute_s(rearrange_essential(h, k), k) == compute_s(h, k)


def test_verify_central_convex_hexagon():
    h = halfperiod_from_points(convex_polygon_set(6))
    rep = verify_central(h, 2)
    assert rep.K == 6 and rep.E_geq_k == 3
    assert rep.bound_value == (6 - 5) * 6 - Fraction(rep.s, 2) * (6 - 6 + 1)
    assert rep.holds and rep.all_ok


def test_verify_central_random_sweep():
    rng = random.Random(59)
    checked = 0
    for _ in range(60):
        ps = random_general_position_set(rng.randrange(5, 13), rng)
        h = halfperiod_from_points(ps)
        for k in range(1, (ps.n - 1) // 2 + 1):
            rep = verify_central(h, k)
            checked += 1
            assert rep.holds, (ps.n, k, rep)
            assert rep.all_ok, (ps.n, k, rep.aux_checks)
            assert sum(rep.tallies.values()) == rep.K
    assert checked > 150


def test_verify_central_k_range():
    h = halfperiod_from_points(convex_polygon_set(6))
    with pytest.raises(InputError, match="k out of range"):
        verify_central(h, 3)
    with pytest.raises(InputError, match="k out of range"):
        verify_central(h, 0)


def test_odd_extreme_k():
    # n odd, k = (n-1)/2: the k-center is a single slot and there are no
    # center positions at all; every weight is 0.
    rng = random.Random(61)
    ps = random_general_position_set(9, rng)
    h = halfperiod_from_points(ps)
    rep = verify_central(h, 4)
    assert rep.all_ok
    records = [r for r in classify(h, 4) if r.kind == "k-critical"]
    assert all(r.weight == 0 for r in records)


def test_axioms_walked_once_per_halfperiod(monkeypatch):
    walked = []
    real = circseq.validate_allowable

    def counting(h, walk=None):
        walked.append(h)
        return real(h, walk)

    monkeypatch.setattr(circseq, "validate_allowable", counting)
    h = random_reduced_word(14, random.Random(71))
    rep = verify_central(h, 4)
    classify(h, 4)
    assert rep.all_ok
    # the input once, and the rearranged companion's output check once
    assert len(walked) <= 2
    assert sum(w is h for w in walked) == 1


def test_edge_levels_tallied_once_per_halfperiod(monkeypatch):
    tallied = []
    real = Halfperiod.level_counts.func

    def counting(h):
        tallied.append(h)
        return real(h)

    prop = functools.cached_property(counting)
    prop.__set_name__(Halfperiod, "level_counts")
    monkeypatch.setattr(Halfperiod, "level_counts", prop)
    h = random_reduced_word(14, random.Random(71))
    rep = verify_central(h, 4)
    classify(h, 4)
    assert rep.all_ok
    # the input once, and the rearranged companion's protected-count check once
    assert len(tallied) <= 2
    assert sum(t is h for t in tallied) == 1


def _corrupt(h, how):
    ts = list(h.transpositions)
    t = ts[4]
    if how == "step":
        ts[4] = Transposition(t.step + 1, t.position, t.pair)
    elif how == "pair":
        other = next(lab for lab in h.initial if lab not in t.pair)
        ts[4] = Transposition(t.step, t.position, (t.pair[0], other))
    else:  # truncated
        ts.pop()
    return Halfperiod(h.n, h.initial, tuple(ts))


@pytest.mark.parametrize("how", ["step", "pair", "truncated"])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda h: compute_s(h, 2),
        lambda h: rearrange_essential(h, 2),
        lambda h: classify(h, 2),
        lambda h: verify_central(h, 2),
        lambda h: h.level_counts,
    ],
    ids=["compute_s", "rearrange_essential", "classify", "verify_central", "edge_vector"],
)
def test_invalid_halfperiod_rejected_by_every_kernel(kernel, how):
    bad = _corrupt(random_reduced_word(7, random.Random(73)), how)
    assert validate_allowable(bad)
    for _ in range(2):  # the cached verdict is the same verdict
        with pytest.raises(InputError, match="invalid halfperiod"):
            kernel(bad)


def _walked_as(h, transpositions):
    """A halfperiod of these transpositions that carries h's axiom walk, so
    its k-critical list and validity are h's: a fault the walk never saw."""
    bad = Halfperiod(h.n, h.initial, tuple(transpositions))
    vars(bad)["axiom_walk"] = h.axiom_walk
    return bad


def _plant_pair(h, k, monkeypatch):
    """Block 0's first swap recorded with a pair its slots do not hold."""
    ts = list(h.transpositions)
    step, pos, (a, b) = ts[0]
    ts[0] = Transposition(step, pos, (a, b + 1))
    rearrange_essential(_walked_as(h, ts), k)


def _plant_slot(h, k, monkeypatch):
    """Every k-critical swap recorded one slot further out."""
    ts = list(h.transpositions)
    for idx, boundary, _p, _q in h.k_critical(k):
        step, pos, pair = ts[idx]
        ts[idx] = Transposition(step, pos - 1 if boundary == "k" else pos + 1, pair)
    rearrange_essential(_walked_as(h, ts), k)


def _plant_boundary(h, k, monkeypatch):
    """The cached k-critical list with every boundary flipped."""
    crit = h.k_critical(k)
    vars(h)["_k_critical_by_k"][k] = tuple(
        (idx, "n-k" if boundary == "k" else "k", p, q) for idx, boundary, p, q in crit)
    rearrange_essential(h, k)


def _plant_step(h, k, monkeypatch):
    """The replay numbers its output swaps from 2."""
    real = central._new_transposition
    monkeypatch.setattr(central, "_new_transposition", lambda t: real((t[0] + 1, *t[1:])))
    rearrange_essential(h, k)


def _plant_counts(h, k, monkeypatch):
    """The input's cached edge counts with one more 0-edge."""
    counts = h.level_counts
    vars(h)["level_counts"] = (counts[0] + 1, *counts[1:])
    rearrange_essential(h, k)


def _plant_s(h, k, monkeypatch, kernel=verify_central):
    """compute_s reads one more on every halfperiod but h; `kernel` is the
    verifier or the rearrangement that certifies s for it."""
    real = central.compute_s
    monkeypatch.setattr(central, "compute_s", lambda g, j: real(g, j) + (g is not h))
    kernel(h, k)


@pytest.mark.parametrize("plant, message", [
    (_plant_pair, "pair (5, 7) not adjacent in the replay"),
    (_plant_slot, "pair (1, 3) displaced from slot 2"),
    (_plant_boundary, "essential walk out of order at slot 4"),
    (_plant_step, "rearranged halfperiod invalid: step 1: recorded step number 2"),
    (_plant_counts, "rearrangement changed protected edge counts: "
                    "(7, 9, 13, 11, 6) -> (6, 9, 13, 11, 6)"),
    (_plant_s, "rearrangement changed s(k, pi)"),
    (functools.partial(_plant_s, kernel=rearrange_essential), "rearrangement changed s(k, pi)"),
], ids=["adjacent", "slot", "walk", "invalid", "counts", "s", "s-rearrange"])
def test_each_rearrangement_error_names_its_fault(plant, message, monkeypatch):
    """One planted fault per RearrangementError in central.py, each in a
    value the replay or its output certificate reads; the s fault is seen
    by rearrange_essential itself and through verify_central."""
    with pytest.raises(RearrangementError) as exc:
        plant(random_reduced_word(10, random.Random(5)), 3, monkeypatch)
    assert str(exc.value) == message


def test_abstract_halfperiods_satisfy_central_checks():
    rng = random.Random(79)
    for n in (9, 12, 16):
        h = random_reduced_word(n, rng)
        for k in range(1, (n - 1) // 2 + 1):
            rep = verify_central(h, k)
            assert rep.all_ok, (n, k, rep.aux_checks)
            assert compute_s(h, k) == rep.s


@pytest.mark.parametrize("r", [3, 4])
def test_sr_halfperiods_satisfy_central_checks(r, sr):
    # the certified S_3 and S_4 sets (n = 27, 36), at every admissible k
    h = halfperiod_from_points(sr(r).perturbed)
    for k in range(1, (h.n - 1) // 2 + 1):
        rep = verify_central(h, k)
        assert rep.all_ok, (h.n, k, rep.aux_checks)


def ref_rearrange_essential(h, k):
    """Reference: the fixpoint rearrangement.  Each round replays the whole
    rewritten sequence to find the last block (j >= 1) holding a
    nonessential center transposition, and rebuilds it: nonessential swaps
    first, then tau_j, then p_j's essential walk, then the outer swaps."""
    n = h.n
    seq = [(t.position, t.pair) for t in h.transpositions]

    def swap(perm, pos):
        perm[pos - 1], perm[pos] = perm[pos], perm[pos - 1]

    while True:
        cuts, perm = [], list(h.initial)
        for idx, (pos, _) in enumerate(seq):
            if pos in (k, n - k):
                cuts.append((idx, perm[pos - 1] if pos == k else perm[pos], pos == k))
            swap(perm, pos)
        ends = [c[0] for c in cuts[1:]] + [len(seq)]
        bad = [(start, end, p, at_k) for (start, p, at_k), end in zip(cuts, ends)
               if any(k < pos < n - k and p not in pair for pos, pair in seq[start + 1 : end])]
        if not bad:
            return tuple(Transposition(i + 1, pos, pair) for i, (pos, pair) in enumerate(seq))
        start, end, p, at_k = bad[-1]
        perm = list(h.initial)
        for pos, _ in seq[:start]:
            swap(perm, pos)
        block = seq[start:end]
        center = [pair for pos, pair in block[1:] if k < pos < n - k]
        rebuilt = []

        def swap_slots(j):
            rebuilt.append((j + 1, (perm[j], perm[j + 1])))
            swap(perm, j + 1)

        essential = [pair for pair in center if p in pair]
        for a, b in [pair for pair in center if p not in pair]:
            swap_slots(min(perm.index(a), perm.index(b)))
        swap_slots(block[0][0] - 1)
        for _ in essential:  # p walks right from slot k, left from slot n-k
            swap_slots(perm.index(p) - (0 if at_k else 1))
        for pos, _ in block[1:]:
            if not k < pos < n - k:
                swap_slots(pos - 1)
        seq = seq[:start] + rebuilt + seq[end:]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(halfperiods())
def test_rearrangement_matches_fixpoint_reference(h):
    for k in range(1, (h.n - 1) // 2 + 1):
        lam = rearrange_essential(h, k)
        assert lam.transpositions == ref_rearrange_essential(h, k), (h.n, k)
        assert validate_allowable(lam) == []
        assert all(r.essential for r in classify(lam, k) if r.kind == "center")
        assert compute_s(lam, k) == compute_s(h, k)
        ev, evl = h.level_counts, lam.level_counts
        assert evl[:k] == ev[:k] and sum(evl[k:]) == sum(ev[k:])


def ref_level_counts(h):
    """E_0.. by a scan of h.transpositions: a swap at slots (j, j+1) is a
    (min(j, n-j) - 1)-edge."""
    n = h.n
    counts = [0] * (n // 2)
    for t in h.transpositions:
        counts[min(t.position, n - t.position) - 1] += 1
    return tuple(counts)


def ref_k_critical(h, k):
    """The k-critical transpositions by a scan of h.transpositions that
    replays h for the labels standing in each swap's slots."""
    n, perm, crit = h.n, list(h.initial), []
    for idx, t in enumerate(h.transpositions):
        j = t.position - 1
        left, right = perm[j], perm[j + 1]
        if t.position == k:
            crit.append((idx, "k", left, right))
        elif t.position == n - k:
            crit.append((idx, "n-k", right, left))
        perm[j], perm[j + 1] = right, left
    return tuple(crit)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(halfperiods(min_n=3))
def test_walk_tallies_match_a_direct_scan(h):
    ks = range(1, (h.n - 1) // 2 + 1)
    for g in (h, *(rearrange_essential(h, k) for k in ks)):
        assert g.level_counts == ref_level_counts(g), h.n
        for k in ks:
            assert g.k_critical(k) == ref_k_critical(g, k), (h.n, k)


# The n = 48 word timed by tools/bench_kernels.py and the pinned n = 40
# classify word: long chains of nonessential swaps carried across blocks.
@pytest.mark.parametrize("n, seed", [(48, 2024), (40, 83)])
def test_rearrangement_matches_fixpoint_reference_on_long_words(n, seed):
    h = random_reduced_word(n, random.Random(seed))
    ev = h.level_counts
    for k in range(1, (n - 1) // 2 + 1):
        lam = rearrange_essential(h, k)
        assert lam.transpositions == ref_rearrange_essential(h, k), k
        assert all(r.essential for r in classify(lam, k) if r.kind == "center"), k
        evl = lam.level_counts
        assert evl[:k] == ev[:k] and sum(evl[k:]) == sum(ev[k:]), k


def ref_classify(h, k):
    """Reference: the per-index classification.  Block membership, the
    k-critical involvements of every label, the C_0 overlap after each
    tau_j, the label leaving at it, and every block's weight are each kept
    in a map over transposition indices before any record is built."""
    n = h.n
    s_value = compute_s(h, k)
    c0 = frozenset(h.initial[k : n - k])
    l0 = frozenset(h.initial[:k])

    cuts = {idx: (boundary, entering) for idx, boundary, entering, _ in h.k_critical(k)}
    block_of, bi = {}, 0
    for idx in range(len(h.transpositions)):
        bi += idx in cuts
        block_of[idx] = bi
    entering_of = [None] + [entering for _boundary, entering in cuts.values()]

    involvements = {}
    c0_in_center_after = {}
    leaving_at = {}
    cnt = len(c0)
    for idx, _boundary, entering, leaving in h.k_critical(k):
        cnt += (entering in c0) - (leaving in c0)
        c0_in_center_after[idx] = cnt
        leaving_at[idx] = leaving
        involvements.setdefault(entering, []).append((idx, "enter"))
        involvements.setdefault(leaving, []).append((idx, "leave"))

    weight_of_block = dict.fromkeys(range(len(entering_of)), 0)
    for idx, t in enumerate(h.transpositions):
        if k + 1 <= t.position <= n - k - 1:
            if not (t.pair[0] in c0 and t.pair[1] in c0):
                weight_of_block[block_of[idx]] += 1

    def next_involvement(p, idx):
        here = h.transpositions[idx].position
        for later_idx, _role in involvements.get(p, []):
            if later_idx > idx:
                there = h.transpositions[later_idx].position
                return "opposite" if there != here else "same"
        return "none"

    records = []
    for idx, t in enumerate(h.transpositions):
        bi = block_of[idx]
        if t.position in (k, n - k):
            boundary, p = cuts[idx]
            w = weight_of_block[bi]
            aug_m = None
            if p in c0:
                if leaving_at[idx] in c0:
                    cls = "arriving-neutral"
                else:
                    cls = "arriving-augmenting"
                    aug_m = c0_in_center_after[idx]
            else:
                going_home = (boundary == "k") == (p not in l0)
                if going_home:
                    cls = "returning"
                else:
                    nxt = next_involvement(p, idx)
                    cls = "departing-cutting" if nxt == "opposite" else "departing-stalling"
            records.append(
                TranspositionRecord(
                    step=t.step, position=t.position, pair=t.pair, block_index=bi,
                    kind="k-critical", cls=cls, entering=p, aug_m=aug_m, weight=w,
                    heavy=w > n - 2 * k - 1 - s_value, essential=True,
                )
            )
        elif k + 1 <= t.position <= n - k - 1:
            essential = True if bi == 0 else entering_of[bi] in t.pair
            records.append(
                TranspositionRecord(
                    step=t.step, position=t.position, pair=t.pair, block_index=bi,
                    kind="center", cls="non-critical", essential=essential,
                )
            )
        else:
            records.append(
                TranspositionRecord(
                    step=t.step, position=t.position, pair=t.pair, block_index=bi,
                    kind="outer", cls="non-critical", essential=True,
                )
            )
    return records


@settings(derandomize=True, max_examples=60, deadline=None)
@given(halfperiods())
def test_classification_matches_per_index_reference(h):
    for k in range(1, (h.n - 1) // 2 + 1):
        for g in (h, rearrange_essential(h, k)):
            assert classify(g, k) == ref_classify(g, k), (h.n, k)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(halfperiods())
def test_critical_records_match_the_reference_k_critical_records(h):
    for k in range(1, (h.n - 1) // 2 + 1):
        for g in (h, rearrange_essential(h, k)):
            want = [r for r in ref_classify(g, k) if r.kind == "k-critical"]
            assert critical_records(g, k) == want, (h.n, k)


def test_verify_central_builds_no_full_classification(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("verify_central called classify")

    monkeypatch.setattr(central, "classify", refuse)
    h = random_reduced_word(14, random.Random(71))
    for k in range(1, 7):
        assert verify_central(h, k).all_ok, k


# sha256 of `classify --halfperiod` stdout on one seeded n = 40 reduced word.
CLASSIFY_N40_SHA256 = {
    1: "62b8b4b373ce8c5272fc8cfbd8f7ba8485b7ad6ba34d4281fb00bdfc1b13603b",
    7: "6aef75902bd86c712e05324844856c618b1599ff673b5750b9f8452e3417edcc",
    19: "ca8608d42d9b071accf9d28601681f80d16e33fb0db02e58fd6b7b033bf744e2",
}


@pytest.mark.parametrize("k", sorted(CLASSIFY_N40_SHA256))
def test_classify_stdout_on_a_large_word_is_pinned(k, tmp_path, capsys):
    path = tmp_path / "w40.hp"
    write_halfperiod(path, random_reduced_word(40, random.Random(83)))
    assert main(["classify", str(path), "--halfperiod", "--k", str(k)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_N40_SHA256[k]


def _record_dicts(records):
    """The dict form `classify` printed its records from, one dict each."""
    return [
        {"step": r.step, "position": r.position, "pair": list(r.pair), "block": r.block_index,
         "kind": r.kind, "class": r.cls, "entering": r.entering, "aug_m": r.aug_m,
         "weight": r.weight, "heavy": r.heavy, "essential": r.essential}
        for r in records
    ]


# Seeded reduced words and one swept point set; every k of each is rendered.
RECORD_TEXT_CASES = [("word", 9, 1), ("word", 16, 3), ("word", 24, 5), ("points", 12, 7)]


def _case_halfperiod(source, n, seed):
    if source == "word":
        return random_reduced_word(n, random.Random(seed))
    return halfperiod_from_points(random_general_position_set(n, random.Random(seed)))


@pytest.mark.parametrize("source, n, seed", RECORD_TEXT_CASES)
def test_records_text_matches_json_dumps_of_the_record_dicts(source, n, seed):
    h = _case_halfperiod(source, n, seed)
    for k in range(1, (n - 1) // 2 + 1):
        records = classify(h, k)
        dicts = _record_dicts(records)
        assert _records_text(records) == json.dumps(dicts, indent=2), k
        # nested one level, where the classify report places it
        nested = json.dumps({"records": dicts}, indent=2)
        assert '{\n  "records": ' + _records_text(records, "\n  ") + "\n}" == nested, k


def test_records_text_cases_cover_every_field_value():
    seen = set()
    for source, n, seed in RECORD_TEXT_CASES:
        h = _case_halfperiod(source, n, seed)
        for k in range(1, (n - 1) // 2 + 1):
            for r in classify(h, k):
                seen |= {("kind", r.kind), ("class", r.cls),
                         ("entering", type(r.entering)), ("aug_m", type(r.aug_m)),
                         ("heavy", r.heavy), ("essential", r.essential)}
    classes = ("non-critical", "arriving-augmenting", "arriving-neutral", "returning",
               "departing-cutting", "departing-stalling")
    want = {("kind", kind) for kind in ("k-critical", "center", "outer")}
    want |= {("class", cls) for cls in classes}
    want |= {(name, t) for name in ("entering", "aug_m") for t in (int, type(None))}
    want |= {("heavy", v) for v in (True, False, None)} | {("essential", v) for v in (True, False)}
    assert want <= seen, want - seen


@pytest.mark.parametrize("value", ["1", 1.0, 0.0], ids=repr)
@pytest.mark.parametrize("name", ["entering", "aug_m", "weight", "heavy", "essential"])
def test_records_text_rejects_a_str_or_float_field(name, value):
    records = classify(random_reduced_word(7, random.Random(5)), 2)
    records[3] = records[3]._replace(**{name: value})
    with pytest.raises(TypeError):
        _records_text(records)
