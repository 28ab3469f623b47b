"""Halfperiod construction, validation, k-centers, s(k, pi)."""

import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings

from kedges.central import verify_central
from kedges.circseq import (
    Halfperiod,
    compute_s,
    halfperiod_from_points,
    read_halfperiod,
    require_valid,
    validate_allowable,
)
from kedges.errors import GeneralPositionError, InputError
from kedges.gensets import random_general_position_set
from kedges.geom import PointSet
from oracles import (
    P,
    convex_polygon_set,
    halfperiods,
    k_center,
    reverse_halfperiod,
    rotate_halfperiod,
    write_halfperiod,
)


def test_triangle_sweep():
    h = halfperiod_from_points(PointSet([P(0, 0), P(4, 1), P(1, 3)]))
    assert len(h.transpositions) == 3
    assert all(pos in (1, 2) for _step, pos, _pair in h.transpositions)
    assert validate_allowable(h) == []


def test_convex_quadrilateral_positions():
    h = halfperiod_from_points(PointSet([P(0, 0), P(7, 1), P(5, 6), P(1, 3)]))
    assert len(h.transpositions) == 6
    # diagonals swap in the middle: E_0 = 4, E_1 = 2
    mids = sum(1 for _step, pos, _pair in h.transpositions if pos == 2)
    assert mids == 2


def test_collinear_input_rejected():
    with pytest.raises(GeneralPositionError):
        halfperiod_from_points(PointSet([P(0, 0), P(1, 0), P(2, 0), P(0, 5)]))


def test_parallel_pairs_tie():
    square = PointSet([P(0, 0), P(1, 0), P(0, 1), P(1, 1)])
    h = halfperiod_from_points(square)
    assert validate_allowable(h) == []


def test_halfperiod_is_immutable_and_equal_without_point_index():
    h = halfperiod_from_points(PointSet([P(0, 0), P(4, 1), P(1, 3)]))
    abstract = Halfperiod(h.n, h.initial, h.transpositions)
    assert h.point_index is not None and abstract.point_index is None
    assert h == abstract and hash(h) == hash(abstract)
    with pytest.raises(AttributeError):
        h.n = 4


def test_corrupted_sweep_is_refused():
    # two consecutive angle runs that share a point do not commute: crossed
    # in the wrong order, the second swaps labels that are not adjacent
    pts = random_general_position_set(10, random.Random(5)).points
    angles = list(PointSet(pts).angles)
    g = next(g for g in range(1, len(angles) - 1)
             if {i for _, *pair in angles[g] for i in pair}
             & {i for _, *pair in angles[g + 1] for i in pair})
    angles[g], angles[g + 1] = angles[g + 1], angles[g]
    corrupted = PointSet(pts)
    vars(corrupted)["angles"] = tuple(angles)  # the cached sweep events
    with pytest.raises(InputError, match="step"):
        halfperiod_from_points(corrupted)


def test_validate_flags_corruption():
    h = halfperiod_from_points(PointSet([P(0, 0), P(7, 1), P(5, 6), P(1, 3)]))
    # repeat one transposition in place of another
    ts = list(h.transpositions)
    ts[3] = ts[2]
    bad = Halfperiod(h.n, h.initial, tuple(ts))
    report = validate_allowable(bad)
    assert any("swapped again" in v for v in report)
    assert any("reverse" in v for v in report)


def _word(initial, positions):
    """The transpositions at `positions` from `initial`, each recording the
    labels that stand in its slots."""
    perm, ts = list(initial), []
    for step, pos in enumerate(positions, start=1):
        ts.append((step, pos, (perm[pos - 1], perm[pos])))
        perm[pos - 1], perm[pos] = perm[pos], perm[pos - 1]
    return ts


FINAL = "final permutation is not the reverse of the initial one"
# A valid n = 4 halfperiod from the identity; it ends at (4, 3, 2, 1).
VALID4 = _word((1, 2, 3, 4), [2, 1, 3, 2, 1, 3])


def test_validate_message_initial_not_a_permutation():
    bad = Halfperiod(4, (1, 2, 2, 4), tuple(VALID4))
    assert validate_allowable(bad) == ["initial is not a permutation of 1..4"]


def test_validate_message_transposition_count():
    extra = _word((1, 2, 3), [1, 2, 1, 1])
    assert validate_allowable(Halfperiod(3, (1, 2, 3), tuple(extra))) == [
        "expected C(3,2) = 3 transpositions, found 4",
        "step 4: pair (2, 3) swapped again (first at step 3)",
        FINAL,
    ]


def test_validate_message_recorded_step_number():
    ts = list(VALID4)
    _step, pos, pair = ts[2]
    ts[2] = (7, pos, pair)
    assert validate_allowable(Halfperiod(4, (1, 2, 3, 4), tuple(ts))) == [
        "step 3: recorded step number 7"
    ]


def test_validate_message_position_out_of_range():
    ts = list(VALID4)
    ts[5] = (6, 0, ts[5][2])
    assert validate_allowable(Halfperiod(4, (1, 2, 3, 4), tuple(ts))) == [
        "step 6: position 0 out of range 1..3",
        FINAL,
    ]


def test_validate_message_position_out_of_range_at_n():
    ts = list(VALID4)
    ts[5] = (6, 4, ts[5][2])
    assert validate_allowable(Halfperiod(4, (1, 2, 3, 4), tuple(ts))) == [
        "step 6: position 4 out of range 1..3",
        FINAL,
    ]


def test_validate_message_recorded_pair_not_in_slots():
    ts = list(VALID4)
    ts[0] = (1, 2, (2, 4))
    assert validate_allowable(Halfperiod(4, (1, 2, 3, 4), tuple(ts))) == [
        "step 1: recorded pair (2, 4) but slots hold (2, 3)"
    ]
    ts[0] = (1, 2, (3, 2))  # the slot pair in either order is no violation
    assert validate_allowable(Halfperiod(4, (1, 2, 3, 4), tuple(ts))) == []


def test_validate_message_pair_swapped_again():
    ts = _word((1, 2, 3, 4), [2, 2, 1, 3, 2, 1])
    assert validate_allowable(Halfperiod(4, (1, 2, 3, 4), tuple(ts))) == [
        "step 2: pair (2, 3) swapped again (first at step 1)",
        FINAL,
    ]


def test_validate_message_final_permutation():
    assert validate_allowable(Halfperiod(2, (1, 2), ())) == [
        "expected C(2,2) = 1 transpositions, found 0",
        FINAL,
    ]


def test_validate_memory_is_bounded_by_the_transpositions_read(tmp_path):
    """A 14 KB file that claims n = 3000 and holds one transposition: the
    axiom walk's pair table grows with the transpositions read, not with
    the (n+1)^2 label pairs it could key."""
    n = 3000
    path = tmp_path / "hp.txt"
    path.write_text(f"{n}\n{' '.join(map(str, range(1, n + 1)))}\n1 1 1 2\n")
    h = read_halfperiod(path)
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as exc:
            require_valid(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value).startswith(
        "invalid halfperiod: expected C(3000,2) = 4498500 transpositions, found 1; ")
    assert peak < 2 << 20, peak


def test_hand_built_abstract_halfperiod():
    # n = 4, positions [2, 1, 3, 2, 1, 3] starting from the identity.
    positions = [2, 1, 3, 2, 1, 3]
    perm = [1, 2, 3, 4]
    ts = []
    for i, pos in enumerate(positions, start=1):
        pair = (perm[pos - 1], perm[pos])
        ts.append((i, pos, pair))
        perm[pos - 1], perm[pos] = perm[pos], perm[pos - 1]
    h = Halfperiod(4, (1, 2, 3, 4), tuple(ts))
    assert validate_allowable(h) == []


def test_pairs_cover_everything():
    rng = random.Random(3)
    for _ in range(10):
        ps = random_general_position_set(rng.randrange(5, 10), rng)
        h = halfperiod_from_points(ps)
        pairs = {frozenset(pair) for _step, _pos, pair in h.transpositions}
        assert len(pairs) == comb(ps.n, 2)
        assert validate_allowable(h) == []


def test_k_center_basics():
    ps = convex_polygon_set(7)
    h = halfperiod_from_points(ps)
    n = 7
    for k in (1, 2, 3):
        c0 = k_center(h, 0, k)
        assert c0 == frozenset(h.initial[k : n - k])
        assert k_center(h, comb(n, 2), k) == c0  # reversed permutation, same middle
    with pytest.raises(InputError, match="k out of range"):
        k_center(h, 0, 4)


def test_k_center_singletons_n5():
    rng = random.Random(8)
    ps = random_general_position_set(5, rng)
    h = halfperiod_from_points(ps)
    for i in range(comb(5, 2) + 1):
        assert len(k_center(h, i, 2)) == 1


def test_compute_s_trace_shape():
    rng = random.Random(21)
    ps = random_general_position_set(9, rng)
    h = halfperiod_from_points(ps)
    for k in range(1, 5):
        c0 = k_center(h, 0, k)
        sizes = [len(c0 & k_center(h, i, k)) for i in range(comb(9, 2) + 1)]
        assert sizes[0] == sizes[-1] == 9 - 2 * k
        assert compute_s(h, k) == min(sizes) <= 9 - 2 * k - 1


def test_convex_s_upper_bound():
    ps = convex_polygon_set(9)
    h = halfperiod_from_points(ps)
    assert compute_s(h, 1) <= 9 - 3


@settings(derandomize=True, max_examples=60, deadline=None)
@given(halfperiods(min_n=3, max_n=19))
def test_rotation_and_reversal_preserve_statistics(h):
    """Each rotation of the circular sequence, and its reversal, is a
    valid halfperiod with h's edge counts on which the central checks
    hold at every k."""
    for g in (*(rotate_halfperiod(h, steps) for steps in (1, 7, 19)), reverse_halfperiod(h)):
        assert validate_allowable(g) == []
        assert g.level_counts == h.level_counts
        for k in range(1, (h.n - 1) // 2 + 1):
            assert verify_central(g, k).all_ok, (h.n, k)


def test_halfperiod_file_roundtrip(tmp_path):
    ps = convex_polygon_set(6)
    h = halfperiod_from_points(ps)
    path = tmp_path / "hp.txt"
    write_halfperiod(path, h)
    back = read_halfperiod(path)
    assert back == h
    first = path.read_text().splitlines()
    assert first[0] == "6"
    assert first[1] == "1 2 3 4 5 6"


# A valid n = 3 halfperiod file: "#" lines and blank lines are skipped but
# count towards each message's "line N".
HP3 = "# n\n3\n\n1 2 3\n# steps\n1 1 1 2\n2 2 1 3\n3 1 2 3\n"


def test_read_halfperiod_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "hp.txt"
    want = Halfperiod(3, (1, 2, 3), tuple(_word((1, 2, 3), [1, 2, 1])))
    for text in (
        HP3,
        HP3.replace("# steps", "# 1 2 3"),  # a comment with four tokens
        HP3.replace("# steps", "#1 1 2 3"),  # a first token glued to '#'
        HP3.replace("1 1 1 2\n", "1 1 1 2\n \t \n"),  # whitespace between transpositions
        HP3.rstrip("\n"),  # no newline after the last transposition
    ):
        path.write_text(text)
        assert read_halfperiod(path) == want, text


@pytest.mark.parametrize(
    "text, msg",
    [
        pytest.param("", "halfperiod file too short", id="empty"),
        pytest.param("# only\n\n3\n  \n# 1 2 3\n", "halfperiod file too short", id="one-line"),
        pytest.param("x\n", "halfperiod file too short", id="one-bad-line"),
        pytest.param("three\n1 2 3\n", "bad halfperiod header: invalid literal for int() "
                     "with base 10: 'three'", id="bad-n"),
        pytest.param("3\n1 2 x\n", "bad halfperiod header: invalid literal for int() "
                     "with base 10: 'x'", id="bad-initial"),
        pytest.param(" 3 \n1 2 3\n1 1 1\n", "line 3: expected 'step position labelA labelB'",
                     id="three-fields"),
        pytest.param(HP3.replace("2 2 1 3", "2 2 1 3 4"),
                     "line 7: expected 'step position labelA labelB'", id="five-fields"),
        pytest.param(HP3.replace("3 1 2 3", "3 1 2 c"), "line 8: non-integer field",
                     id="non-integer"),
        pytest.param(HP3.replace("2 2 1 3\n", "# five next\n2 2 1 3 4\n"),
                     "line 8: expected 'step position labelA labelB'",
                     id="five-fields-after-comment"),
        # the header is reported before a bad transposition line
        pytest.param("# n\nthree\n1 2 3\n1 1 x\n", "bad halfperiod header: invalid literal "
                     "for int() with base 10: 'three'", id="header-first"),
        pytest.param("3\n1 2 3 y\n# z\n\n1 1 1\n", "bad halfperiod header: invalid literal "
                     "for int() with base 10: 'y'", id="header-first-initial"),
    ],
)
def test_read_halfperiod_messages(tmp_path, text, msg):
    path = tmp_path / "hp.txt"
    path.write_text(text)
    with pytest.raises(InputError) as exc:
        read_halfperiod(path)
    assert str(exc.value) == msg
