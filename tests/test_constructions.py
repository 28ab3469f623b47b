"""Extremal constructions and their exact certificates."""

import random

import pytest

from kedges.circseq import compute_s, halfperiod_from_points
from kedges.constructions import (
    SrConfig,
    build_cluster_polygon,
    build_polygon_center,
    build_sr,
    check_3decomposable,
    count_bichromatic_monochromatic,
    sr_expected_bichromatic,
    sr_expected_leq,
    sr_expected_monochromatic,
    sr_audit,
    sr_letter_partition,
)
from kedges.bounds import comb2
from kedges.central import verify_central
from kedges.edgestats import edge_vector_bruteforce, pair_levels
from kedges.errors import InputError
from kedges.gensets import random_general_position_set
from kedges.geom import P, PointSet


def test_sr_config_validation():
    with pytest.raises(InputError):
        SrConfig(r=2)
    with pytest.raises(InputError):
        SrConfig(r=3, segment_choice=1)
    with pytest.raises(InputError):
        SrConfig(r=3, perturbation_epsilon=0)


def test_s3_raw_collinearities(s3):
    # exactly the three flat families (one per rotation class) are collinear
    triples = s3.raw.point_set.collinear_triples
    assert set(triples) == {(6, 7, 8), (15, 16, 17), (24, 25, 26)}
    tags = s3.raw.class_tags
    assert all(tags[i] == "A''" for i in (6, 7, 8))
    assert all(tags[i] == "B''" for i in (15, 16, 17))
    assert all(tags[i] == "C''" for i in (24, 25, 26))


def test_s3_class_structure(s3):
    tags = s3.raw.class_tags
    assert len(tags) == 27
    for cls in ("A", "A'", "A''", "B", "B'", "B''", "C", "C'", "C''"):
        assert tags.count(cls) == 3
    # letter-major order: thirds by rotation class
    assert {t[0] for t in tags[:9]} == {"A"}
    assert {t[0] for t in tags[9:18]} == {"B"}
    assert {t[0] for t in tags[18:]} == {"C"}


def test_s3_slope_certificate(s3):
    max1, min2 = s3.slope_margin
    assert max1 < min2


def test_s3_tightness(s3):
    assert s3.perturbed.point_set.general_position
    ev = s3.edge_vector
    for k in range(12):
        assert ev.leq(k) == sr_expected_leq(3, k)
    assert ev.leq(11) == 255 and ev.leq(10) == 207


def test_s3_halfperiod_cross_check(s3):
    # cross-module oracle: the sweep over the perturbed 27-point set yields
    # C(27,2) = 351 transpositions and the same edge vector as brute force
    from math import comb

    from kedges.central import blocks
    from kedges.edgestats import edge_vector_from_halfperiod

    h = halfperiod_from_points(s3.perturbed.point_set, tie_break=True)
    assert len(h.transpositions) == comb(27, 2) == 351
    assert edge_vector_from_halfperiod(h) == s3.edge_vector
    # k = 12: one block per (k-1)-edge boundary crossing, plus the prefix
    assert len(blocks(h, 12)) == s3.edge_vector.counts[11] + 1


def test_s3_split(s3):
    levels = pair_levels(s3.perturbed.point_set)
    for k in range(12):
        bi, mono = count_bichromatic_monochromatic(s3.perturbed, k, levels)
        assert (bi, mono) == (sr_expected_bichromatic(3, k), sr_expected_monochromatic(3, k))
    assert count_bichromatic_monochromatic(s3.perturbed, 11, levels) == (216, 39)
    assert count_bichromatic_monochromatic(s3.perturbed, 9, levels) == (162, 6)
    for k in range(9):
        assert count_bichromatic_monochromatic(s3.perturbed, k, levels)[1] == 0


def test_sr_audit_reuses_build_levels(s3):
    assert s3.levels == pair_levels(s3.perturbed.point_set)
    rows = sr_audit(s3.perturbed, s3.levels)
    assert [row.k for row in rows] == list(range(12))
    assert all(row.ok for row in rows)
    assert [row.leq for row in rows] == list(s3.edge_vector.e_leq[:12])
    assert (rows[11].bi, rows[11].mono) == (216, 39)


def test_count_split_requires_labels(s3):
    with pytest.raises(InputError):
        count_bichromatic_monochromatic(s3.perturbed.point_set, 3)


def test_s4_tightness():
    res = build_sr(SrConfig(r=4))
    ev = res.edge_vector
    for k in range(16):
        assert ev.leq(k) == sr_expected_leq(4, k)
    assert ev.leq(15) == 441  # 3 C(17,2) + 3 C(5,2) + 3


def test_sr_expected_consistency():
    # bichromatic + monochromatic = total, for every family size
    for r in (3, 4, 5, 6):
        for k in range(4 * r):
            assert sr_expected_bichromatic(r, k) + sr_expected_monochromatic(r, k) == \
                sr_expected_leq(r, k)


def test_polygon_center_9():
    ps = build_polygon_center(3, 9)
    ev = edge_vector_bruteforce(ps)
    assert ev.counts[2] == 7
    assert ev.geq(3) == 15
    h = halfperiod_from_points(ps, tie_break=True)
    s = compute_s(h, 3).s_value
    assert s == 2
    assert ev.geq(3) == (9 - 7) * ev.counts[2] + comb2(s)  # corollary equality
    rep = verify_central(h, 3)
    assert rep.holds and rep.all_ok


def test_polygon_center_15():
    ps = build_polygon_center(6, 15)
    ev = edge_vector_bruteforce(ps)
    assert ev.counts[5] == 13
    assert ev.geq(6) == comb2(2) + 13 * 2 == 27
    assert compute_s(halfperiod_from_points(ps, tie_break=True), 6).s_value == 2


def test_polygon_center_degenerate_rejected():
    with pytest.raises(InputError):
        build_polygon_center(3, 8)  # n = 2k+2: no room for central points


def test_cluster_polygon_cases():
    ps = build_cluster_polygon(1, 3)
    ev = edge_vector_bruteforce(ps)
    assert (ev.counts[2], ev.geq(3)) == (9, 18)
    assert compute_s(halfperiod_from_points(ps, tie_break=True), 3).s_value == 0

    ps = build_cluster_polygon(2, 2)
    ev = edge_vector_bruteforce(ps)
    assert (ev.counts[3], ev.geq(4)) == (10, 2 * 5 * comb2(2))
    assert ev.geq(4) == 10

    ps = build_cluster_polygon(2, 1)  # plain pentagon
    ev = edge_vector_bruteforce(ps)
    assert ev.counts[1] == 5 and ev.geq(2) == 0


def test_cluster_polygon_validation():
    with pytest.raises(InputError):
        build_cluster_polygon(0, 3)


def test_3decomposable_sr(s3):
    w = check_3decomposable(s3.perturbed.point_set, sr_letter_partition(3))
    assert w is not None
    assert len(w.directions) == 3


def test_3decomposable_three_clusters():
    # three tight clusters at triangle vertices: trivially 3-decomposable
    base = [(0, 0), (1000, 0), (500, 900)]
    pts = []
    for bx, by in base:
        pts += [P(bx + dx, by + dy * dy) for dx, dy in ((0, 1), (3, 2), (7, 4))]
    ps = PointSet(pts).require_general_position()
    w = check_3decomposable(ps, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    assert w is not None


def test_3decomposable_random_failure():
    rng = random.Random(67)
    ps = random_general_position_set(9, rng)
    # an interleaved partition of a random set essentially never decomposes
    w = check_3decomposable(ps, ((0, 3, 6), (1, 4, 7), (2, 5, 8)))
    assert w is None


def test_3decomposable_partition_validation(s3):
    ps = s3.perturbed.point_set
    with pytest.raises(InputError):
        check_3decomposable(ps, ((0,), (1,), (2,)))
    with pytest.raises(InputError):
        check_3decomposable(ps, (range(9), range(9, 18), range(17, 26)))


def test_sr_verification_failure_reports():
    # an absurdly coarse rotation cannot certify; the error names the stage
    from kedges.errors import VerificationError

    with pytest.raises(VerificationError, match="could not be certified"):
        build_sr(SrConfig(r=3, precision=1))


def test_sr_escalation_recovers_from_coarse_precision():
    # a coarse but squarable precision self-heals and still certifies
    res = build_sr(SrConfig(r=3, precision=2))
    assert res.config.precision > 2
    assert all(res.edge_vector.leq(k) == sr_expected_leq(3, k) for k in range(12))
