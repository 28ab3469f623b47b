"""CLI surface: subcommands, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import kedges
from kedges.bounds import bound_table
from kedges.cli import build_parser, main
from kedges.errors import RearrangementError, VerificationError
from kedges.geom import write_points
from oracles import convex_polygon_set


@pytest.fixture()
def octagon_file(tmp_path):
    path = tmp_path / "oct.pts"
    write_points(path, convex_polygon_set(8))
    return str(path)


@pytest.fixture()
def collinear_file(tmp_path):
    path = tmp_path / "bad.pts"
    path.write_text("4\n0 0\n1 0\n2 0\n0 5\n")
    return str(path)


def test_analyze(octagon_file, capsys):
    assert main(["analyze", octagon_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 8
    assert out["crossings"] == 70
    assert out["halving_lines"] == 4
    assert out["identity_check"] is True
    assert out["E_leq"][-1] == 28


ANALYZE_OCTAGON_SHA256 = "8067e7a7c0f6bab0d9d3591993966c9f5a967842292ec936c1a1639efd5d9dde"


def test_analyze_stdout_on_octagon_is_pinned(octagon_file, capsys):
    assert main(["analyze", octagon_file]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ANALYZE_OCTAGON_SHA256


# `analyze` on the files `construct sr --r 3` and `--r 4` write.
@pytest.mark.parametrize("r, digest", [
    (3, "1a37425b29fb5b99cf3f715b6c1708c74ded4ddbc6de7954c3692fddb85ab8f4"),
    (4, "664a75690eb7078f33cad144abb40f52aba6c2990d292058f8edc7697de2e6ae"),
], ids=["s3", "s4"])
def test_analyze_stdout_on_sr_is_pinned(r, digest, sr, tmp_path, capsys):
    path = tmp_path / f"s{r}.pts"
    write_points(path, sr(r).perturbed)
    assert main(["analyze", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_analyze_collinear_exit_2(collinear_file, capsys):
    assert main(["analyze", collinear_file]) == 2
    # one line: the count and the first triple, never the whole list
    assert capsys.readouterr().err == (
        "error: not in general position: 1 collinear triple(s), first (0, 1, 2)\n")


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.pts")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_classify_points(octagon_file, capsys):
    assert main(["classify", octagon_file, "--k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True
    assert out["K"] == 8
    assert all(out["aux_checks"].values())
    assert len(out["records"]) == 28
    crit = [r for r in out["records"] if r["kind"] == "k-critical"]
    assert len(crit) == 8 and all(r["class"] != "non-critical" for r in crit)


# `classify` on the octagon, whose 12 groups of parallel pairs swap in
# pair-index order: the bytes the same command printed with the former
# `--tie-break` flag.
@pytest.mark.parametrize("k, digest", [
    (1, "509133789e6148444b0131c63c9809ad7ced1a2f9f4a6677fef886884df03822"),
    (2, "84365383f920e2442796e40b66252db5a348f6ef657d6a6a0db3d16119e6abf4"),
    (3, "dee7dd8552b631e80eee7d51f0dbd72eab5340754a160b5c8b9edb4e68262309"),
], ids=["k1", "k2", "k3"])
def test_classify_stdout_on_octagon_is_pinned(k, digest, octagon_file, capsys):
    assert main(["classify", octagon_file, "--k", str(k)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_classify_has_no_tie_break_option(octagon_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", octagon_file, "--k", "2", "--tie-break"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tie-break" in capsys.readouterr().err


def test_classify_halfperiod_file(octagon_file, tmp_path, capsys):
    from kedges.circseq import halfperiod_from_points
    from kedges.geom import read_points
    from oracles import write_halfperiod

    hp = tmp_path / "oct.hp"
    write_halfperiod(hp, halfperiod_from_points(read_points(octagon_file)))
    assert main(["classify", str(hp), "--halfperiod", "--k", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True


def test_classify_missing_halfperiod_file(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.hp"), "--halfperiod", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "Traceback" not in err


def test_construct_unwritable_output(tmp_path, capsys):
    out_file = str(tmp_path / "missing-dir" / "pc.pts")
    assert main(["construct", "polygon-center", "--k", "3", "--n", "9", "-o", out_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_bounds_table(capsys):
    assert main(["bounds", "--n", "27", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[11]["best"] == 255 and rows[11]["source"] == "u_k"
    assert main(["bounds", "--n", "27", "--k", "10"]) == 0
    assert "207" in capsys.readouterr().out


def test_bounds_with_u_prime_column(capsys):
    assert main(["bounds", "--n", "36"]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(["bounds", "--n", "36", "--with-u-prime"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["k", "closedform", "u_k", "u'_k", "explicit", "best", "source"]
    assert lines[2 + 16].split() == ["16", "504", "536", "522", "443.19", "536", "u_k"]
    # the column is 10 characters inserted after u_k; the rest is the plain table
    assert [ln[:26] + ln[36:] for ln in lines[1:]] == plain[1:] and lines[0] == plain[0]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bounds_with_u_prime_needs_36_divides_n(fmt, capsys):
    assert main(["bounds", "--n", "27", "--with-u-prime", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: u' sequence needs 36 | n, got 27\n"


# `bounds --format json` prints the explicit column as the float's full repr.
@pytest.mark.parametrize("argv, digest", [
    (["--n", "27"], "f202ed06f74cb6f52e5dba6abae7925b4cb0b9ae255f0e020c9a55139652ff4a"),
    (["--n", "60"], "d742a0f8a16f386652652705fcbd12073026c3be3045598ed35cc4e679f87626"),
    (["--n", "99"], "015d1c8b5d50d8572e7475c212b3de0f50acc051331da76b9ad714931f68704a"),
    (["--n", "36", "--with-u-prime"],
     "40988d2b01d7b0fe704c5ee9e3b7a61c0e8b4a549e78e8e17fdc68fa62d5296d"),
], ids=["n27", "n60", "n99", "n36-u-prime"])
def test_bounds_json_stdout_is_pinned(argv, digest, capsys):
    assert main(["bounds", *argv, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_halving_and_cr_bound(capsys):
    assert main(["halving-bound", "--n", "24"]) == 0
    assert capsys.readouterr().out.strip() == "51"
    assert main(["cr-bound", "--n", "24"]) == 0
    assert capsys.readouterr().out.strip() == "3699"
    assert main(["cr-bound", "--n", "28", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 7233 and out["pipeline"] == "section5"


# `cr-bound --format json`: the value and its per-k rows (bound and source).
@pytest.mark.parametrize("n, digest", [
    (8, "704374a1324fd0f48b74677d8a8c4f47a9395962866b4386c316d2dfbe44451e"),
    (28, "c15278576d8aa140ae62f1ccec56e80266ff94a5845aa102cef6de58b9c4544d"),
    (99, "12120f5826941564d68daaf51c434a78a1e0722bde92f8b24dfe270dc142b99e"),
], ids=["n8", "n28", "n99"])
def test_cr_bound_json_stdout_is_pinned(n, digest, capsys):
    assert main(["cr-bound", "--n", str(n), "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv", [["cr-bound", "--n", "24"], ["cr-table", "--from", "28", "--to", "31"]],
    ids=["cr-bound", "cr-table"],
)
def test_pipeline_option_is_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--pipeline", "table1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --pipeline table1" in captured.err


def test_cr_table_csv(capsys):
    assert main(["cr-table", "--from", "28", "--to", "31", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,cr_lower_bound"
    assert lines[1] == "28,7233" and lines[-1] == "31,11207"


def test_tables_check_all(capsys):
    for which in ("table1", "table2", "section5"):
        assert main(["tables", which, "--check"]) == 0, which
        assert "MISMATCH" not in capsys.readouterr().out


def test_tables_csv(capsys):
    assert main(["tables", "table1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "14,22,324" in out and "27,96,6180" in out


def test_construct_and_verify_sr(tmp_path, capsys):
    out_file = str(tmp_path / "s3.pts")
    assert main(["construct", "sr", "--r", "3", "-o", out_file]) == 0
    capsys.readouterr()
    assert main(["analyze", out_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n"] == 27 and rep["identity_check"] is True
    assert rep["E_leq"][11] == 255
    assert main(["decompose3", out_file, "--partition", "1-9/10-18/19-27"]) == 0
    capsys.readouterr()
    assert main(["verify", "sr", "--r", "3"]) == 0
    assert capsys.readouterr().out == VERIFY_SR_3
    expected = [int(line.split()[2]) for line in VERIFY_SR_3.splitlines()[1:-1]]
    assert expected == [row.best for row in bound_table(27)[:12]]


# `verify sr --r 3`: the expected column is `bounds --n 27`'s best column.
VERIFY_SR_3 = """\
   k    E_leq  expected     bi   mono status
   0        3         3      3      0 ok
   1        9         9      9      0 ok
   2       18        18     18      0 ok
   3       30        30     30      0 ok
   4       45        45     45      0 ok
   5       63        63     63      0 ok
   6       84        84     84      0 ok
   7      108       108    108      0 ok
   8      135       135    135      0 ok
   9      168       168    162      6 ok
  10      207       207    189     18 ok
  11      255       255    216     39 ok
S_3: tightness and split verified for all k <= 11
"""


def test_construct_raw_has_collinear_families(tmp_path, capsys):
    out_file = str(tmp_path / "s3raw.pts")
    assert main(["construct", "sr", "--r", "3", "--raw", "-o", out_file]) == 0
    capsys.readouterr()
    assert main(["analyze", out_file]) == 2  # raw family is intentionally degenerate


@pytest.mark.parametrize("r, flags, digest", [
    (3, [], "082878abdf8b5d2ac4c9b0d6e63ea00a2760306e0a15c44abe3e34c6bf140ebf"),
    (3, ["--raw"], "f968388e0f9c8c43ebb98a31bf06279cf837386a72f7e2ed9ce6ff26eaebbbcb"),
    (12, [], "7ab5892910907fc6dba4c019ace1f6121814c439fb6d8f13370362a6cd0ec040"),
    (12, ["--raw"], "c70efb77118aba4dced921b166d24f7de65d75dae155341e1560e46710f6e735"),
    (20, [], "1d87c663efbb0b19b7615b389b98745c8bf33b692024185b0931a8c01a086e08"),
    (40, [], "8930d63d3abb4bb36586f4aa67400791caec65ac751fe5dae1ed0e0b01d457a6"),
], ids=["perturbed", "raw", "r12-perturbed", "r12-raw", "r20-perturbed", "r40-perturbed"])
def test_construct_sr_bytes_are_pinned(r, flags, digest, tmp_path, capsys):
    # The certified coordinates and the letter-major layout (sr_class_tags),
    # byte for byte: decompose3's 1-9/10-18/19-27 partition relies on it.
    # r = 12 is the largest r whose derived parameters are precision 10^12
    # and epsilon 10^-7; r = 20 and r = 40 pin sets built at precision 10^20
    # and 10^40.
    out_file = tmp_path / f"s{r}.pts"
    assert main(["construct", "sr", "--r", str(r), *flags, "-o", str(out_file)]) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["polygon-center", "--k", "3", "--n", "9"],
     "7b02fec4300a44426a609227ad16ff0ed4b9a52bdfd2c5de20edfdd02330c5d0"),
    (["polygon-center", "--k", "5", "--n", "16", "--precision", "1234567"],
     "dbe2d25a7c65bb89241346dfb5197f86f4f1fdc496d4fd7d73356421212f7bf7"),
    (["cluster-polygon", "--t", "1", "--m", "3"],
     "ebe5b0669d423dbc1025274cc4ec00e2d72b68f7443973c7defb2631a1c1ce49"),
    (["cluster-polygon", "--t", "3", "--m", "4", "--precision", "9999999"],
     "e08493f4b27a030c2bfc8205933957c9f9720bf2a9b1f7beeff4a833f22b01a3"),
    (["cluster-polygon", "--t", "3", "--m", "4", "--precision", "1000003"],
     "7dbce040a2f4cb70418da445688813997ce142a49b1e72e3ca960389dcc1c32a"),
    (["cluster-polygon", "--t", "2", "--m", "3", "--precision", "4242421"],
     "5d19f581909f4cfce220d3c175f4683587f4b5e0f6ae5872d8c2be95ad7488bc"),
], ids=["polygon-center-3-9", "polygon-center-5-16", "cluster-polygon-1-3", "cluster-polygon-3-4",
        "cluster-polygon-3-4-p1000003", "cluster-polygon-2-3-p4242421"])
def test_construct_polygon_bytes_are_pinned(argv, digest, tmp_path, capsys):
    # --precision is the polygon's integer radius, used as given
    out_file = tmp_path / "poly.pts"
    assert main(["construct", *argv, "-o", str(out_file)]) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["polygon-center", "--k", "6", "--n", "21"],
    ["cluster-polygon", "--t", "2", "--m", "2"],
], ids=["polygon-center", "cluster-polygon"])
def test_construct_polygon_too_coarse_exits_1(argv, tmp_path, capsys):
    # a radius of 1 cannot carry the polygon; the builder does not pick
    # another one, it names the check that failed
    out_file = tmp_path / "poly.pts"
    assert main(["construct", *argv, "--precision", "1", "-o", str(out_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "could not be certified at precision 1" in lines[0]
    assert not out_file.exists()


def test_verify_sr_20_stdout_is_pinned(capsys):
    # every row is ok and its expected column is `bounds --n 180` best, so
    # these bytes do not depend on the coordinates S_20 is built from
    assert main(["verify", "sr", "--r", "20"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "885f9ce609ffbb180fb7ec5cff7088abcab20587dd343e3e8da60c6d92d1b0e2")


# The witness directions of S_3's letter partition: rationals printed as
# "p/q" text, pinned character for character.
S3_DECOMPOSE3_STDOUT = (
    "part 1 between the others along direction "
    "(150022004734789386321187/312500000000000000000, "
    "155273587795987638279722889/1562500000000000000000)\n"
    "part 2 between the others along direction "
    "(-11613038367822243122312897/135316469341250000000, "
    "125258253176473/2500000000)\n"
    "part 3 between the others along direction "
    "(2919499950372461389973367751975819817/33829117335312500000000000000000, "
    "7698717956182461872312897/156250000000000000000)\n"
)


def test_decompose3_stdout_is_pinned(s3, tmp_path, capsys):
    path = tmp_path / "s3.pts"
    write_points(path, s3.perturbed)
    assert main(["decompose3", str(path), "--partition", "1-9/10-18/19-27"]) == 0
    assert capsys.readouterr().out == S3_DECOMPOSE3_STDOUT


@pytest.mark.parametrize("r, digest", [
    (4, "7342b087fc976567b2575869d63adde9b948a648855b5161ab066ed38c9b2f1d"),
    (5, "af2411c26d5ef63dc8e0cdeebf3813f99a845abc2f03d3dd20d330479ec25d05"),
], ids=["s4", "s5"])
def test_decompose3_stdout_on_s4_s5_is_pinned(r, digest, sr, tmp_path, capsys):
    # the witness directions of the letter partition on the files
    # `construct sr --r 4` and `--r 5` write
    path = tmp_path / f"s{r}.pts"
    write_points(path, sr(r).perturbed)
    part = f"1-{3 * r}/{3 * r + 1}-{6 * r}/{6 * r + 1}-{9 * r}"
    assert main(["decompose3", str(path), "--partition", part]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_classify_bound_value_prints_as_p_over_q(tmp_path, capsys):
    path = tmp_path / "heptagon.pts"
    write_points(path, convex_polygon_set(7))
    assert main(["classify", str(path), "--k", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["bound_value"] == "53/2"


def test_construct_polygon_center(tmp_path, capsys):
    out_file = str(tmp_path / "pc.pts")
    assert main(["construct", "polygon-center", "--k", "3", "--n", "9", "-o", out_file]) == 0
    capsys.readouterr()
    assert main(["analyze", out_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n"] == 9 and rep["edge_vector"][2] == 7


def test_construct_cluster_polygon(tmp_path, capsys):
    out_file = str(tmp_path / "cp.pts")
    assert main(["construct", "cluster-polygon", "--t", "1", "--m", "3", "-o", out_file]) == 0
    capsys.readouterr()
    assert main(["analyze", out_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["n"] == 9 and sum(rep["edge_vector"][3:]) == 18


def test_decompose3_failure_exit(tmp_path, capsys):
    path = tmp_path / "rand.pts"
    import random

    from kedges.gensets import random_general_position_set

    write_points(path, random_general_position_set(9, random.Random(67)))
    code = main(["decompose3", str(path), "--partition", "1,4,7/2,5,8/3,6,9"])
    assert code == 1
    assert "no 3-decomposition" in capsys.readouterr().out


def test_decompose3_bad_partition(octagon_file, capsys):
    assert main(["decompose3", octagon_file, "--partition", "1-4/5-8"]) == 2


def test_selftest_bounds(capsys):
    assert main(["selftest", "bounds"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] table1-halving" in out
    assert "6/6 checks passed" in out


# The details of `selftest bounds` and `selftest constructions` (the bracket
# lemmas' failures, the 3-decomposition witnesses' failing parts), pinned.
@pytest.mark.parametrize("argv, digest", [
    (["bounds"], "47dd2282c246261bcbc823b2c223b5ef10191242cb5c0acc8667c7fdce4f8dbd"),
    (["constructions", "--rmax", "4"],
     "2c991e521bf143a06b641731b9827463fd619a0f3f33236a2a9a02b357c48ed0"),
], ids=["bounds", "constructions-rmax4"])
def test_selftest_stdout_is_pinned(argv, digest, capsys):
    assert main(["selftest", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_selftest_quick_sweeps(capsys):
    assert main(["selftest", "identities", "--trials", "12", "--nmax", "8", "--seed", "5"]) == 0
    assert main(["selftest", "central", "--trials", "8", "--nmax", "9", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def _plant_radial_level(monkeypatch, n):
    """Route B reports the least pair of every n-point set one level up."""
    from kedges import edgestats

    real = edgestats.radial_counts

    def planted(ps):
        levels, cr = real(ps)
        if ps.n == n:
            levels[min(levels)] += 1
        return levels, cr

    monkeypatch.setattr(edgestats, "radial_counts", planted)


def test_selftest_reports_a_failed_certificate_and_keeps_every_other_check(monkeypatch, capsys):
    """A VerificationError inside build_sr at r = 4 is one FAIL line in
    place of S_4's three; every other check still runs and prints.  The
    error is planted twice: raised by summarize itself, and a route
    disagreement that summarize finds."""
    from kedges import constructions

    argv = ["selftest", "all", "--trials", "5", "--nmax", "6"]
    assert main(argv) == 0
    clean = capsys.readouterr().out.splitlines()
    r4 = [i for i, line in enumerate(clean) if line.split()[1].endswith("-r4")]
    assert len(r4) == 3 and r4 == list(range(r4[0], r4[0] + 3))
    real = constructions.summarize

    def planted(ps, h):
        if ps.n == 36:
            raise VerificationError("planted")
        return real(ps, h)

    def fails_r4_only(detail):
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines() == [
            *clean[:r4[0]],
            f"[FAIL] sr-certificate-r4  (S_4 could not be certified: {detail})",
            *clean[r4[-1] + 1:-1],
            "13/14 checks passed",
        ]

    with monkeypatch.context() as m:
        m.setattr(constructions, "summarize", planted)
        fails_r4_only("planted")
    _plant_radial_level(monkeypatch, 36)
    fails_r4_only("pair (0, 1) has level 16 in the sweep and 17 in the radial orders")


def test_a_route_disagreement_fails_the_equality_builders_one_line_each(monkeypatch, capsys):
    assert main(["selftest", "constructions", "--rmax", "3"]) == 0
    clean = capsys.readouterr().out.splitlines()
    _plant_radial_level(monkeypatch, 9)
    assert main(["selftest", "constructions", "--rmax", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == clean[:3]
    assert out[3].startswith("[FAIL] polygon-center-9  (polygon-center could not be "
                             "certified at precision 1000000: pair ")
    assert out[4].startswith("[FAIL] cluster-polygon-9  (cluster-polygon could not be "
                             "certified at precision 1000000: pair ")
    assert out[5:] == ["3/5 checks passed"]


def test_a_route_disagreement_in_construct_is_one_line(monkeypatch, tmp_path, capsys):
    _plant_radial_level(monkeypatch, 36)
    out_file = tmp_path / "s4.pts"
    assert main(["construct", "sr", "--r", "4", "-o", str(out_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out_file.exists()
    assert captured.err.startswith("internal failure: S_4 could not be certified: pair ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, runner, error, line", [
    (["constructions", "--rmax", "3"], "build_polygon_center", VerificationError,
     "[FAIL] polygon-center-9  (planted)"),
    (["constructions", "--rmax", "3"], "build_cluster_polygon", VerificationError,
     "[FAIL] cluster-polygon-9  (planted)"),
    (["central", "--trials", "2", "--nmax", "5", "--seed", "1"], "verify_central",
     RearrangementError, "[FAIL] central-theorem-sweep  "
     "(failures: [(0, 5, 1, 'planted'), (0, 5, 2, 'planted'), (1, 5, 1, 'planted')])"),
], ids=["polygon-center", "cluster-polygon", "central"])
def test_selftest_reports_a_raised_check_as_one_fail_line(argv, runner, error, line,
                                                          monkeypatch, capsys):
    from kedges import selftest

    def planted(*args):
        raise error("planted")

    monkeypatch.setattr(selftest, runner, planted)
    assert main(["selftest", *argv]) == 1
    out = capsys.readouterr().out.splitlines()
    assert line in out
    assert sum(row.startswith("[FAIL]") for row in out) == 1


def test_selftest_deterministic(capsys):
    main(["selftest", "identities", "--trials", "6", "--nmax", "8"])
    first = capsys.readouterr().out
    main(["selftest", "identities", "--trials", "6", "--nmax", "8"])
    assert capsys.readouterr().out == first


def test_selftest_unknown_scope_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "nope"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("invalid choice: 'nope' (choose from 'bounds', 'identities', 'central', "
            "'constructions', 'all')") in captured.err


def _count_sweeps(monkeypatch) -> list:
    """The points of every halfperiod_from_points call from now on,
    wherever in the package it is made."""
    import kedges.circseq

    calls = []
    sweep = kedges.circseq.halfperiod_from_points

    def counted(ps, *args, **kwargs):
        calls.append(ps.points)
        return sweep(ps, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "kedges" and getattr(mod, "halfperiod_from_points", None) is sweep:
            monkeypatch.setattr(mod, "halfperiod_from_points", counted)
    return calls


def test_selftest_all_sweeps_each_corpus_set_once(monkeypatch, capsys):
    """The identity and central suites share one halfperiod per corpus
    set."""
    from kedges.selftest import build_corpus

    argv = ["--trials", "15", "--nmax", "8", "--rmax", "3", "--seed", "3"]
    corpus = [ps.points for ps, _ in build_corpus(trials=15, nmax=8, seed=3)]
    calls = _count_sweeps(monkeypatch)
    assert main(["selftest", "all", *argv]) == 0
    assert "[PASS] central-theorem-sweep" in capsys.readouterr().out
    assert [pts for pts in calls if pts in corpus] == corpus


def test_selftest_constructions_sweeps_each_built_set_once(monkeypatch, capsys):
    """S_3 and both equality builders are certified on one sweep each, and
    the suite reads its details from the builders' halfperiods."""
    calls = _count_sweeps(monkeypatch)
    assert main(["selftest", "constructions", "--rmax", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] polygon-center-9  (E_2=7 E_>=3=15 s=2)" in out
    assert "[PASS] cluster-polygon-9  (E_2=9 E_>=3=18 s=0)" in out
    assert len(calls) == 3


def test_identity_suite_checks_small_sets_against_brute_force(monkeypatch):
    from kedges import selftest

    corpus = selftest.build_corpus(trials=10, nmax=selftest.ORACLE_NMAX, seed=1)
    [(_, ok, _)] = selftest.run_identity_suite(corpus)
    assert ok
    monkeypatch.setattr(selftest, "crossings_bruteforce", lambda ps: -1)
    [(_, ok, detail)] = selftest.run_identity_suite(corpus)
    assert not ok and "crossings differ from brute force" in detail


def _halfperiod_lines(octagon_file, tmp_path):
    from kedges.circseq import halfperiod_from_points
    from kedges.geom import read_points
    from oracles import write_halfperiod

    hp = tmp_path / "oct.hp"
    write_halfperiod(hp, halfperiod_from_points(read_points(octagon_file)))
    return hp.read_text().splitlines()


def test_classify_halfperiod_bad_step(octagon_file, tmp_path, capsys):
    lines = _halfperiod_lines(octagon_file, tmp_path)
    step, rest = lines[5].split(" ", 1)
    lines[5] = f"{int(step) + 10} {rest}"
    bad = tmp_path / "bad-step.hp"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["classify", str(bad), "--halfperiod", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: invalid halfperiod: step 4: recorded step number 14")


def test_classify_halfperiod_reversed_pairs(octagon_file, tmp_path, capsys):
    lines = _halfperiod_lines(octagon_file, tmp_path)
    flipped = lines[:2]
    for ln in lines[2:]:
        step, pos, a, b = ln.split()
        flipped.append(f"{step} {pos} {b} {a}")
    files = []
    for name, body in (("ordered.hp", lines), ("flipped.hp", flipped)):
        files.append(tmp_path / name)
        files[-1].write_text("\n".join(body) + "\n")

    def report(path, k):
        assert main(["classify", str(path), "--halfperiod", "--k", str(k)]) == 0
        out = json.loads(capsys.readouterr().out)
        for r in out["records"]:
            r["pair"] = sorted(r["pair"])
        return out

    for k in (1, 2, 3):
        assert report(files[0], k) == report(files[1], k)


# Input files no reader may turn into a traceback: a byte that is not
# UTF-8, and a halfperiod header far too large to allocate 1..n for; and
# point files whose bad token is 5000 characters long, which no message
# may quote in full.
_BAD_FILES = {
    "NON_UTF8_PTS": b"3\n0 0\n1 \xff\n0 1\n",
    "NON_UTF8_HP": b"3\n1 2 3\n1 1 1 \xff\n",
    "HUGE_HP": b"%d\n1 2 3\n" % 10**18,
    "POSITION_N_HP": b"3\n1 2 3\n1 1 1 2\n2 3 1 3\n3 1 2 3\n",
    "HUGE_COORD": b"1\n" + b"1" * 5000 + b" 0\n",
    "LONG_BAD_COORD": b"1\n0 1." + b"5" * 5000 + b"\n",
    "LONG_COUNT": b"1" * 5000 + b"\n0 0\n",
    "LONG_XY_LINE": b"1\n0 0 " + b"7" * 5000 + b"\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose3", "OCT", "--partition", "1-a/4-6/7-8"],
        ["decompose3", "OCT", "--partition", "3-1/4-6/7-8"],
        ["selftest", "identities", "--nmax", "4"],
        ["selftest", "identities", "--trials", "0"],
        ["cr-table", "--from", "99", "--to", "28"],
        ["bounds", "--n", "27", "--k", "13"],
        ["bounds", "--n", "27", "--k", "-1"],
        ["construct", "polygon-center", "--k", "0", "--n", "5", "-o", "OUT"],
        ["construct", "cluster-polygon", "--t", "1", "--m", "3", "--precision", "0", "-o", "OUT"],
        ["construct", "polygon-center", "--k", "3", "--n", "9", "--precision", "0", "-o", "OUT"],
        ["construct", "polygon-center", "--k", "3", "--n", "9", "--precision", "-1", "-o", "OUT"],
        ["construct", "polygon-center", "--k", "3", "--n", "9", "--precision", "1" + "0" * 400,
         "-o", "OUT"],
        ["construct", "cluster-polygon", "--t", "1", "--m", "3", "--precision", "1" + "0" * 400,
         "-o", "OUT"],
        ["selftest", "constructions", "--rmax", "2"],
        ["selftest", "all", "--trials", "1", "--rmax", "0"],
        ["analyze", "NON_UTF8_PTS"],
        ["classify", "NON_UTF8_HP", "--halfperiod", "--k", "1"],
        ["classify", "HUGE_HP", "--halfperiod", "--k", "1"],
        ["classify", "POSITION_N_HP", "--halfperiod", "--k", "1"],
        ["analyze", "HUGE_COORD"],
        ["analyze", "LONG_BAD_COORD"],
        ["analyze", "LONG_COUNT"],
        ["analyze", "LONG_XY_LINE"],
    ],
    ids=["partition", "partition-reversed", "nmax", "trials", "cr-table-range",
         "bounds-k-above-range", "bounds-k-negative", "polygon-center-k-0",
         "precision-cluster-polygon-0", "precision-polygon-center-0",
         "precision-polygon-center-negative", "precision-polygon-center-float-overflow",
         "precision-cluster-polygon-float-overflow", "rmax-constructions", "rmax-all",
         "analyze-non-utf8", "classify-non-utf8", "classify-huge-header",
         "classify-position-n",
         "analyze-huge-coordinate", "analyze-long-bad-coordinate", "analyze-long-point-count",
         "analyze-long-x-y-line"],
)
def test_bad_input_exits_2_with_one_line(argv, octagon_file, tmp_path, capsys):
    files = {"OCT": octagon_file, "OUT": str(tmp_path / "s.pts")}
    for name, body in _BAD_FILES.items():
        files[name] = str(tmp_path / name)
        Path(files[name]).write_bytes(body)
    argv = [files.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 200


@pytest.mark.parametrize("argv", [["--rmax", "0"], ["--trials", "1", "--rmax", "0"]],
                         ids=["rmax", "trials-rmax"])
def test_selftest_all_checks_arguments_before_any_suite(argv, monkeypatch, capsys):
    from kedges import selftest

    def ran(*args, **kwargs):
        raise AssertionError("a suite ran before the arguments were checked")

    for runner in ("run_bounds_suite", "run_identity_suite", "run_central_suite",
                   "run_constructions_suite"):
        monkeypatch.setattr(selftest, runner, ran)
    assert main(["selftest", "all", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_reversed_partition_range_is_named(octagon_file, capsys):
    assert main(["decompose3", octagon_file, "--partition", "3-1/4-6/7-8"]) == 2
    assert capsys.readouterr().err == "error: partition entry '3-1' is a reversed range\n"


def test_partition_range_is_checked_before_it_is_expanded(octagon_file, capsys):
    # a range past n is refused from its ends: expanding 1..10^11 first
    # would take far more memory than the machine has
    tracemalloc.start()
    try:
        code = main(["decompose3", octagon_file, "--partition", "1-99999999999/4-6/7-8"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: partition index out of range in '1-99999999999'\n"
    assert peak < 1 << 20, peak


def _python_env():
    src = str(Path(kedges.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def _run_python(*argv):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=_python_env(), timeout=60)


@pytest.mark.parametrize("module", ["kedges", "kedges.cli"])
def test_closed_stdout_pipe_ends_the_run_without_a_traceback(module, tmp_path):
    # a 60-point report (~0.5 MB) outgrows the pipe buffer, so the process is
    # still writing when the reader closes its end
    path = tmp_path / "poly60.pts"
    write_points(path, convex_polygon_set(60))
    proc = subprocess.Popen(
        [sys.executable, "-m", module, "classify", str(path), "--k", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_python_env(),
    )
    assert proc.stdout.read(8) == b'{\n  "n":'
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert "Traceback" not in err.decode()
    assert (proc.returncode, err) == (1, b"")


def test_python_m_kedges_runs_the_cli():
    def run(*argv):
        return _run_python("-m", "kedges", *argv)

    ok = run("halving-bound", "--n", "24")
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "51\n", "")
    bad = run("cr-table", "--from", "99", "--to", "28")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1


def test_import_builds_no_parser():
    done = _run_python("-c", "import kedges.cli as c; print(c.build_parser.cache_info().currsize)")
    assert (done.returncode, done.stdout) == (0, "0\n")


def test_import_loads_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: milliseconds of
    # start-up added to every CLI command
    done = _run_python("-c", "import sys; before = set(sys.modules); import kedges.cli; "
                       "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert (done.returncode, done.stdout) == (0, "[]\n")


def test_parser_keeps_nothing_between_calls(octagon_file, capsys):
    assert build_parser() is build_parser()
    assert main(["bounds", "--n", "10", "--k", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert main(["bounds", "--n", "10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 + len(bound_table(10))

    assert main(["classify", octagon_file, "--k", "2"]) == 0
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["classify", octagon_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kedges classify") and "--k" in err
    assert main(["halving-bound", "--n", "24"]) == 0
    assert capsys.readouterr().out == "51\n"


def test_handlers_are_found_by_name_at_call_time(monkeypatch, capsys):
    from kedges import cli

    commands = build_parser()._subparsers._group_actions[0].choices
    assert all(callable(getattr(cli, "cmd_" + c.replace("-", "_"), None)) for c in commands)
    monkeypatch.setattr(cli, "cmd_halving_bound", lambda args: print("rebound", args.n) or 0)
    assert main(["halving-bound", "--n", "24"]) == 0
    assert capsys.readouterr().out == "rebound 24\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "OCT"],
        ["classify", "OCT", "--k", "2"],
        ["classify", "HP", "--halfperiod", "--k", "3"],
        ["bounds", "--n", "60", "--format", "json"],
        ["bounds", "--n", "36", "--with-u-prime", "--format", "json"],
        ["cr-bound", "--n", "28", "--format", "json"],
    ],
    ids=["analyze", "classify", "classify-halfperiod", "bounds", "bounds-u-prime", "cr-bound"],
)
def test_json_reports_print_as_json_dumps(argv, octagon_file, tmp_path, capsys):
    from kedges.circseq import halfperiod_from_points
    from kedges.geom import read_points
    from oracles import write_halfperiod

    hp = tmp_path / "oct.hp"
    write_halfperiod(hp, halfperiod_from_points(read_points(octagon_file)))
    argv = [octagon_file if a == "OCT" else str(hp) if a == "HP" else a for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
