"""Command-line front end.

Subcommands:
  analyze           edge vector / halving lines / crossing number of a point file
  classify          per-transposition classification and the central-inequality report
  bounds            per-k lower-bound table for E_<=k(n)
  halving-bound     upper bound on the halving-line count
  cr-bound          crossing-number lower bound (the section5 pipeline)
  cr-table          the section5-style table over a range of n
  tables            reproduce the published tables, optionally checking golden values
  construct         emit a construction (sr | polygon-center | cluster-polygon) as a point file
  verify            re-run the tightness audit for a construction (currently: sr)
  decompose3        search for a 3-decomposition witness of a point file
  selftest          verification suites (bounds | identities | central | constructions | all)

Exit codes: 0 success, 1 a failed check or certificate, 2 input error.
main maps InputError to exit 2 and any other KedgesError, such as a
VerificationError, to exit 1; both print one line on stderr.

The parser is built once per process, on the first call of main, so handlers
get everything through args; main calls cmd_<command> ('-' read as '_').
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from . import bounds as bnd
from . import golden
from .central import verify_central, classify as classify_records
from .circseq import halfperiod_from_points, read_halfperiod, require_valid
from .constructions import (
    SrConfig,
    build_cluster_polygon,
    build_polygon_center,
    build_sr,
    check_3decomposable,
)
from .edgestats import summarize
from .errors import InputError, KedgesError
from .geom import read_points, write_points
from .selftest import SUITES, run_scope


_CONSTANT_TEXT = {None: "null", True: "true", False: "false"}


def _field_text(v) -> str:
    """The JSON text of a record's optional field: null, true, false or an
    int.  Decided by exact type, not by value: as dict keys 1 and 1.0 are
    the same key as True.  Any other type raises TypeError."""
    cls = type(v)
    if cls is int:
        return int.__repr__(v)
    if v is None or cls is bool:
        return _CONSTANT_TEXT[v]
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _records_text(records, pad="\n") -> str:
    """The text of json.dumps(list_of_record_dicts, indent=2), nested at
    `pad` (a newline and the enclosing indent), for classify's rows
    (plain tuples in TranspositionRecord field order), without a dict
    per record: every record fills one %-template whose keys are encoded
    once.  The optional fields print through _field_text, as null, true,
    false or an int.  step, position, pair and block are ints by
    construction and print through %d.  A record whose entering, aug_m,
    weight and heavy are None and whose essential is a bool (every
    non-critical one) fills only the %d head; its tail is made once per
    (kind, class, essential)."""
    if not records:
        return "[]"
    item = pad + "  "
    field = item + "  "
    template = "{" + field + ("," + field).join(
        encode_basestring_ascii(key) + ": " + value
        for key, value in (
            ("step", "%d"), ("position", "%d"),
            ("pair", "[" + field + "  %d," + field + "  %d" + field + "]"),
            ("block", "%d"), ("kind", "%s"), ("class", "%s"), ("entering", "%s"),
            ("aug_m", "%s"), ("weight", "%s"), ("heavy", "%s"), ("essential", "%s"),
        )
    ) + item + "}"
    cut = template.index('"kind"')
    head, tail = template[:cut], template[cut:]
    encode = encode_basestring_ascii
    tails = {}
    texts = []
    append = texts.append
    for (step, position, pair, block, kind, cls, entering, aug_m, weight, heavy,
         essential) in records:
        if (entering is None and aug_m is None and weight is None and heavy is None
                and (essential is True or essential is False)):
            key = kind, cls, essential
            try:
                text = tails[key]
            except KeyError:
                text = tails[key] = tail % (encode(kind), encode(cls), "null", "null", "null",
                                            "null", _CONSTANT_TEXT[essential])
            append(head % (step, position, pair[0], pair[1], block) + text)
        else:
            append(template % (
                step, position, pair[0], pair[1], block, encode(kind), encode(cls),
                _field_text(entering), _field_text(aug_m), _field_text(weight),
                _field_text(heavy), _field_text(essential),
            ))
    return "[" + item + ("," + item).join(texts) + pad + "]"


# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    ps = read_points(args.file)
    counts, crossings = summarize(ps)
    print(json.dumps({
        "n": ps.n,
        "edge_vector": list(counts),
        "E_leq": list(accumulate(counts)),
        "halving_lines": counts[-1],
        "crossings": crossings,
        "identity_check": True,  # summarize raises on any disagreement
    }, indent=2))
    return 0


def cmd_classify(args) -> int:
    if args.halfperiod:
        h = require_valid(read_halfperiod(args.file))
    else:
        h = halfperiod_from_points(read_points(args.file))
    rep = verify_central(h, args.k)
    head = {
        "n": h.n,
        "k": rep.k,
        "s": rep.s,
        "K": rep.K,
        "E_geq_k": rep.E_geq_k,
        "bound_value": str(rep.bound_value),
        "holds": rep.holds,
        "tallies": rep.tallies,
        "aux_checks": rep.aux_checks,
    }
    # "records" goes in as head's last key, before the "\n}" that closes
    # json.dumps(head, indent=2).
    records = _records_text(classify_records(h, args.k), "\n  ")
    print(json.dumps(head, indent=2)[:-2] + ',\n  "records": ' + records + "\n}")
    return 0 if rep.all_ok else 1


def cmd_bounds(args) -> int:
    rows = bnd.bound_table(args.n, with_u_prime=args.with_u_prime)
    if args.k is not None:
        rows = [r for r in rows if r.k == args.k]
        if not rows:
            raise InputError(f"k={args.k} out of range for n={args.n}")
    if args.format == "json":
        print(json.dumps([r._asdict() for r in rows], indent=2))
    else:
        def line(k, a, u, u_prime, e, best, source):
            u_prime = f" {u_prime:>9}" if args.with_u_prime else ""
            return f"{k:>4} {a:>11} {u:>9}{u_prime} {e:>12} {best:>9} {source}"

        print(f"lower bounds for E_<=k({args.n})")
        print(line("k", "closedform", "u_k", "u'_k", "explicit", "best", "source"))
        for r in rows:
            u, u_prime = ("" if v is None else v for v in (r.u_k, r.u_prime_k))
            e = "" if r.explicit is None else f"{r.explicit:.2f}"
            print(line(r.k, r.aichholzer, u, u_prime, e, r.best, r.source))
    return 0


def cmd_halving_bound(args) -> int:
    print(bnd.halving_upper_bound(args.n))
    return 0


def cmd_cr_bound(args) -> int:
    value = bnd.cr_lower_bound(args.n)
    if args.format == "json":
        print(json.dumps({
            "n": args.n,
            "pipeline": "section5",  # the only pipeline; the key keeps the report's bytes
            "value": value,
            "per_k_bounds": [  # the rows cr_lower_bound sums: k <= n/2 - 2
                {"k": r.k, "bound": r.best, "source": r.source}
                for r in bnd.bound_table(args.n)[: args.n // 2 - 1]
            ],
        }, indent=2))
    else:
        print(value)
    return 0


def cmd_cr_table(args) -> int:
    if args.end < args.start:
        raise InputError(f"empty range: --from {args.start} is above --to {args.end}")
    ns = range(args.start, args.end + 1)
    rows = [(n, bnd.cr_lower_bound(n)) for n in ns]
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["n", "cr_lower_bound"])
        w.writerows(rows)
    else:
        print(f"{'n':>4} {'cr >=':>10}")
        for n, v in rows:
            print(f"{n:>4} {v:>10}")
    return 0


def _check_row(name, got, want) -> bool:
    ok = tuple(got) == tuple(want)
    status = "ok" if ok else f"MISMATCH (expected {list(want)})"
    print(f"# check {name}: {status}")
    return ok


def cmd_tables(args) -> int:
    ok = True
    if args.which == "table1":
        ns = golden.TABLE1_N
        h = [bnd.halving_upper_bound(n) for n in ns]
        cr = [bnd.cr_lower_bound(n) for n in ns]
        _print_grid(args, ["n", "h(n)", "cr(n)"], ns, [h, cr])
        if args.check:
            ok = _check_row("h", h, golden.TABLE1_H) & _check_row("cr", cr, golden.TABLE1_CR)
    elif args.which == "table2":
        ns = golden.TABLE2_N
        upper = [bnd.halving_upper_bound(n) for n in ns]
        _print_grid(
            args,
            ["n", "h(n) >= (published constructions)", "h(n) <="],
            ns,
            [list(golden.TABLE2_H_LOWER_PUBLISHED), upper],
        )
        if args.check:
            ok = _check_row("upper", upper, golden.TABLE2_H_UPPER)
    else:  # section5
        ns = sorted(golden.SECTION5_CR)
        vals = [bnd.cr_lower_bound(n) for n in ns]
        _print_grid(args, ["n", "cr(n) >="], ns, [vals])
        if args.check:
            ok = _check_row("section5", vals, [golden.SECTION5_CR[n] for n in ns])
    return 0 if ok else 1


def _print_grid(args, headers, ns, value_rows):
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(headers)
        for i, n in enumerate(ns):
            w.writerow([n] + [vr[i] for vr in value_rows])
    else:
        widths = [max(8, len(h) + 1) for h in headers]
        print("".join(h.rjust(wd) for h, wd in zip(headers, widths)))
        for i, n in enumerate(ns):
            cells = [n] + [vr[i] for vr in value_rows]
            print("".join(str(c).rjust(wd) for c, wd in zip(cells, widths)))


def cmd_construct(args) -> int:
    if args.kind == "sr":
        res = build_sr(SrConfig(r=args.r))
        header = (
            f"S_{args.r}: 9r = {9 * args.r} points, "
            f"{'raw (intentionally collinear families)' if args.raw else 'perturbed, general position'}; "
            "order: A-letter block, B-letter block, C-letter block (classes A..)"
        )
        write_points(args.output, res.raw if args.raw else res.perturbed, header=header)
    elif args.kind == "polygon-center":
        ps, _ = build_polygon_center(args.k, args.n, precision=args.precision)
        write_points(args.output, ps, header=f"{2 * args.k + 1}-gon plus {args.n - 2 * args.k - 1} central points")
    else:  # cluster-polygon
        ps, _ = build_cluster_polygon(args.t, args.m, precision=args.precision)
        write_points(args.output, ps, header=f"{2 * args.t + 1}-gon, vertices replaced by {args.m}-point clusters")
    print(f"wrote {args.output}")
    return 0


def cmd_verify(args) -> int:
    # build_sr returns only a set whose every audit row is ok.
    rows = build_sr(SrConfig(r=args.r)).audit
    print(f"{'k':>4} {'E_leq':>8} {'expected':>9} {'bi':>6} {'mono':>6} status")
    for row in rows:
        print(f"{row.k:>4} {row.leq:>8} {row.want_leq:>9} {row.bi:>6} {row.mono:>6} ok")
    print(f"S_{args.r}: tightness and split verified for all k <= {4 * args.r - 1}")
    return 0


def _parse_partition(spec: str, n: int):
    """Three '/'-separated groups of 1-based indices or a-b ranges,
    e.g. '1-9/10-18/19-27'."""
    parts = spec.split("/")
    if len(parts) != 3:
        raise InputError("partition must have three '/'-separated parts")
    groups = []
    for part in parts:
        idx = set()
        for chunk in part.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                a, dash, b = chunk.partition("-")
                lo = int(a)
                hi = int(b) if dash else lo
            except ValueError:
                raise InputError(f"partition entry {chunk!r} is not an index or a-b range") from None
            if hi < lo:
                raise InputError(f"partition entry {chunk!r} is a reversed range")
            # checked before the range is expanded, so a huge hi costs nothing
            if lo < 1 or hi > n:
                raise InputError(f"partition index out of range in {part!r}")
            idx.update(range(lo - 1, hi))
        groups.append(sorted(idx))
    return groups


def cmd_decompose3(args) -> int:
    ps = read_points(args.file)
    directions = check_3decomposable(ps, _parse_partition(args.partition, ps.n))
    if directions is None:
        print("no 3-decomposition witness for this partition")
        return 1
    for gi, d in enumerate(directions):
        print(f"part {gi + 1} between the others along direction ({d[0]}, {d[1]})")
    return 0


def cmd_selftest(args) -> int:
    results = run_scope(
        args.scope,
        trials=args.trials,
        nmax=args.nmax,
        rmax=args.rmax,
        seed=args.seed,
    )
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}" + (f"  ({detail})" if detail else ""))
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kedges",
        description="Exact k-edge / halving-line / crossing-number toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="edge statistics and crossing number of a point file")
    p.add_argument("file")

    p = sub.add_parser("classify", help="central-inequality classification report")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--halfperiod", action="store_true",
                   help="treat FILE as a halfperiod file instead of a point file")

    p = sub.add_parser("bounds", help="per-k lower bounds for E_<=k(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--with-u-prime", action="store_true",
                   help="include the 3-regular-only recursion column (36 | n)")

    p = sub.add_parser("halving-bound", help="upper bound on halving lines")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("cr-bound", help="crossing-number lower bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("cr-table", help="crossing-number bounds over a range")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("tables", help="reproduce the published tables")
    p.add_argument("which", choices=("table1", "table2", "section5"))
    p.add_argument("--check", action="store_true", help="compare against embedded golden values")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("construct", help="emit a construction as a point file")
    csub = p.add_subparsers(dest="kind", required=True)
    c = csub.add_parser("sr", help="the recursive 9r-point tight family")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--raw", action="store_true", help="emit the unperturbed, collinear set")
    precision_help = ("integer radius of the polygon, used as given; "
                      "a radius too coarse to certify exits 1")
    c = csub.add_parser("polygon-center", help="(2k+1)-gon plus central points")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--precision", type=int, default=10**6, help=precision_help)
    c.add_argument("-o", "--output", required=True)
    c = csub.add_parser("cluster-polygon", help="(2t+1)-gon with m-point clusters")
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--precision", type=int, default=10**6, help=precision_help)
    c.add_argument("-o", "--output", required=True)

    p = sub.add_parser("verify", help="re-run a construction's count audit")
    vsub = p.add_subparsers(dest="kind", required=True)
    v = vsub.add_parser("sr")
    v.add_argument("--r", type=int, required=True)

    p = sub.add_parser("decompose3", help="3-decomposition witness search")
    p.add_argument("file")
    p.add_argument("--partition", required=True,
                   help="three '/'-separated groups of 1-based indices, e.g. 1-9/10-18/19-27")

    p = sub.add_parser("selftest", help="verification suites")
    p.add_argument("scope", choices=(*SUITES, "all"))
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--rmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=20240901)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so a handler rebound on this module after the
    # parser was built (by a tracer or a test) is the one that runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KedgesError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    from .__main__ import run

    sys.exit(run())
