"""The benchmark workloads: seeded input generators, op pools and output
checks.

A run makes one *pool* of distinct CLI commands ("ops") before it starts
timing, and then runs the whole pool several times ("rounds"), each round in
a seeded order.  The pool's sizes are stratified over the workload's range,
so a pool costs about the same whatever the seed; the seed only picks the
coordinates, words, orders and parameters inside each stratum.  A pool is a
list of *units*: ops that must run in the given order (a construction and
the decomposition of the file it wrote), or a single op.

Inputs are made here, from the seed alone; the program sees only the files.
Checks read only the op's exit code, its stdout and the files it wrote, and
run outside the timed region.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

WORKLOADS = ("points", "abstract")

# Distinct ops in a full-size pool must be at least this many, so the p90 of
# their latencies has ten ops beyond it.
MIN_POOL_OPS = 100

# Why each workload exists (mirrored in BENCHMARK.json):
# points   - the point-set kernels, both on small random integer sets
#            (analyze) and on ~160-bit certified constructions that write
#            point files and drive the escalation ladder; central and bounds
#            idle.  The two input kinds share one workload so each run is long
#            enough to be steady on a noisy host; the trace still tells their
#            kernels apart (crossings_bruteforce runs only for analyze).
# abstract - no coordinates at all: the predicate kernel does zero work, and
#            only here do central, bounds and heavy cli rendering run.


@dataclass
class Op:
    """One CLI command plus what its output check needs to know."""

    kind: str
    argv: list[str]
    inputs: tuple[Path, ...] = ()
    outputs: tuple[Path, ...] = ()
    expect: dict = field(default_factory=dict)


def _rng(seed: int, workload: str, part: int) -> random.Random:
    # String seeds hash through SHA-512, so this is stable across processes.
    return random.Random(f"kedges-bench:{seed}:{workload}:{part}")


# ---------------------------------------------------------------------------
# analyze: random general-position integer point sets
# ---------------------------------------------------------------------------

ANALYZE_SIZES = tuple(range(8, 19))


def _orient(p, q, r) -> int:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def general_position_points(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """n distinct integer points in [0, 8n^2)^2 with no three collinear,
    drawn point by point and redrawn on a collinear triple."""
    box = 8 * n * n
    pts: list[tuple[int, int]] = []
    while len(pts) < n:
        cand = (rng.randrange(box), rng.randrange(box))
        if cand in pts:
            continue
        if any(
            _orient(pts[i], pts[j], cand) == 0
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        ):
            continue
        pts.append(cand)
    return pts


def analyze_ops(rng: random.Random, part: int, work: Path, sizes=ANALYZE_SIZES) -> list[Op]:
    """One `kedges analyze` op per size, each on a fresh random set."""
    ops = []
    for n in sizes:
        path = work / f"a{part}_{n}.pts"
        pts = general_position_points(n, rng)
        path.write_text(f"{n}\n" + "".join(f"{x} {y}\n" for x, y in pts))
        ops.append(Op("analyze", ["analyze", str(path)], inputs=(path,), expect={"n": n}))
    return ops


# ---------------------------------------------------------------------------
# abstract: random reduced words of the reversal permutation
# ---------------------------------------------------------------------------

# Strata of width 3 covering 16..48; one classify op per stratum per sweep.
ABSTRACT_STRATA = tuple((lo, lo + 2) for lo in range(16, 47, 3))


def random_reduced_word(n: int, rng: random.Random):
    """A random simple allowable sequence on n labels.

    Starts from a random permutation and repeatedly swaps a uniformly chosen
    adjacent pair that is still in its initial relative order, until the
    permutation is reversed.  Each pair swaps exactly once, so this is a
    reduced word of the reversal permutation (a sorting network); many are
    not stretchable.  Returns (initial, [(step, position, left, right)])."""
    initial = list(range(1, n + 1))
    rng.shuffle(initial)
    rank = {lab: i for i, lab in enumerate(initial)}
    perm = list(initial)
    ascents = set(range(n - 1))
    steps = []
    for step in range(1, comb(n, 2) + 1):
        j = rng.choice(sorted(ascents))
        a, b = perm[j], perm[j + 1]
        steps.append((step, j + 1, a, b))
        perm[j], perm[j + 1] = b, a
        for q in (j - 1, j, j + 1):
            if 0 <= q < n - 1:
                if rank[perm[q]] < rank[perm[q + 1]]:
                    ascents.add(q)
                else:
                    ascents.discard(q)
    return tuple(initial), steps


def allowable_violations(n: int, initial, steps) -> list[str]:
    """The benchmark's own check of the simple-allowable-sequence axioms."""
    bad = []
    if sorted(initial) != list(range(1, n + 1)):
        return ["initial is not a permutation"]
    if len(steps) != comb(n, 2):
        bad.append("wrong transposition count")
    perm = list(initial)
    seen = set()
    for step, pos, a, b in steps:
        j = pos - 1
        if not 0 <= j < n - 1 or (perm[j], perm[j + 1]) != (a, b):
            bad.append(f"step {step}: pair not in slots")
            break
        if frozenset((a, b)) in seen:
            bad.append(f"step {step}: pair swapped twice")
        seen.add(frozenset((a, b)))
        perm[j], perm[j + 1] = b, a
    if perm != list(reversed(initial)):
        bad.append("final permutation is not the reverse")
    return bad


def _program_validator():
    """read_halfperiod + validate_allowable from the program, if it still
    exposes them under these names; None otherwise."""
    from kedges import circseq

    read = getattr(circseq, "read_halfperiod", None)
    validate = getattr(circseq, "validate_allowable", None)
    if read is None or validate is None:
        return None
    return lambda path: validate(read(path))


def write_halfperiod_file(path: Path, n: int, initial, steps):
    lines = [str(n), " ".join(map(str, initial))]
    lines += [f"{s} {p} {a} {b}" for s, p, a, b in steps]
    path.write_text("\n".join(lines) + "\n")


def abstract_sweep(seed: int, sweep: int, work: Path, strata=ABSTRACT_STRATA,
                   bounds_n=(8, 200)) -> list[Op]:
    """One classify op per stratum, each with a fresh word and a random
    admissible k, plus one of each bound pipeline."""
    rng = _rng(seed, "abstract", sweep)
    validate = _program_validator()
    ops = []
    for i, (lo, hi) in enumerate(strata):
        n = rng.randint(lo, hi)
        k = rng.randint(1, (n - 1) // 2)
        initial, steps = random_reduced_word(n, rng)
        bad = allowable_violations(n, initial, steps)
        path = work / f"h{sweep}_{i}.hp"
        write_halfperiod_file(path, n, initial, steps)
        if validate is not None:
            bad += list(validate(path))
        if bad:
            raise RuntimeError(f"generated halfperiod n={n} is not allowable: {bad[:3]}")
        ops.append(Op("classify", ["classify", str(path), "--halfperiod", "--k", str(k)],
                      inputs=(path,), expect={"n": n, "k": k}))
    n_lo, n_hi = bounds_n
    ops += [
        Op("tables", ["tables", which, "--check"]) for which in ("table1", "table2", "section5")
    ]
    ops.append(Op("cr-table", ["cr-table", "--from", "28", "--to", "99"]))
    n = rng.randint(n_lo, n_hi)
    ops.append(Op("bounds", ["bounds", "--n", str(n)], expect={"n": n}))
    ops.append(Op("cr-bound", ["cr-bound", "--n", str(rng.randint(n_lo, n_hi))]))
    ops.append(Op("halving-bound", ["halving-bound", "--n", str(rng.randint(n_lo, n_hi))]))
    return ops


# ---------------------------------------------------------------------------
# points: analyze on random sets plus certified constructions, written and
# then re-read
# ---------------------------------------------------------------------------

SR_SIZES = (3, 4, 5)
POLYGON_CENTER_GRID = tuple((k, n) for k in range(1, 6) for n in range(2 * k + 3, 2 * k + 7))
CLUSTER_POLYGON_GRID = tuple((t, m) for t in (1, 2, 3) for m in (2, 3, 4))


def points_pool(seed: int, work: Path, sizes=ANALYZE_SIZES, analyze_sets=3,
                sr_sizes=SR_SIZES, pc_grid=POLYGON_CENTER_GRID, pc_precisions=3,
                cl_grid=CLUSTER_POLYGON_GRID) -> list[list[Op]]:
    """analyze on `analyze_sets` random sets of each size; S_r for each r
    followed by decompose3 on the emitted file (fixed inputs, same for every
    seed); the polygon-center grid with `pc_precisions` seeded rotation
    precisions in [10^6, 10^7) per grid point, and the cluster-polygon grid
    with one."""
    rng = _rng(seed, "points", 0)
    units = [[op] for part in range(analyze_sets)
             for op in analyze_ops(rng, part, work, sizes)]
    for r in sr_sizes:
        path = work / f"sr{r}.pts"
        part = f"1-{3 * r}/{3 * r + 1}-{6 * r}/{6 * r + 1}-{9 * r}"
        units.append([
            Op("construct-sr", ["construct", "sr", "--r", str(r), "-o", str(path)],
               outputs=(path,), expect={"points": 9 * r}),
            Op("decompose3", ["decompose3", str(path), "--partition", part], inputs=(path,)),
        ])
    for i, (k, n) in enumerate(pc_grid):
        for j in range(pc_precisions):
            path = work / f"pc{i}_{j}.pts"
            units.append([Op(
                "construct-polygon-center",
                ["construct", "polygon-center", "--k", str(k), "--n", str(n),
                 "--precision", str(rng.randrange(10**6, 10**7)), "-o", str(path)],
                outputs=(path,), expect={"points": n})])
    for i, (t, m) in enumerate(cl_grid):
        path = work / f"cl{i}.pts"
        units.append([Op(
            "construct-cluster-polygon",
            ["construct", "cluster-polygon", "--t", str(t), "--m", str(m),
             "--precision", str(rng.randrange(10**6, 10**7)), "-o", str(path)],
            outputs=(path,), expect={"points": (2 * t + 1) * m})])
    return units


# Stratum sweeps in an abstract pool: 8 x (11 classify + 7 bound ops).
ABSTRACT_SWEEPS = 8


def make_pool(workload: str, seed: int, work: Path, tiny: bool = False) -> list[list[Op]]:
    """The units of a run's pool.  `tiny` shrinks every size range for the
    benchmark's self-test; timed runs never set it."""
    if workload == "points":
        if tiny:
            return points_pool(seed, work, sizes=(8, 9), analyze_sets=1, sr_sizes=(3,),
                               pc_grid=((1, 5),), pc_precisions=1, cl_grid=((1, 2),))
        units = points_pool(seed, work)
    elif workload == "abstract":
        if tiny:
            ops = abstract_sweep(seed, 0, work, strata=((6, 8), (9, 10)), bounds_n=(8, 20))
            return [[op] for op in ops]
        units = [[op] for sweep in range(ABSTRACT_SWEEPS)
                 for op in abstract_sweep(seed, sweep, work)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    size = sum(len(unit) for unit in units)
    if size < MIN_POOL_OPS:
        raise RuntimeError(f"{workload} pool has {size} ops, want at least {MIN_POOL_OPS}")
    return units


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

_INT_RE = re.compile(r"^-?\d+$")
_COORD_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def point_file_count(path: Path) -> int:
    """Point count of a written point file, checked line by line: the header
    count must match the number of 'x y' rational coordinate lines."""
    rows = [ln.strip() for ln in path.read_text().splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    n = int(rows[0])
    coords = rows[1:]
    if len(coords) != n:
        raise ValueError(f"header says {n} points, file has {len(coords)}")
    for ln in coords:
        toks = ln.split()
        if len(toks) != 2 or not all(_COORD_RE.match(t) for t in toks):
            raise ValueError(f"bad coordinate line {ln!r}")
    return n


def check_output(op: Op, stdout: str, cr_lower: dict[int, int]) -> str | None:
    """None when the op's output is right, else a one-line reason.

    `cr_lower` maps n to the program's crossing-number lower bound, an
    independent validity check on analyze (a true count can never be below
    a valid bound)."""
    kind = op.kind
    if kind == "analyze":
        out = json.loads(stdout)
        n = op.expect["n"]
        ev = out["edge_vector"]
        if out["n"] != n:
            return f"n = {out['n']}, want {n}"
        if out["identity_check"] is not True:
            return "identity_check is false"
        if sum(ev) != comb(n, 2):
            return f"sum E_k = {sum(ev)}, want C({n},2)"
        if out["halving_lines"] != ev[-1]:
            return "halving_lines is not the last edge count"
        if out["crossings"] < cr_lower[n]:
            return f"crossings {out['crossings']} below the lower bound {cr_lower[n]}"
        return None
    if kind == "classify":
        out = json.loads(stdout)
        n, k = op.expect["n"], op.expect["k"]
        if (out["n"], out["k"]) != (n, k):
            return f"(n, k) = {(out['n'], out['k'])}, want {(n, k)}"
        if out["holds"] is not True:
            return "central inequality reported as failing"
        failed = [name for name, ok in out["aux_checks"].items() if ok is not True]
        if failed or not out["aux_checks"]:
            return f"aux checks failed: {failed}"
        if len(out["records"]) != comb(n, 2):
            return f"{len(out['records'])} records, want C({n},2)"
        return None
    if kind == "tables":
        checks = [ln for ln in stdout.splitlines() if ln.startswith("# check ")]
        if not checks or not all(ln.endswith(": ok") for ln in checks):
            return f"golden check lines: {checks}"
        return None
    if kind == "cr-table":
        rows = stdout.splitlines()[1:]
        got = [tuple(int(t) for t in ln.split()) for ln in rows]
        if [n for n, _ in got] != list(range(28, 100)) or any(v <= 0 for _, v in got):
            return "cr-table rows are not n = 28..99 with positive bounds"
        return None
    if kind == "bounds":
        rows = stdout.splitlines()[2:]
        if len(rows) != op.expect["n"] // 2:
            return f"{len(rows)} bound rows, want {op.expect['n'] // 2}"
        return None
    if kind in ("cr-bound", "halving-bound"):
        if not _INT_RE.match(stdout.strip()):
            return f"expected one integer, got {stdout.strip()[:40]!r}"
        return None
    if kind.startswith("construct-"):
        (path,) = op.outputs
        if stdout.strip() != f"wrote {path}":
            return f"unexpected stdout {stdout.strip()[:60]!r}"
        got = point_file_count(path)
        if got != op.expect["points"]:
            return f"emitted file has {got} points, want {op.expect['points']}"
        return None
    if kind == "decompose3":
        parts = [ln for ln in stdout.splitlines() if ln.startswith("part ")]
        if len(parts) != 3:
            return f"{len(parts)} witness directions, want 3"
        return None
    return f"no check for op kind {kind!r}"
