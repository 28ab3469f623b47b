#!/usr/bin/env python3
"""Time the point-set kernels, the halfperiod kernels, the bound pipeline and
a few CLI calls of two or more kedges source trees, in paired rounds.

    python3 tools/bench_kernels.py --run parent=DIR1 --run change=DIR2 -o FILE

Each DIR is a source checkout (kedges is imported from DIR/src).  Each
label is timed in one fresh process per round, for ROUNDS (10) rounds, and
round r starts at label r mod the number of labels.  A process's figures
can drift by x2 against another's on a shared host, so figures are
compared only within a round.  FILE, written afresh, keeps every round's
figures for each label and which label went first, and for each later
label a `paired` block with, per figure: `ratio`, the median over rounds
of label / first label; `won`, the rounds where the label was strictly
lower (ties count for neither); and `first_iqr`, the first label's
interquartile range over its median.  A claim reads "x0.87, ahead in 9 of
10".  `--src DIR` times one tree in this process and prints its figures as
JSON (what each round's process runs).

Each figure is the median wall time in seconds of REPEATS (5) runs, or of
WORD_REPEATS (31) for the stages and halfperiod kernels (milliseconds):

* kernels on S_5, S_10 and S_20: `build_sr` (the whole certified build),
  `PointSet.angles` on a fresh PointSet of its points (the event sort),
  and `halfperiod_from_points` and `radial_counts` on a set whose event
  sort is cached, so each is that kernel's own work; on S_5 and S_10 also
  `summarize` (the `analyze` certificate) with the sweep passed in.
* the default `selftest identities` corpus (`selftest.build_corpus(500,
  12, 20240901)`, 500 swept sets with 5 <= n <= 12): `radial_counts` on
  every set (the small-n regime of the perfbench `points` `analyze` ops),
  and the oracles `pair_levels` and `crossings_bruteforce` on the sets
  with n <= `selftest.ORACLE_NMAX`, the calls `selftest identities` makes.
* construction stages on S_5: `PointSet(...)` of its perturbed points,
  `perturb_collinear_families` of its raw set and named families, and
  `check_3decomposable` with the letter partition; and
  `build_cluster_polygon(3, 4)`, the largest of the perfbench `points` grid.
* halfperiod kernels on one seeded random reduced word, n = 48 and k = 8
  (the top stratum of the perfbench `abstract` workload), drawn by the
  timed tree's own `gensets.random_reduced_word`, so every DIR must have
  that function (trees older than it cannot be timed): `read_halfperiod`
  of its file; `validate_allowable`, `rearrange_essential`,
  `verify_central` and `classify` on the read halfperiod (axiom walk
  cached); `level_counts` and `k_critical(k)` on a fresh copy whose axiom
  walk alone is made, untimed, before each run; `cli._records_text` of the
  `classify --halfperiod` records; and that command through `cli.main`.
  The row's `calls` block holds, per kernel, the function calls of one
  more run under cProfile, made after the timed ones: an exact count,
  the same in every process on one tree.
* bounds: `cr_lower_bound` over n = 28..99 (`tables section5`),
  `lemma_brackets` over n = 6..200 (`selftest bounds`) and `bound_table`
  over n = 8..200 (the perfbench `bounds` ops).
* CLI calls, each a fresh `python -m kedges` process: `construct sr --r
  5/10/20` and `analyze` on each file it writes, `decompose3` on the S_5
  file, `construct sr --r 30/40`, `verify sr --r 20` and `halving-bound
  --n 20` (nearly all start-up).  A command that exits non-zero fails the
  run.
* start-up: `import kedges, kedges.cli` timed inside a fresh `python -c`
  child (IMPORT_SNIPPET, the perfbench `setup_s` sample), no bytecode
  cache assumed.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import functools
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SIZES = (5, 10, 20)
SUMMARIZE_SIZES = (5, 10)
CORPUS = (500, 12, 20240901)  # selftest identities' default trials, nmax and seed
CLI_SR_SIZES = (30, 40)
REPEATS = 5
WORD_N, WORD_K, WORD_SEED = 48, 8, 2024
WORD_REPEATS = 31
ROUNDS = 10
SIZE_KEYS = ("n", "k")  # row fields that name the input, not a time
# perfbench/run.py import_time: the package import alone, in a fresh child
IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                  "import kedges, kedges.cli; print(time.perf_counter() - t)")


def median_time(fn, repeats=REPEATS, setup=None) -> float:
    """Median wall time of fn(), or of fn(setup()) with setup untimed."""
    times = []
    for _ in range(repeats):
        arg = () if setup is None else (setup(),)
        t0 = perf_counter()
        fn(*arg)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def call_count(fn, setup=None) -> int:
    """Function calls (Python and built-in, as cProfile counts them) of one
    untimed run of fn(), or of fn(setup()) with setup unprofiled.  Summed
    over the profiler's own entries, one per code object: pstats merges
    entries by (file, line, name), so it would keep only one of the
    NamedTuple constructors, which all read `<string>:1 <lambda>`."""
    arg = () if setup is None else (setup(),)
    prof = cProfile.Profile()
    prof.runcall(fn, *arg)
    return sum(entry.callcount for entry in prof.getstats())


def kernel_times() -> dict:
    from kedges import circseq, constructions, edgestats, selftest
    from kedges.geom import PointSet

    out = {}
    for r in SIZES:
        cfg = constructions.SrConfig(r=r)
        ps = constructions.build_sr(cfg).perturbed
        warm = PointSet(ps.points)
        warm.angles  # noqa: B018 -- cache the event sort the other kernels read
        row = {"n": ps.n}
        row["build_sr"] = median_time(lambda: constructions.build_sr(cfg))
        row["PointSet.angles"] = median_time(lambda: PointSet(ps.points).angles)
        row["halfperiod_from_points"] = median_time(lambda: circseq.halfperiod_from_points(warm))
        row["radial_counts"] = median_time(lambda: edgestats.radial_counts(warm))
        if r in SUMMARIZE_SIZES:
            h = circseq.halfperiod_from_points(warm)
            row["summarize"] = median_time(lambda: edgestats.summarize(warm, h))
        out[f"S_{r}"] = row
    trials, nmax, seed = CORPUS
    sets = [ps for ps, _ in selftest.build_corpus(trials, nmax, seed)]
    out[f"corpus {trials} sets"] = {
        "n": f"5..{nmax}",
        "radial_counts": median_time(lambda: [edgestats.radial_counts(ps) for ps in sets]),
    }
    small = [ps for ps in sets if ps.n <= selftest.ORACLE_NMAX]
    out[f"corpus {len(small)} oracle sets"] = {
        "n": f"5..{selftest.ORACLE_NMAX}",
        "pair_levels": median_time(lambda: [edgestats.pair_levels(ps) for ps in small]),
        "crossings_bruteforce": median_time(
            lambda: [edgestats.crossings_bruteforce(ps) for ps in small]),
    }
    return out


def stage_times() -> dict:
    from kedges import constructions
    from kedges.geom import PointSet

    cfg = constructions.SrConfig(r=5)
    res = constructions.build_sr(cfg)
    raw, ps, eps = res.raw, res.perturbed, cfg.perturbation_epsilon
    part = constructions.sr_letter_partition(5)  # build_sr cached the perturbed set's event sort
    families = constructions.sr_collinear_families(5)

    timed = functools.partial(median_time, repeats=WORD_REPEATS)
    return {
        "S_5 stages": {
            "n": ps.n,
            "PointSet": timed(lambda: PointSet(ps.points)),
            "perturb_collinear_families": timed(
                lambda: constructions.perturb_collinear_families(raw, families, eps)),
            "check_3decomposable": timed(lambda: constructions.check_3decomposable(ps, part)),
        },
        "cluster-polygon t=3 m=4": {
            "n": 28,
            "build_cluster_polygon": timed(lambda: constructions.build_cluster_polygon(3, 4)),
        },
    }


def write_halfperiod(path, h):
    """Write the halfperiod h in the file format read_halfperiod reads."""
    lines = [str(h.n), " ".join(map(str, h.initial))]
    lines += [f"{step} {pos} {a} {b}" for step, pos, (a, b) in h.transpositions]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def halfperiod_times() -> dict:
    from kedges import central, circseq, cli, gensets

    n, k = WORD_N, WORD_K

    timed = functools.partial(median_time, repeats=WORD_REPEATS)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"w{n}.hp"
        write_halfperiod(path, gensets.random_reduced_word(n, random.Random(WORD_SEED)))

        def main_stdout():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(["classify", str(path), "--halfperiod", "--k", str(k)])
            return buf.getvalue()

        h = circseq.require_valid(circseq.read_halfperiod(path))

        def walked():
            return circseq.require_valid(circseq.Halfperiod(n, h.initial, h.transpositions))

        records = central.classify(h, k)
        kernels = {  # name: (fn, setup)
            "read_halfperiod": (lambda: circseq.read_halfperiod(path), None),
            "validate_allowable": (lambda: circseq.validate_allowable(h), None),
            "level_counts": (lambda g: g.level_counts, walked),
            "k_critical": (lambda g: g.k_critical(k), walked),
            "rearrange_essential": (lambda: central.rearrange_essential(h, k), None),
            "verify_central": (lambda: central.verify_central(h, k), None),
            "classify": (lambda: central.classify(h, k), None),
            "_records_text": (lambda: cli._records_text(records, "\n  "), None),
            "main classify": (main_stdout, None),
        }
        row = {"n": n, "k": k}
        row.update((name, timed(fn, setup=setup)) for name, (fn, setup) in kernels.items())
        row["calls"] = {name: call_count(fn, setup) for name, (fn, setup) in kernels.items()}
    return {f"word n={n} k={k}": row}


def bound_times() -> dict:
    from kedges import bounds

    return {
        "cr_lower_bound n=28..99": median_time(
            lambda: [bounds.cr_lower_bound(n) for n in range(28, 100)]),
        "lemma_brackets n=6..200": median_time(
            lambda: [bounds.lemma_brackets(n) for n in range(6, 201)]),
        "bound_table n=8..200": median_time(
            lambda: [bounds.bound_table(n) for n in range(8, 201)]),
    }


def cli_times(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src / "src"))

    def timed(*argv):
        return median_time(lambda: subprocess.run(
            [sys.executable, "-m", "kedges", *argv], env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for r in SIZES + CLI_SR_SIZES:
            path = str(Path(tmp) / f"s{r}.pts")
            out[f"construct sr --r {r}"] = timed("construct", "sr", "--r", str(r), "-o", path)
            if r in SIZES:
                out[f"analyze S_{r}"] = timed("analyze", path)
            if r == 5:
                out["decompose3 S_5"] = timed("decompose3", path, "--partition", "1-15/16-30/31-45")
    out["verify sr --r 20"] = timed("verify", "sr", "--r", "20")
    out["halving-bound --n 20"] = timed("halving-bound", "--n", "20")
    return out


def import_time(src: Path) -> float:
    """Median seconds of REPEATS fresh-process imports of kedges and kedges.cli."""
    argv = [sys.executable, "-c", IMPORT_SNIPPET, str(src / "src")]
    return statistics.median(
        float(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)
        for _ in range(REPEATS))


def one_process(src: Path) -> dict:
    """Every figure of the tree at src, timed in this process."""
    sys.path.insert(0, str(src / "src"))
    return {
        "kernels_s": kernel_times(),
        "stages_s": stage_times(),
        "halfperiod_kernels_s": halfperiod_times(),
        "bounds_s": bound_times(),
        "cli_s": cli_times(src),
        "startup_s": {"import kedges, kedges.cli": import_time(src)},
    }


def paired(first: list, other: list):
    """{ratio, won, first_iqr} of each figure, from the per-round figures
    of the first label and of another one, which share one shape; sizes
    (SIZE_KEYS) are kept as they are."""
    head = first[0]
    if isinstance(head, dict):
        return {key: head[key] if key in SIZE_KEYS else
                paired([f[key] for f in first], [o[key] for o in other]) for key in head}
    q1, _, q3 = statistics.quantiles(first, n=4)
    return {
        "ratio": statistics.median(o / f for f, o in zip(first, other)),
        "won": sum(o < f for f, o in zip(first, other)),
        "first_iqr": (q3 - q1) / statistics.median(first),
    }


def environment(src: Path) -> dict:
    try:
        rev = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git": rev}


def label_dir(spec: str) -> tuple[str, Path]:
    label, eq, src = spec.partition("=")
    if not (label and eq and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {spec!r}")
    return label, Path(src).resolve()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--run", action="append", type=label_dir, metavar="LABEL=DIR",
                      help="a source checkout to time under LABEL (repeat for each tree)")
    mode.add_argument("--src", type=Path,
                      help="time this checkout in this process and print its figures")
    ap.add_argument("-o", "--output", type=Path, help="JSON file the --run figures go to")
    args = ap.parse_args(argv)
    if args.src is not None:
        print(json.dumps(one_process(args.src.resolve())))
        return 0
    if args.output is None:
        ap.error("--run needs -o FILE")

    runs = dict(args.run)
    labels = list(runs)
    rounds = {label: [] for label in labels}
    first = []
    for rnd in range(ROUNDS):
        order = labels[rnd % len(labels):] + labels[:rnd % len(labels)]
        first.append(order[0])
        for label in order:
            out = subprocess.run([sys.executable, __file__, "--src", str(runs[label])],
                                 capture_output=True, text=True, check=True).stdout
            rounds[label].append(json.loads(out))
            print(f"round {rnd + 1}/{ROUNDS}: {label} done", file=sys.stderr)

    data = {
        "what": ("each round's median wall seconds per label, one fresh process per label "
                 "and round; paired: per figure, median of label/first over rounds, rounds "
                 "won, first label's IQR/median; see tools/bench_kernels.py"),
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "word_repeats": WORD_REPEATS,
        "first": first,
        "runs": {label: {"env": environment(runs[label]), "rounds": rounds[label]}
                 for label in labels},
        "paired": {label: paired(rounds[labels[0]], rounds[label]) for label in labels[1:]},
    }
    args.output.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
