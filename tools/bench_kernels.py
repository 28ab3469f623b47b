#!/usr/bin/env python3
"""Time the point-set kernels, the halfperiod kernels, the bound pipeline and
a few CLI calls of one or more kedges source trees, each in several fresh
processes.

    python3 tools/bench_kernels.py --run parent=DIR1 --run change=DIR2 -o FILE

Each DIR is a source checkout (kedges is imported from DIR/src).  Every
label is timed in PROCESSES (3) fresh processes, one per round, and the
labels take turns going first: round r starts at label r mod the number of
labels.  A single-process median can drift by x2 between processes on a
shared host, so FILE stores, for each figure, the median, min and max of
the per-process figures.  `--src DIR` times one tree in this process and
prints its figures as JSON (what each of those processes runs).

In one process, each figure is the median wall time in seconds of REPEATS
(5) runs, or of WORD_REPEATS (31) runs for the halfperiod kernels, which
take milliseconds each:

* kernels, in this process, on S_5, S_10 and S_20: `build_sr` itself
  (the whole certified build), then, on the sets it emits,
  `PointSet.angles` on a fresh PointSet (the event sort), and
  `halfperiod_from_points`, `radial_counts` and `pair_levels` on a set
  whose event sort is already cached, so each figure is that kernel's own
  work.  On S_5 and S_10 also `summarize` (the `analyze` certificate: both
  routes and both identity forms) with the set's sweep passed in.
* `radial_counts` over the default `selftest identities` corpus
  (`selftest.build_corpus(500, 12, 20240901)`: 500 random sets with
  5 <= n <= 12), in this process: the small-n regime that the perfbench
  `points` workload's `analyze` ops run.
* construction stages, in this process, each the median of WORD_REPEATS
  runs: on S_5, `PointSet(...)` of its perturbed points (the duplicate
  check and the homogeneous triples), `perturb_collinear_families` of its
  raw set with the families `sr_collinear_families(5)` names (null on a
  tree without that function), and `check_3decomposable` of its
  perturbed set with the letter partition (its event sort already
  cached); and
  `build_cluster_polygon(3, 4)`, the largest cluster-polygon build of the
  perfbench `points` grid.
* halfperiod kernels, in this process, on one seeded random reduced word
  with n = 48 and k = 8 (the top stratum of the perfbench `abstract`
  workload): `read_halfperiod` of its file, `validate_allowable`,
  `rearrange_essential`, `verify_central` and `classify` on the read
  halfperiod (its axiom walk already cached), `level_counts` and
  `k_critical(k)` on a fresh copy of it whose axiom walk alone is made
  (untimed) before each run, `cli._records_text` of the `classify
  --halfperiod` report's records (the part of the report `classify`
  renders through one template; null on a tree without it), and that
  whole command through `cli.main` with stdout discarded.
* bound stage, in this process: `cr_lower_bound(n)` over n = 28..99 (the
  `cr-table 28..99` and `tables section5` sweep), `lemma_brackets(n)`
  over n = 6..200 (the `selftest bounds` bracket check) and
  `bound_table(n)` over n = 8..200 (the range of the perfbench `bounds`
  ops), each called with its default signature, so every tree times the
  same calls.
* CLI calls, each a fresh `python -m kedges` process: `construct sr
  --r 5/10/20` and `analyze` on the file each of them writes,
  `decompose3` with the letter partition on the S_5 file, `construct sr
  --r 30/40` alone (CLI_SR_SIZES), `verify sr --r 20`, and `halving-bound
  --n 20`, whose wall time is nearly all interpreter and package start-up.
  A command that exits non-zero is recorded as null after its first run.
* start-up, each a fresh `python -c` process: `import kedges, kedges.cli`
  timed inside the child (IMPORT_SNIPPET, the perfbench `setup_s` sample),
  which includes compiling every module when no bytecode is cached.

The result is stored under each LABEL in FILE together with an environment
block (python, cpu count, git revision of DIR); other labels already in
FILE are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path
from time import perf_counter

SIZES = (5, 10, 20)
SUMMARIZE_SIZES = (5, 10)
CORPUS = (500, 12, 20240901)  # selftest identities' default trials, nmax and seed
CLI_SR_SIZES = (30, 40)
REPEATS = 5
WORD_N, WORD_K, WORD_SEED = 48, 8, 2024
WORD_REPEATS = 31
PROCESSES = 3
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
        row["pair_levels"] = median_time(lambda: edgestats.pair_levels(warm))
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
    return out


def stage_times() -> dict:
    from kedges import constructions
    from kedges.geom import PointSet

    res = constructions.build_sr(constructions.SrConfig(r=5))
    raw, ps, eps = res.raw, res.perturbed, res.config.perturbation_epsilon
    part = constructions.sr_letter_partition(5)  # build_sr cached the perturbed set's event sort
    named = getattr(constructions, "sr_collinear_families", None)

    def timed(fn):
        return median_time(fn, WORD_REPEATS)

    return {
        "S_5 stages": {
            "n": ps.n,
            "PointSet": timed(lambda: PointSet(ps.points)),
            "perturb_collinear_families": None if named is None else timed(
                lambda: constructions.perturb_collinear_families(raw, named(5), eps)),
            "check_3decomposable": timed(lambda: constructions.check_3decomposable(ps, part)),
        },
        "cluster-polygon t=3 m=4": {
            "n": 28,
            "build_cluster_polygon": timed(lambda: constructions.build_cluster_polygon(3, 4)),
        },
    }


def reduced_word(circseq, n: int, seed: int):
    """A seeded random reduced word of the reversal of 1..n, as DIR's
    Halfperiod: from the identity, swap a random adjacent ascent until the
    order is reversed (the generator of tests/test_central.py)."""
    rng = random.Random(seed)
    perm = list(range(1, n + 1))
    ts = []
    for step in range(1, comb(n, 2) + 1):
        j = rng.choice([q for q in range(n - 1) if perm[q] < perm[q + 1]])
        ts.append(circseq.Transposition(step, j + 1, (perm[j], perm[j + 1])))
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    return circseq.Halfperiod(n, tuple(range(1, n + 1)), tuple(ts))


def write_halfperiod(path, h):
    """Write h in the halfperiod file format every tree's read_halfperiod reads."""
    lines = [str(h.n), " ".join(map(str, h.initial))]
    lines += [f"{t.step} {t.position} {t.pair[0]} {t.pair[1]}" for t in h.transpositions]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def halfperiod_times() -> dict:
    from kedges import central, circseq, cli

    n, k = WORD_N, WORD_K

    def timed(module, name, call):
        fn = getattr(module, name, None)
        return None if fn is None else median_time(lambda: call(fn), WORD_REPEATS)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"w{n}.hp"
        write_halfperiod(path, reduced_word(circseq, n, WORD_SEED))

        def main_stdout():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(["classify", str(path), "--halfperiod", "--k", str(k)])
            return buf.getvalue()

        h = circseq.require_valid(circseq.read_halfperiod(path))

        def walked():
            return circseq.require_valid(circseq.Halfperiod(n, h.initial, h.transpositions))

        row = {"n": n, "k": k}
        row["read_halfperiod"] = timed(circseq, "read_halfperiod", lambda f: f(path))
        row["validate_allowable"] = timed(circseq, "validate_allowable", lambda f: f(h))
        row["level_counts"] = median_time(lambda g: g.level_counts, WORD_REPEATS, walked)
        row["k_critical"] = median_time(lambda g: g.k_critical(k), WORD_REPEATS, walked)
        row["rearrange_essential"] = timed(central, "rearrange_essential", lambda f: f(h, k))
        row["verify_central"] = timed(central, "verify_central", lambda f: f(h, k))
        row["classify"] = timed(central, "classify", lambda f: f(h, k))
        records = central.classify(h, k)
        row["_records_text"] = timed(cli, "_records_text", lambda f: f(records, "\n  "))
        row["main classify"] = median_time(main_stdout, WORD_REPEATS)
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
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            if subprocess.run([sys.executable, "-m", "kedges", *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode:
                return None
            times.append(perf_counter() - t0)
        return statistics.median(times)

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


def spread(samples):
    """{median, min, max} of each figure over the per-process results, which
    share one shape; sizes (n, k) are kept as they are, and a figure that is
    null in any process is null."""
    first = samples[0]
    if isinstance(first, dict):
        return {key: first[key] if key in ("n", "k") else spread([s[key] for s in samples])
                for key in first}
    if any(s is None for s in samples):
        return None
    return {"median": statistics.median(samples), "min": min(samples), "max": max(samples)}


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
    samples = {label: [] for label in labels}
    for rnd in range(PROCESSES):
        for label in labels[rnd % len(labels):] + labels[:rnd % len(labels)]:
            out = subprocess.run([sys.executable, __file__, "--src", str(runs[label])],
                                 capture_output=True, text=True, check=True).stdout
            samples[label].append(json.loads(out))
            print(f"round {rnd + 1}/{PROCESSES}: {label} done", file=sys.stderr)

    data = json.loads(args.output.read_text()) if args.output.exists() else {}
    data["what"] = ("median, min and max over fresh processes of each process's median "
                    "wall seconds; see tools/bench_kernels.py")
    for label in labels:
        data.setdefault("runs", {})[label] = {
            "env": environment(runs[label]),
            "processes": PROCESSES,
            "repeats": REPEATS,
            "word_repeats": WORD_REPEATS,
            **spread(samples[label]),
        }
    args.output.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
