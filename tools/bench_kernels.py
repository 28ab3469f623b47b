#!/usr/bin/env python3
"""Time the point-set kernels, the halfperiod kernels and a few CLI calls of
one kedges source tree.

    python3 tools/bench_kernels.py --src DIR --label NAME -o FILE

DIR is a source checkout (kedges is imported from DIR/src).  Each figure
is the median wall time in seconds of REPEATS (5) runs, or of WORD_REPEATS
(31) runs for the halfperiod kernels, which take milliseconds each:

* kernels, in this process, on the S_5, S_10 and S_20 sets that DIR's
  build_sr emits: `PointSet.angles` on a fresh PointSet (the event sort),
  and `halfperiod_from_points`, `radial_counts` and `pair_levels` on a set
  whose event sort is already cached, so each figure is that kernel's own
  work.  A kernel the tree does not have is recorded as null.
* halfperiod kernels, in this process, on one seeded random reduced word
  with n = 48 and k = 8 (the top stratum of the perfbench `abstract`
  workload): `read_halfperiod` of its file, `validate_allowable`,
  `rearrange_essential`, `verify_central` and `classify` on the read
  halfperiod (its axiom walk already cached), `cli._records_text` of the
  `classify --halfperiod` report's records (the part of the report
  `classify` renders through one template; null on a tree without it),
  and that whole command through `cli.main` with stdout discarded.
* CLI calls, each a fresh `python -m kedges` process: `construct sr
  --r 5/10/20` and `analyze` on the file each of them writes, and
  `construct sr --r 30/40` alone (CLI_SR_SIZES).  A command that exits
  non-zero is recorded as null after its first run.

The result is stored under NAME in FILE together with an environment block
(python, cpu count, git revision of DIR); other labels already in FILE are
kept, so two trees can be compared in one file.
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
CLI_SR_SIZES = (30, 40)
REPEATS = 5
WORD_N, WORD_K, WORD_SEED = 48, 8, 2024
WORD_REPEATS = 31


def median_time(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def kernel_times() -> dict:
    from kedges import circseq, constructions, edgestats
    from kedges.geom import PointSet

    radial = getattr(edgestats, "radial_counts", None)
    out = {}
    for r in SIZES:
        ps = constructions.build_sr(constructions.SrConfig(r=r)).perturbed
        warm = PointSet(ps.points)
        warm.angles  # noqa: B018 -- cache the event sort the other kernels read
        row = {"n": ps.n}
        row["PointSet.angles"] = median_time(lambda: PointSet(ps.points).angles)
        row["halfperiod_from_points"] = median_time(
            lambda: circseq.halfperiod_from_points(warm, tie_break=True))
        row["radial_counts"] = None if radial is None else median_time(lambda: radial(warm))
        row["pair_levels"] = median_time(lambda: edgestats.pair_levels(warm))
        out[f"S_{r}"] = row
    return out


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


def halfperiod_times() -> dict:
    from kedges import central, circseq, cli

    n, k = WORD_N, WORD_K

    def timed(module, name, call):
        fn = getattr(module, name, None)
        return None if fn is None else median_time(lambda: call(fn), WORD_REPEATS)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"w{n}.hp"
        circseq.write_halfperiod(path, reduced_word(circseq, n, WORD_SEED))

        def main_stdout():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(["classify", str(path), "--halfperiod", "--k", str(k)])
            return buf.getvalue()

        h = circseq.require_valid(circseq.read_halfperiod(path))
        row = {"n": n, "k": k}
        row["read_halfperiod"] = timed(circseq, "read_halfperiod", lambda f: f(path))
        row["validate_allowable"] = timed(circseq, "validate_allowable", lambda f: f(h))
        row["rearrange_essential"] = timed(central, "rearrange_essential", lambda f: f(h, k))
        row["verify_central"] = timed(central, "verify_central", lambda f: f(h, k))
        row["classify"] = timed(central, "classify", lambda f: f(h, k))
        records = central.classify(h, k)
        row["_records_text"] = timed(cli, "_records_text", lambda f: f(records, "\n  "))
        row["main classify"] = median_time(main_stdout, WORD_REPEATS)
    return {f"word n={n} k={k}": row}


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
    return out


def environment(src: Path) -> dict:
    try:
        rev = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git": rev}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, type=Path, help="source checkout to time")
    ap.add_argument("--label", required=True, help="key of this tree's figures in FILE")
    ap.add_argument("-o", "--output", required=True, type=Path)
    args = ap.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src / "src"))

    result = {
        "env": environment(src),
        "repeats": REPEATS,
        "word_repeats": WORD_REPEATS,
        "kernels_s": kernel_times(),
        "halfperiod_kernels_s": halfperiod_times(),
        "cli_s": cli_times(src),
    }
    data = json.loads(args.output.read_text()) if args.output.exists() else {}
    data.setdefault("what", "median wall seconds; see tools/bench_kernels.py")
    data.setdefault("runs", {})[args.label] = result
    args.output.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
