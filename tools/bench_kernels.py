#!/usr/bin/env python3
"""Time the point-set kernels and a few CLI calls of one kedges source tree.

    python3 tools/bench_kernels.py --src DIR --label NAME -o FILE

DIR is a source checkout (kedges is imported from DIR/src).  Each figure
is the median wall time in seconds of REPEATS (5) runs:

* kernels, in this process, on the S_5, S_10 and S_20 sets that DIR's
  build_sr emits: `PointSet.angles` on a fresh PointSet (the event sort),
  and `halfperiod_from_points`, `radial_counts` and `pair_levels` on a set
  whose event sort is already cached, so each figure is that kernel's own
  work.  A kernel the tree does not have is recorded as null.
* CLI calls, each a fresh `python -m kedges` process: `construct sr
  --r 5/10/20` and `analyze` on the file each of them writes.

The result is stored under NAME in FILE together with an environment block
(python, cpu count, git revision of DIR); other labels already in FILE are
kept, so two trees can be compared in one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SIZES = (5, 10, 20)
REPEATS = 5


def median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
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


def cli_times(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src / "src"))

    def run(*argv):
        subprocess.run([sys.executable, "-m", "kedges", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for r in SIZES:
            path = str(Path(tmp) / f"s{r}.pts")
            out[f"construct sr --r {r}"] = median_time(
                lambda: run("construct", "sr", "--r", str(r), "-o", path))
            out[f"analyze S_{r}"] = median_time(lambda: run("analyze", path))
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
        "kernels_s": kernel_times(),
        "cli_s": cli_times(src),
    }
    data = json.loads(args.output.read_text()) if args.output.exists() else {}
    data.setdefault("what", "median wall seconds; see tools/bench_kernels.py")
    data.setdefault("runs", {})[args.label] = result
    args.output.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
