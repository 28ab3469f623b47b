#!/usr/bin/env python3
"""kedges benchmark: one process, one thread, a closed loop with one client.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload points|abstract \
        --seed N --seconds S --trace 0|1

Each op is one CLI command run in-process through kedges.cli.main(argv).
Only the call itself is timed; input generation, digesting and output checks
run outside the timed calls.  A run makes a pool of at least 100 distinct
ops before timing starts and runs the whole pool round after round, each
round in a seeded order (see workloads.py), for about --seconds of wall time.

Op latencies are scaled to a nominal host speed: a fixed reference task that
does not use kedges (see reference_s) is timed before every unit of ops, and
a latency is multiplied by REF_NOMINAL_S over the median reference time next
to it.

--trace 0 runs at least MIN_ROUNDS rounds and prints the end-to-end
metrics.  Each op's latency is the median of its scaled latencies over the
rounds; op_p50_ms and op_p90_ms are quantiles of these per-op medians, and
ops_per_s is the pool size over their sum.  setup_s is the median of
SETUP_SAMPLES fresh-process imports before and after the timed phase,
unscaled.  The unscaled op figures and the median reference time are in the
details line.  --trace 1 runs at least two rounds, each twice, untraced and
traced (which first alternates), and prints the per-layer metrics
(tracing.py): span times unscaled, trace_overhead from scaled latencies.

The last stdout line is the result object; the line before it holds the
environment block (python, backend, nproc, git sha, source digest, host-speed
calibration) and sample counts.

The program is imported from src/ of the checkout this file sits in.  The
run fails (exit 1, no result) when a workload produced no ops or a metric
named in BENCHMARK.json is missing; it prints a result with
"correct": false and exits 1 when any op failed.

Regenerate the stored default-seed digests with --write-digests after a
deliberate output change.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
MIN_ROUNDS = 3  # per-op medians of untraced runs take at least this many samples
SETUP_SAMPLES = 8  # fresh-process imports before and after the timed phase
# Timed phases stop after the current round once this much wall time has
# passed since start, so a run on a slow host still ends well within 180 s.
WALL_LIMIT_S = 110

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def import_program():
    if not (SRC / "kedges" / "cli.py").is_file():
        _fail(f"no program source at {SRC / 'kedges'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import kedges.cli as cli

    return cli


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop that does not touch kedges;
    taken before and after a run so host-speed drift is visible."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


# The reference task: a fixed piece of work that does not use kedges, made of
# what kedges ops spend their time on (Fraction arithmetic on ~40-bit and
# ~160-bit rationals, dict building, an argparse parser with subcommands
# built and run, JSON rendered to a redirected stdout).  The CPU speed a
# shared host gives one process drifts by up to ~2x over seconds to minutes;
# timed next to the ops, the reference task's time tracks that drift, and op
# latencies are reported at the speed where the task takes REF_NOMINAL_S
# (about its median on a 2-core x86 host at typical load).
_REF_RNG = random.Random("kedges-bench-reference")
_REF_SMALL = [Fraction(_REF_RNG.randrange(1, 2**40), _REF_RNG.randrange(1, 2**40))
              for _ in range(24)]
_REF_BIG = [Fraction(_REF_RNG.randrange(1, 2**160), _REF_RNG.randrange(1, 2**160))
            for _ in range(12)]
REF_NOMINAL_S = 0.005
REF_WINDOW = 5  # reference samples whose median scales an op


def reference_s() -> float:
    """Seconds the reference task takes now."""
    t0 = perf_counter()
    acc = Fraction(0)
    for pts in (_REF_SMALL, _REF_BIG):
        for i in range(len(pts) - 2):
            a, b, c = pts[i], pts[i + 1], pts[i + 2]
            acc += (b - a) * (c - a) - (c - b) * (a + b)
    table: dict = {}
    for i in range(300):
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + i
    json.dumps([{"k": k[0], "v": v, "s": str(k)} for k, v in sorted(table.items())])
    ap = argparse.ArgumentParser(prog="reference")
    sub = ap.add_subparsers(dest="cmd")
    for i in range(16):
        sp = sub.add_parser(f"c{i}", help=f"command {i}")
        sp.add_argument("file")
        sp.add_argument("--k", type=int, default=1)
        sp.add_argument("--flag", action="store_true")
    args = ap.parse_args(["c7", "f.txt", "--k", "3"])
    with contextlib.redirect_stdout(io.StringIO()):
        print(json.dumps({"cmd": args.cmd, "k": args.k,
                          "rows": [[i, str(Fraction(i, 7))] for i in range(40)]}, indent=2))
    return perf_counter() - t0


def import_time() -> float:
    """Seconds to import kedges and kedges.cli in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import kedges, kedges.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout;
    None when the checkout is not a git repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    rat = sys.modules.get("kedges.rat")
    h = hashlib.sha256()
    for path in sorted((SRC / "kedges").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "backend": getattr(rat, "BACKEND", None),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": h.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Running and checking ops
# ---------------------------------------------------------------------------


class Runner:
    """Runs rounds of a pool of ops, times each call, checks and digests its
    output."""

    def __init__(self, cli, workload: str, seed: int, work: Path, tiny: bool = False,
                 digests: dict | None = None):
        self.cli = cli
        self.seed = seed
        self.work = work
        self.digests = digests or {}
        self.cr_lower = {}
        self.deadline = float("inf")
        self.failures: list[str] = []
        self.attempted = 0
        self.kinds: dict[str, int] = {}
        self.rounds = 0
        self.refs: list[float] = []  # reference task seconds of the last phase
        self.seen_digests: dict[str, str] = {}  # fingerprint -> checked output digest
        units = workloads.make_pool(workload, seed, work, tiny)
        self.ops = [op for unit in units for op in unit]
        self.units, i = [], 0
        for unit in units:
            self.units.append(range(i, i + len(unit)))
            i += len(unit)
        if workload == "points":
            sizes = (8, 9) if tiny else workloads.ANALYZE_SIZES
            for n in sizes:
                rc, out, err = self._call(["cr-bound", "--n", str(n)])
                if rc != 0:
                    _fail(f"cr-bound --n {n} failed: {err}")
                self.cr_lower[n] = int(out)

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def _normalize(self, text: str) -> bytes:
        return text.replace(str(self.work), "<work>").encode()

    def fingerprint(self, op) -> str:
        h = hashlib.sha256(self._normalize("\0".join(op.argv)))
        for path in op.inputs:
            # A missing input (its producing op failed) makes this op fail too.
            h.update(b"\0" + (path.read_bytes() if path.exists() else b"<missing>"))
        return h.hexdigest()[:32]

    def output_digest(self, op, stdout: str) -> str:
        h = hashlib.sha256(self._normalize(stdout))
        for path in op.outputs:
            h.update(b"\0" + (path.read_bytes() if path.exists() else b"<missing>"))
        return h.hexdigest()

    def verify(self, op, key: str, stdout: str) -> str | None:
        """None when the output is right.  An input seen before must give
        the same bytes again; a new input's output is parsed and checked,
        and compared with the stored digest when there is one."""
        digest = self.output_digest(op, stdout)
        seen = self.seen_digests.get(key)
        if seen is not None:
            return None if seen == digest else "output differs from an earlier run of this input"
        try:
            problem = workloads.check_output(op, stdout, self.cr_lower)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            problem = f"unreadable output: {exc!r}"
        want = self.digests.get(key)
        if problem is None and want is not None and want != digest:
            problem = "output digest differs from the stored one"
        if problem is None:
            self.seen_digests[key] = digest
        return problem

    def run_op(self, op):
        """(latency_s, outcome); settle(outcome) checks it later, so a pass
        times its ops back to back, with no checking work between them."""
        out, err = io.StringIO(), io.StringIO()
        main = self.cli.main
        rc, crash = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = main(op.argv)
            except SystemExit as exc:
                crash = f"SystemExit({exc.code})"
            except Exception:  # a traceback is an op failure, not a benchmark crash
                crash = traceback.format_exc(limit=-3)
            t1 = perf_counter()
        return t1 - t0, (op, rc, crash, out.getvalue(), err.getvalue())

    def settle(self, outcome) -> str | None:
        """Count and check one op run by run_op; None when it is right.
        Every op of a pool writes its own files, so they are still the op's
        own output at the end of its pass."""
        op, rc, crash, stdout, stderr = outcome
        self.attempted += 1
        self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
        if crash is not None:
            problem = f"traceback: {crash}"
        elif rc != 0:
            problem = f"exit {rc}: {stderr.strip()[:200]}"
        else:
            problem = self.verify(op, self.fingerprint(op), stdout)
        if problem is not None:
            self.failures.append(f"{' '.join(op.argv)}: {problem}")
        return problem

    def run_pass(self, order, raw, scaled) -> None:
        """Run the units in order, appending each op's latency in seconds to
        raw[i] and, scaled to the reference speed, to scaled[i].  The
        reference task runs before every unit and after the last; an op is
        scaled by the median of the REF_WINDOW samples around its unit."""
        refs, outcomes = [], []
        gc.collect()
        for unit in order:
            refs.append(reference_s())
            for i in unit:
                latency, outcome = self.run_op(self.ops[i])
                raw[i].append(latency)
                outcomes.append(outcome)
        refs.append(reference_s())
        for outcome in outcomes:
            self.settle(outcome)
        for u, unit in enumerate(order):
            lo = min(max(0, u + 1 - REF_WINDOW // 2), max(0, len(refs) - REF_WINDOW))
            factor = REF_NOMINAL_S / statistics.median(refs[lo:lo + REF_WINDOW])
            for i in unit:
                scaled[i].append(raw[i][-1] * factor)
        self.refs += refs

    def phase(self, budget_s: float, min_rounds: int, max_rounds: int | None = None,
              tracer: tracing.Tracer | None = None):
        """Run the whole pool round after round, each round in a seeded order
        of its units (an emitted file is still decomposed right after its
        construction).  Stops after at least min_rounds once another round
        would end further past budget_s of wall time than a quarter round.

        With a tracer every round runs twice, untraced and traced, so both
        passes see the same host speed; the pass that runs first alternates.
        Returns, for each op of the pool, its latencies in seconds in the
        untraced pass, raw and scaled to the reference speed, and in the
        traced pass, raw and scaled."""
        plain, scaled = [array("d") for _ in self.ops], [array("d") for _ in self.ops]
        traced_raw, traced = [array("d") for _ in self.ops], [array("d") for _ in self.ops]
        for _ in range(REF_WINDOW):
            reference_s()  # warm-up
        self.refs.clear()

        def traced_pass(order):
            tracer.install()
            try:
                self.run_pass(order, traced_raw, traced)
            finally:
                tracer.uninstall()

        start = perf_counter()
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            order = list(self.units)
            random.Random(f"kedges-bench-order:{self.seed}:{rounds}").shuffle(order)
            passes = [lambda: self.run_pass(order, plain, scaled)]
            if tracer:
                passes.append(lambda: traced_pass(order))
                if rounds % 2:
                    passes.reverse()  # neither pass always runs first
            for run_pass in passes:
                run_pass()
            rounds += 1
            now = perf_counter()
            if rounds >= min_rounds and (now - start) * (1 + 0.75 / rounds) > budget_s:
                break
            if now > self.deadline:
                break
        self.rounds = rounds
        return plain, scaled, traced_raw, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def throughput(latencies) -> float:
    """Ops per second over every sample of every op."""
    return sum(len(lat) for lat in latencies) / sum(sum(lat) for lat in latencies)


def end_to_end(latencies, setup_samples) -> dict[str, float]:
    """Latency quantiles over the ops' median latencies; throughput of one
    pass over the pool at those medians; the median set-up time."""
    medians = [statistics.median(lat) for lat in latencies]
    q = statistics.quantiles([t * 1000 for t in medians], n=10, method="inclusive")
    return {
        "ops_per_s": len(medians) / sum(medians),
        "op_p50_ms": q[4],
        "op_p90_ms": q[8],
        "setup_s": statistics.median(setup_samples),
    }


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, *, tiny: bool = False,
                  digests: dict | None = None, max_rounds: int | None = None) -> dict:
    """One benchmark run; returns the result object plus 'details'."""
    deadline = perf_counter() + WALL_LIMIT_S
    cli = import_program()
    if digests is None:
        digests = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.exists() else {}
    env = environment()
    env["calibration_before_ms"] = calibrate()
    import_time()  # the first import may compile bytecode: discarded
    setup_samples = [import_time() for _ in range(SETUP_SAMPLES)]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    details: dict = {"workload": workload, "seed": seed, "environment": env}
    try:
        runner = Runner(cli, workload, seed, work, tiny=tiny, digests=digests)
        if not runner.ops:
            _fail(f"workload {workload} produced no ops")
        if max_rounds is None:
            runner.deadline = deadline
        if trace:
            tracer = tracing.Tracer()
            _, plain, traced_raw, traced = runner.phase(seconds, 1 if tiny else 2, max_rounds,
                                                         tracer)
            metrics = tracing.layer_metrics(tracer.spans)
            details["traced_op_time_s"] = metrics.pop("traced_op_time_s")
            details["traced_latency_s"] = 1 / throughput(traced_raw)
            metrics["trace_overhead"] = throughput(traced) / throughput(plain)
        else:
            plain, scaled, _, _ = runner.phase(seconds, 1 if tiny else MIN_ROUNDS, max_rounds)
            setup_samples += [import_time() for _ in range(SETUP_SAMPLES)]
            metrics = end_to_end(scaled, setup_samples)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            details["unscaled"] = end_to_end(plain, setup_samples)
            details["reference_ms"] = statistics.median(runner.refs) * 1000
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(runner.failures)
    if trace:
        metrics["fail_ratio"] = failed / runner.attempted
    env["calibration_after_ms"] = calibrate()
    details.update({
        "pool_ops": len(runner.ops),
        "rounds": runner.rounds,
        "samples": sum(len(lat) for lat in plain),
        "ops_by_kind": runner.kinds,
        "setup_samples": len(setup_samples),
        "digests_checked": sum(1 for k in runner.seen_digests if k in digests),
        "failures": runner.failures[:10],
        "seen_digests": runner.seen_digests,
    })
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }


def format_result(result: dict, trace: int, spec: dict) -> dict:
    """The result object with every metric the spec names, with its unit;
    exits 1 if one is missing."""
    units = spec[trace]
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        _fail(f"metrics missing from the run: {missing}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def write_digests() -> None:
    """Store the output digests of the pool of every workload at the default
    seed."""
    table = {}
    for workload in workloads.WORKLOADS:
        res = run_benchmark(workload, DEFAULT_SEED, float("inf"), 0, digests={}, max_rounds=1)
        if not res["correct"]:
            _fail(f"{workload}: cannot store digests of failing ops: {res['details']['failures']}")
        table[workload] = dict(sorted(res["details"]["seen_digests"].items()))
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    spec = load_spec()
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    details = result["details"]
    del details["seen_digests"]
    print(json.dumps({"details": details}))
    print(json.dumps(format_result(result, args.trace, spec)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
