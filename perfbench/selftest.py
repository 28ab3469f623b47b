#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs one round of a small pool of every workload, untraced and traced, and
checks that the checks cannot pass vacuously:
  * every metric BENCHMARK.json names is reported, with its unit;
  * a wrong stored digest, and a wrong output, are counted as failed ops;
  * the traced layers' self times add up to the traced op time;
  * the kernels the old backend script timed (edgestats.crossings_bruteforce,
    edgestats.pair_levels, circseq.halfperiod_from_points) are measured;
  * one seed gives identical inputs, another seed different ones, and every
    generated halfperiod passes the program's validate_allowable while a
    corrupted one fails it.
Exits 0 when all hold.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 5
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"[{'ok' if cond else 'FAIL'}] {what}")
    if not cond:
        failures.append(what)


def tiny_run(workload: str, trace: int, digests: dict | None = None) -> dict:
    return run.run_benchmark(workload, SEED, 0, trace, tiny=True,
                             digests={} if digests is None else digests, max_rounds=1)


def check_metrics(spec) -> None:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            res = tiny_run(workload, trace)
            out = run.format_result(res, trace, spec)
            tag = f"{workload} trace={trace}"
            expect(out["correct"] and out["attempted"] > 0,
                   f"{tag}: {out['attempted']} ops, all correct {res['details']['failures']}")
            units = {name: m["unit"] for name, m in out["metrics"].items()}
            expect(units == spec[trace], f"{tag}: every named metric reported with its unit")
            if not trace:
                continue
            m = res["metrics"]
            layer_sum = sum(m[f"{layer}.self_s"] for layer in run.tracing.LAYERS)
            op_time = res["details"]["traced_op_time_s"]
            expect(abs(layer_sum - op_time) <= 1e-9 * op_time,
                   f"{tag}: layer self times sum to the traced op time "
                   f"({layer_sum:.6f} vs {op_time:.6f} s/op)")
            expect(op_time <= res["details"]["traced_latency_s"],
                   f"{tag}: traced op time within the measured op latency")
            if workload == "points":
                for kernel in ("edgestats.crossings_bruteforce", "edgestats.pair_levels",
                               "circseq.halfperiod_from_points"):
                    expect(m[f"{kernel}.calls"] > 0 and m[f"{kernel}.self_s"] > 0,
                           f"points: {kernel} calls and self time measured")
                expect(m["geom.predicates"] > 0, "points: predicate count is positive")
                expect(m["edgestats.pair_levels_per_build"] > 0, "points: pair levels counted")
                expect(m["constructions.certify_yield"] > 0, "points: builds counted")
            if workload == "abstract":
                expect(m["geom.predicates"] == 0, "abstract: predicate count is zero")
                expect(m["circseq.validations_per_op"] > 0, "abstract: validations counted")


def check_digests() -> None:
    first = tiny_run("points", 0)
    table = first["details"]["seen_digests"]
    expect(len(table) == first["attempted"], "points: every op digested")
    same = tiny_run("points", 0, digests=table)
    expect(same["failed"] == 0 and same["details"]["digests_checked"] == len(table),
           "stored digests match on a rerun")
    key = sorted(table)[0]
    wrong = dict(table, **{key: "0" * 64})
    res = tiny_run("points", 0, digests=wrong)
    expect(res["failed"] == 1 and not res["correct"], "a wrong stored digest fails its op")


def check_output_checks(work: Path) -> None:
    (op,) = workloads.analyze_ops(workloads._rng(SEED, "t", 0), 0, work, sizes=(8,))
    good = '{"n": 8, "edge_vector": [3, 6, 7, 12], "halving_lines": 12, ' \
           '"crossings": 19, "identity_check": true}'
    expect(workloads.check_output(op, good, {8: 19}) is None, "analyze check accepts a valid report")
    expect(workloads.check_output(op, good, {8: 20}) is not None,
           "analyze check rejects crossings below the lower bound")
    bad = good.replace("[3, 6, 7, 12]", "[3, 6, 7, 11]")
    expect(workloads.check_output(op, bad, {8: 19}) is not None,
           "analyze check rejects sum E_k != C(n,2)")


def check_inputs(work: Path) -> None:
    def snapshot(seed: int, name: str):
        out = {}
        for workload in workloads.WORKLOADS:
            d = work / f"{name}-{workload}"
            d.mkdir()
            ops = [op for unit in workloads.make_pool(workload, seed, d) for op in unit]
            files = sorted((p.name, p.read_bytes()) for p in d.iterdir())
            out[workload] = ([[a.replace(str(d), "") for a in op.argv] for op in ops], files)
        return out

    a, b, c = snapshot(SEED, "a"), snapshot(SEED, "b"), snapshot(SEED + 1, "c")
    for workload in workloads.WORKLOADS:
        expect(a[workload] == b[workload], f"{workload}: one seed gives identical inputs")
        expect(a[workload] != c[workload], f"{workload}: another seed changes the inputs")

    validate = workloads._program_validator()
    expect(validate is not None, "the program exposes read_halfperiod and validate_allowable")
    n = 9
    initial, steps = workloads.random_reduced_word(n, workloads._rng(SEED, "t", 0))
    ok = work / "ok.hp"
    workloads.write_halfperiod_file(ok, n, initial, steps)
    expect(not validate(ok) and not workloads.allowable_violations(n, initial, steps),
           "a generated halfperiod is allowable for both validators")
    s, p, x, y = steps[-1]
    broken = steps[:-1] + [(s, p % (n - 1) + 1, x, y)]  # the pair is not in those slots
    bad = work / "bad.hp"
    workloads.write_halfperiod_file(bad, n, initial, broken)
    expect(bool(validate(bad)) and bool(workloads.allowable_violations(n, initial, broken)),
           "a corrupted halfperiod is rejected by both validators")


def main() -> int:
    spec = run.load_spec()
    run.import_program()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        check_inputs(work)
        check_output_checks(work)
        check_digests()
        check_metrics(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} failing check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
