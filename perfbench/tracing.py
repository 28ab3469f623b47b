"""Per-layer spans recorded from outside the program.

Tracer.install() wraps every public function of the seven layer modules and
rebinds each kedges.* module attribute that refers to it, so calls made from
inside the package (module-global lookups, re-exports, aliases) are caught
too.  A span is [name, start, end, parent, info]; spans stay in memory and are
reduced to metrics after the traced phase.  Nothing under src/ is touched.

A layer's self time is the duration of its spans minus the part covered by
child spans; every op is one root span (cli.main), so the layers' self times
add up to the traced op time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from math import comb
from time import perf_counter

LAYERS = ("cli", "geom", "circseq", "edgestats", "central", "bounds", "constructions")

KERNELS = {
    "geom": ("collinear_triples", "read_points", "write_points", "line_intersection"),
    "circseq": ("halfperiod_from_points", "validate_allowable", "compute_s", "read_halfperiod"),
    "edgestats": ("pair_levels", "crossings_bruteforce", "edge_vector_bruteforce",
                  "edge_vector_from_halfperiod", "summarize"),
    "central": ("verify_central", "rearrange_essential", "classify", "blocks"),
    "bounds": ("cr_lower_bound", "u_sequence", "lemma_brackets", "bound_table"),
    "constructions": ("build_sr", "perturb_collinear_families", "check_3decomposable",
                      "count_bichromatic_monochromatic", "build_polygon_center",
                      "build_cluster_polygon"),
}

# O(1) helpers called once per point triple, pair or k.  A wrapper would cost
# as much as the work inside them, so their time stays in the caller's span.
LEAF_HELPERS = {
    "geom": {"orientation", "P"},
    "edgestats": {"min_side_level"},
    "bounds": {"comb2", "comb2_rat", "aichholzer_bound", "m_start"},
    "constructions": {"comb2"},
}

BUILDS = ("constructions.build_sr", "constructions.build_polygon_center",
          "constructions.build_cluster_polygon")

# Orientation tests each point-set kernel makes, from its input size.
PREDICATES = {
    "geom.collinear_triples": lambda n: comb(n, 3),
    "edgestats.pair_levels": lambda n: comb(n, 2) * (n - 2),
    "edgestats.crossings_bruteforce": lambda n: comb(n, 3) + 3 * comb(n, 4),
}


def _coord_bits(points) -> int:
    bits = 0
    for p in points:
        for v in (p.x, p.y):
            bits = max(bits, int(v.numerator).bit_length(), int(v.denominator).bit_length())
    return bits


def _probe_points(name):
    count = PREDICATES[name]

    def probe(args, kwargs, _out):
        obj = args[0]
        pts = getattr(obj, "points", obj)
        n = len(pts)
        return ("predicates", count(n), _coord_bits(pts))

    return probe


def escalation_steps(cfg, used) -> int:
    """Escalation rungs between the requested SrConfig and the one that
    certified: precision squarings, epsilon shrinks by 1000, far-factor
    doublings."""
    steps = 0
    p = cfg.precision
    while p < used.precision:
        p, steps = p * p, steps + 1
    e = cfg.perturbation_epsilon
    while e > used.perturbation_epsilon:
        e, steps = e / 1000, steps + 1
    f = cfg.far_factor
    while f < used.far_factor:
        f, steps = f * 2, steps + 1
    return steps


def _probe_build_sr(args, kwargs, out):
    cfg = args[0] if args else kwargs["cfg"]
    return ("escalation", escalation_steps(cfg, out.config))


PROBES = {name: _probe_points(name) for name in PREDICATES}
PROBES["constructions.build_sr"] = _probe_build_sr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if probe is not None:
                rec[4] = probe(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        mods = [m for key, m in list(sys.modules.items())
                if key == "kedges" or key.startswith("kedges.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"kedges.{layer}")
            skip = LEAF_HELPERS.get(layer, set())
            for attr, fn in list(vars(mod).items()):
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or attr.startswith("_") or attr in skip):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, PROBES.get(name))
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapper)
                            self._undo.append((m, key, fn))

    def uninstall(self):
        for m, key, fn in reversed(self._undo):
            setattr(m, key, fn)
        self._undo.clear()


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count/op"), (f"{layer}.self_s", "s/op"),
                  (f"{layer}.share", "ratio")]
    for layer, fns in KERNELS.items():
        for fn in fns:
            names += [(f"{layer}.{fn}.calls", "count/op"), (f"{layer}.{fn}.self_s", "s/op")]
    names += [
        ("geom.predicates", "count/op"),
        ("geom.predicates_per_s", "1/s"),
        ("geom.coord_bits_max", "bits"),
        ("circseq.validations_per_op", "count/op"),
        ("edgestats.pair_levels_per_build", "count/build"),
        ("constructions.escalation_steps", "count/build"),
        ("constructions.certify_yield", "ratio"),
        ("trace_overhead", "ratio"),
        ("fail_ratio", "ratio"),
    ]
    return names


def layer_metrics(spans) -> dict[str, float]:
    """Reduce spans to the per-layer metrics (all but trace_overhead and
    fail_ratio, which need the untraced phase and the checks)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
    self_time = [d - c for d, c in zip(dur, covered)]
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    ops = len(roots)
    op_time = sum(dur[i] for i in roots)

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    for i, s in enumerate(spans):
        layer = s[0].split(".", 1)[0]
        for key in (layer, s[0]):
            calls[key] = calls.get(key, 0) + 1
            selfs[key] = selfs.get(key, 0.0) + self_time[i]

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0) / ops
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0) / ops
        m[f"{layer}.share"] = selfs.get(layer, 0.0) / op_time
    for layer, fns in KERNELS.items():
        for fn in fns:
            key = f"{layer}.{fn}"
            m[f"{key}.calls"] = calls.get(key, 0) / ops
            m[f"{key}.self_s"] = selfs.get(key, 0.0) / ops

    predicates, bits, kernel_time = 0, 0, 0.0
    escalation = []
    for i, s in enumerate(spans):
        info = s[4]
        if info is None:
            continue
        if info[0] == "predicates":
            predicates += info[1]
            bits = max(bits, info[2])
            kernel_time += self_time[i]
        else:
            escalation.append(info[1])
    m["geom.predicates"] = predicates / ops
    m["geom.predicates_per_s"] = predicates / kernel_time if kernel_time else 0.0
    m["geom.coord_bits_max"] = bits

    classify_ops = calls.get("cli.cmd_classify", 0)
    validations = sum(1 for i, s in enumerate(spans)
                      if s[0] == "circseq.validate_allowable"
                      and "cli.cmd_classify" in ancestors(i))
    m["circseq.validations_per_op"] = validations / classify_ops if classify_ops else 0.0

    sr_builds = calls.get("constructions.build_sr", 0)
    sr_levels = sum(1 for i, s in enumerate(spans)
                    if s[0] == "edgestats.pair_levels"
                    and "constructions.build_sr" in ancestors(i))
    m["edgestats.pair_levels_per_build"] = sr_levels / sr_builds if sr_builds else 0.0
    m["constructions.escalation_steps"] = (
        sum(escalation) / len(escalation) if escalation else 0.0)

    builds = sum(calls.get(b, 0) for b in BUILDS)
    attempts = sum(1 for i, s in enumerate(spans)
                   if s[0] == "edgestats.edge_vector_bruteforce"
                   and any(a in BUILDS for a in ancestors(i)))
    m["constructions.certify_yield"] = builds / attempts if attempts else 0.0
    m["traced_op_time_s"] = op_time / ops
    return m
