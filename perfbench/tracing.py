"""Spans and counters around calls into each lprl module, recorded from outside.

``install()`` wraps public entry points (and, best effort, a few private
ones) of the already-imported ``lprl`` modules. Modules bind imported names
in their own namespace (``construction.extend``, ``cli.check_properties``,
...), so each wrapper replaces every binding of the original function in
every ``lprl`` module, not only the defining one.

Spans ``(name, start, end, parent, op_id)`` stay in memory and are written
out by ``Tracer.dump`` when the process ends; ``layer_metrics`` turns one or
more dumps into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# names the file a child process writes its spans to at exit
SPANS_ENV = "PERFBENCH_SPANS"

# (metric prefix, module, attribute, class or None); each gives .calls, .s, .self_s
SPANS = [
    ("witness.extend", "witness", "extend", None),
    ("witness._least_start", "witness", "_least_start", None),
    ("witness._least_end", "witness", "_least_end", None),
    ("witness.verify_witness", "witness", "verify_witness", None),
    ("seqspace.pnorm_pow", "seqspace", "pnorm_pow", None),
    ("seqspace.is_prefix_of", "seqspace", "is_prefix_of", "FinSeq"),
    ("seqspace.to_array", "seqspace", "to_array", "FinSeq"),
    ("construction.build_tree", "construction", "build_tree", None),
    ("construction.check_properties", "construction", "check_properties", None),
    ("construction.export_cache", "construction", "export_cache", None),
    ("construction.import_cache", "construction", "import_cache", None),
    ("reduction.f_blocks", "reduction", "f_blocks", None),
    ("reduction.unit_ball_check", "reduction", "unit_ball_check", None),
    ("reduction.stabilization_check", "reduction", "stabilization_check", None),
    ("reduction.divergence_witness", "reduction", "divergence_witness", None),
    ("reduction.continuity_check", "reduction", "continuity_check", None),
    ("cli.parse_alpha_spec", "cli", "parse_alpha_spec", None),
    ("cli.cmd_build", "cli", "cmd_build", None),
    ("cli.cmd_verify", "cli", "cmd_verify", None),
    ("cli.cmd_trace", "cli", "cmd_trace", None),
]

# counters: metric name -> unit
COUNTERS = {
    "witness.search.distinct_keys": "count",
    "seqspace.to_array.entries": "count",
    "seqspace.window_sum.fsum": "count",
    "seqspace.window_sum.numpy": "count",
    "seqspace.window_sum.analytic": "count",
    "seqspace.window_sum.hit_ratio": "ratio",
    "construction.check_properties.instances": "count",
    "construction.export_cache.bytes": "bytes",
    "construction.nodes_built": "count",
    "grid.pair.calls": "count",
    "grid.unpair.calls": "count",
}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for prefix, *_ in SPANS:
        out[f"{prefix}.calls"] = "count"
        out[f"{prefix}.s"] = "s"
        out[f"{prefix}.self_s"] = "s"
    out.update(COUNTERS)
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.search_keys = set()
        self.missing = []
        self.op_id = 0

    def timed(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent, self.op_id)
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path):
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct_keys": len(self.search_keys),
            "missing": self.missing,
        }
        Path(path).write_text(json.dumps(payload))


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "lprl" or name.startswith("lprl."))]


def _rebind(old, new):
    """Point every lprl binding of ``old`` at ``new``."""
    for mod in _modules():
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install():
    """Wrap the lprl entry points in this process; returns the Tracer."""
    import lprl.cli  # noqa: F401  (loads every module the workloads reach)

    tracer = Tracer()
    mods = {name.split(".")[-1]: m for name, m in sys.modules.items()
            if name.startswith("lprl.")}

    def search_key(kind):
        return lambda args, _res: tracer.search_keys.add((tracer.op_id, kind, args[:2]))

    def add(name, amount):
        tracer.counts[name] += amount

    hooks = {
        "witness._least_start": search_key("start"),
        "witness._least_end": search_key("end"),
        "seqspace.to_array": lambda _a, res: add("seqspace.to_array.entries", len(res)),
        "construction.check_properties":
            lambda _a, rep: add("construction.check_properties.instances", rep.instances),
        "construction.export_cache":
            lambda _a, path: add("construction.export_cache.bytes", Path(path).stat().st_size),
    }
    for prefix, mod_name, attr, cls_name in SPANS:
        owner = mods[mod_name] if cls_name is None else getattr(mods[mod_name], cls_name)
        fn = getattr(owner, attr, None)
        if fn is None:
            tracer.missing += [f"{prefix}.calls", f"{prefix}.s", f"{prefix}.self_s"]
            continue
        wrapper = tracer.timed(prefix, fn, hooks.get(prefix))
        if cls_name is None:
            _rebind(fn, wrapper)
        else:
            setattr(owner, attr, wrapper)

    for attr in ("pair", "unpair"):
        fn = mods["grid"].__dict__[attr]
        _rebind(fn, tracer.counted(f"grid.{attr}.calls", fn))

    build_step = getattr(mods["construction"], "_extend_node", None)
    if build_step is None:
        tracer.missing.append("construction.nodes_built")
    else:
        _rebind(build_step, tracer.counted("construction.nodes_built", build_step))
    if hasattr(mods["seqspace"], "_window_power_sum"):
        _install_window_sum(tracer, mods["seqspace"])
    else:
        tracer.missing += [name for name in COUNTERS if name.startswith("seqspace.window_sum.")]
    return tracer


def _install_window_sum(tracer, seqspace):
    """Regime counts and memo hit ratio of the window power sums.

    A call that leaves the module-global memo the same size was a hit; a
    miss that reached the Hurwitz-zeta path is analytic, and the others are
    fsum or numpy by the window length, as ``_window_power_sum`` decides.
    """
    counts = tracer.counts
    memo = getattr(seqspace, "_WINDOW_SUM_CACHE", None)
    if memo is None:
        tracer.missing.append("seqspace.window_sum.hit_ratio")
    fsum_cutoff = seqspace.FSUM_CUTOFF
    inner = seqspace._window_power_sum
    if hasattr(seqspace, "_analytic_range_sum"):
        _rebind(seqspace._analytic_range_sum,
                tracer.counted("seqspace.window_sum.analytic",
                               seqspace._analytic_range_sum))
    else:
        tracer.missing.append("seqspace.window_sum.analytic")

    @functools.wraps(inner)
    def window_sum(win, p):
        before = len(memo) if memo is not None else -1
        analytic = counts["seqspace.window_sum.analytic"]
        result = inner(win, p)
        counts["window_sum.calls"] += 1
        if memo is not None and len(memo) == before:
            counts["window_sum.hits"] += 1
        elif counts["seqspace.window_sum.analytic"] == analytic:
            kind = "fsum" if win.length <= fsum_cutoff else "numpy"
            counts[f"seqspace.window_sum.{kind}"] += 1
        return result

    _rebind(inner, window_sum)


def layer_metrics(dumps):
    """Aggregate tracer dumps into ``{name: (value, unit)}`` plus missing names."""
    names = metric_names()
    totals = Counter()
    counts = Counter()
    missing = set()
    for dump in dumps:
        spans = dump["spans"]
        missing.update(dump["missing"])
        counts.update(dump["counts"])
        counts["witness.search.distinct_keys"] += dump["distinct_keys"]
        children = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, _op) in enumerate(spans):
            dur = end - start
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += dur - children[i]
            # a span nested in one of the same name is already inside its time
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                totals[f"{name}.s"] += dur
    calls = counts["window_sum.calls"]
    counts["seqspace.window_sum.hit_ratio"] = counts["window_sum.hits"] / calls if calls else 0.0
    metrics = {}
    for name, unit in names.items():
        if name in missing:
            continue
        value = counts[name] if name in COUNTERS else totals[name]
        metrics[name] = (float(value) if unit in ("s", "ratio") else value, unit)
    return metrics, sorted(missing)
