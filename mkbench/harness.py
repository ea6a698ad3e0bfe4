"""Measurement: set-up, the closed op loop, metrics and the traced run.

One run measures one workload in this process:

1. set-up runs at least SETUP_REPEATS times and for at least
   SETUP_SECONDS; `setup_s` is the median;
2. `gc.collect()` once, then the measured phase with GC on, because
   users pay for GC;
3. whole rounds of the workload's script until `seconds` have passed.

Op times are reported in reference units: every REFERENCE_EVERY seconds
the harness times the fixed computation of `reference.Reference`, and
each op's time is divided by the latest reference time (the median of
the last three). The same figures in seconds go to the report line
(`in_seconds`).

With `trace` the measured phase is split in two halves: the first runs
untraced, the second under a `Tracer`, and the per-layer metrics come
from the second half. The tracing overhead is the first half's
`ops_per_s` over the second's.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
import traceback
from collections import Counter

from .reference import Reference
from .tracing import LAYERS, Tracer

SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
REFERENCE_EVERY = 0.25    # seconds between two timings of the reference

REIFICATION_KINDS = (
    "arguments", "class", "context", "entity", "link", "method", "name",
    "newValue", "node", "object", "operation", "originalMethod", "receiver",
    "selector", "sender", "value", "variable")

# (name, unit, better, bound); printed by every untraced run. `ref` is
# one duration of the reference computation on the host at that moment.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_ref", "1/ref", "higher", 0.25),
    ("op_p50_ref", "ref", "lower", 0.25),
    ("op_p90_ref", "ref", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

# (name, unit, better); printed by every traced run.
PER_LAYER = (
    ("parser.calls", "count", "lower"),
    ("parser.s", "s", "lower"),
    ("parser.nodes", "count", "lower"),
    ("parser.nodes_per_s", "1/s", "higher"),
    ("interpreter.new_s", "s", "lower"),
    ("interpreter.load_s", "s", "lower"),
    ("interpreter.run_s", "s", "lower"),
    ("interpreter.method_execs", "count", "lower"),
    ("interpreter.block_calls", "count", "lower"),
    ("kernel.prim_calls", "count", "lower"),
    ("kernel.prim_s", "s", "lower"),
    ("interpreter.hook_visits", "count", "lower"),
    ("interpreter.registry_consults", "count", "lower"),
    ("links.fire_attempts", "count", "lower"),
    ("links.fires", "count", "lower"),
    ("links.fire_ratio", "ratio", "higher"),
    ("links.trigger_s", "s", "lower"),
    ("reify.resolves", "count", "lower"),
    ("reify.resolve_s", "s", "lower"),
) + tuple(("reify.%s_ns" % k, "ns", "lower") for k in REIFICATION_KINDS) + (
    ("links.installs", "count", "lower"),
    ("links.install_s", "s", "lower"),
    ("links.removes", "count", "lower"),
    ("links.remove_s", "s", "lower"),
    ("links.uninstalls", "count", "lower"),
    ("links.uninstall_s", "s", "lower"),
    ("links.invalidates", "count", "lower"),
    ("links.invalidate_s", "s", "lower"),
    ("links.weaves", "count", "lower"),
    ("links.weave_s", "s", "lower"),
    ("links.add_hooks", "count", "lower"),
    ("links.nodes_copied", "count", "lower"),
    ("interpreter.recompiles", "count", "lower"),
    ("interpreter.recompile_s", "s", "lower"),
    ("tools.calls", "count", "lower"),
    ("tools.s", "s", "lower"),
    ("tools.trace_total", "count", "lower"),
    ("tools.watch_records", "count", "lower"),
    ("python.gc_collections", "count", "lower"),
) + tuple(("%s.self_s" % layer, "s", "lower") for layer in LAYERS) + (
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
SECONDS_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                 "reference_ms": "ms"}


class Phase:
    """Results of one measured phase. Every op is timed twice over: in
    seconds, and in reference units (its time over the reference time
    taken just before it)."""

    def __init__(self):
        self.latencies = []       # seconds in `execute`
        self.relative = []        # the same in reference units
        self.service_s = 0.0      # execute + verify, summed over ops
        self.service_ref = 0.0    # the same in reference units
        self.references = []     # seconds of each reference computation
        self.failed = 0
        self.violations = Counter()
        self.kinds = Counter()
        self.first_error = None

    @property
    def attempted(self):
        return len(self.latencies)


def run_phase(workload, seconds, reference, tracer=None):
    """Whole rounds of the script until `seconds` have passed."""
    phase = Phase()
    script = workload.script()
    clock = time.perf_counter
    deadline = clock() + seconds
    op_id = 0
    last_ref = -REFERENCE_EVERY
    while True:
        for op in script:
            if clock() - last_ref >= REFERENCE_EVERY:
                # The median of the last three damps a single hiccup.
                phase.references.append(reference.time())
                ref = statistics.median(phase.references[-3:])
                last_ref = clock()
            if tracer is not None:
                tracer.op = op_id
                span = tracer.open("bench.op")
            error = None
            t0 = clock()
            try:
                token = workload.execute(op)
            except Exception as exc:  # a failing op is counted, not fatal
                error = exc
            latency = clock() - t0
            if tracer is not None:
                tracer.close(span)
                span = tracer.open("bench.verify")
            if error is None:
                try:
                    bad = workload.verify(op, token)
                except Exception as exc:
                    error = exc
            if error is not None:
                bad = ["exception:" + type(error).__name__]
                if phase.first_error is None:
                    phase.first_error = "".join(traceback.format_exception(
                        type(error), error, error.__traceback__))[-2000:]
            if tracer is not None:
                tracer.close(span)
            service = clock() - t0
            phase.service_s += service
            phase.service_ref += service / ref
            phase.latencies.append(latency)
            phase.relative.append(latency / ref)
            phase.kinds[op[0]] += 1
            if bad:
                phase.failed += 1
                phase.violations.update(bad)
            op_id += 1
        if clock() >= deadline:
            break
    return phase


def percentiles(latencies):
    """(p50, p90) with statistics.quantiles' default method."""
    q = statistics.quantiles(latencies, n=10)
    return q[4], q[8]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gc_gen2():
    return gc.get_stats()[2]["collections"]


def host():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": model,
            "system": platform.system()}


def setup(workload, seed):
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(setup_s, phase):
    p50, p90 = percentiles(phase.relative)
    return {"setup_s": setup_s,
            "ops_per_ref": phase.attempted / phase.service_ref,
            "op_p50_ref": p50,
            "op_p90_ref": p90,
            "peak_rss_mb": peak_rss_mb()}


def in_seconds(phase):
    """The end-to-end figures in seconds, as this host ran them."""
    p50, p90 = percentiles(phase.latencies)
    return {"ops_per_s": phase.attempted / phase.service_s,
            "op_p50_ms": p50 * 1000.0,
            "op_p90_ms": p90 * 1000.0,
            "reference_ms": statistics.median(phase.references) * 1000.0}


def per_layer(tracer, stats, untraced, traced, gc_collections):
    t = tracer
    calls, total, own = t.calls, t.total_ns, t.self_ns

    def s(ns):
        return ns / 1e9

    parser_s = s(total["parser.parse"])
    fires = stats["fires"]
    attempts = calls["links.fire_link"]
    out = {
        "parser.calls": calls["parser.parse"],
        "parser.s": parser_s,
        "parser.nodes": t.extra["parser.nodes"],
        "parser.nodes_per_s": (t.extra["parser.nodes"] / parser_s
                               if parser_s else 0.0),
        "interpreter.new_s": s(total["interpreter.new"]),
        "interpreter.load_s": s(total["interpreter.load"]),
        "interpreter.run_s": s(total["interpreter.run"]),
        "interpreter.method_execs": calls["interpreter.execute_method"],
        "interpreter.block_calls": calls["interpreter.call_block"],
        "kernel.prim_calls": calls["kernel.prim"],
        "kernel.prim_s": s(own["kernel.prim"]),
        "interpreter.hook_visits": stats["hook_visits"],
        "interpreter.registry_consults": stats["registry_consults"],
        "links.fire_attempts": attempts,
        "links.fires": fires,
        "links.fire_ratio": fires / attempts if attempts else 0.0,
        "links.trigger_s": s(own["links.run_trigger"]),
        "reify.resolves": calls["reify.resolve"],
        "reify.resolve_s": s(own["reify.resolve"]),
    }
    for kind in REIFICATION_KINDS:
        n = t.kind_calls[kind]
        out["reify.%s_ns" % kind] = t.kind_ns[kind] / n if n else 0.0
    for op in ("install", "remove", "uninstall", "invalidate", "weave"):
        out["links.%ss" % op] = calls["links." + op]
        out["links.%s_s" % op] = s(total["links." + op])
    out["links.add_hooks"] = calls["links.add_hook"]
    out["links.nodes_copied"] = t.extra["links.nodes_copied"]
    out["interpreter.recompiles"] = calls["interpreter.recompile"]
    out["interpreter.recompile_s"] = s(total["interpreter.recompile"])
    out["tools.calls"] = sum(n for name, n in calls.items()
                             if name.startswith("tools."))
    out["tools.s"] = t.outer_s("tools")
    out["tools.trace_total"] = stats["trace_total"]
    out["tools.watch_records"] = stats["watch_records"]
    out["python.gc_collections"] = gc_collections
    for layer, secs in t.layer_self_s().items():
        out["%s.self_s" % layer] = secs
    traced_rate = traced.attempted / traced.service_s
    untraced_rate = untraced.attempted / untraced.service_s
    out["trace.ops_per_s"] = traced_rate
    out["trace.untraced_ops_per_s"] = untraced_rate
    out["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    return out


def measure(workload, seed, seconds, trace, spans_path=None):
    """Run one workload; returns (result line dict, report dict)."""
    reference = Reference()
    setup_s = setup(workload, seed)
    gc.collect()
    gc0 = gc_gen2()
    if not trace:
        phases = [run_phase(workload, seconds, reference)]
        metrics = end_to_end(setup_s, phases[0])
    else:
        untraced = run_phase(workload, seconds / 2.0, reference)
        workload.stats.clear()
        tracer = Tracer()
        for interp in workload.interpreters():
            tracer.instrument(interp)
        tracer.install()
        gc_before = gc_gen2()
        try:
            traced = run_phase(workload, seconds / 2.0, reference, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        metrics = per_layer(tracer, workload.stats, untraced, traced,
                            gc_gen2() - gc_before)
        if spans_path is not None:
            tracer.write(spans_path)
    gc_collections = gc_gen2() - gc0
    finish = workload.finish()
    attempted = sum(p.attempted for p in phases)
    failed = min(attempted, sum(p.failed for p in phases) + bool(finish))
    violations = Counter()
    for p in phases:
        violations.update(p.violations)
    violations.update(finish)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "host": host(),
        "failed_ratio": failed / attempted,
        "in_seconds": in_seconds(phases[0]),
        "violations": dict(violations),
        "op_kinds": dict(sum((p.kinds for p in phases), Counter())),
        "python.gc_collections": gc_collections,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
        "first_error": next((p.first_error for p in phases
                             if p.first_error), None),
    }
    return result, report
