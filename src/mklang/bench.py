"""Benchmark harness: instrumentation overhead and link install cost.

Overhead is measured as executions per second of a tiny workload method,
comparing an unlinked run against an empty meta-call and a full set of
reifications. Install cost compares recompiling a synthetic corpus with
installing a trivial link on every method, cold (no twin yet) and hot
(twin already woven), then removing the hot link node by node and
uninstalling the cold one. Absolute numbers depend entirely on the host;
only orderings and signs are meaningful.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from dataclasses import dataclass

from .errors import BudgetExceeded
from .interpreter import Interpreter
from .links import MetaLink, install, remove, uninstall
from .nodes import find_nodes
from .values import HostFunction

WORKLOADS = ("send", "varrw")
INSTALL_CYCLES = 3

SEND_WORKLOAD = """
class BenchMeta [
    empty [ ]
    r1: a r2: b r3: c r4: d [ ]
    w1: a w2: b w3: c [ ]
]
class BenchTarget [
    run [ ^ self step ]
    step [ ^ 1 ]
]
"""

VARRW_WORKLOAD = """
class BenchMeta [
    empty [ ]
    r1: a r2: b r3: c r4: d [ ]
    w1: a w2: b w3: c [ ]
]
class BenchTarget [ |v|
    initialize [ v := 0 ]
    run [ v := v + 1. ^ v ]
]
"""


@dataclass
class OverheadScenario:
    workload: str                 # 'send' | 'varrw'
    linkage: str                  # 'nolink' | 'empty' | 'full-...'
    duration_budget: float = 5.0
    repetitions: int = 3


@dataclass
class BenchReport:
    scenario: str
    rate: float                   # executions per second, median of reps
    overhead_percent: float       # vs. the nolink reference
    repetitions: int = 3

    def record_line(self):
        return "scenario=%s rate=%.1f overhead_pct=%.2f" % (
            self.scenario, self.rate, self.overhead_percent)


@dataclass
class InstallCostReport:
    method_count: int
    recompile_seconds: float
    cold_install_seconds: float
    hot_install_seconds: float
    remove_seconds: float
    uninstall_seconds: float

    def record_line(self):
        return ("methods=%d recompile_s=%.4f cold_install_s=%.4f "
                "hot_install_s=%.4f remove_s=%.4f uninstall_s=%.4f" % (
                    self.method_count, self.recompile_seconds,
                    self.cold_install_seconds, self.hot_install_seconds,
                    self.remove_seconds, self.uninstall_seconds))


def _new_target(interp):
    counter = interp.class_named("BenchTarget")
    return interp.send(counter, "new", [], None)


def _measure_rate(interp, target, budget, repetitions):
    """Median executions/second over `repetitions` timed `gc_paused`
    windows, after one untimed warm-up window."""
    send = interp.send
    chunk = 64
    rates = []
    for rep in range(repetitions + 1):          # first window is warm-up
        count = 0
        with gc_paused():
            start = time.monotonic()
            deadline = start + budget
            while True:
                for _ in range(chunk):
                    send(target, "run", [], None)
                count += chunk
                now = time.monotonic()
                if now >= deadline:
                    break
        if rep > 0:
            rates.append(count / (now - start))
    return statistics.median(rates)


def _empty_meta_link(interp):
    meta = interp.send(interp.class_named("BenchMeta"), "new", [], None)
    link = MetaLink()
    link.set_meta_object(meta)
    link.set_selector("empty")
    link.set_control("before")
    return link, meta


def _configure_send(interp, linkage):
    ast = interp.method_ast("BenchTarget", "run")
    node = find_nodes(ast, "sends-of", "step")[0]
    if linkage == "empty":
        link, _ = _empty_meta_link(interp)
    elif linkage == "full":
        meta = interp.send(interp.class_named("BenchMeta"), "new", [], None)
        link = MetaLink()
        link.set_meta_object(meta)
        link.set_selector("r1:r2:r3:r4:")
        link.set_arguments(("object", "selector", "arguments", "receiver"))
        link.set_control("before")
    else:
        raise ValueError("unknown linkage %r" % (linkage,))
    install(interp, link, node)


def _configure_varrw(interp, linkage):
    ast = interp.method_ast("BenchTarget", "run")
    write = find_nodes(ast, "writes-of", "v")[0]
    reads = find_nodes(ast, "reads-of", "v")
    meta = interp.send(interp.class_named("BenchMeta"), "new", [], None)
    if linkage == "empty":
        link, _ = _empty_meta_link(interp)
        install(interp, link, write)
        for r in reads:
            install(interp, link, r)
    elif linkage == "full-write":
        link = MetaLink()
        link.set_meta_object(meta)
        link.set_selector("w1:w2:w3:")
        link.set_arguments(("object", "name", "newValue"))
        link.set_control("before")
        install(interp, link, write)
    elif linkage == "full-read":
        link = MetaLink()
        link.set_meta_object(meta)
        link.set_selector("w1:w2:w3:")
        link.set_arguments(("object", "name", "value"))
        link.set_control("after")
        for r in reads:
            install(interp, link, r)
    else:
        raise ValueError("unknown linkage %r" % (linkage,))


def bench_overhead(workload="send", budget=5.0, repetitions=3,
                   seed=0) -> list[BenchReport]:
    """One report per linkage mode; overhead is relative to 'nolink'."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    if budget <= 0:
        raise BudgetExceeded("duration budget must be positive")
    source = SEND_WORKLOAD if workload == "send" else VARRW_WORKLOAD
    modes = (["nolink", "empty", "full"] if workload == "send"
             else ["nolink", "empty", "full-write", "full-read"])
    reports = []
    ref_rate = None
    for mode in modes:
        interp = Interpreter(seed=seed)
        interp.load(source)
        if mode != "nolink":
            if workload == "send":
                _configure_send(interp, mode)
            else:
                _configure_varrw(interp, mode)
        target = _new_target(interp)
        rate = _measure_rate(interp, target, budget, repetitions)
        if ref_rate is None:
            ref_rate = rate
        overhead = (ref_rate / rate - 1.0) * 100.0
        reports.append(BenchReport("%s/%s" % (workload, mode), rate,
                                   overhead, repetitions))
    return reports


# -- install cost -----------------------------------------------------------

def synthetic_corpus(method_count, methods_per_class=50):
    """Source text for `method_count` small methods spread over classes."""
    classes = []
    m = 0
    while m < method_count:
        n = min(methods_per_class, method_count - m)
        body = "\n".join(
            "    m%d [ ^ %d + self base ]" % (m + k, k) for k in range(n))
        classes.append("class Corpus%d [\n    base [ ^ 1 ]\n%s\n]"
                       % (len(classes), body))
        m += n
    return "\n".join(classes)


@contextlib.contextmanager
def gc_paused():
    """A timed window. As in `timeit`, garbage is collected first and the
    cyclic collector stays off inside the window, so a collection
    triggered by earlier work cannot land in it."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _timed(fn):
    """Seconds one call of `fn` takes, in a `gc_paused` window."""
    with gc_paused():
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start


def bench_install(method_count=2000, seed=0) -> InstallCostReport:
    """Times recompiling every corpus method vs. installing one trivial
    link on each, first with no twins woven (cold) then again when every
    twin is already present (hot); then removing the hot link from each
    method node by node (the twins stay) and uninstalling the cold link
    (which drops them). Each figure is the median over INSTALL_CYCLES
    cycles."""
    interp = Interpreter(seed=seed)
    interp.load(synthetic_corpus(method_count))
    records = []
    for name, cls in interp.classes.items():
        if name.startswith("Corpus"):
            for sel, rec in cls.methods.items():
                if sel != "base":
                    records.append((cls.name, sel, rec))
    records.sort(key=lambda t: (t[0], t[1]))

    def recompile_all():
        records[:] = [(cname, sel, interp.recompile(cname, sel,
                                                    rec.original_source))
                      for cname, sel, rec in records]

    def trivial_link():
        link = MetaLink()
        link.set_meta_object(HostFunction(lambda: None, "a no-op"))
        link.set_selector("value")
        link.set_control("before")
        return link

    def on_every_method(op, link):
        for _cname, _sel, rec in records:
            op(interp, link, rec.original_ast)

    # Uninstalling the cold link drops every twin, so each cycle starts
    # from the same state; the median of each operation over the cycles
    # keeps one preempted window from deciding an ordering.
    samples = []
    for _ in range(INSTALL_CYCLES):
        cold, hot = trivial_link(), trivial_link()
        samples.append((_timed(recompile_all),
                        _timed(lambda: on_every_method(install, cold)),
                        _timed(lambda: on_every_method(install, hot)),
                        _timed(lambda: on_every_method(remove, hot)),
                        _timed(lambda: uninstall(interp, cold))))
    return InstallCostReport(len(records), *(statistics.median(times)
                                             for times in zip(*samples)))


# -- formatting -------------------------------------------------------------

def format_overhead_table(reports):
    lines = ["%-18s %14s %12s" % ("scenario", "execs/sec", "overhead %")]
    for r in reports:
        lines.append("%-18s %14.1f %12.2f" % (r.scenario, r.rate,
                                              r.overhead_percent))
    return "\n".join(lines)


def format_install_table(report):
    rows = [("recompile", report.recompile_seconds),
            ("install (cold)", report.cold_install_seconds),
            ("install (hot)", report.hot_install_seconds),
            ("remove (hot)", report.remove_seconds),
            ("uninstall", report.uninstall_seconds)]
    lines = ["%-16s %12s" % ("operation", "seconds"),
             "methods: %d" % report.method_count]
    for name, secs in rows:
        lines.append("%-16s %12.4f" % (name, secs))
    return "\n".join(lines)
