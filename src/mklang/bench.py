"""Benchmark harness: instrumentation overhead and link install cost.

Overhead is the time of a tiny method under each LINKAGES row over its
time unlinked, from `ratios`, whose pairs of adjacent windows cancel a
drift in the host's speed. Install cost compares recompiling a synthetic
corpus with installing, removing and uninstalling links on every method;
those phases depend on one another and cannot be paired, so each is a
median from `medians`. Only orderings and signs are meaningful.

`counts` gives exact costs that do not drift with the host: the CPython
bytecodes and the Python calls an operation executes. The tests gate on
them: the unlinked path costs not one bytecode more beside a linked
method, and a linked trigger stays within a budget of Python calls.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import BudgetExceeded
from .interpreter import Interpreter
from .links import MetaLink, install, remove, uninstall
from .nodes import find_nodes
from .values import HostFunction

INSTALL_CYCLES = 3
CHUNK = 64          # sends between clock reads in a calibrating window
WINDOW = 0.02       # seconds of no-link calls in each window of a pair

_META = """
class BenchMeta [
    empty [ ]
    r1: a r2: b r3: c r4: d [ ]
    w1: a w2: b w3: c [ ]
]
"""

SEND_WORKLOAD = _META + """
class BenchTarget [
    run [ ^ self step ]
    step [ ^ 1 ]
]
"""

VARRW_WORKLOAD = _META + """
class BenchTarget [ |v|
    initialize [ v := 0 ]
    run [ v := v + 1. ^ v ]
]
"""

WORKLOADS = {"send": SEND_WORKLOAD, "varrw": VARRW_WORKLOAD}

# Workload -> mode -> (sites: a node query on BenchTarget>>run, selector,
# reifications, control). Each `full*` row has an `empty*` row on the same
# sites and control, so the difference between them is reification.
LINKAGES = {
    "send": {
        "nolink": (None, None, (), None),
        "empty": (("sends-of", "step"), "empty", (), "before"),
        "full": (("sends-of", "step"), "r1:r2:r3:r4:",
                 ("object", "selector", "arguments", "receiver"), "before"),
    },
    "varrw": {
        "nolink": (None, None, (), None),
        "empty-write": (("writes-of", "v"), "empty", (), "before"),
        "full-write": (("writes-of", "v"), "w1:w2:w3:",
                       ("object", "name", "newValue"), "before"),
        "empty-read": (("reads-of", "v"), "empty", (), "after"),
        "full-read": (("reads-of", "v"), "w1:w2:w3:",
                      ("object", "name", "value"), "after"),
    },
}


@dataclass
class BenchReport:
    scenario: str
    rate: float                   # executions per second
    overhead_percent: float       # vs. the nolink reference

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


@contextmanager
def _gc_paused():
    """As in `timeit`, the cyclic GC collects first and stays off, so no
    collection lands in a timed window."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _seconds(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _timed(fn):
    """Seconds one call of `fn` takes, with the GC paused."""
    with _gc_paused():
        return _seconds(fn)


def medians(fns, rounds):
    """Median seconds of each of `fns`, timed once per round in order."""
    samples = [[] for _ in fns]
    for _ in range(rounds):
        for times, fn in zip(samples, fns):
            times.append(_timed(fn))
    return [statistics.median(times) for times in samples]


def ratios(fn_a, fn_b, pairs):
    """Median over `pairs` pairs of adjacent windows of `fn_a`'s seconds
    over `fn_b`'s. The windows run in ABBA order (A B, B A, A B, ...) with
    the GC paused throughout, so a drift in the host's speed that is slow
    next to one window cancels within its pair, and one the order would
    favour cancels across pairs. Give each window a fixed amount of work
    and keep it short."""
    found = []
    with _gc_paused():
        for k in range(pairs):
            if k % 2:
                b = _seconds(fn_b)
                a = _seconds(fn_a)
            else:
                a = _seconds(fn_a)
                b = _seconds(fn_b)
            found.append(a / b)
    return statistics.median(found)


def _bytecodes(fn, n):
    """CPython bytecodes the calling thread executes in `fn(n)`."""
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    sys.settrace(call)
    try:
        fn(n)
    finally:
        sys.settrace(None)
    return count


def _python_calls(fn, n):
    """Python frames the calling thread starts in `fn(n)`; C calls are not
    counted."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        fn(n)
    finally:
        sys.setprofile(None)
    return count


def counts(fn, n):
    """`(bytecodes, calls)`: the CPython bytecodes and the Python calls
    that `n` calls of the operation `fn(k)` (which runs it `k` times)
    execute, each the count of `fn(2n)` minus that of `fn(n)`, after one
    `fn(n)` warmed every cache. The warm-up is traced: on CPython 3.12 and
    3.13 the first traced run of a code object misses opcode events. Unlike
    a time, a count does not drift with the host; it differs between
    CPython versions, so compare counts taken in one process. The GC stays
    off throughout."""
    with _gc_paused():
        _bytecodes(fn, n)
        return tuple(measure(fn, 2 * n) - measure(fn, n)
                     for measure in (_bytecodes, _python_calls))


def configure(interp, workload, mode):
    """Install `mode`'s link from LINKAGES on the loaded `workload`."""
    sites, selector, reifications, control = LINKAGES[workload][mode]
    if sites is None:
        return
    link = MetaLink()
    link.set_meta_object(
        interp.send(interp.class_named("BenchMeta"), "new", [], None))
    link.set_selector(selector)
    link.set_arguments(reifications)
    link.set_control(control)
    for node in find_nodes(interp.method_ast("BenchTarget", "run"), *sites):
        install(interp, link, node)


def runner(workload, mode):
    """`run(n)` sends #run n times to a new BenchTarget linked as `mode`."""
    interp = Interpreter()
    interp.load(WORKLOADS[workload])
    configure(interp, workload, mode)
    target = interp.send(interp.class_named("BenchTarget"), "new", [], None)
    send = interp.send

    def run(n):
        for _ in range(n):
            send(target, "run", [], None)
    return run


def _calls_per_budget(run, budget):
    """Calls of `run` per `budget` seconds, from a warm-up window."""
    count = 0
    def fill():
        nonlocal count
        deadline = time.perf_counter() + budget
        while time.perf_counter() < deadline:
            run(CHUNK)
            count += CHUNK
    elapsed = _timed(fill)
    return max(1, round(count * budget / elapsed))


def bench_overhead(workload="send", budget=5.0) -> list[BenchReport]:
    """One report per linkage mode; overhead is relative to 'nolink'. Both
    sides of each pair make the calls that fill one WINDOW unlinked, in as
    many pairs per mode as `budget` seconds would hold with no link."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    if not 0 < budget < float("inf"):
        raise BudgetExceeded("duration budget must be positive and finite")
    modes = list(LINKAGES[workload])
    nolink, *linked = [runner(workload, mode) for mode in modes]
    n = _calls_per_budget(nolink, WINDOW)
    pairs = max(1, round(budget / (2 * WINDOW)))
    found = [1.0] + [ratios(lambda run=run: run(n), lambda: nolink(n), pairs)
                     for run in linked]
    return [BenchReport("%s/%s" % (workload, mode), n / WINDOW / ratio,
                        (ratio - 1.0) * 100.0)
            for mode, ratio in zip(modes, found)]


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


def bench_install(method_count=2000) -> InstallCostReport:
    """Times recompiling every corpus method vs. installing one trivial
    link on each, first with no twins woven (cold) then again when every
    twin is present (hot); then removing the hot link from each method
    node by node (the twins stay) and uninstalling the cold link (which
    drops them), so each of the INSTALL_CYCLES rounds starts alike."""
    interp = Interpreter()
    interp.load(synthetic_corpus(method_count))
    records = [rec for name, cls in interp.classes.items()
               if name.startswith("Corpus")
               for sel, rec in cls.methods.items() if sel != "base"]

    def recompile_all():
        records[:] = [interp.recompile(rec.signature.class_name,
                                       rec.signature.selector,
                                       rec.original_source)
                      for rec in records]

    def on_every_method(op, link):
        for rec in records:
            op(interp, link, rec.original_ast)

    # The median over the rounds keeps one preempted window from
    # deciding an ordering.
    cold, hot = MetaLink(), MetaLink()
    for link in (cold, hot):
        link.set_meta_object(HostFunction(lambda: None, "a no-op"))
        link.set_selector("value")
    return InstallCostReport(len(records), *medians(
        [recompile_all,
         lambda: on_every_method(install, cold),
         lambda: on_every_method(install, hot),
         lambda: on_every_method(remove, hot),
         lambda: uninstall(interp, cold)], INSTALL_CYCLES))


# -- formatting -------------------------------------------------------------

def format_overhead_table(reports):
    return "\n".join(
        ["%-18s %14s %12s" % ("scenario", "execs/sec", "overhead %")]
        + ["%-18s %14.1f %12.2f" % (r.scenario, r.rate, r.overhead_percent)
           for r in reports])


def format_install_table(report):
    rows = [("recompile", report.recompile_seconds),
            ("install (cold)", report.cold_install_seconds),
            ("install (hot)", report.hot_install_seconds),
            ("remove (hot)", report.remove_seconds),
            ("uninstall", report.uninstall_seconds)]
    return "\n".join(["%-16s %12s" % ("operation", "seconds"),
                      "methods: %d" % report.method_count]
                     + ["%-16s %12.4f" % row for row in rows])
