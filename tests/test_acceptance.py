"""End-to-end acceptance gate.

One test (or small group) per shipped guarantee: bundled-example
conformance, the reification applicability matrix, identity restoration
after uninstall, execution-level discipline, object-centric isolation,
twin lifecycle, benchmark orderings, the zero-cost unlinked baseline,
and persistent watchpoints. Tolerances are stated inline; everything
else is exact.
"""

import random
import time
from types import SimpleNamespace

import pytest

from mklang import Interpreter, MetaLink
from mklang.bench import (
    SEND_WORKLOAD, _calls_per_budget, bench_install, bench_overhead, counts,
    ratios, runner,
)
from mklang.errors import (
    HaltSignal, InapplicableReification, MkError, PhaseUnavailable,
)
from mklang.interpreter import Activation, CompiledMethodRecord
from mklang.links import (
    descend, install, remove, uninstall, validate_link,
)
from mklang.listings import run_all
from mklang.tools import trace_count
from mklang.nodes import AstNode, find_nodes, id_interval
from mklang.reify import (
    APPLICABILITY, TriggerContext, resolve, table_kind,
)
from mklang.values import HostFunction
from progen import (
    gen_link, gen_program, installable_nodes, user_records, woven_from_scratch,
)


# 1. Bundled examples reproduce their documented behavior, < 5 s total.

def test_examples_conformance():
    start = time.monotonic()
    results = run_all(seed=0)
    elapsed = time.monotonic() - start
    assert len(results) == 7
    for r in results:
        assert r.passed, "listing %d (%s): expected %r, got %r" % (
            r.index, r.title, r.expected, r.actual)
    assert elapsed < 5.0


# 2. Reification applicability matrix: every kind x node-category cell.

MATRIX_SOURCE = """class Mx [ | s |
    probe: p [ | t |
        t := p + 1.
        s := t.
        [ :x | x ] value: t.
        ^ s
    ]
]
"""

CATEGORIES = ("message", "method", "block", "variable", "assignment",
              "return", "other")


def _matrix_fixture():
    interp = Interpreter()
    interp.run(MATRIX_SOURCE)
    record = interp.lookup_method("Mx", "probe:")
    ast = record.original_ast
    nodes = {
        "method": ast,
        "message": find_nodes(ast, "sends-of", "+")[0],
        "block": [n for n in ast.walk() if n.kind == "Block"][0],
        "variable": find_nodes(ast, "reads-of", "t")[0],
        "assignment": find_nodes(ast, "writes-of", "s")[0],
        "return": [n for n in ast.walk() if n.kind == "Return"][0],
        "other": [n for n in ast.walk() if n.kind == "Literal"][0],
    }
    receiver = interp.send(interp.class_named("Mx"), "new", [], None)
    act = Activation(receiver, record, None)
    act.temps["t"] = 4
    return interp, nodes, act


def _context(interp, node, act, kind):
    # Fields set as `Interpreter._trigger` sets them.
    ctx = TriggerContext()
    ctx.interp, ctx.node, ctx.activation = interp, node, act
    ctx.phase, ctx.perform, ctx.operation = "before", lambda: 4, None
    ctx.pending_receiver, ctx.pending_args = 3, [1]
    ctx.pending_value, ctx.current_link = 4, MetaLink()
    # #value exists only after a send/read has produced it, but on a
    # return node only before the unwind discards the frame.
    category = table_kind(node)
    if kind == "value" and category in ("message", "variable"):
        ctx.phase = "after"
    return ctx


def test_reification_matrix_cells():
    interp, nodes, act = _matrix_fixture()
    checked = 0
    for kind, allowed in sorted(APPLICABILITY.items()):
        for category in CATEGORIES:
            node = nodes[category]
            ctx = _context(interp, node, act, kind)
            if category not in allowed:
                with pytest.raises(InapplicableReification):
                    resolve(kind, ctx)
            elif kind == "newValue" and category == "variable":
                # Applicable by the table, but a read never changes the
                # value, so resolution is a phase failure, never silent.
                with pytest.raises(PhaseUnavailable):
                    resolve(kind, ctx)
            else:
                resolve(kind, ctx)
            checked += 1
    assert len(APPLICABILITY) == 17
    assert "index" not in APPLICABILITY
    assert checked == 17 * len(CATEGORIES)


def test_unknown_reification_kind_rejected():
    interp, nodes, act = _matrix_fixture()
    with pytest.raises(InapplicableReification):
        resolve("index", _context(interp, nodes["method"], act, "index"))


# 3. Identity restoration: install + uninstall leaves behavior untouched,
#    200/200 randomized programs, < 60 s.

def _split_driver(source):
    lines = source.splitlines()
    cut = next(i for i, l in enumerate(lines) if l.startswith("| v0"))
    return "\n".join(lines[:cut]), "\n".join(lines[cut:])


def test_identity_restoration_on_200_random_programs():
    start = time.monotonic()
    for seed in range(200):
        rng = random.Random(seed)
        source, _specs = gen_program(rng)
        classes, driver = _split_driver(source)

        oracle = Interpreter()
        oracle.run(classes)
        expected = oracle.run(driver).output

        interp = Interpreter()
        interp.run(classes)
        nodes = [n for rec in user_records(interp)
                 for n in installable_nodes(rec)]
        links = []
        taken_instead = set()
        for _ in range(rng.randint(1, 5)):
            node = rng.choice(nodes)
            link = gen_link(rng, node, sink=[],
                            allow_instead=node.id not in taken_instead)
            if link.control == "instead":
                taken_instead.add(node.id)
            install(interp, link, node)
            links.append(link)
        try:
            interp.run(driver)      # output here is deliberately ignored
        except MkError:
            pass                    # a link may legitimately disrupt a run
        for link in links:
            uninstall(interp, link)
        actual = interp.run(driver).output
        assert actual == expected, "seed %d diverged after uninstall" % seed
    assert time.monotonic() - start < 60.0


# 4. Level discipline: fuzzed meta nests of depth <= 4; a level-i link
#    only ever observes meta_level == i + 1, the base level is restored
#    after every run including Halt exits, and level-0 links never fire
#    from meta-level control flow.

def _nest_interp(depth):
    interp = Interpreter()
    interp.run("class Nest [ %s ]"
               % " ".join("m%d [ ^ %d ]" % (i, i) for i in range(depth + 1)))
    return interp


@pytest.mark.parametrize("fuzz_seed", range(12))
def test_level_discipline(fuzz_seed):
    rng = random.Random(fuzz_seed)
    depth = rng.randint(1, 4)
    interp = _nest_interp(depth)
    interp.run("nest := Nest new")
    target = interp.globals["nest"]
    observed = {i: [] for i in range(depth)}
    base_fires = []

    def meta_for(i):
        def fire():
            observed[i].append(interp.meta_level)
            if i + 1 < depth:
                interp.send(target, "m%d" % (i + 1), [], None)
            interp.send(target, "m0", [], None)   # must NOT re-trigger L0
        return fire

    for i in range(depth):
        link = MetaLink()
        link.set_meta_object(HostFunction(meta_for(i), "level %d meta" % i))
        link.set_selector("value")
        link.set_level(i)
        install(interp, link, interp.method_ast("Nest", "m%d" % i))
    zero = MetaLink()
    zero.set_meta_object(HostFunction(
        lambda: base_fires.append(interp.meta_level), "base counter"))
    zero.set_selector("value")
    zero.set_level(0)
    install(interp, zero, interp.method_ast("Nest", "m0"))

    runs = rng.randint(1, 3)
    for _ in range(runs):
        interp.run("nest m0")
    for i in range(depth):
        assert observed[i] and all(lvl == i + 1 for lvl in observed[i])
    # Level-0 links fired exactly once per base-level run of m0 (their
    # metas observe level 1), despite every meta also calling m0.
    assert base_fires == [1] * runs
    assert interp.meta_level == 0


def _raise_halt():
    raise HaltSignal(["halting meta"])


def test_meta_level_restored_after_halt():
    interp = _nest_interp(2)
    link = MetaLink()
    link.set_meta_object(HostFunction(_raise_halt, "a halting meta"))
    link.set_selector("value")
    install(interp, link, interp.method_ast("Nest", "m0"))
    result = interp.run("Nest new m0")
    assert result.signal is not None
    assert interp.meta_level == 0
    # Halt raised from a deeper meta level unwinds cleanly too.
    deep = MetaLink()
    deep.set_meta_object(HostFunction(_raise_halt, "a deep halting meta"))
    deep.set_selector("value")
    deep.set_level(1)
    install(interp, deep, interp.method_ast("Nest", "m1"))
    link.set_meta_object(HostFunction(
        lambda: interp.send(interp.globals["nest"], "m1", [], None),
        "an escalating meta"))
    interp.run("nest := Nest new")
    result = interp.run("nest m0")
    assert result.signal is not None
    assert interp.meta_level == 0


# 5. Object-centric isolation: 7 targets out of 100, exact identity match.

def test_object_centric_isolation_100_objects():
    interp = Interpreter()
    interp.run("class Cell [ | n | initialize [ n := 0 ] "
               "tick [ n := n + 1 ] ]")
    cell = interp.class_named("Cell")
    population = [interp.send(cell, "new", [], None) for _ in range(100)]
    rng = random.Random(42)
    chosen = rng.sample(population, 7)
    fired = []
    link = MetaLink()
    link.set_meta_object(HostFunction(fired.append, "an identity recorder"))
    link.set_selector("value:")
    link.set_arguments(("object",))
    for target in chosen:
        install(interp, link, interp.method_ast("Cell", "tick"), target)

    order = list(population) * 3
    rng.shuffle(order)
    for obj in order:
        interp.send(obj, "tick", [], None)

    chosen_ids = {id(o) for o in chosen}
    assert {id(o) for o in fired} == chosen_ids
    expected_counts = {id(o): 3 for o in chosen}
    actual_counts = {}
    for o in fired:
        actual_counts[id(o)] = actual_counts.get(id(o), 0) + 1
    assert actual_counts == expected_counts
    for obj in population:                      # behavior itself unchanged
        assert obj.slots["n"] == 3


# 6. Twin lifecycle: 500 randomized steps; twin exists iff links remain.

def test_twin_lifecycle_500_step_fuzzer():
    rng = random.Random(7)
    source, _specs = gen_program(rng)
    classes, _driver = _split_driver(source)
    interp = Interpreter()
    interp.run(classes)
    live = []                                   # [(link, node)]
    originals = {}          # node id -> (node, its fields, its children)
    leaf_hooks = set()      # ids of leaves that were hooked
    fields = [f for f in AstNode.__slots__ if f != "children"]

    def shape(root):
        return [(n.kind, n.id) for n in root.walk()]

    def check_invariant():
        # One owner entry per live method, and each method's nodes are the
        # interval of ids its record holds.
        assert len(interp.node_owner) == sum(
            isinstance(m, CompiledMethodRecord)
            for cls in interp.classes.values() for m in cls.methods.values())
        for rec in user_records(interp):
            index = {n.id: n for n in rec.original_ast.walk()}
            assert sorted(index) == list(rec.node_ids) \
                == list(id_interval(rec.original_ast))
            # Weaving and unweaving never write an original node: every
            # field keeps its value, and `children` is the same object
            # holding the same nodes.
            for nid, node in index.items():
                seen = originals.setdefault(nid, (
                    node, [getattr(node, f) for f in fields],
                    node.children, list(node.children)))
                assert seen[0] is node
                assert [getattr(node, f) for f in fields] == seen[1]
                assert node.children is seen[2]
                assert len(node.children) == len(seen[3])
                assert all(a is b for a, b in zip(node.children, seen[3]))
            has_links = any(interp.registry.has_links(nid)
                            for nid in rec.node_ids)
            assert (rec.twin is not None) == has_links
            if rec.twin is None:
                continue
            # The hook table maps exactly the linked ids, each to the
            # original node, and the twin edited in place must equal one
            # woven from scratch.
            twin = rec.twin
            linked = interp.registry.linked_ids(rec.node_ids)
            assert twin.hook_table.keys() == linked
            for nid in linked:
                assert twin.hook_table[nid] is descend(rec.original_ast,
                                                       nid)[0]
            reference = woven_from_scratch(interp, rec)
            assert reference.hook_table == twin.hook_table
            assert shape(twin.woven_ast) == shape(reference.woven_ast) == \
                shape(rec.original_ast)
            # Only the spine is copied: a node in `copies` is fresh, has
            # its original's fields and child ids, and holds each child
            # that is in `copies` as that copy; every other node reached
            # is the original itself.
            reached = set()
            for node in twin.woven_ast.walk():
                original = index[node.id]
                assert [c.id for c in node.children] == \
                    [c.id for c in original.children]
                if node.id in twin.copies:
                    reached.add(node.id)
                    assert twin.copies[node.id] is node
                    assert node is not original
                    assert node is not reference.copies.get(node.id)
                    assert [getattr(node, f) for f in fields] == \
                        [getattr(original, f) for f in fields]
                    for c in node.children:
                        assert c is twin.copies.get(c.id, index[c.id])
                    # A copy has its own `children` list; a leaf's copy,
                    # like the leaf, holds the shared empty tuple.
                    if original.children:
                        assert type(node.children) is list
                        assert node.children is not original.children
                    else:
                        assert type(node.children) is tuple
                        assert node.children is original.children
                        leaf_hooks.add(node.id)
                else:
                    assert node is original
            assert reached == twin.copies.keys()
        # The registry's sites are exactly the inverse of its buckets, each
        # site with a snapshot, and every snapshot is valid on every node
        # its link sits on.
        reg = interp.registry
        inverse = {}
        for nid, bucket in reg.class_wide.items():
            for link in bucket:
                inverse.setdefault(link, set()).add((nid, None))
        for nid, per_obj in reg.object_centric.items():
            for target, bucket in per_obj.items():
                for link in bucket:
                    inverse.setdefault(link, set()).add((nid, target))
        assert {link: set(sites) for link, sites in reg.sites.items()} \
            == inverse
        assert reg.configs.keys() == reg.sites.keys()
        for link, sites in reg.sites.items():
            for (nid, _target), node in sites.items():
                owner = interp.node_owner.get(nid)
                assert owner is not None
                assert descend(owner.original_ast, nid)[0] is node
            cfg = reg.configs[link]
            snapshot = SimpleNamespace(
                meta_object=cfg.meta_object, selector=cfg.selector,
                reification_requests=cfg.arguments,
                condition=cfg.condition, condition_args=cfg.condition_args)
            validate_link(interp, snapshot, sites.values())

    check_invariant()
    for step in range(500):
        action = rng.random()
        records = user_records(interp)
        if action < 0.45 or not live:
            rec = rng.choice(records)
            node = rng.choice(installable_nodes(rec))
            link = gen_link(rng, node, sink=[], allow_instead=False)
            install(interp, link, node)
            live.append((link, node))
        elif action < 0.65:
            link, node = live.pop(rng.randrange(len(live)))
            remove(interp, link, node)
        elif action < 0.85:
            link, _node = live.pop(rng.randrange(len(live)))
            uninstall(interp, link)
        else:
            rec = rng.choice(records)
            sig = rec.signature
            interp.recompile(sig.class_name, sig.selector,
                             rec.original_source)
            gone = set(rec.node_ids)
            live = [(l, n) for l, n in live if n.id not in gone]
        check_invariant()
    assert len(leaf_hooks) >= 10


# 7. Benchmark orderings (directional only; absolute rates are host
#    noise): full >= empty reification overhead, the no-link self-compare
#    sits within +-5% of zero, and hot install <= cold install <= full
#    recompile over a 2000-method corpus. Whole harness < 3 min.

def test_benchmark_orderings():
    start = time.monotonic()
    # Each assertion's message shows every figure measured so far, so a
    # failure names the ordering that flipped and by how much.
    figures = []
    # The shipped harness: each mode timed against no link in 10 pairs.
    reports = bench_overhead("send", budget=0.4)
    figures += [r.record_line() for r in reports]
    assert [r.scenario for r in reports] == \
        ["send/nolink", "send/empty", "send/full"], figures
    nolink, empty, full = reports
    assert nolink.overhead_percent == 0.0, figures
    assert empty.overhead_percent > 0.0, figures
    assert full.overhead_percent >= empty.overhead_percent, figures

    # Self-compare: two identical no-link setups agree within +-5% of 0.
    # 100 pairs of adjacent 0.02 s windows: a drift in the host's speed
    # between windows cancels within a pair, and no one slow window can
    # become the median.
    run_a, run_b = runner("send", "nolink"), runner("send", "nolink")
    n = _calls_per_budget(run_a, 0.02)
    ratio = ratios(lambda: run_a(n), lambda: run_b(n), pairs=100)
    self_compare = (1.0 / ratio - 1.0) * 100.0
    figures.append("self_compare_pct=%.2f" % self_compare)
    assert abs(self_compare) <= 5.0, figures

    install_report = bench_install(method_count=2000)
    figures.append(install_report.record_line())
    assert install_report.method_count == 2000, figures
    assert install_report.hot_install_seconds \
        <= install_report.cold_install_seconds \
        <= install_report.recompile_seconds, figures
    elapsed = time.monotonic() - start
    figures.append("elapsed_s=%.1f" % elapsed)
    assert elapsed < 180.0, figures


# 8. Zero-cost baseline: unlinked code never touches the hook machinery.

def test_zero_cost_unlinked_baseline():
    interp = Interpreter()
    interp.load(SEND_WORKLOAD)
    target = interp.send(interp.class_named("BenchTarget"), "new", [], None)
    send = interp.send
    # Each call runs BenchTarget>>run and >>step: 10^6 method executions.
    for _ in range(500_000):
        send(target, "run", [], None)
    assert interp.hook_visits == 0
    assert interp.registry_consults == 0


# Exact counts (`bench.counts`) do not drift with the host. Bytecode counts
# differ between CPython versions, so a gate compares counts taken in one
# process; a fixed budget is stated in Python calls.

FIB_SOURCE = """class Fib [
    fib: n [ n < 2 ifTrue: [ ^ n ]. ^ (self fib: n - 1) + (self fib: n - 2) ]
    other [ ^ 0 ]
]
"""


def fib_runner(link_other):
    interp = Interpreter()
    interp.load(FIB_SOURCE)
    if link_other:
        trace_count(interp, [interp.method_ast("Fib", "other")])
    fib = interp.send(interp.class_named("Fib"), "new", [], None)

    def run(n):
        for _ in range(n):
            interp.send(fib, "fib:", [10], None)
    return interp, run


def test_zero_cost_in_bytecodes_beside_a_linked_method():
    plain, run_plain = fib_runner(link_other=False)
    linked, run_linked = fib_runner(link_other=True)
    assert linked.lookup_method("Fib", "other").twin is not None
    assert counts(run_linked, 5) == counts(run_plain, 5)
    assert linked.hook_visits == linked.registry_consults == 0


def traced_send_runner():
    """`runner("send", ...)` with one TraceCounter link on the send of
    #step in BenchTarget>>run."""
    interp = Interpreter()
    interp.load(SEND_WORKLOAD)
    counter = trace_count(interp, find_nodes(
        interp.method_ast("BenchTarget", "run"), "sends-of", "step"))
    target = interp.send(interp.class_named("BenchTarget"), "new", [], None)

    def run(n):
        for _ in range(n):
            interp.send(target, "run", [], None)
    return counter, run


def test_a_send_under_one_link_adds_at_most_seven_python_calls():
    # The trigger runs the hooked send's closure (instead of the plain
    # send's), _trigger, run_trigger, fire_link, resolve, the #node
    # resolver, the mirror's __init__ and the meta-object: 7 calls more
    # than an unlinked send.
    n = 100
    counter, run = traced_send_runner()
    _, linked = counts(run, n)
    _, plain = counts(runner("send", "nolink"), n)
    assert counter.total == 7 * n   # a warm-up, then 2n and n per count
    assert linked - plain <= 7 * n


# 9. Persistent variable watch across recompilation.

def test_persistent_watch_survives_recompile():
    from mklang.tools import watch_variable
    source = """class Acc [ | total |
    initialize [ total := 0 ]
    add: n [ total := total + n ]
]
"""
    interp = Interpreter()
    interp.run(source)
    plain = watch_variable(interp, "Acc", "total")
    persistent = watch_variable(interp, "Acc", "total", persistent=True)
    interp.run("a := Acc new. a add: 1")
    assert len(plain.history) == 2 and len(persistent.history) == 2

    record = interp.lookup_method("Acc", "add:")
    interp.recompile("Acc", "add:", record.original_source)
    interp.run("a add: 2")

    # The plain watch lost its link with the old AST; history stopped.
    assert [v for _, v, _ in plain.history] == [0, 1]
    # The persistent watch re-attached to the fresh AST and kept going.
    assert [v for _, v, _ in persistent.history] == [0, 1, 3]
