import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mklang import Interpreter
from mklang.errors import MkRuntimeError, UnknownVariable
from mklang.nodes import find_nodes
from mklang.tools import set_breakpoint, trace_count, watch_variable
from progen import gen_program

SOURCE = """class Acct [ | balance |
    initialize [ balance := 0 ]
    deposit: n [ balance := balance + n. self audit ]
    audit [ ^ balance ]
    balance [ ^ balance ]
]
"""


@pytest.fixture
def interp():
    i = Interpreter()
    i.run(SOURCE)
    return i


# -- breakpoints ------------------------------------------------------------

def test_breakpoint_at_method_entry_halts_before_the_body(interp):
    bp = set_breakpoint(interp, "Acct", "deposit:")
    result = interp.run("| a | a := Acct new. a deposit: 5. a balance logCr")
    assert result.signal is not None
    assert interp.run("Acct new balance logCr").output != ""  # still usable
    bp.remove()
    assert interp.run(
        "| a | a := Acct new. a deposit: 5. a balance logCr").output == "5\n"


def test_breakpoint_preserves_state_up_to_the_site(interp):
    # Oracle: run without the breakpoint and snapshot just before the site.
    set_breakpoint(interp, "Acct", "deposit:", "send-of", "audit")
    result = interp.run("""| a |
a := Acct new. 'pre' logCr. a deposit: 7""")
    assert result.output == "pre\n"
    assert result.signal is not None
    # The write before the halt site already happened.
    acct = interp.run("^ Acct new").value
    try:
        interp.send(acct, "deposit:", [7], None)
    except Exception:
        pass
    assert acct.slots["balance"] == 7


def test_breakpoint_at_statement(interp):
    bp = set_breakpoint(interp, "Acct", "deposit:", "statement-at", 2)
    acct = interp.run("^ Acct new").value
    result = interp.run("Acct new deposit: 3")
    assert result.signal is not None
    bp.remove()
    assert acct.slots["balance"] == 0


def test_breakpoint_site_must_exist(interp):
    with pytest.raises(MkRuntimeError):
        set_breakpoint(interp, "Acct", "audit", "send-of", "nothing")
    with pytest.raises(MkRuntimeError):
        set_breakpoint(interp, "Acct", "audit", "bogus-site")


def test_object_centric_breakpoint_halts_only_the_target(interp):
    target = interp.run("^ Acct new").value
    other = interp.run("^ Acct new").value
    set_breakpoint(interp, "Acct", "deposit:", target=target)
    interp.send(other, "deposit:", [1], None)        # no halt
    assert other.slots["balance"] == 1
    from mklang.errors import HaltSignal
    with pytest.raises(HaltSignal):
        interp.send(target, "deposit:", [1], None)


# -- watchpoints ------------------------------------------------------------

def test_watch_records_every_write_in_order(interp):
    interp.run("""class Wr [ | x |
    fill [ x := 1. x := 2 ]
]""")
    watch = watch_variable(interp, "Wr", "x")
    interp.run("Wr new fill")
    assert [(v, sig) for _, v, sig in watch.history] == \
        [(1, "Wr>>fill"), (2, "Wr>>fill")]


def test_watch_is_cross_cutting_over_all_methods(interp):
    watch = watch_variable(interp, "Acct", "balance")
    interp.run("| a | a := Acct new. a deposit: 2. a deposit: 3")
    assert [v for _, v, _ in watch.history] == [0, 2, 5]
    sigs = {sig for _, _, sig in watch.history}
    assert sigs == {"Acct>>initialize", "Acct>>deposit:"}


def test_watch_unknown_variable(interp):
    with pytest.raises(UnknownVariable):
        watch_variable(interp, "Acct", "nope")


def test_watch_reads_option(interp):
    watch = watch_variable(interp, "Acct", "balance", include_reads=True)
    interp.run("| a | a := Acct new. a balance")
    values = [v for _, v, _ in watch.history]
    assert values == [0, 0]             # the initialize write + one read


def test_watch_remove_stops_recording(interp):
    watch = watch_variable(interp, "Acct", "balance", persistent=True)
    interp.run("Acct new deposit: 1")
    n = len(watch.history)
    watch.remove()
    interp.run("Acct new deposit: 1")
    assert len(watch.history) == n
    assert interp.compile_hooks == []


def test_plain_watch_dies_on_recompile_persistent_survives(interp):
    plain = watch_variable(interp, "Acct", "balance")
    persistent = watch_variable(interp, "Acct", "balance", persistent=True)
    record = interp.lookup_method("Acct", "deposit:")
    interp.recompile("Acct", "deposit:", record.original_source)
    interp.run("Acct new deposit: 4")
    plain_values = [v for _, v, _ in plain.history]
    persistent_values = [v for _, v, _ in persistent.history]
    assert plain_values == [0]                  # initialize only
    assert persistent_values == [0, 4]


def test_a_persistent_watch_covers_subclasses_and_later_loads():
    """The watch records the slot's writes in a subclass, in a method a
    later load adds, in a method a later load redefines, and in a
    subclass a later load defines."""
    interp = Interpreter()
    interp.run("""class Counter [ | count |
    initialize [ count := 0 ]
    bump [ count := count + 1 ]
]
class Sub extends Counter [ bumpSub [ count := 100 ] ]""")
    watch = watch_variable(interp, "Counter", "count", persistent=True)
    interp.run("Sub new bumpSub")
    interp.load("class Counter [ reset [ count := 7 ] ]")
    interp.run("Counter new reset")
    interp.load("class Counter [ bump [ count := 42 ] ]")
    interp.run("Counter new bump")
    interp.load("class Later extends Sub [ set [ count := 5 ] ]")
    interp.run("Later new set")
    init = (0, "Counter>>initialize")
    assert [(v, sig) for _, v, sig in watch.history] == [
        init, (100, "Sub>>bumpSub"), init, (7, "Counter>>reset"),
        init, (42, "Counter>>bump"), init, (5, "Later>>set")]


def test_persistent_watch_recompile_equivalence(interp):
    """persistent watch + identity recompile == never recompiling."""
    a = Interpreter()
    a.run(SOURCE)
    watch_a = watch_variable(a, "Acct", "balance", persistent=True)
    a.run("| x | x := Acct new. x deposit: 1. x deposit: 2")

    b = Interpreter()
    b.run(SOURCE)
    watch_b = watch_variable(b, "Acct", "balance", persistent=True)
    b.run("| x | x := Acct new. x deposit: 1")
    record = b.lookup_method("Acct", "deposit:")
    b.recompile("Acct", "deposit:", record.original_source)
    b.run("| x | x := Acct new. x deposit: 1. x deposit: 2")

    tail = [(v, sig) for _, v, sig in watch_b.history][-3:]
    assert tail == [(v, sig) for _, v, sig in watch_a.history][-3:]


SHADOWED = """class Acct [ | balance |
    initialize [ balance := 0 ]
    shadow [ | balance | balance := 99. ^ balance ]
    viaBlock [ #(1 2) do: [ :balance | balance ] ]
    deposit: balance [ ^ balance ]
    peek [ ^ [ balance ] value ]
]
"""


def test_a_watch_skips_names_that_hide_the_slot():
    interp = Interpreter()
    interp.run(SHADOWED)
    watch = watch_variable(interp, "Acct", "balance", persistent=True,
                           include_reads=True)
    program = "| a | a := Acct new. a shadow. a viaBlock. a deposit: 5. a peek"
    slot_only = [(0, "Acct>>initialize"), (0, "Acct>>peek")]
    interp.run(program)
    assert [(v, sig) for _, v, sig in watch.history] == slot_only
    # A persistent watch attaches to a recompiled method by the same rule.
    for selector in ("shadow", "viaBlock", "deposit:", "peek"):
        record = interp.lookup_method("Acct", selector)
        interp.recompile("Acct", selector, record.original_source)
    del watch.history[:]
    interp.run(program)
    assert [(v, sig) for _, v, sig in watch.history] == slot_only


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_watch_completeness_on_random_programs(seed):
    rng = random.Random(seed)
    source, specs = gen_program(rng)
    cname = specs[0][0]
    # Classes first, then the driver (which starts at its temp decl);
    # loaded separately so re-running the driver never redefines classes.
    lines = source.splitlines()
    cut = next(i for i, l in enumerate(lines) if l.startswith("| v0"))
    classes, driver = "\n".join(lines[:cut]), "\n".join(lines[cut:])

    # Brute-force oracle: count slot writes with a wrapped write_var and
    # no links installed anywhere.
    oracle = Interpreter()
    oracle.run(classes)
    slot = oracle.class_named(cname).slot_names[0]
    writes = []
    original = oracle.write_var

    def counting(name, value, act, node=None):
        home = act.home
        if name == slot and home.method is not None \
                and home.method.signature.class_name == cname:
            writes.append(value)
        return original(name, value, act, node)

    oracle.write_var = counting
    oracle.run(driver)

    watched = Interpreter()
    watched.run(classes)
    watch = watch_variable(watched, cname, slot)
    watched.run(driver)
    assert [v for _, v, _ in watch.history] == writes


# -- trace counter ----------------------------------------------------------

def test_trace_counter_counts_loop_bound(interp):
    node = find_nodes(interp.method_ast("Acct", "audit"),
                      "reads-of", "balance")[0]
    counter = trace_count(interp, [node])
    interp.run("| a | a := Acct new. 10 timesRepeat: [ a audit ]")
    assert counter.counts == {node.id: 10}
    assert counter.total == 10


def test_one_link_spans_operation_kinds_and_classes(interp):
    interp.run("class Other [ | y | poke [ y := 1. ^ y ] ]")
    read = find_nodes(interp.method_ast("Acct", "audit"),
                      "reads-of", "balance")[0]
    write = find_nodes(interp.method_ast("Other", "poke"),
                       "writes-of", "y")[0]
    send = find_nodes(interp.method_ast("Acct", "deposit:"),
                      "sends-of", "audit")[0]
    counter = trace_count(interp, [read, write, send])
    interp.run("Acct new deposit: 1. Other new poke")
    assert counter.counts == {read.id: 1, write.id: 1, send.id: 1}
    assert counter.total == 3


def test_trace_counter_with_false_condition(interp):
    node = find_nodes(interp.method_ast("Acct", "audit"),
                      "reads-of", "balance")[0]
    counter = trace_count(interp, [node], condition=False)
    interp.run("| a | a := Acct new. 5 timesRepeat: [ a audit ]")
    assert counter.total == 0


def test_counts_only_increase(interp):
    node = find_nodes(interp.method_ast("Acct", "audit"),
                      "reads-of", "balance")[0]
    counter = trace_count(interp, [node])
    last = 0
    for _ in range(5):
        interp.run("Acct new audit")
        assert counter.total >= last
        last = counter.total


# -- language surface -------------------------------------------------------

def test_breakpoint_builtin_surface(interp):
    result = interp.run("""| b |
b := Breakpoint onClass: #Acct selector: #audit.
Acct new audit""")
    assert result.signal is not None
    result = interp.run("""| b |
b := Breakpoint onClass: #Acct selector: #balance.
b remove.
Acct new balance logCr""")
    assert result.output == "0\n" and result.signal is None


def test_watch_builtin_surface(interp):
    result = interp.run("""| w |
w := Watch class: #Acct variable: #balance persistent: false.
Acct new deposit: 9.
w size logCr.
w logCr""")
    assert result.output == "2\na Watch (Acct.balance, 2 events)\n"


# -- lifetime ---------------------------------------------------------------

def test_an_interpreter_with_tools_is_freed_without_the_cyclic_gc():
    """A tool holds its interpreter weakly, so neither a tool's link in
    the registry nor a tool in an mklang global makes a cycle through
    the interpreter."""
    gc.collect()
    gc.disable()
    try:
        interp = Interpreter()
        interp.run(SOURCE)
        tools = [watch_variable(interp, "Acct", "balance", persistent=True),
                 trace_count(interp, [interp.method_ast("Acct", "audit")]),
                 set_breakpoint(interp, "Acct", "balance")]
        interp.run("W := Watch class: #Acct variable: #balance "
                   "persistent: true. Acct new deposit: 2")
        assert [t.interp for t in tools] == [interp] * 3
        assert tools[0].history and tools[1].total == 1
        dead = weakref.ref(interp)
        del interp
        assert dead() is None
    finally:
        gc.enable()
    for tool in tools:
        assert tool.interp is None
        tool.remove()
        tool.remove()
