import gc
import random
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkbench.workloads import make_programs
from mklang import Interpreter
from mklang.errors import MkError, MkRuntimeError, PhaseUnavailable
from mklang.interpreter import run_program
from mklang.values import (
    Array, Block, HostFunction, Instance, Symbol, identical,
)


def out(source, seed=0):
    result = run_program(source, seed=seed)
    assert result.signal is None, result.trace
    return result.output


def test_integer_arithmetic_and_comparisons():
    assert out("(3 + 4 * 2) logCr") == "14\n"          # left-to-right
    assert out("(10 - 3) logCr. (7 // 2) logCr. (7 \\\\ 2) logCr") \
        == "7\n3\n1\n"
    assert out("(3 < 4) logCr. (3 >= 4) logCr. (3 = 3) logCr") \
        == "true\nfalse\ntrue\n"
    assert out("(3 max: 9) logCr. (0 - 5) abs logCr") == "9\n5\n"


def test_integer_overflow_is_an_error():
    huge = "x := %d. x := x * x. x := x * x" % (2 ** 40)
    with pytest.raises(MkRuntimeError, match="overflow"):
        run_program(huge)


@pytest.mark.parametrize("op", ["+", "-", "*", "<", "<=", ">", ">="])
@pytest.mark.parametrize("arg", ["'a'", "true", "nil", "#(1)"])
def test_integer_primitives_reject_non_integers(op, arg):
    with pytest.raises(MkRuntimeError,
                       match="an Integer argument is required"):
        run_program("3 %s %s" % (op, arg))


@pytest.mark.parametrize("source, outcome", [
    ("Integer new + 1", "Integer cannot be instantiated with #new"),
    ("Integer new negated", "Integer cannot be instantiated"),
    ("(Integer new) < 3", "Integer cannot be instantiated"),
    ("String new size", "String cannot be instantiated"),
    ("Block new value", "Block cannot be instantiated"),
    ("NodeMirror new allNodes", "NodeMirror cannot be instantiated"),
    ("Breakpoint new remove", "Breakpoint cannot be instantiated"),
    ("class I extends Integer [ ]\nI new + 1", "I cannot be instantiated"),
    ("class A2 extends Array [ ]\nA2 new size", 0),
    ("class A2 extends Array [ ]\nA2 new class == A2", True),
    ("MetaLink new isNil", False),
    ("OrderedCollection new size", 0),
    ("Random new next < 1000", True),
    ("class L extends MetaLink [ ]\nL new selector: #x",
     "L cannot be instantiated"),
    ("(Reflect class: Object selector: #logCr) link: 3",
     "a MetaLink argument is required"),
    ("MetaLink new arguments: 3", "a collection argument is required"),
    ("OrderedCollection new addAll: 3", "a collection argument is required"),
])
def test_primitives_answer_a_value_or_a_runtime_error(source, outcome):
    """`outcome` is the program's value, or the message of its error."""
    if isinstance(outcome, str):
        with pytest.raises(MkRuntimeError, match=outcome):
            Interpreter().run(source)
    else:
        assert Interpreter().run(source).value == outcome


@pytest.mark.parametrize("expr, value", [
    ("9223372036854775806 + 1", 2 ** 63 - 1),
    ("9223372036854775807 + 1", None),
    ("0 - 9223372036854775807 - 1", -2 ** 63),
    ("0 - 9223372036854775807 - 2", None),
    ("3037000499 * 3037000499", 3037000499 ** 2),
    ("4294967296 * 4294967296", None),
])
def test_integer_range_is_64_bit_with_a_trace(expr, value):
    source = "class A [ m [ ^ %s ] ]\nA new m" % expr
    if value is not None:
        assert run_program(source).value == value
        return
    with pytest.raises(MkRuntimeError, match="integer overflow") as exc:
        run_program(source)
    assert exc.value.trace[0].startswith("A>>m ")
    assert exc.value.trace[1].startswith("top-level ")


def test_division_by_zero():
    with pytest.raises(MkRuntimeError, match="division by zero"):
        run_program("1 // 0")


def test_strings_and_symbols():
    assert out("('ab', 'cd') logCr. 'ab' size logCr") == "abcd\n2\n"
    assert out("#foo logCr. #foo asString logCr. 'x' asSymbol logCr") \
        == "#foo\nfoo\n#x\n"
    assert out("('a' = 'a') logCr. (#a == #a) logCr") == "true\ntrue\n"


def test_booleans_and_control_flow():
    assert out("(1 < 2) ifTrue: [ 'y' logCr ] ifFalse: [ 'n' logCr ]") \
        == "y\n"
    assert out("false not logCr. (true and: [ false ]) logCr") \
        == "true\nfalse\n"
    assert out("| i | i := 0. [ i < 3 ] whileTrue: [ i := i + 1 ]. i logCr") \
        == "3\n"


def test_blocks_close_over_definition_scope():
    assert out("""| make add1 |
make := [ :n | [ :m | n + m ] ].
add1 := make value: 1.
(add1 value: 41) logCr
""") == "42\n"


def test_non_local_return_exits_the_home_method():
    assert out("""class T [
    find [ #(1 2 3) do: [ :e | e = 2 ifTrue: [ ^ e ] ]. ^ 0 ]
]
T new find logCr
""") == "2\n"


def test_collections():
    assert out("""| c |
c := OrderedCollection new.
c add: 3. c add: 1.
c size logCr. (c at: 2) logCr.
(c collect: [ :e | e * 10 ]) logCr.
(c includes: 3) logCr.
c removeFirst logCr. c logCr
""") == "2\n1\nan OrderedCollection (30 10)\ntrue\n3\nan OrderedCollection (1)\n"


def test_print_string_of_a_cyclic_collection():
    assert out("""| a b c |
a := OrderedCollection new. a add: a. a logCr.
b := OrderedCollection new. c := OrderedCollection new.
b add: c. c add: b. b logCr.
c := #(1). b := OrderedCollection new. b add: c. b add: c. b logCr
""") == ("an OrderedCollection (...)\n"
          "an OrderedCollection (an OrderedCollection (...))\n"
          "an OrderedCollection (#(1) #(1))\n")


def test_array_literals_are_fresh_per_evaluation():
    assert out("""class T [ a [ ^ #(1 2) ] ]
| x y |
x := T new a. y := T new a.
(x == y) logCr.
x at: 1 put: 99.
(y at: 1) logCr
""") == "false\n1\n"


def test_class_definition_slots_and_inheritance():
    assert out("""class A [ | x | x [ ^ x ] setX: v [ x := v ] kind [ ^ 'a' ] ]
class B extends A [ kind [ ^ 'b', super kind ] ]
| b |
b := B new setX: 5.
b x logCr. b kind logCr. b class logCr
""") == "5\nba\nB\n"


@pytest.mark.parametrize("source, cls, slot", [
    ("class A2 extends Array [ | x | setX [ x := 3. ^ x ] ]", "A2", "x"),
    ("class O2 extends OrderedCollection [ | y | ]", "O2", "y"),
    ("class A3 extends A4 [ | z | ]\nclass A4 extends Array [ ]", "A3", "z"),
    ("class Array [ | w | ]", "Array", "w"),
])
def test_array_classes_cannot_declare_slots(source, cls, slot):
    """`new` on a class that is or inherits from Array makes an Array,
    which has no slots, so a slot it declared could never be bound."""
    with pytest.raises(MkRuntimeError, match="slot %s declared in %s, but "
                       "Array and its subclasses cannot have slots"
                       % (slot, cls)):
        Interpreter().load(source)


def test_a_slotless_array_subclass_still_works():
    assert out("""class Stack extends OrderedCollection [
    push: x [ self add: x ]
    depth [ ^ self size ]
]
class Pair extends Array [ isPair [ ^ true ] ]
| s |
s := Stack new. s push: 4. s push: 5.
s depth logCr. s printString logCr. Pair new isPair logCr. Pair new size logCr
""") == "2\na Stack (4 5)\ntrue\n0\n"


@pytest.mark.parametrize("source", [
    "class A extends A [ ]",
    "class A extends B [ | a | ]\nclass B extends A [ | b | ]",
])
def test_a_superclass_cycle_is_a_load_error(source):
    with pytest.raises(MkRuntimeError, match="cannot inherit from itself"):
        Interpreter().load(source)


def test_does_not_understand_reports_class_and_selector():
    with pytest.raises(MkRuntimeError, match="A doesNotUnderstand: #missing"):
        run_program("class A [ ] A new missing")


def test_undefined_variable_in_method_is_an_error():
    with pytest.raises(MkRuntimeError, match="undefined variable"):
        run_program("class A [ m [ ^ zork ] ] A new m")


def test_top_level_assignment_creates_a_global():
    interp = Interpreter()
    interp.run("g := 41")
    assert interp.run("(g + 1) logCr").output == "42\n"


def test_runtime_error_carries_a_stack_trace():
    with pytest.raises(MkRuntimeError) as exc:
        run_program("class A [ m [ ^ self n ] n [ ^ 1 foo ] ] A new m")
    trace = exc.value.trace
    assert trace[0].startswith("A>>n")
    assert trace[1].startswith("A>>m")
    assert trace[-1].startswith("top-level")


def test_halt_unwinds_with_trace_and_partial_output():
    result = run_program("'before' logCr. Object new halt. 'after' logCr")
    assert result.output == "before\n"
    assert result.signal is not None
    assert any(line.startswith("Object>>halt") for line in result.trace)


def test_random_is_seed_deterministic():
    source = "3 timesRepeat: [ Random new next logCr ]"
    a = run_program(source, seed=7).output
    b = run_program(source, seed=7).output
    c = run_program(source, seed=8).output
    assert a == b
    expected = "".join("%d\n" % random.Random(7).randrange(1000)
                       for _ in range(1))
    assert a.startswith(expected)
    assert a != c or True  # different seeds usually differ; no hard claim


def test_interpreters_are_independent():
    one, two = Interpreter(), Interpreter()
    one.run("class A [ m [ ^ 1 ] ]")
    with pytest.raises(MkRuntimeError, match="undefined variable A"):
        two.run("A new m")


# -- method lookup vs. brute force ------------------------------------------

def brute_force_lookup(chain, selectors_per_class, selector):
    """chain[0] is the most specific class; first definer wins."""
    for idx in chain:
        if selector in selectors_per_class[idx]:
            return idx
    return None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_lookup_matches_brute_force_on_random_hierarchies(seed):
    rng = random.Random(seed)
    depth = rng.randint(2, 6)
    selectors = ["sa", "sb", "sc", "sd"]
    defined = []
    chunks = []
    for level in range(depth):
        own = sorted(rng.sample(selectors, rng.randint(0, len(selectors))))
        defined.append(set(own))
        sup = " extends H%d" % (level - 1) if level else ""
        methods = " ".join("%s [ ^ %d ]" % (sel, level) for sel in own)
        chunks.append("class H%d%s [ %s ]" % (level, sup, methods))
    interp = Interpreter()
    interp.run("\n".join(chunks))
    leaf = depth - 1
    chain = list(range(leaf, -1, -1))
    for selector in selectors:
        expected = brute_force_lookup(chain, defined, selector)
        if expected is None:
            with pytest.raises(MkRuntimeError, match="doesNotUnderstand"):
                interp.run("H%d new %s" % (leaf, selector))
        else:
            result = interp.run("(H%d new %s) logCr" % (leaf, selector))
            assert result.output == "%d\n" % expected
            record = interp.lookup_method("H%d" % leaf, selector)
            assert record.signature.class_name == "H%d" % expected


# -- recompilation ----------------------------------------------------------

def test_recompile_swaps_behavior_for_future_calls():
    interp = Interpreter()
    interp.run("class A [ m [ ^ 1 ] ]")
    assert interp.run("A new m logCr").output == "1\n"
    interp.recompile("A", "m", "m [ ^ 2 ]")
    assert interp.run("A new m logCr").output == "2\n"


def test_recompile_checks_the_selector():
    from mklang.errors import SelectorMismatch
    interp = Interpreter()
    interp.run("class A [ m [ ^ 1 ] ]")
    with pytest.raises(SelectorMismatch):
        interp.recompile("A", "m", "other [ ^ 2 ]")


def test_method_running_when_recompiled_finishes_with_old_code():
    from mklang.links import MetaLink, install
    from mklang.nodes import find_nodes
    from mklang.values import HostFunction

    interp = Interpreter()
    interp.run("""class A [
    m [ self first logCr. self second logCr ]
    first [ ^ 'old-first' ]
    second [ ^ 'old-second' ]
]""")

    def swap(*_):
        interp.recompile(
            "A", "m", "m [ 'new-first' logCr. 'new-second' logCr ]")

    link = MetaLink()
    link.set_meta_object(HostFunction(swap, "a recompiler"))
    link.set_selector("value")
    link.set_control("before")
    node = find_nodes(interp.method_ast("A", "m"), "sends-of", "second")[0]
    install(interp, link, node)

    # The in-flight activation still runs the old definition to the end.
    assert interp.run("A new m").output == "old-first\nold-second\n"
    # The next call sees the new definition (and the link is gone with
    # the old AST).
    assert interp.run("A new m").output == "new-first\nnew-second\n"


# Each lookup is cached per class; these sends warm the cache first, then
# change what the lookup should find.

def test_method_cache_sees_recompile():
    interp = Interpreter()
    interp.run("class A [ m [ ^ 1 ] ]")
    a = interp.send(interp.class_named("A"), "new", [])
    assert interp.send(a, "m", []) == 1
    interp.recompile("A", "m", "m [ ^ 2 ]")
    assert interp.send(a, "m", []) == 2


def test_method_cache_sees_subclass_override():
    interp = Interpreter()
    interp.run("class A [ m [ ^ 1 ] ]\nclass B extends A [ ]")
    assert interp.run("B new m").value == 1
    interp.run("class B extends A [ m [ ^ 2 ] ]")
    assert interp.run("B new m").value == 2
    assert interp.run("A new m").value == 1


def test_method_cache_sees_object_methods_after_integer_send():
    interp = Interpreter()
    assert interp.run("3 isNil").value is False
    interp.run("class Object [ isNil [ ^ #redefined ] double [ ^ 2 ] ]")
    assert interp.run("3 isNil").value == "redefined"
    assert interp.run("3 double").value == 2


def test_method_cache_sees_methods_of_a_load_that_failed_halfway():
    from mklang.errors import UnknownClass
    interp = Interpreter()
    interp.run("class A [ m [ ^ 1 ] ]")
    a = interp.send(interp.class_named("A"), "new", [])
    assert interp.send(a, "m", []) == 1
    with pytest.raises(UnknownClass):
        interp.load("class A [ m [ ^ 2 ] ]\nclass B extends Nope [ ]")
    # A load that fails installs nothing, A's new `m` included.
    assert interp.send(a, "m", []) == 1


def _class_table(interp):
    return {name: (cls, cls.superclass, list(cls.slot_names),
                   dict(cls.methods))
            for name, cls in interp.classes.items()}


@pytest.mark.parametrize("bad", [
    "class D extends Nope [ ]",
    "class OrderedCollection extends Object [ ]",
    "class E extends F [ ]\nclass F extends E [ ]",
    "class G extends Array [ | g | ]",
    "class H [ | h | ]\nclass I extends H [ | h | ]",
], ids=["unknown", "kernel", "cycle", "array-slot", "duplicate-slot"])
def test_a_load_that_fails_changes_no_class(bad):
    interp = Interpreter()
    interp.run("class C [ | c | m [ ^ 1 ] ]")
    before = _class_table(interp)
    with pytest.raises(MkError):
        interp.load("class C extends P [ | d | m [ ^ 2 ] n [ ^ 3 ] ]\n"
                    "class P [ ]\n" + bad)
    assert _class_table(interp) == before
    assert interp.run("C new m").value == 1


@pytest.mark.parametrize("source", [
    "class A [ | x | ]\nclass B extends A [ | x | ]",
    "class B extends A [ | x | ]\nclass A [ | x | ]",
], ids=["superclass-first", "subclass-first"])
def test_a_slot_a_superclass_declares_is_rejected_in_either_order(source):
    interp = Interpreter()
    before = _class_table(interp)
    with pytest.raises(MkError,
                       match="slot x already declared in a superclass of B"):
        interp.load(source)
    assert _class_table(interp) == before


def test_a_later_load_cannot_give_a_class_a_slot_its_subclass_declares():
    interp = Interpreter()
    interp.run("class A [ ]\nclass B extends A [ | x | m [ ^ x ] ]")
    before = _class_table(interp)
    with pytest.raises(MkError,
                       match="slot x already declared in a superclass of B"):
        interp.load("class A [ | x | n [ ^ 1 ] ]")
    assert _class_table(interp) == before
    assert interp.run("B new m").value is None


def test_a_failed_load_keeps_the_links_of_the_methods_it_would_replace():
    from mklang import MetaLink
    from mklang.errors import UnknownClass
    from mklang.links import install
    from mklang.values import HostFunction
    interp = Interpreter()
    interp.run("class C [ m [ ^ 1 ] ]")
    fired = []
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda: fired.append("m"), "a probe"))
    link.set_selector("value")
    install(interp, link, interp.method_ast("C", "m"))
    with pytest.raises(UnknownClass, match="unknown superclass Nope"):
        interp.load("class C [ m [ ^ 2 ] ] class D extends Nope [ ]")
    assert "D" not in interp.classes
    assert interp.run("C new m").value == 1
    assert fired == ["m"]


def test_method_cache_sees_new_superclass():
    interp = Interpreter()
    interp.run("class A [ m [ ^ 1 ] ]\nclass B [ m [ ^ 2 ] ]\n"
               "class C extends A [ ]")
    assert interp.run("C new m").value == 1
    interp.run("class C extends B [ ]")
    assert interp.run("C new m").value == 2


def test_recursion_150_deep_completes():
    result = run_program("""class D [
    down: n [ n = 0 ifTrue: [ ^ 0 ]. ^ (self down: n - 1) + 1 ]
]
D new down: 150""")
    assert result.value == 150


DOWN = "class D [ down: n [ n = 0 ifTrue: [ ^ 0 ]. ^ self down: n - 1 ] ]"


def _run_in_fresh_thread(interp, source):
    """`interp.run(source)`, in a thread so that the recursion limit counts
    from a fresh stack, as in a script, not under pytest's own frames."""
    box = []

    def body():
        try:
            box.append(interp.run(source))
        except MkError as exc:
            box.append(exc)

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    if isinstance(box[0], MkError):
        raise box[0]
    return box[0]


def test_recursion_reaches_245_levels_and_overflows_at_1000():
    """Floors for both recursion forms. Every level is at least one Python
    frame, so 1000 levels overflow under Python's default limit."""
    interp = Interpreter()
    interp.run(DOWN + "\nclass D [ "
               "up: n [ n = 0 ifTrue: [ ^ 0 ]. ^ (self up: n - 1) + 1 ] ]")
    assert _run_in_fresh_thread(interp, "D new down: 245").value == 0
    assert _run_in_fresh_thread(interp, "D new up: 196").value == 196
    with pytest.raises(MkRuntimeError, match="stack overflow") as exc:
        _run_in_fresh_thread(interp, "D new down: 1000")
    assert exc.value.trace == ["top-level (<string>:0..16)"]
    assert interp.run("D new down: 3").value == 0


def test_recursion_through_an_if_true_arm_reaches_180_levels():
    """An `ifTrue:` of a literal block runs its arm inline: a level costs
    no send, primitive or `call_block` frame for it."""
    interp = Interpreter()
    interp.run("class D [ "
               "down: n [ n > 0 ifTrue: [ ^ self down: n - 1 ]. ^ 0 ] ]")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert _run_in_fresh_thread(interp, "D new down: 180").value == 0
    finally:
        sys.setrecursionlimit(limit)


def test_recursion_through_a_to_do_block_reaches_150_levels():
    """A `to:do:` of a literal block runs the kernel's loop inline: a level
    costs no send, primitive or `call_block` frame for the count, its
    `whileTrue:` arms or the block (164 levels on CPython 3.11, 70 when
    the count was sent)."""
    interp = Interpreter()
    interp.run("class D [ down: n [ n > 0 ifTrue: [ "
               "1 to: 1 do: [:i | ^ self down: n - 1 ] ]. ^ 0 ] ]")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert _run_in_fresh_thread(interp, "D new down: 150").value == 0
    finally:
        sys.setrecursionlimit(limit)


def test_the_reserved_frame_stack_holds_the_deepest_recursion():
    """The derivation next to `_FRAME_RESERVE`: Python's recursion limit
    times the largest evaluator frame (locals and value stack, plus at most
    8 slots of frame header) fits in the reserve."""
    from mklang import compiler, interpreter, kernel, links, reify, tools

    def frame_slots(module):
        for obj in vars(module).values():
            for f in vars(obj).values() if isinstance(obj, type) else [obj]:
                code = getattr(f, "__code__", None)
                if code is not None and f.__module__ == module.__name__ \
                        and f is not interpreter._evaluate_reserved:
                    # The closures a function makes, compiled code's too.
                    codes = [code]
                    while codes:
                        code = codes.pop()
                        codes += [c for c in code.co_consts
                                  if isinstance(c, type(code))]
                        yield (code.co_stacksize + code.co_nlocals
                               + len(code.co_cellvars)
                               + len(code.co_freevars), code.co_name)

    largest, name = max(n for m in (compiler, interpreter, kernel, links,
                                    reify, tools)
                        for n in frame_slots(m))
    frames = max(1000, sys.getrecursionlimit())
    assert frames * (largest + 8) < interpreter._FRAME_RESERVE, name


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11)
    or not sys.platform.startswith("linux"),
    reason="frames live in data-stack chunks from CPython 3.11 on; "
           "ru_minflt is read on Linux")
def test_a_recursive_run_maps_its_frame_stack_once():
    """`sweep: 60` swings the stack from 1 to 60 levels deep again and
    again, each level several Python frames, so it crosses the ends of
    16 KB data-stack chunks dozens of times a run. Were each crossing to
    map a chunk and fault its pages in, a run would cost about 850 minor
    faults on CPython 3.11; in the one chunk `run` reserves, a run faults
    in only the pages of its deepest recursion, about 15."""
    import resource
    interp = Interpreter()
    interp.run(DOWN + "\nclass D [ sweep: n [ "
               "1 to: n do: [ :i | self down: i ] ] ]")

    def faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    for _ in range(3):
        interp.run("D new sweep: 60")
    before = faults()
    for _ in range(20):
        interp.run("D new sweep: 60")
    assert faults() - before < 1000


def test_unlinked_sends_leave_no_cyclic_garbage():
    interp = Interpreter()
    interp.run("class A [ m: n [ | t | t := n + 1. ^ self k: t ] "
               "k: n [ n > 2 ifTrue: [ ^ n ]. ^ 0 ] ]")
    a = interp.send(interp.class_named("A"), "new", [])
    gc.collect()
    gc.disable()
    try:
        for n in range(100):
            interp.send(a, "m:", [n])
        # Activations are freed by reference counting as they return.
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", [1, 2])
def test_a_dropped_unlinked_interpreter_is_freed_without_the_cyclic_gc(seed):
    """No AST node refers to its parent and no handler table holds bound
    methods, so reference counting alone frees a finished interpreter. A
    weakref shows it, not `gc.collect() == 0`: a program may make its own
    block/activation cycles."""
    programs = make_programs(seed)
    gc.collect()
    gc.disable()
    try:
        for program in programs:
            interp = Interpreter(seed=program.seed)
            result = interp.run(program.source)
            assert result.output == program.expected
            dead = weakref.ref(interp)
            del interp, result
            assert dead() is None, program.kernel
    finally:
        gc.enable()


def test_recompile_with_a_long_send_chain_overflows_only_when_run():
    interp = Interpreter()
    interp.run("class A [ m [ ^ 1 ] ]")
    record = interp.recompile("A", "m", "m [ ^ 1%s ]" % (" + 1" * 1200))
    assert interp.lookup_method("A", "m") is record
    with pytest.raises(MkRuntimeError, match="stack overflow"):
        interp.run("A new m")


def test_reopened_kernel_class_keeps_its_superclass():
    assert out("class Symbol [ twice [ ^ self , self ] ]\n"
               "#ab twice logCr") == "abab\n"


def test_reopened_user_subclass_keeps_its_superclass():
    interp = Interpreter()
    interp.run("class A [ a [ ^ 1 ] ] class B extends A [ b [ ^ 2 ] ]")
    interp.run("class B [ c [ ^ 3 ] ]")
    assert interp.class_named("B").superclass is interp.class_named("A")
    assert interp.run("| b | b := B new. ^ b a + b b + b c").value == 6


def test_a_kernel_class_cannot_change_its_superclass():
    interp = Interpreter()
    with pytest.raises(MkRuntimeError, match="class Symbol is defined by "
                       "the kernel; its superclass must stay String"):
        interp.run("class Symbol extends Object [ ]")
    assert interp.class_named("Symbol").superclass \
        is interp.class_named("String")
    # Naming the superclass it already has is a reopening.
    interp.run("class Symbol extends String [ twice [ ^ self , self ] ]")
    assert interp.run("#ab twice").value == "abab"


# -- where a name lives -------------------------------------------------------

# Each case is a program and what it gives: its output, or the message of
# the error it raises and the source text of the error's span.
SCOPE_CASES = {
    "top-level global read at top level and in a method": (
        "class R [ get [ ^ Zed ] ]\nZed := 7.\nZed logCr.\nR new get logCr",
        "7\n7\n"),
    "a method cannot create a global": (
        "class W [ set [ Zed := 5 ] ]\nW new set",
        ("undefined variable Zed", "Zed := 5")),
    "a method cannot write a global either": (
        "class W [ set [ Zed := 5 ] ]\nZed := 7.\nW new set",
        ("a method cannot assign the global Zed", "Zed := 5")),
    "a method cannot assign a class": (
        "class W [ set [ Transcript := 5 ] ]\nW new set",
        ("class Transcript cannot be assigned", "Transcript := 5")),
    "a class name read in a method": (
        "class T [ t [ ^ Transcript ] ]\n(T new t == Transcript) logCr",
        "true\n"),
    "a block writes an outer slot and an outer temp": (
        "class B [ | s | run [ | t | t := 1. s := 10. "
        "#(1 2 3) do: [ :x | t := t + x. s := s + x ]. ^ t * 100 + s ] ]\n"
        "B new run logCr",
        "716\n"),
    "a top-level block creates a global": (
        "[ Q := 4 ] value.\nQ logCr",
        "4\n"),
    "an undefined read in a method": (
        "class U [ r [ ^ nope ] ]\nU new r",
        ("undefined variable nope", "nope")),
    "an undefined write in a method": (
        "class U [ w [ nope := 1 ] ]\nU new w",
        ("undefined variable nope", "nope := 1")),
    "a method temp hides a slot": (
        "class H [ | v | initialize [ v := 1 ] "
        "m [ | v | v := 5. ^ v ] get [ ^ v ] ]\n"
        "| h | h := H new. h m logCr. h get logCr",
        "5\n1\n"),
}


@pytest.mark.parametrize("source, expected", SCOPE_CASES.values(),
                         ids=list(SCOPE_CASES))
def test_reads_and_writes_find_each_name_where_it_lives(source, expected):
    if isinstance(expected, str):
        assert out(source) == expected
        return
    message, span_text = expected
    with pytest.raises(MkRuntimeError) as exc:
        run_program(source)
    err = exc.value
    assert str(err) == message
    assert source[err.span.start:err.span.end] == span_text
    assert err.trace[0].split(" ")[0] in ("W>>set", "U>>r", "U>>w")
    assert err.trace[-1].startswith("top-level")


@pytest.mark.parametrize("source", ["Transcript := 3.\n1 logCr",
                                    "[ Transcript := 3 ] value.\n1 logCr"])
def test_top_level_code_cannot_assign_a_class(source):
    interp = Interpreter()
    with pytest.raises(MkRuntimeError) as exc:
        interp.run(source)
    err = exc.value
    assert str(err) == "class Transcript cannot be assigned"
    assert source[err.span.start:err.span.end] == "Transcript := 3"
    assert err.trace[-1].startswith("top-level")
    assert "Transcript" not in interp.globals
    assert interp.run("Transcript").value is interp.class_named("Transcript")
    assert interp.run("1 logCr").output == "1\n"


def test_a_global_cannot_become_a_class():
    """The other load order: a class loaded after a global of its name
    would hide the global, so the load fails and is undone."""
    interp = Interpreter()
    interp.run("X := 1")
    with pytest.raises(MkRuntimeError) as exc:
        interp.run("class Y [ ]\nclass X [ m [ ^ 2 ] ]")
    assert str(exc.value) == "the global X cannot become a class"
    assert "X" not in interp.classes and "Y" not in interp.classes
    assert interp.run("X").value == 1
    assert interp.run("class Y [ m [ ^ 2 ] ]\nY new m").value == 2


@pytest.mark.parametrize("source, frames", [
    ("[ Transcript := 3 ] value",
     ["top-level (<string>:0..19)", "top-level (<string>:0..25)"]),
    ("class B [ m [ ^ [ nope ] value ] ]\nB new m",
     ["B>>m (<string>:16..24)", "B>>m (<string>:16..30)",
      "top-level (<string>:35..42)"]),
])
def test_a_block_frame_in_a_trace_shows_the_block(source, frames):
    with pytest.raises(MkRuntimeError) as exc:
        run_program(source)
    assert exc.value.trace == frames


# Each failing send, as it stands in the body of `A>>m`.
PRIMITIVE_FAILURES = {
    "+ wrong argument": "3 + nil",
    ", wrong argument": "'a' , 3",
    "do: wrong argument": "#(1) do: 3",
    "max: wrong argument": "3 max: nil",
    "addAll: wrong argument": "OrderedCollection new addAll: 3",
    "at: out of bounds": "#(1 2) at: 5",
    "/ 0": "3 / 0",
    "overflow": "9223372036854775807 + 1",
    "Integer new": "Integer new",
    "error:": "self error: 'boom'",
    "block arity": "[ :x | x ] value",
    "negative level:": "MetaLink new level: 0 - 1",
    "control: #x": "MetaLink new control: #x",
    "link: 3": "(Reflect class: A selector: #k) link: 3",
    "link: misconfigured":
        "(Reflect class: A selector: #k) link: MetaLink new",
}


@pytest.mark.parametrize("send", PRIMITIVE_FAILURES.values(),
                         ids=list(PRIMITIVE_FAILURES))
def test_a_primitive_error_carries_the_span_and_trace_of_its_send(send):
    source = "class A [ k [ ^ 1 ] m [ ^ %s ] ]\nA new m" % send
    with pytest.raises(MkError) as exc:
        Interpreter().run(source)
    err = exc.value
    assert source[err.span.start:err.span.end] == send
    assert err.trace[0] == "A>>m (%s)" % err.span
    assert err.trace[1].startswith("top-level ")


def test_the_innermost_send_locates_an_error_under_nested_primitives():
    source = "class A [ m [ ^ #(1 2) do: [ :x | x + nil ] ] ]\nA new m"
    with pytest.raises(MkRuntimeError) as exc:
        Interpreter().run(source)
    err = exc.value
    assert source[err.span.start:err.span.end] == "x + nil"
    assert [line.split(" ")[0] for line in err.trace] == \
        ["A>>m", "A>>m", "top-level"]


PHASE_SOURCE = """class A [ m [ ^ 3 + 4 ] ]
| l |
l := MetaLink new metaObject: [ :v | v ].
l selector: #value:. l arguments: #(value). l control: #before.
((Reflect class: A selector: #m) sendsOf: #+) first link: l.
A new m"""


def test_a_link_that_fails_as_it_fires_is_located_at_its_hook():
    with pytest.raises(PhaseUnavailable) as exc:
        Interpreter().run(PHASE_SOURCE)
    err = exc.value
    assert PHASE_SOURCE[err.span.start:err.span.end] == "3 + 4"
    assert err.trace[0].startswith("A>>m (")
    assert err.trace[1].startswith("top-level (")


def test_an_error_under_a_link_keeps_the_location_of_its_send():
    source = ("class A [ m [ ^ 3 + nil ] ]\n| l |\n"
              "l := MetaLink new metaObject: [ 0 ]. l selector: #value.\n"
              "((Reflect class: A selector: #m) sendsOf: #+) first link: l.\n"
              "A new m")
    with pytest.raises(MkRuntimeError) as exc:
        Interpreter().run(source)
    err = exc.value
    assert source[err.span.start:err.span.end] == "3 + nil"
    assert err.trace[0] == "A>>m (%s)" % err.span


def test_a_super_send_is_its_frame_s_current_node():
    source = "class A [ m [ ^ 1 ] ]\nclass B extends A [ m [ ^ super zork ] ]" \
             "\nB new m"
    with pytest.raises(MkRuntimeError) as exc:
        Interpreter().run(source)
    assert exc.value.trace == ["B>>m (<string>:48..58)",
                               "top-level (<string>:63..70)"]


@pytest.mark.parametrize("source, message, where", [
    ("Transcript := 3", "class Transcript cannot be assigned",
     "Transcript := 3"),
    ("class A [ m [ ^ [ :x | ^ x ] ] ]\n(A new m) value: 3",
     "non-local return from an exited method", "(A new m) value: 3"),
    ("class A [ m [ ^ 1%s ] ]\nA new m" % (" + 1" * 1200),
     "stack overflow", "A new m"),
])
def test_run_locates_the_errors_of_the_top_level(source, message, where):
    with pytest.raises(MkRuntimeError) as exc:
        Interpreter().run(source)
    err = exc.value
    assert str(err) == message
    assert source[err.span.start:err.span.end] == where
    assert err.trace == ["top-level (%s)" % err.span]


def test_a_halt_under_a_primitive_keeps_its_own_trace():
    result = run_program("class A [ m [ ^ #(1) do: [ :x | Halt now ] ] ]\n"
                         "A new m")
    assert [line.split(" ")[0] for line in result.trace] == \
        ["A>>m", "A>>m", "top-level"]


@pytest.mark.parametrize("source", [
    "class A [ m [ ^ 1 ] ]\nN := Reflect class: A selector: #m",
    "M := Object lookupSelector: #logCr:",
    "class A [ m [ ^ 3 + 4 ] ]\n| l |\n"
    "l := MetaLink new metaObject: [ :c | C := c ].\n"
    "l selector: #value:. l arguments: #(context).\n"
    "((Reflect class: A selector: #m) sendsOf: #+) first link: l.\n"
    "A new m",
], ids=["NodeMirror", "MethodMirror", "ContextMirror"])
def test_a_mirror_in_a_global_leaves_its_interpreter_free(source):
    """A mirror holds no interpreter, so a global holding one makes no
    reference cycle through the interpreter's globals."""
    gc.collect()
    gc.disable()
    try:
        interp = Interpreter()
        interp.run(source)
        assert interp.globals.keys() & {"N", "M", "C"}
        dead = weakref.ref(interp)
        del interp
        assert dead() is None
    finally:
        gc.enable()


def _identical_ladder(a, b):
    """`values.identical` as a ladder of type tests, kept as the
    reference for the rule that replaced it."""
    if isinstance(a, (Instance, Array, Block, HostFunction)) or \
            isinstance(b, (Instance, Array, Block, HostFunction)):
        return a is b
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if a is None or b is None:
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, Symbol) or isinstance(b, Symbol):
        return a is b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    return a is b


def test_identical_matches_the_type_ladder():
    interp = Interpreter()
    big = 2 ** 62
    cls = interp.classes["Object"]
    values = [
        3, big, int(str(big)), 1, True, False, None,
        "ab", "".join(["a", "b"]), "", Symbol("ab"), Symbol("ab"),
        Symbol("b"), Instance(cls, {}), Array(cls, []), Array(cls, []),
        HostFunction(print), cls, interp.classes["Integer"],
    ]
    assert len(values) == 19
    for a in values:
        for b in values:
            assert identical(a, b) is _identical_ladder(a, b), (a, b)
