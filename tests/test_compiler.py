"""Compiled code, woven and not (`mklang.compiler`).

A disabled link on a method's root weaves a twin of it, which runs as
compiled code with a hook at its root. `Hooked` puts one on every method
it compiles, the kernel's included, so the same program runs as plain
and as woven code with no flag. `HookedVariables` also hooks every
assignment and variable read, so each runs through its hook's code.
The outcome of each of `PROGRAMS` is also pinned as a literal.
"""

import gc
import random

import pytest

import mklang.listings
from mkbench.workloads import make_programs
from mklang import Interpreter, MetaLink, links
from mklang.bench import counts
from mklang.compiler import COUNTS
from mklang.errors import MkError, MkSyntaxError
from mklang.interpreter import CompiledMethodRecord
from mklang.listings import run_all
from mklang.nodes import ASSIGNMENT, BLOCK, VAR_READ, SourceSpan, find_nodes
from mklang.values import INT_MAX, HostFunction
from progen import gen_program


def disabled_link():
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda: None, "a no-op"))
    link.set_selector("value")
    link.disable()
    return link


class Hooked(Interpreter):
    """An interpreter that runs every method from a twin's code."""

    def _compile_method(self, cls, mdef, source):
        record = super()._compile_method(cls, mdef, source)
        links.install(self, disabled_link(), mdef)
        return record


class HookedVariables(Hooked):
    """`Hooked`, with a disabled link on every assignment and every
    variable read of every method as well."""

    def _compile_method(self, cls, mdef, source):
        record = super()._compile_method(cls, mdef, source)
        link = disabled_link()
        for node in mdef.walk():
            if node.kind in (ASSIGNMENT, VAR_READ):
                links.install(self, link, node)
        return record


WOVEN = (Hooked, HookedVariables)

# A differential that loops forever fails after `conftest.WATCHDOG_SECONDS`
# instead of hanging.
under_watchdog = pytest.mark.usefixtures("watchdog")


def records(interp):
    return [rec for cls in interp.classes.values()
            for rec in cls.methods.values()
            if isinstance(rec, CompiledMethodRecord)]


def outcome(interp_class, source, seed=0):
    """What a run shows: output, value or error, span and trace."""
    interp = interp_class(seed=seed)
    shown = outcome_of(interp, source)
    if isinstance(interp, Hooked):     # every method ran its twin's code
        assert all(rec.twin is not None and rec.code is None
                   for rec in records(interp))
        assert any(rec.twin.code is not None for rec in records(interp))
    return shown


def outcome_of(interp, source):
    try:
        result = interp.run(source)
    except MkSyntaxError:
        raise
    except MkError as exc:
        shown = (type(exc).__name__, str(exc), exc.span, exc.trace)
    else:
        shown = (interp.print_string(result.value), result.trace)
    return interp.output_text(), shown


# What each inlined control send answers, and `^`s from inlined arms and
# loop bodies.
CONTROL_PROGRAM = """class E [
    m [ | i j |
        i := 0. j := 0.
        [ i := i + 1. 3 ] whileTrue: [ j := j + 10 ].
        [ i := i + 1. i >= 4 or: [ nil ] ] whileFalse: [ j := j + 1 ].
        ^ i * 100 + j ]
    find: n [ | i |
        i := 0.
        [ true ] whileTrue: [ i := i + 1. i * i > n ifTrue: [ ^ i ] ] ]
    loop [ | i |
        i := 0.
        [ i := i + 1. i < 10 ] whileTrue: [ i = 4 ifTrue: [ ^ i * 10 ] ].
        ^ 0 ]
    deep: n [
        (n > 0 and: [ n < 100 ])
            ifTrue: [ n even ifTrue: [ ^ #even ] ifFalse: [ ^ #odd ] ]
            ifFalse: [ ^ nil ] ]
    body [ [ false ] whileFalse: [ ^ 7 ] ]
    empty [ ^ (3 > 2 ifTrue: [ ]) printString
        , (3 < 2 ifFalse: [ ]) printString
        , (3 < 2 ifTrue: [ 1 ] ifFalse: [ ]) printString ]
]
| i |
E new m logCr. (E new find: 50) logCr. E new loop logCr.
(E new deep: 3) logCr. (E new deep: 4) logCr. (E new deep: 0) logCr.
E new body logCr. E new empty logCr.
(true and: 3) logCr. (false or: 7) logCr. (true ifTrue: 5) logCr.
(false ifTrue: [ 1 ] ifFalse: [ 2 ]) logCr.
(true ifFalse: [ 1 ] ifTrue: [ 2 ]) logCr.
(false and: [ 1 ]) logCr. (true or: [ 1 ]) logCr.
i := 0. [ i < 3 ] whileTrue: [ i := i + 1 ]. i
"""

# Programs beside the corpora: variables at every depth, sends of every
# argument count, super, non-local returns, the errors of inlined Integer
# sends, each raised inside a method, and the control sends.
PROGRAMS = [
    """class A [ | s |
    initialize [ s := 1 ]
    k: a l: b m: c [ ^ a + b + c + s ]
    nest: n [ | t |
        t := 0.
        1 to: n do: [:i | 1 to: i do: [:j |
            #(1 2) do: [:x | t := t + (i * j * x). s := s + 1 ] ] ].
        ^ t + s ]
    find: n [ 1 to: 10 do: [:i | i * i > n ifTrue: [ ^ i ] ]. ^ nil ]
]
class B extends A [
    k: a l: b m: c [ ^ (super k: a l: b m: c) * 2 ]
    nest: n [ ^ super nest: n + 1 ]
]
| b |
b := B new.
(b k: 1 l: 2 m: 3) logCr.
(b nest: 3) logCr.
(b find: 50) logCr.
(b find: 1000) logCr.
(7 // 2) logCr. ((0 - 7) \\\\ 2) logCr. (7 / (0 - 2)) logCr.
(3 = 3) logCr. (3 ~= nil) logCr. (3 = 'a') logCr. (2 >= 3) logCr.
#(1 #a 'b') logCr.
b
""",
    "class E [ m [ ^ %d + 1 ] ]\nE new m" % INT_MAX,
    "class E [ m [ | x | x := %d. ^ x * x ] ]\nE new m" % INT_MAX,
    "class E [ m: d [ ^ 7 \\\\ d ] ]\n(E new m: 3) logCr. E new m: 0",
    "class E [ m: d [ ^ 7 // d ] ]\n(E new m: 3) logCr. E new m: 0",
    "class E [ m [ ^ 7 / 0 ] ]\nE new m",
    "class E [ m [ ^ 3 + nil ] ]\nE new m",
    "class E [ m [ ^ 3 < 'a' ] ]\nE new m",
    "class E [ m [ ^ true + 1 ] ]\nE new m",
    # An error after an inlined send reports that send's node.
    "class E [ m [ | x | x := 3 + 4. ^ y ] ]\nE new m",
    "class E [ m [ ^ #(1 2) collect: [:x | x + 1. y ] ] ]\nE new m",
    "class E [ m [ 1 < 2. g := 3 ] ]\n| g | E new m",
    "class E [ m [ 1 < 2. g := 3 ] ]\ng := 1. E new m",
    "class E [ m [ 1 > 2. E := 3 ] ]\nE new m",
    "class E [ m [ ^ [:x | ^ x ] ] ]\n(E new m) value: 3",
    "class E [ m [ ^ self n: 1 ] n [ ^ 1 ] ]\nE new m",
    "class E [ m [ ^ [ 1 + 2. Halt now ] value ] ]\nE new m",
    "class E [ m [ ^ 5 + 4 ] ]\nclass Integer [ + x [ ^ 42 ] ]\nE new m",
    # Control sends: what a send that is not inlined does, then errors,
    # halts and `^`s inside inlined arms, and what each inlined send answers.
    "class E [ m [ ^ 3 ifTrue: [ 1 ] ] ]\nE new m",
    "class E [ m [ ^ nil or: [ true ] ] ]\nE new m",
    "class E [ m [ ^ super ifTrue: [ 1 ] ] ]\nE new m",
    "class E [ m [ ^ 3 > 2 ifTrue: [:x | x ] ] ]\nE new m",
    "class E [ m [ ^ 3 > 2 ifTrue: [ y ] ] ]\nE new m",
    "class E [ m [ ^ 3 > 2 ifTrue: [ 1 + 2. Halt now ] ] ]\nE new m",
    "class E [ m [ [ Halt now. true ] whileTrue: [ 1 ] ] ]\nE new m",
    "class E [ m [ ^ [ 3 > 2 ifTrue: [ ^ 1 ] ] ] ]\nE new m value",
    CONTROL_PROGRAM,
    "class E [ m [ ^ 1 ] ]\nE new m. 3 ifTrue: [ 1 ]",
]


def span(start, end):
    return SourceSpan(start, end, "<string>")


# What each of PROGRAMS shows: output, then the value and trace, or the
# error's type, message, span and trace.
OUTCOMES = [
    ("14\n216\n8\nnil\n3\n1\n-4\ntrue\ntrue\nfalse\nfalse\n#(1 #a b)\n",
     ("a B", [])),
    ("", ("MkRuntimeError", "integer overflow", span(16, 39),
          ["E>>m (<string>:16..39)", "top-level (<string>:44..51)"])),
    ("", ("MkRuntimeError", "integer overflow", span(48, 53),
          ["E>>m (<string>:48..53)", "top-level (<string>:58..65)"])),
    ("1\n", ("MkRuntimeError", "division by zero", span(19, 25),
             ["E>>m: (<string>:19..25)", "top-level (<string>:50..60)"])),
    ("2\n", ("MkRuntimeError", "division by zero", span(19, 25),
             ["E>>m: (<string>:19..25)", "top-level (<string>:50..60)"])),
    ("", ("MkRuntimeError", "division by zero", span(16, 21),
          ["E>>m (<string>:16..21)", "top-level (<string>:26..33)"])),
    ("", ("MkRuntimeError", "an Integer argument is required", span(16, 23),
          ["E>>m (<string>:16..23)", "top-level (<string>:28..35)"])),
    ("", ("MkRuntimeError", "an Integer argument is required", span(16, 23),
          ["E>>m (<string>:16..23)", "top-level (<string>:28..35)"])),
    ("", ("MkRuntimeError", "Boolean doesNotUnderstand: #+", span(16, 24),
          ["E>>m (<string>:16..24)", "top-level (<string>:29..36)"])),
    ("", ("MkRuntimeError", "undefined variable y", span(34, 35),
          ["E>>m (<string>:25..30)", "top-level (<string>:40..47)"])),
    ("", ("MkRuntimeError", "undefined variable y", span(45, 46),
          ["E>>m (<string>:38..43)", "E>>m (<string>:16..48)",
           "top-level (<string>:53..60)"])),
    ("", ("MkRuntimeError", "undefined variable g", span(21, 27),
          ["E>>m (<string>:14..19)", "top-level (<string>:38..45)"])),
    ("", ("MkRuntimeError", "a method cannot assign the global g",
          span(21, 27),
          ["E>>m (<string>:14..19)", "top-level (<string>:40..47)"])),
    ("", ("MkRuntimeError", "class E cannot be assigned", span(21, 27),
          ["E>>m (<string>:14..19)", "top-level (<string>:32..39)"])),
    ("", ("MkRuntimeError", "non-local return from an exited method",
          span(32, 50), ["top-level (<string>:32..50)"])),
    ("", ("MkRuntimeError", "E doesNotUnderstand: #n:", span(16, 25),
          ["E>>m (<string>:16..25)", "top-level (<string>:40..47)"])),
    ("", ("nil", ["E>>m (<string>:25..33)", "E>>m (<string>:16..41)",
                  "top-level (<string>:46..53)"])),
    ("", ("42", [])),
    ("", ("MkRuntimeError", "Integer doesNotUnderstand: #ifTrue:",
          span(16, 31),
          ["E>>m (<string>:16..31)", "top-level (<string>:36..43)"])),
    ("", ("MkRuntimeError", "UndefinedObject doesNotUnderstand: #or:",
          span(16, 32),
          ["E>>m (<string>:16..32)", "top-level (<string>:37..44)"])),
    ("", ("MkRuntimeError", "E doesNotUnderstand: #ifTrue:", span(16, 35),
          ["E>>m (<string>:16..35)", "top-level (<string>:40..47)"])),
    ("", ("MkRuntimeError", "block expects 1 argument(s), got 0",
          span(16, 39),
          ["E>>m (<string>:16..39)", "top-level (<string>:44..51)"])),
    ("", ("MkRuntimeError", "undefined variable y", span(32, 33),
          ["E>>m (<string>:30..35)", "E>>m (<string>:16..35)",
           "top-level (<string>:40..47)"])),
    ("", ("nil", ["E>>m (<string>:39..47)", "E>>m (<string>:16..49)",
                  "top-level (<string>:54..61)"])),
    ("", ("nil", ["E>>m (<string>:16..24)", "E>>m (<string>:14..49)",
                  "top-level (<string>:54..61)"])),
    ("", ("MkRuntimeError", "non-local return from an exited method",
          span(46, 59), ["top-level (<string>:46..59)"])),
    ("402\n8\n40\n#odd\n#even\nnil\n7\nnilnilnil\n3\n7\n5\n2\n2\nfalse\n"
     "true\n", ("3", [])),
    ("", ("MkRuntimeError", "Integer doesNotUnderstand: #ifTrue:",
          span(31, 46), ["top-level (<string>:31..46)"])),
]


@under_watchdog
def test_each_program_shows_its_pinned_outcome_plain_and_woven():
    assert len(OUTCOMES) == len(PROGRAMS)
    for source, expected in zip(PROGRAMS, OUTCOMES):
        assert outcome(Interpreter, source) == expected, source
        for woven in WOVEN:
            assert outcome(woven, source) == expected, (woven, source)


@under_watchdog
def test_plain_and_woven_runs_agree():
    for seed in (1, 2, 3):
        for p in make_programs(seed):
            shown = outcome(Interpreter, p.source, p.seed)
            assert shown[0] == p.expected, p.source
            for woven in WOVEN:
                assert outcome(woven, p.source, p.seed) == shown, \
                    (woven, p.source)
    for i in range(50):
        source = gen_program(random.Random(i))[0]
        shown = outcome(Interpreter, source)
        for woven in WOVEN:
            assert outcome(woven, source) == shown, (woven, source)


@under_watchdog
def test_listings_agree_plain_and_woven(monkeypatch):
    plain = run_all(seed=0)
    for woven in WOVEN:
        monkeypatch.setattr(mklang.listings, "Interpreter", woven)
        assert run_all(seed=0) == plain, woven
    assert all(result.passed for result in plain)


@pytest.mark.parametrize("interp_class", [Interpreter, HookedVariables])
def test_no_temp_write_reaches_write_var(interp_class):
    """The compiler writes every temp itself, hooked or not: only a slot
    or a global write calls `write_var`, which binds no temp."""
    interp = interp_class()
    names = []
    original = interp.write_var

    def recording(name, value, act, node=None):
        names.append(name)
        return original(name, value, act, node)

    interp.write_var = recording
    assert outcome_of(interp, PROGRAMS[0]) == OUTCOMES[0]
    assert set(names) == {"s"}


def test_a_method_on_integer_runs_from_compiled_code():
    interp = Interpreter()
    interp.run("class E [ m [ ^ (5 + 4) + (7 \\\\ 2) ] ]")
    assert interp.run("E new m").value == 10
    # `E>>m` is compiled now; its inlined sends see the new methods.
    assert interp.lookup_method("E", "m").code is not None
    interp.run("class Integer [ + x [ ^ 42 ] \\\\ x [ ^ 0 - x ] ]")
    assert interp.run("E new m").value == 42
    assert interp.run("3 \\\\ 5").value == -5


def test_a_twin_reuses_the_closures_it_shares_with_the_original():
    """Only the twin's spine compiles: a statement it shares with the
    original keeps the original's closure, and so does a re-woven twin."""
    interp = Interpreter()
    interp.run("class A [ m [ | x | x := 1. x := x + 2. ^ x * 3 ] ]")
    assert interp.run("A new m").value == 9
    record = interp.lookup_method("A", "m")
    (first, second), ret = record.code
    plus = find_nodes(record.original_ast, "sends-of", "+")[0]
    for _ in range(2):
        link = disabled_link()
        links.install(interp, link, plus)
        assert interp.run("A new m").value == 9
        (woven_first, woven_second), woven_ret = record.twin.code
        assert woven_first is first and woven_ret is ret
        assert woven_second is not second
        links.uninstall(interp, link)
        assert record.twin is None


def test_compiled_code_leaves_no_cyclic_garbage():
    """A closure captures nodes, names and closures, never an interpreter:
    reference counting frees an interpreter that ran compiled methods and
    blocks, with no cycle left for the collector. `add:` runs an inlined
    count, and `each:with:` sends `to:do:` a block held in a temp, so the
    kernel's `Integer>>to:do:` compiles and runs too. (A block held in a
    temp of the activation that made it would be a cycle of the program's
    own.)"""
    gc.collect()
    gc.disable()
    try:
        interp = Interpreter()
        interp.run("""class A [ | s |
    initialize [ s := 0 ]
    add: n [ 1 to: n do: [:i | [:j | s := s + j ] value: i ]. ^ s ]
    each: n with: b [ 1 to: n do: b. ^ s ]
    find: n [ #(1 2 3) do: [:x | x = n ifTrue: [ ^ x ] ]. ^ 0 ]
]
| a |
a := A new.
(a add: 4) logCr.
(a find: 2) logCr""")
        assert interp.output_text() == "10\n2\n"
        assert interp.lookup_method("A", "find:").code is not None
        to_do = interp.lookup_method("Integer", "to:do:")
        assert to_do.code is None   # `add:` ran its count inlined
        interp.run("(A new each: 4 with: [:i | i logCr ]) logCr")
        assert interp.output_text() == "10\n2\n1\n2\n3\n4\n0\n"
        assert to_do.code is not None
        del interp, to_do
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_method_with_a_long_chain_in_a_block_that_never_runs_answers():
    """The compiler keeps its own stack: a chain deeper than Python's
    recursion limit compiles, and only running it overflows."""
    chain = "1" + " + 1" * 3000
    interp = Interpreter()
    interp.run("class A [ m [ false ifTrue: [ ^ %s ]. ^ 7 ] ]" % chain)
    assert interp.run("A new m").value == 7


FIB_SOURCE = """class Fib [
    fib: n [ n < 2 ifTrue: [ ^ n ]. ^ (self fib: n - 1) + (self fib: n - 2) ]
]
"""


def fib_runner(link_plus):
    interp = Interpreter()
    interp.load(FIB_SOURCE)
    if link_plus:
        plus = find_nodes(interp.method_ast("Fib", "fib:"), "sends-of", "+")
        links.install(interp, disabled_link(), plus[0])
    fib = interp.send(interp.class_named("Fib"), "new", [], None)

    def run(n):
        for _ in range(n):
            interp.send(fib, "fib:", [10], None)
    return run


def test_fib_with_a_disabled_link_on_its_plus_runs_at_most_1_5x_the_bytecodes():
    """The woven method is compiled like the plain one: only its hooked
    `+` send pays for a trigger."""
    plain, _ = counts(fib_runner(False), 5)
    linked, _ = counts(fib_runner(True), 5)
    assert linked <= 1.5 * plain


@pytest.mark.parametrize("source", [
    "9223372036854775807 + 1", "7 \\\\ 0", "7 // 0", "3 + nil"])
def test_an_inlined_send_at_the_top_level_fails_as_its_primitive(source):
    with pytest.raises(MkError) as compiled:
        Interpreter().run("| x | x := 0.\n" + source)
    message = {"3 + nil": "an Integer argument is required",
               "9223372036854775807 + 1": "integer overflow"}
    assert str(compiled.value) == message.get(source, "division by zero")
    assert compiled.value.span.start == 14
    assert compiled.value.trace == ["top-level (<string>:14..%d)"
                                    % (14 + len(source))]


# The control sends. Each selector's method sends it with literal blocks,
# then what the method answers, first as the kernel's primitive runs it
# and then under a redefinition that answers 40 plus the value of its
# last argument.
CONTROL_METHODS = {
    "ifTrue:": ("3 > 2 ifTrue: [ 1 ]", "1", "41"),
    "ifFalse:": ("3 > 2 ifFalse: [ 1 ]", "nil", "41"),
    "ifTrue:ifFalse:": ("3 > 2 ifTrue: [ 1 ] ifFalse: [ 2 ]", "1", "42"),
    "ifFalse:ifTrue:": ("3 > 2 ifFalse: [ 1 ] ifTrue: [ 2 ]", "2", "42"),
    "and:": ("3 > 2 and: [ 1 ]", "1", "41"),
    "or:": ("3 > 2 or: [ 1 ]", "true", "41"),
    "whileTrue:": ("[ i < 3 ] whileTrue: [ i := i + 1 ]", "nil", "41"),
    "whileFalse:": ("[ i >= 3 ] whileFalse: [ i := i + 1 ]", "nil", "41"),
}


@under_watchdog
@pytest.mark.parametrize("interp_class", [Interpreter, *WOVEN])
@pytest.mark.parametrize("selector", list(CONTROL_METHODS))
def test_a_control_method_redefined_after_its_sender_ran_takes_over(
        selector, interp_class):
    send, before, after = CONTROL_METHODS[selector]
    interp = interp_class()
    interp.run("class E [ m [ | i | i := 0. ^ %s ] ]" % send)
    assert interp.print_string(interp.run("E new m").value) == before
    record = interp.lookup_method("E", "m")
    assert (record.twin or record).code is not None
    owner = "Block" if selector.startswith("while") else "Boolean"
    keywords = selector.split(":")[:-1]
    names = "ab"[:len(keywords)]
    signature = " ".join("%s: %s" % pair for pair in zip(keywords, names))
    interp.run("class %s [ %s [ ^ 40 + %s value ] ]"
               % (owner, signature, names[-1]))
    assert interp.print_string(interp.run("E new m").value) == after


LOOP_SOURCE = """class E [ m [ | i |
    i := 0.
    [ i < 3 ] whileTrue: [ i := i + 1 ].
    ^ i > 2 ifTrue: [ i ] ifFalse: [ 0 ] ] ]"""


@under_watchdog
@pytest.mark.parametrize("interp_class", [Interpreter, *WOVEN])
def test_a_link_installed_later_on_a_control_send_or_its_block_fires(
        interp_class):
    """A hooked control send, or one with a hooked block, is not inlined:
    a link on either fires from the next activation, and once it is gone
    the send runs inlined again."""
    interp = interp_class()
    interp.run(LOOP_SOURCE)
    assert interp.run("E new m").value == 3
    mdef = interp.method_ast("E", "m")
    sites = [*find_nodes(mdef, "sends-of", "whileTrue:"),
             *find_nodes(mdef, "sends-of", "ifTrue:ifFalse:"),
             *(node for node in mdef.walk() if node.kind == BLOCK)]
    fired = []
    installed = []
    for site in sites:
        link = MetaLink()
        link.set_meta_object(HostFunction(
            lambda site=site: fired.append(site), "a recorder"))
        link.set_selector("value")
        links.install(interp, link, site)
        installed.append(link)
    assert interp.run("E new m").value == 3
    # Each send once; the condition 4 times, the loop body 3, the arms
    # of `ifTrue:ifFalse:` once and never.
    assert [fired.count(site) for site in sites] == [1, 1, 4, 3, 1, 0]
    for link in installed:
        links.uninstall(interp, link)
    visits = interp.hook_visits
    assert interp.run("E new m").value == 3
    assert len(fired) == 10
    if interp_class is Interpreter:
        assert interp.hook_visits == visits


ARM_SOURCE = "class E [ one [ ^ 1 ] m [ ^ 3 > 2 ifTrue: [ self one ] " \
    "ifFalse: [ 2 ] ] ]"


@under_watchdog
@pytest.mark.parametrize("interp_class", [Interpreter, *WOVEN])
def test_the_hook_table_decides_whether_a_control_send_is_inlined(
        interp_class):
    """A link inside an arm leaves the send inlined: the Boolean
    primitive's `fn` is never called. A link on the send, or on either
    arm block, makes the send call it, until the link is uninstalled. The
    `Block` made from a hooked arm holds the original node (an unhooked
    one holds the original or its copy on the twin's spine)."""
    interp = interp_class()
    interp.run(ARM_SOURCE)
    prim = interp.bool_methods["ifTrue:ifFalse:"]
    calls = []
    fn = prim.fn
    prim.fn = lambda *a: (calls.append(a), fn(*a))[1]
    mdef = interp.method_ast("E", "m")
    send, = find_nodes(mdef, "sends-of", "ifTrue:ifFalse:")
    arms = send.children[1:]
    one, = find_nodes(mdef, "sends-of", "one")
    fired = []

    def run_linked_then_unlinked(site):
        link = MetaLink()
        link.set_meta_object(HostFunction(
            lambda: fired.append(site), "a recorder"))
        link.set_selector("value")
        links.install(interp, link, site)
        assert interp.run("E new m").value == 1
        links.uninstall(interp, link)
        return interp.run("E new m").value

    assert run_linked_then_unlinked(one) == 1
    assert fired == [one] and calls == []
    for site in (send, *arms):
        assert run_linked_then_unlinked(site) == 1
        (_interp, receiver, blocks, _sender), = calls
        assert receiver is True
        assert [block.node.id for block in blocks] == [arm.id for arm in arms]
        if site is not send:    # a hooked arm's `Block` holds the original
            assert blocks[arms.index(site)].node is site
        calls.clear()
    # The send once, the true arm once, the false arm never.
    assert fired == [one, send, arms[0]]


@under_watchdog
@pytest.mark.parametrize("interp_class", [Interpreter, *WOVEN])
def test_context_inside_an_inlined_arm_is_the_arm_activation(interp_class):
    """`#context` at a send inside an inlined arm shows the activation a
    block call would have made: the method's selector and no temps, sent
    from the method's activation."""
    interp = interp_class()
    interp.run("class E [ m: n [ | t |\n"
               "    t := n.\n"
               "    n > 2 ifTrue: [ t := t + 1. t printString ].\n"
               "    ^ t ] ]")
    chains = []

    def record(context):
        chain = []
        while context is not None:
            chain.append((context.describe(), context.temps))
            context = context.sender()
        chains.append(chain)

    link = MetaLink()
    link.set_meta_object(HostFunction(record, "a recorder"))
    link.set_selector("value:")
    link.set_arguments(["context"])
    send = find_nodes(interp.method_ast("E", "m:"), "sends-of", "printString")
    links.install(interp, link, send[0])
    assert interp.run("E new m: 5").value == 6
    assert chains == [[("context(m:)", {}),
                       ("context(m:)", {"n": 5, "t": 6}),
                       ("context(top-level)", {})]]


def test_unlinked_control_sends_visit_no_hook():
    interp = Interpreter()
    assert outcome_of(interp, CONTROL_PROGRAM) == \
        OUTCOMES[PROGRAMS.index(CONTROL_PROGRAM)]
    assert interp.hook_visits == interp.registry_consults == 0


GATE_SOURCE = """class Gate [
    literal: n [ | i odd |
        i := 0. odd := 0.
        [ i < n ] whileTrue: [
            (i = 3 or: [ i = 5 ])
                ifTrue: [ odd := odd + 1 ] ifFalse: [ odd := odd - 1 ].
            i := i + 1 ].
        ^ odd ]
    held: n [ | i odd test body alt yes no |
        i := 0. odd := 0.
        test := [ i < n ].
        alt := [ i = 5 ].
        yes := [ odd := odd + 1 ].
        no := [ odd := odd - 1 ].
        body := [ (i = 3 or: alt) ifTrue: yes ifFalse: no. i := i + 1 ].
        test whileTrue: body.
        ^ odd ]
    to: n [ | t | t := 0. 1 to: n do: [:i | t := t + i ]. ^ t ]
    heldTo: n [ | t b | t := 0. b := [:i | t := t + i ]. 1 to: n do: b. ^ t ]
    times: n [ | t | t := 0. n timesRepeat: [ t := t + 2 ]. ^ t ]
    heldTimes: n [ | t b | t := 0. b := [ t := t + 2 ]. n timesRepeat: b. ^ t ]
]
"""


def gate_runner(selector, n=10, answer=-6):
    """`run(k)` sends `selector` with `n` to a Gate `k` times."""
    interp = Interpreter()
    interp.load(GATE_SOURCE)
    gate = interp.send(interp.class_named("Gate"), "new", [], None)
    assert interp.send(gate, selector, [n], None) == answer

    def run(k):
        for _ in range(k):
            interp.send(gate, selector, [n], None)
        assert interp.hook_visits == interp.registry_consults == 0
    return run


def test_control_sends_of_literal_blocks_run_inlined():
    """The same loop, written with literal blocks, which compile inline,
    and with the blocks held in temps, which every send takes."""
    literal = counts(gate_runner("literal:"), 20)
    held = counts(gate_runner("held:"), 20)
    assert literal[0] <= 0.8 * held[0], (literal, held)
    assert literal[1] <= 0.75 * held[1], (literal, held)


@pytest.mark.parametrize("selector, answer", [("to:", 5050),
                                              ("times:", 200)])
def test_counts_of_literal_blocks_run_inlined(selector, answer):
    """`1 to: 100 do:` and `100 timesRepeat:` of a literal block, which
    compile inline, and of a block held in a temp, which runs the kernel's
    method: the inlined count makes no send, no `whileTrue:` condition arm
    and no block call per step (0.35 times the bytecodes and 0.29 times
    the calls for `to:do:` on CPython 3.11)."""
    held = "held" + selector[0].upper() + selector[1:]
    literal = counts(gate_runner(selector, 100, answer), 20)
    sent = counts(gate_runner(held, 100, answer), 20)
    assert literal[0] <= 0.5 * sent[0], (literal, sent)
    assert literal[1] <= 0.4 * sent[1], (literal, sent)


# -- counts (`compiler.COUNTS`) ---------------------------------------------
# In each program below, `@` marks where the block of a count starts. Five
# spaces there leave a literal block, which the count inlines; `b := `
# holds the block in the temp `b`, so the count is sent and the kernel's
# method runs it. The block starts at the same offset in both, so values,
# output, errors, spans and traces compare as they are.

def literal_and_held(source):
    return source.replace("@", " " * 5), source.replace("@", "b := ")


# Each program: the counts whose kernel method its literal form runs, as
# a send would, in its first step; then its steps, run in turn in one
# interpreter.
COUNT_PROGRAMS = [
    # What inlined counts answer and bind, nested, and `^` from them.
    ((), ["""class E [
    sum: n [ | b t | t := 0. 1 to: n do: (@[:i | t := t + i ]). ^ t ]
    nest: n [ | b t | t := 0.
        n timesRepeat: (@[ 1 to: n do: (@[:i | t := t + i ]) ]). ^ t ]
    find: n [ | b | 1 to: 10 do: (@[:i | i * i > n ifTrue: [ ^ i ] ]). ^ 0 ]
    none [ | b | ^ (3 to: 1 do: (@[:i | i foo ]))
        + (0 timesRepeat: (@[ 1 foo ])) + ((0 - 2) timesRepeat: (@[ 1 foo ])) ]
]
| b |
(E new sum: 4) logCr. (E new nest: 3) logCr. (E new find: 20) logCr.
(E new find: 200) logCr. E new none logCr.
(2 to: 3 do: (@[:i | i logCr ])) logCr. 2 timesRepeat: (@[ 7 logCr ])"""]),
    # A receiver or a stop that is not an int.
    ((), ["| b | 'a' to: 3 do: (@[:i | i ])"]),
    ((), ["| b | nil timesRepeat: (@[ 1 ])"]),
    ((), ["| b | true timesRepeat: (@[ 1 ])"]),
    (("to:do:",), ["class E [ m [ | b | ^ 1 to: nil do: (@[:i | i ]) ] ]\n"
                   "E new m"]),
    (("to:do:",), ["| b | 1 to: true do: (@[:i | i ])"]),
    # A stop of INT_MAX: the kernel's `i + 1` overflows.
    (("to:do:",), ["| b | %d to: %d do: (@[:i | i logCr ])"
                   % (INT_MAX - 1, INT_MAX)]),
    ((), ["| b | %d to: %d do: (@[:i | i logCr ])"
          % (INT_MAX - 2, INT_MAX - 1)]),
    # Errors, halts and `^` inside the block.
    ((), ["class E [ m [ | b | 1 to: 3 do: (@[:i | i = 2 ifTrue: [ i foo ] ]) "
          "] ]\nE new m"]),
    ((), ["class E [ m [ | b | 2 timesRepeat: (@[ y ]) ] ]\nE new m"]),
    ((), ["class E [ m [ | b | ^ 1 to: 3 do: (@[:i | i = 2 ifTrue: "
          "[ Halt now ] ]) ] ]\nE new m"]),
    ((), ["class E [ m [ | b | ^ 2 timesRepeat: (@[ Halt now ]) ] ]\n"
          "E new m"]),
    ((), ["class E [ m [ | b | ^ [ 1 to: 3 do: (@[:i | ^ i ]) ] ] ]\n"
          "E new m value"]),
    # A count redefined by a later load takes over, in code compiled before.
    ((), ["class E [ m [ | b | ^ 1 to: 3 do: (@[:i | i logCr ]) ] ]\nE new m",
          "class Integer [ to: s do: a [ ^ 40 + (a value: s) ] ]\nE new m",
          "class F [ m [ | b | ^ 2 to: 5 do: (@[:i | i ]) ] ]\nF new m"]),
    ((), ["class E [ m [ | b | ^ 2 timesRepeat: (@[ 7 logCr ]) ] ]\nE new m",
          "class Integer [ timesRepeat: a [ ^ 40 + a value ] ]\nE new m"]),
    # So does a method of a primitive that the kernel's loop runs.
    ((), ["class E [ m [ | b | ^ 1 to: 3 do: (@[:i | i logCr ]) ] ]\nE new m",
          "class Integer [ <= x [ ^ false ] ]\nE new m"]),
    ((), ["class E [ m [ | b | ^ 1 to: 3 do: (@[:i | i logCr ]) ] ]\nE new m",
          "class Integer [ + x [ ^ 100 ] ]\nE new m"]),
    ((), ["class E [ m [ | b | ^ 2 timesRepeat: (@[ 7 logCr ]) ] ]\nE new m",
          "class Integer [ < x [ ^ false ] ]\nE new m"]),
    ((), ["class E [ m [ | b | ^ 1 to: 3 do: (@[:i | i logCr ]) ] ]\nE new m",
          "class Block [ value: x [ ^ x ] ]\nE new m"]),
    ((), ["class E [ m [ | b | ^ 2 timesRepeat: (@[ 7 logCr ]) ] ]\nE new m",
          "class Block [ value [ ^ 3 ] ]\nE new m"]),
    ((), ["class E [ m [ | b | ^ 1 to: 3 do: (@[:i | i logCr ]) ] ]\nE new m",
          "class Block [ whileTrue: x [ ^ nil ] ]\nE new m"]),
]


@under_watchdog
@pytest.mark.parametrize("interp_class", [Interpreter, *WOVEN])
@pytest.mark.parametrize("compiles, steps", COUNT_PROGRAMS)
def test_a_count_of_a_literal_block_shows_what_the_kernel_method_shows(
        compiles, steps, interp_class):
    """Whether it runs inlined or falls back to the send, a count of a
    literal block shows what a count of a held block shows. Woven, the
    kernel's methods carry links, so no count is inlined."""
    literal, held = interp_class(), Interpreter()
    for step in steps:
        literal_source, held_source = literal_and_held(step)
        assert outcome_of(literal, literal_source) == \
            outcome_of(held, held_source), step
        if step is steps[0] and interp_class is Interpreter:
            assert {selector for selector in COUNTS
                    if literal.int_methods[selector].code is not None} \
                == set(compiles), step


@pytest.mark.parametrize("body", ["Halt now", "i foo"])
def test_a_trace_from_an_inlined_count_shows_the_kernel_method_frames(body):
    """The method's activation and its `whileTrue:` arm's, as a send of
    `to:do:` would show them."""
    interp = Interpreter()
    shown = outcome_of(interp, "1 to: 3 do: [:i | i = 2 ifTrue: [ %s ] ]"
                       % body)
    assert interp.int_methods["to:do:"].code is None    # it ran inlined
    trace = shown[1][-1]
    assert [frame.split(" (")[0] for frame in trace] == [
        "top-level", "top-level", "Integer>>to:do:", "Integer>>to:do:",
        "top-level"], trace


COUNT_LINK_SOURCE = """class E [ m: n [ | b t |
    t := 0.
    1 to: n do: (@[:i | t := t + i. t printString ]).
    n timesRepeat: (@[ t := t + 1 ]).
    ^ t ] ]
"""


@under_watchdog
def test_a_link_on_a_count_its_block_or_its_kernel_method_fires_alike():
    """A link on a count's send or on its block keeps the count from being
    inlined, and so does one on a node of the kernel's method, which weaves
    it a twin. Each fires as it does for a held block; once it is gone,
    the count runs inlined again and calls no `value` primitive."""
    interps, sites, calls = {}, {}, {}
    for form, source in zip(("literal", "held"),
                            literal_and_held(COUNT_LINK_SOURCE)):
        interp = interps[form] = Interpreter()
        interp.run(source)
        calls[form] = []
        for selector in ("value", "value:"):
            prim = interp.block_methods[selector]
            prim.fn = lambda *a, fn=prim.fn, seen=calls[form]: \
                (seen.append(a), fn(*a))[1]
        mdef = interp.method_ast("E", "m:")
        kernel = interp.method_ast("Integer", "to:do:")
        blocks = [node for node in mdef.walk() if node.kind == BLOCK]
        sites[form] = [*find_nodes(mdef, "sends-of", "to:do:"), blocks[0],
                       *find_nodes(mdef, "sends-of", "timesRepeat:"),
                       blocks[1], *find_nodes(kernel, "sends-of", "value:")]
    literal = interps["literal"]
    assert outcome_of(literal, "E new m: 3")[1] == ("9", [])
    assert calls["literal"] == []
    for k in range(5):
        shown = {}
        for form, interp in interps.items():
            fired = shown[form] = []
            link = MetaLink()
            link.set_meta_object(HostFunction(
                lambda fired=fired: fired.append("fired"), "a recorder"))
            link.set_selector("value")
            links.install(interp, link, sites[form][k])
            calls[form].clear()
            fired.append(outcome_of(interp, "E new m: 3"))
            links.uninstall(interp, link)
        assert shown["literal"] == shown["held"], k
        # The send once, the block 3 times, the kernel's `value:` 3 times.
        assert shown["literal"].count("fired") == (1, 3, 1, 3, 3)[k]
        assert calls["literal"], k      # the linked count was sent
        calls["literal"].clear()
        assert outcome_of(literal, "E new m: 3")[1] == ("9", [])
        assert calls["literal"] == [], k
    assert literal.int_methods["to:do:"].twin is None


@under_watchdog
def test_context_inside_a_count_shows_the_kernel_method_activations():
    """`#context` at a send in an inlined count's block shows what the
    kernel's method would make: the block's activation, the `whileTrue:`
    arm's, and the method's, holding its arguments and `i`."""
    chains = {}
    for form, source in zip(("literal", "held"),
                            literal_and_held(COUNT_LINK_SOURCE)):
        interp = Interpreter()
        interp.run(source)
        chain = chains[form] = []

        def record(context, chain=chain, interp=interp):
            while context is not None:
                chain.append((context.describe(), {
                    name: interp.print_string(value)
                    for name, value in context.temps.items() if name != "b"}))
                context = context.sender()

        link = MetaLink()
        link.set_meta_object(HostFunction(record, "a recorder"))
        link.set_selector("value:")
        link.set_arguments(["context"])
        send, = find_nodes(interp.method_ast("E", "m:"), "sends-of",
                           "printString")
        links.install(interp, link, send)
        assert interp.run("E new m: 2").value == 5
    assert chains["literal"] == chains["held"]
    assert chains["literal"][:5] == [
        ("context(m:)", {"i": "1"}), ("context(to:do:)", {}),
        ("context(to:do:)", {"stop": "2", "aBlock": "a Block", "i": "1"}),
        ("context(m:)", {"n": "2", "t": "1"}), ("context(top-level)", {})]
