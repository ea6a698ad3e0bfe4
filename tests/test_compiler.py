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
from mklang import Interpreter, MetaLink
from mklang.bench import counts
from mklang.errors import MkError, MkSyntaxError
from mklang.interpreter import CompiledMethodRecord
from mklang.listings import run_all
from mklang.nodes import ASSIGNMENT, VAR_READ, SourceSpan, find_nodes
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
        self.install(disabled_link(), mdef)
        return record


class HookedVariables(Hooked):
    """`Hooked`, with a disabled link on every assignment and every
    variable read of every method as well."""

    def _compile_method(self, cls, mdef, source):
        record = super()._compile_method(cls, mdef, source)
        link = disabled_link()
        for node in mdef.walk():
            if node.kind in (ASSIGNMENT, VAR_READ):
                self.install(link, node)
        return record


WOVEN = (Hooked, HookedVariables)


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


# Programs beside the corpora: variables at every depth, sends of every
# argument count, super, non-local returns, and the errors of inlined
# Integer sends, each raised inside a method.
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
]


def test_each_program_shows_its_pinned_outcome_plain_and_woven():
    assert len(OUTCOMES) == len(PROGRAMS)
    for source, expected in zip(PROGRAMS, OUTCOMES):
        assert outcome(Interpreter, source) == expected, source
        for woven in WOVEN:
            assert outcome(woven, source) == expected, (woven, source)


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
        interp.install(link, plus)
        assert interp.run("A new m").value == 9
        (woven_first, woven_second), woven_ret = record.twin.code
        assert woven_first is first and woven_ret is ret
        assert woven_second is not second
        interp.uninstall(link)
        assert record.twin is None


def test_compiled_code_leaves_no_cyclic_garbage():
    """A closure captures nodes, names and closures, never an interpreter:
    reference counting frees an interpreter that ran compiled methods and
    blocks, with no cycle left for the collector."""
    gc.collect()
    gc.disable()
    try:
        interp = Interpreter()
        interp.run("""class A [ | s |
    initialize [ s := 0 ]
    add: n [ 1 to: n do: [:i | [:j | s := s + j ] value: i ]. ^ s ]
    find: n [ #(1 2 3) do: [:x | x = n ifTrue: [ ^ x ] ]. ^ 0 ]
]
| a |
a := A new.
(a add: 4) logCr.
(a find: 2) logCr""")
        assert interp.output_text() == "10\n2\n"
        assert interp.lookup_method("A", "find:").code is not None
        assert interp.lookup_method("Integer", "to:do:").code is not None
        del interp
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
        interp.install(disabled_link(), plus[0])
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
