"""Compiled method bodies (`mklang.compiler`) against the tree-walker.

A disabled link on a method's root weaves a twin of it, and a twin runs
on the tree-walker. `TreeWalked` puts one on every method it compiles, the
kernel's included, so the same program runs both ways with no flag.
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
from mklang.values import INT_MAX, HostFunction
from progen import gen_program


class TreeWalked(Interpreter):
    """An interpreter that runs every method on the tree-walker."""

    def _compile_method(self, cls, mdef, source):
        record = super()._compile_method(cls, mdef, source)
        link = MetaLink()
        link.set_meta_object(HostFunction(lambda: None, "a no-op"))
        link.set_selector("value")
        link.disable()
        self.install(link, mdef)
        return record


def records(interp):
    return [rec for cls in interp.classes.values()
            for rec in cls.methods.values()
            if isinstance(rec, CompiledMethodRecord)]


def outcome(interp_class, source, seed=0):
    """What a run shows: output, value or error, span and trace."""
    interp = interp_class(seed=seed)
    try:
        result = interp.run(source)
    except MkSyntaxError:
        raise
    except MkError as exc:
        shown = (type(exc).__name__, str(exc), exc.span, exc.trace)
    else:
        shown = (interp.print_string(result.value), result.trace)
    if interp_class is TreeWalked:
        assert all(rec.code is None for rec in records(interp))
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


def test_compiled_and_tree_walked_runs_agree():
    sources = [(p.source, p.seed) for seed in (1, 2, 3)
               for p in make_programs(seed)]
    sources += [(gen_program(random.Random(i))[0], 0) for i in range(50)]
    sources += [(source, 0) for source in PROGRAMS]
    for source, seed in sources:
        assert outcome(Interpreter, source, seed) \
            == outcome(TreeWalked, source, seed), source


def test_listings_agree_compiled_and_tree_walked(monkeypatch):
    compiled = run_all(seed=0)
    monkeypatch.setattr(mklang.listings, "Interpreter", TreeWalked)
    assert run_all(seed=0) == compiled
    assert all(result.passed for result in compiled)


def test_a_method_on_integer_runs_from_compiled_code():
    interp = Interpreter()
    interp.run("class E [ m [ ^ (5 + 4) + (7 \\\\ 2) ] ]")
    assert interp.run("E new m").value == 10
    # `E>>m` is compiled now; its inlined sends see the new methods.
    assert interp.lookup_method("E", "m").code is not None
    interp.run("class Integer [ + x [ ^ 42 ] \\\\ x [ ^ 0 - x ] ]")
    assert interp.run("E new m").value == 42
    assert interp.run("3 \\\\ 5").value == -5


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


def fib_runner(interp_class):
    interp = interp_class()
    interp.load(FIB_SOURCE)
    fib = interp.send(interp.class_named("Fib"), "new", [], None)

    def run(n):
        for _ in range(n):
            interp.send(fib, "fib:", [10], None)
    return run


def test_compiled_fib_runs_at_most_six_tenths_of_the_walked_bytecodes():
    compiled, _ = counts(fib_runner(Interpreter), 5)
    walked, _ = counts(fib_runner(TreeWalked), 5)
    assert compiled <= 0.6 * walked


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
