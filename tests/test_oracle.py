"""Differential oracle: mklang against the benchmark's reference evaluator.

`mkbench.gen` builds seeded classes as tuple trees and computes, in plain
Python, what each method answers on a fresh instance. The generated
methods read parameters, temps and slots, also inside `ifTrue:` blocks,
so they go through the whole lexical lookup chain. Each class is checked
unlinked and again under a no-op before-link, which must not change any
answer.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkbench import gen
from mklang import Interpreter, MetaLink
from mklang.links import install
from mklang.values import HostFunction
from progen import installable_nodes

SHAPES = (gen.SMALL, gen.MEDIUM, gen.LARGE)
SLOTS = ["s0", "s1", "s2"]
SITES_PER_METHOD = 5


@pytest.mark.parametrize("linked", [False, True], ids=["unlinked", "linked"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), p=st.integers(0, gen.MOD - 1))
def test_generated_methods_answer_what_the_reference_computes(linked, seed,
                                                              p):
    rng = random.Random(seed)
    cls = gen.gen_class(rng, "G", SLOTS, SHAPES, chain=True)
    interp = Interpreter()
    interp.run(gen.render_class(cls))
    fired = []
    if linked:
        link = MetaLink()
        link.set_meta_object(HostFunction(lambda: fired.append(1), "a no-op"))
        link.set_selector("value")
        link.set_control("before")
        for m in cls.methods:
            nodes = installable_nodes(interp.lookup_method("G", m.selector))
            for node in rng.sample(nodes, min(SITES_PER_METHOD, len(nodes))):
                install(interp, link, node)
    for m in cls.methods:
        got = interp.run("^ G new %s %d" % (m.selector, p)).value
        assert got == gen.fresh_value(cls, m.selector, p), (
            m.selector, gen.render_class(cls))
    assert bool(fired) == (interp.hook_visits > 0)
