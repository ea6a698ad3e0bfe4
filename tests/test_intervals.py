"""The id interval rule: the parser numbers each node as it finishes it, so
every subtree's ids are exactly `id_interval` of its root, and that
interval is all that locates a node of a loaded method (`record.node_ids`,
`Interpreter.node_owner`, `links.descend`)."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mklang import listings
from mklang.bench import synthetic_corpus
from mklang.interpreter import CompiledMethodRecord, Interpreter
from mklang.kernel import KERNEL_SOURCE
from mklang.links import descend
from mklang.nodes import METHOD_DEF, id_interval, unparse
from mklang.parser import parse, parse_method
from progen import gen_program


def assert_intervals(root):
    """Every subtree under `root` holds exactly the ids of its root's
    interval, and each node's children come in increasing id order."""
    for node in root.walk():
        assert sorted(n.id for n in node.walk()) == list(id_interval(node))
        ids = [c.id for c in node.children]
        assert ids == sorted(ids)


def assert_located(interp):
    """Each live method's record holds its interval, `node_owner` answers
    it for each of its ids and nothing else, and one descent from its root
    reaches each of its nodes."""
    records = [m for cls in interp.classes.values()
               for m in cls.methods.values()
               if isinstance(m, CompiledMethodRecord)]
    assert len(interp.node_owner) == len(records)
    for record in records:
        root = record.original_ast
        assert record.node_ids == id_interval(root)
        for node in root.walk():
            assert interp.node_owner.get(node.id) is record
            assert descend(root, node.id)[0] is node
        for outside in (record.node_ids[0] - 1, root.id + 1):
            assert interp.node_owner.get(outside) is not record


@pytest.fixture(scope="module")
def listing_sources():
    """The sources the bundled listings load, captured as they run."""
    sources = []

    class Recording(Interpreter):
        def load(self, source, file="<string>"):
            sources.append(source)
            return super().load(source, file)

    saved, listings.Interpreter = listings.Interpreter, Recording
    try:
        assert all(r.passed for r in listings.run_all())
    finally:
        listings.Interpreter = saved
    assert len(sources) == len(listings.LISTINGS)
    return sources


SOURCES = st.one_of(
    st.just(KERNEL_SOURCE),
    st.integers(0, len(listings.LISTINGS) - 1).map(lambda i: ("listing", i)),
    st.integers(0, 2 ** 32).map(
        lambda seed: gen_program(random.Random(seed))[0]),
    st.integers(1, 120).map(synthetic_corpus),
)


@settings(max_examples=60, deadline=None)
@given(source=SOURCES)
def test_every_subtree_of_a_parse_and_every_loaded_method_is_an_interval(
        source, listing_sources):
    if isinstance(source, tuple):
        source = listing_sources[source[1]]
    program = parse(source)
    for root in program.classes + [program.main]:
        assert_intervals(root)
    for cdef in program.classes:
        for mdef in cdef.children:
            if mdef.kind == METHOD_DEF:
                assert_intervals(parse_method(unparse(mdef)))
    interp = Interpreter()
    interp.load(source)
    assert_located(interp)


def test_parses_in_four_threads_keep_every_interval():
    """Two interpreters may parse in two threads at once; each parse draws
    its ids under one lock, so no parse's ids interleave with another's.
    A switch interval of a microsecond makes the threads trade the
    interpreter lock inside each parse."""
    programs = [gen_program(random.Random(seed))[0] for seed in range(25)]
    methods = [unparse(mdef) for source in programs
               for mdef in parse(source).classes[0].children
               if mdef.kind == METHOD_DEF][:25]
    assert len(methods) == 25
    results = [[] for _ in range(4)]
    barrier = threading.Barrier(4)

    def work(out):
        barrier.wait(timeout=30)
        for source, method in zip(programs, methods):
            program = parse(source)
            out.extend(program.classes + [program.main])
            out.append(parse_method(method))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,))
                   for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    seen = set()
    for out in results:
        assert sum(root.kind == METHOD_DEF for root in out) == 25
        for root in out:
            assert_intervals(root)
            ids = set(id_interval(root))
            assert not ids & seen
            seen |= ids
