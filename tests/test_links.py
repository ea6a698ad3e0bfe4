import gc
import random
import sys
import threading
import weakref
from types import SimpleNamespace

import pytest

import mklang.interpreter as mk_interp
import mklang.parser as mk_parser
from mklang import Interpreter, MetaLink, links, reify
from mklang.errors import (
    AlreadyInvoked, ArityMismatch, InapplicableReification, InsteadConflict,
    MkRuntimeError, NodeNotInstallable, PhaseUnavailable,
)
from mklang.interpreter import CompiledMethodRecord
from mklang.links import (
    LinkRegistry, descend, install, invalidate, remove, uninstall,
)
from mklang.nodes import (
    BLOCK, META_HOOK, dump, find_nodes, id_interval, unparse,
)
from mklang.parser import parse_method
from mklang.values import Array, HostFunction
from progen import gen_program, installable_nodes, woven_from_scratch

SOURCE = """class Counter [ | count |
    initialize [ count := 0 ]
    increment [ count := count + 1 ]
    count [ ^ count ]
]
"""


@pytest.fixture
def interp():
    i = Interpreter()
    i.run(SOURCE)
    return i


def recording_link(sink, tag, control="before", reifs=(), level=0):
    link = MetaLink()
    link.set_meta_object(HostFunction(
        lambda *a: sink.append((tag,) + a), "recorder %s" % tag))
    link.set_selector("value" if not reifs else "value:" * len(reifs))
    link.set_arguments(tuple(reifs))
    link.set_control(control)
    link.set_level(level)
    return link


def increment_node(interp, query="writes-of", arg="count"):
    return find_nodes(interp.method_ast("Counter", "increment"), query, arg)[0]


def test_install_weaves_a_twin_and_leaves_the_original_alone(interp):
    record = interp.lookup_method("Counter", "increment")
    before = unparse(record.original_ast)
    link = recording_link([], "a")
    install(interp, link, increment_node(interp))
    assert record.twin is not None
    assert unparse(record.original_ast) == before
    assert all(n.kind != META_HOOK for n in record.original_ast.walk())
    assert any(n.kind == META_HOOK for n in record.twin.woven_ast.walk())


def test_twin_exists_iff_links(interp):
    record = interp.lookup_method("Counter", "increment")
    link = recording_link([], "a")
    node = increment_node(interp)
    assert record.twin is None
    install(interp, link, node)
    assert record.twin is not None
    remove(interp, link, node)
    assert record.twin is None
    install(interp, link, node)
    uninstall(interp, link)
    assert record.twin is None
    assert link not in interp.registry.sites


def test_second_install_reuses_the_twin_incrementally(interp):
    record = interp.lookup_method("Counter", "increment")
    install(interp, recording_link([], "a"), increment_node(interp))
    twin = record.twin
    install(interp, recording_link([], "b"),
            increment_node(interp, "sends-of", "+"))
    assert record.twin is twin          # extended in place, not rebuilt
    assert len(record.twin.hook_table) == 2


def test_before_links_fire_in_install_order_after_links_reversed(interp):
    sink = []
    node = increment_node(interp)
    for tag in ("b1", "b2"):
        install(interp, recording_link(sink, tag, "before"), node)
    for tag in ("a1", "a2"):
        install(interp, recording_link(sink, tag, "after"), node)
    interp.run("Counter new increment")
    assert [t for t, in sink] == ["b1", "b2", "a2", "a1"]


def test_instead_replaces_the_operation(interp):
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda: 100, "a constant"))
    link.set_selector("value")
    link.set_control("instead")
    install(interp, link, increment_node(interp, "sends-of", "+"))
    assert interp.run("""| c |
c := Counter new. c increment. c count logCr""").output == "100\n"


def test_second_instead_on_same_scope_conflicts(interp):
    node = increment_node(interp)
    first = MetaLink()
    first.set_meta_object(HostFunction(lambda: 1, ""))
    first.set_selector("value")
    first.set_control("instead")
    install(interp, first, node)
    second = MetaLink()
    second.set_meta_object(HostFunction(lambda: 2, ""))
    second.set_selector("value")
    second.set_control("instead")
    with pytest.raises(InsteadConflict):
        install(interp, second, node)
    # ...but a different scope (object-centric) is fine, and wins.
    target = interp.send(interp.class_named("Counter"), "new", [], None)
    install(interp, second, node, target)


def test_object_centric_instead_takes_precedence(interp):
    node = increment_node(interp, "sends-of", "+")
    class_wide = MetaLink()
    class_wide.set_meta_object(HostFunction(lambda: 11, ""))
    class_wide.set_selector("value")
    class_wide.set_control("instead")
    install(interp, class_wide, node)
    target = interp.send(interp.class_named("Counter"), "new", [], None)
    specific = MetaLink()
    specific.set_meta_object(HostFunction(lambda: 22, ""))
    specific.set_selector("value")
    specific.set_control("instead")
    install(interp, specific, node, target)
    other = interp.send(interp.class_named("Counter"), "new", [], None)
    interp.send(target, "increment", [], None)
    interp.send(other, "increment", [], None)
    assert interp.send(target, "count", [], None) == 22
    assert interp.send(other, "count", [], None) == 11


def test_object_centric_links_fire_only_for_their_target(interp):
    sink = []
    node = increment_node(interp)
    target = interp.send(interp.class_named("Counter"), "new", [], None)
    other = interp.send(interp.class_named("Counter"), "new", [], None)
    install(interp, recording_link(sink, "oc", reifs=("object",)), node,
            target)
    interp.send(target, "increment", [], None)
    interp.send(other, "increment", [], None)
    interp.send(target, "increment", [], None)
    assert [obj for _, obj in sink] == [target, target]


def test_disabled_link_stays_woven_but_silent(interp):
    sink = []
    record = interp.lookup_method("Counter", "increment")
    link = recording_link(sink, "a")
    install(interp, link, increment_node(interp))
    link.disable()
    interp.run("Counter new increment")
    assert sink == [] and record.twin is not None
    link.enable()
    interp.run("Counter new increment")
    assert len(sink) == 1


def test_condition_gates_firing_and_runs_at_meta_level(interp):
    sink = []
    levels = []
    link = recording_link(sink, "a", "after", reifs=("newValue",))

    def condition(new_value):
        levels.append(interp.meta_level)
        return new_value > 1

    link.set_condition(HostFunction(condition, "a condition"),
                       ("newValue",))
    install(interp, link, increment_node(interp))
    interp.run("| c | c := Counter new. 3 timesRepeat: [ c increment ]")
    assert [v for _, v in sink] == [2, 3]
    assert levels == [1, 1, 1]          # condition evaluated at meta level


def test_level_gate(interp):
    sink = []
    node = increment_node(interp)
    install(interp, recording_link(sink, "lvl1", level=1), node)
    always = recording_link(sink, "lvl1 true", reifs=("object",), level=1)
    always.set_condition(True)
    install(interp, always, node)
    interp.run("Counter new increment")
    assert sink == []                   # base level is 0, link wants 1
    assert interp.meta_level == 0


def test_link_not_fully_configured_rejected_at_install(interp):
    link = MetaLink()
    with pytest.raises(ArityMismatch):
        install(interp, link, increment_node(interp))


def test_selector_arity_must_match_reification_count(interp):
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda *a: None, ""))
    link.set_selector("value:value:")
    link.set_arguments(("object",))
    with pytest.raises(ArityMismatch):
        install(interp, link, increment_node(interp))


def test_meta_object_must_understand_the_selector(interp):
    link = MetaLink()
    link.set_meta_object(interp.send(interp.class_named("Counter"), "new",
                                     [], None))
    link.set_selector("noSuchMessage")
    with pytest.raises(ArityMismatch):
        install(interp, link, increment_node(interp))


def test_block_meta_object_arity_checked(interp):
    block = interp.run("^ [ :a :b | a ]").value
    link = MetaLink()
    link.set_meta_object(block)
    link.set_selector("value:")
    link.set_arguments(("object",))
    with pytest.raises(ArityMismatch):
        install(interp, link, increment_node(interp))


@pytest.mark.parametrize("condition, kinds", [
    ("3", ()),
    ("'yes'", ()),
    ("[ :a | a ]", ()),
    ("[ true ]", ("object",)),
    ("Counter new", ()),
])
def test_a_condition_that_cannot_answer_is_rejected(interp, condition,
                                                     kinds):
    link = recording_link([], "c")
    link.set_condition(interp.run("^ " + condition).value, kinds)
    with pytest.raises(ArityMismatch, match="condition does not understand"):
        install(interp, link, increment_node(interp))
    ok = recording_link([], "ok")
    install(interp, ok, increment_node(interp))
    ok.set_condition(interp.run("^ " + condition).value, kinds)
    with pytest.raises(ArityMismatch, match="condition does not understand"):
        invalidate(interp, ok)


def test_a_condition_changed_to_one_that_cannot_answer_keeps_firing_the_old(
        interp):
    sink = []
    link = recording_link(sink, "c")
    link.set_condition(True)
    install(interp, link, increment_node(interp))
    link.set_condition(3)               # no `invalidate`
    interp.run("| c | c := Counter new. c increment. c increment")
    assert sink == [("c",), ("c",)]


def test_an_instance_that_understands_value_is_a_condition(interp):
    interp.run("class Every [ | n | value [ n := (n ifNil: [ 0 ]) + 1. "
               "^ n \\\\ 2 = 0 ] value: x [ ^ x > 1 ] ]")
    sink = []
    every_other = recording_link(sink, "every other")
    every_other.set_condition(interp.run("^ Every new").value)
    install(interp, every_other, increment_node(interp))
    above_one = recording_link(sink, "above one", "after", ("newValue",))
    above_one.set_condition(interp.run("^ Every new").value, ("newValue",))
    install(interp, above_one, increment_node(interp))
    interp.run("| c | c := Counter new. 4 timesRepeat: [ c increment ]")
    assert sink == [("every other",), ("above one", 2),
                    ("above one", 3), ("every other",), ("above one", 4)]


def test_inapplicable_reification_rejected_at_install(interp):
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda v: None, ""))
    link.set_selector("value:")
    link.set_arguments(("newValue",))
    node = increment_node(interp, "sends-of", "+")   # a message send
    with pytest.raises(InapplicableReification):
        install(interp, link, node)


def test_not_installable_nodes(interp):
    method = parse_method("orphan [ ^ 1 ]")
    link = recording_link([], "a")
    with pytest.raises(NodeNotInstallable):
        install(interp, link, method)   # not part of any loaded class


def test_object_centric_target_must_be_a_reference_object(interp):
    link = recording_link([], "a")
    with pytest.raises(MkRuntimeError):
        install(interp, link, increment_node(interp), 42)


def test_mutating_an_installed_link_revalidates_lazily(interp):
    sink = []
    link = recording_link(sink, "a")
    install(interp, link, increment_node(interp))
    interp.run("Counter new increment")
    assert len(sink) == 1
    # Invalid mutation: selector arity no longer matches the requests.
    link.set_selector("value:value:")
    interp.run("Counter new increment")
    assert len(sink) == 2               # previous snapshot stayed active
    with pytest.raises(ArityMismatch):
        interp.invalidate(link)
    # Valid mutation picked up on the next trigger after invalidate.
    link.set_selector("value:")
    link.set_arguments(("object",))
    interp.invalidate(link)
    interp.run("Counter new increment")
    assert len(sink[-1]) == 2           # now fires with one reification


def test_links_can_attach_to_kernel_methods(interp):
    sink = []
    node = interp.method_ast("Object", "logCr")
    link = recording_link(sink, "k", reifs=("object",))
    install(interp, link, node)
    interp.run("5 logCr")
    assert [v for _, v in sink] == [5]
    uninstall(interp, link)


def test_weave_is_idempotent_from_registry_state(interp):
    record = interp.lookup_method("Counter", "increment")
    link = recording_link([], "a")
    install(interp, link, increment_node(interp))
    record.twin = woven_from_scratch(interp, record)
    assert len(record.twin.hook_table) == 1
    assert interp.run("""| c |
c := Counter new. c increment. c count logCr""").output == "1\n"


def test_a_cold_install_weaves_from_the_one_path_install_found(
        interp, monkeypatch):
    # The traced benchmark wraps `links.weave`: every cold install calls
    # it, once; a hot one does not. Neither scans the method's ids, and
    # each walks down its method once, in `install`.
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, counted)

    counting(links, "weave")
    counting(links, "descend")
    counting(links.LinkRegistry, "linked_ids")
    record = interp.lookup_method("Counter", "increment")
    write, read = (increment_node(interp, query, "count")
                   for query in ("writes-of", "reads-of"))
    install(interp, recording_link([], "cold"), write)
    assert calls == ["descend", "weave"]
    install(interp, recording_link([], "hot"), read)
    assert calls == ["descend", "weave", "descend"]
    assert set(record.twin.hook_table) == {write.id, read.id}
    assert interp.run("""| c |
c := Counter new. c increment. c count logCr""").output == "1\n"


def test_linked_ids_match_a_scan_of_every_node_on_random_registries():
    """`linked_ids` filters a range of ids from the smaller side, the
    registry's tables or the range; on any registry and range it answers
    what asking `has_links` of each id does."""
    rng = random.Random(7)
    sides = set()
    for _ in range(300):
        reg = LinkRegistry()
        links = [MetaLink() for _ in range(3)]
        targets = [object() for _ in range(3)]
        sites = []
        for _ in range(rng.randrange(12)):
            site = (rng.randrange(1, 80), rng.choice(links),
                    rng.choice([None] + targets))
            reg.add(SimpleNamespace(id=site[0]), *site[1:])
            sites.append(site)
        for site in rng.sample(sites, rng.randrange(len(sites) + 1)):
            reg.remove(*site)
        low = rng.randrange(1, 80)
        node_ids = range(low, low + rng.choice((rng.randrange(4),
                                                 rng.randrange(60))))
        assert reg.linked_ids(node_ids) == \
            {nid for nid in node_ids if reg.has_links(nid)}
        sides.add(len(node_ids) < len(reg.class_wide))
    assert sides == {True, False}


def test_per_node_remove_unwraps_in_place_without_copying():
    interp = Interpreter()
    interp.run("class Big [ run [ | s | s := 0.\n%s\n^ s ] ]"
               % "\n".join(["s := s + 1."] * 200))
    record = interp.lookup_method("Big", "run")
    sends = find_nodes(record.original_ast, "sends-of", "+")
    assert len(sends) == 200
    link = recording_link([], "a")
    for node in sends:
        install(interp, link, node)
    twin = record.twin
    spine = dict(twin.copies)
    for node in sends[:-1]:
        remove(interp, link, node)
        assert record.twin is twin
        assert twin.copies == spine     # the same copies, none added
    assert list(twin.hook_table) == [sends[-1].id]
    remove(interp, link, sends[-1])
    assert record.twin is None
    assert twin.copies == spine
    assert interp.run("Big new run logCr").output == "200\n"


def test_uninstall_and_invalidate_keep_the_twin(interp):
    record = interp.lookup_method("Counter", "increment")
    sink = []
    write, plus = increment_node(interp), increment_node(interp, "sends-of",
                                                         "+")
    first, second = recording_link(sink, "a"), recording_link(sink, "b")
    install(interp, first, write)
    install(interp, second, plus)
    twin = record.twin
    spine = dict(twin.copies)
    uninstall(interp, first)
    assert record.twin is twin
    assert list(twin.hook_table) == [plus.id]
    second.set_selector("value:")
    second.set_arguments(("selector",))
    invalidate(interp, second)
    assert record.twin is twin
    assert twin.copies == spine         # the same copies, none added
    interp.run("Counter new increment")
    assert sink == [("b", "+")]         # fires with the new config


LOOP_SOURCE = """class Loop [
    run [ | s | s := 0. 1 to: 5 do: [ :i | s := s + i ]. ^ s ]
]
"""


def test_meta_object_removes_its_own_link_inside_a_loop():
    interp = Interpreter()
    interp.run(LOOP_SOURCE)
    record = interp.lookup_method("Loop", "run")
    node = find_nodes(record.original_ast, "sends-of", "+")[0]
    fires = []
    link = MetaLink()

    def remove_self():
        fires.append(interp.meta_level)
        remove(interp, link, node)

    link.set_meta_object(HostFunction(remove_self, "self-removing"))
    link.set_selector("value")
    install(interp, link, node)
    assert interp.run("Loop new run logCr").output == "15\n"
    assert fires == [1]
    assert record.twin is None
    install(interp, link, node)
    assert interp.run("Loop new run logCr").output == "15\n"
    assert fires == [1, 1]
    assert record.twin is None


def test_meta_object_removes_its_own_link_while_another_stays():
    interp = Interpreter()
    interp.run(LOOP_SOURCE)
    record = interp.lookup_method("Loop", "run")
    node = find_nodes(record.original_ast, "sends-of", "+")[0]
    fires = []
    stays = recording_link(fires, "stays", control="after")
    leaves = MetaLink()

    def leave():
        fires.append(("leaves",))
        remove(interp, leaves, node)

    leaves.set_meta_object(HostFunction(leave, "self-removing"))
    leaves.set_selector("value")
    install(interp, stays, node)
    install(interp, leaves, node)
    assert interp.run("Loop new run logCr").output == "15\n"
    # The trigger that removed it finishes with the links it started with;
    # the next ones run without it.
    assert fires == [("leaves",), ("stays",)] + [("stays",)] * 4
    assert list(record.twin.hook_table) == [node.id]


def test_link_on_a_block_removes_itself_from_the_block_body():
    # The block's before-link unmarks the body's hook before the body
    # runs; the body then runs as the plain node it is again.
    interp = Interpreter()
    interp.run(LOOP_SOURCE)
    record = interp.lookup_method("Loop", "run")
    block = next(n for n in record.original_ast.walk() if n.kind == BLOCK)
    body = block.children[0]
    fires = []
    link = MetaLink()

    def leave():
        fires.append("leaves")
        uninstall(interp, link)

    link.set_meta_object(HostFunction(leave, "self-removing"))
    link.set_selector("value")
    install(interp, link, block)
    install(interp, link, body)
    assert interp.run("Loop new run logCr").output == "15\n"
    assert fires == ["leaves"]
    assert record.twin is None


# A hook fires from the snapshot each link has in the registry; these
# change a link through its setters, which only bump its version, and the
# next trigger revalidates it.

def test_setter_on_an_installed_link_applies_at_the_next_trigger(interp):
    sink = []
    link = recording_link(sink, "a")
    install(interp, link, increment_node(interp, "sends-of", "+"))
    interp.run("Counter new increment")
    link.set_control("after")
    link.set_selector("value:")
    link.set_arguments(("value",))      # a send has a value only after
    interp.run("Counter new increment")
    assert sink == [("a",), ("a", 1)]


def test_disable_and_enable_apply_at_the_next_trigger(interp):
    sink = []
    link = recording_link(sink, "a")
    install(interp, link, increment_node(interp))
    interp.run("Counter new increment")
    link.disable()
    interp.run("Counter new increment")
    link.enable()
    interp.run("Counter new increment")
    assert sink == [("a",), ("a",)]


def test_invalid_mutation_waits_until_the_meta_object_understands(interp):
    interp.run("class Probe [ first [ 'first' logCr ] ]")
    link = MetaLink()
    link.set_meta_object(interp.run("Probe new").value)
    link.set_selector("first")
    install(interp, link, increment_node(interp))
    assert interp.run("Counter new increment").output == "first\n"
    link.set_selector("second")         # Probe does not understand it yet
    for _ in range(2):
        assert interp.run("Counter new increment").output == "first\n"
    interp.load("class Probe [ second [ 'second' logCr ] ]")
    assert interp.run("Counter new increment").output == "second\n"


def test_a_clean_link_installed_on_a_node_that_already_fired(interp):
    sink = []
    write, plus = increment_node(interp), increment_node(interp, "sends-of",
                                                         "+")
    first, shared = recording_link(sink, "first"), recording_link(sink, "b")
    install(interp, first, plus)
    install(interp, shared, write)
    interp.run("Counter new increment")     # both nodes fire
    install(interp, shared, plus)           # no new snapshot: still clean
    interp.run("Counter new increment")
    assert sink == [("first",), ("b",), ("first",), ("b",), ("b",)]


def recorder(sink, tag):
    return HostFunction(lambda: sink.append(tag), "recorder %s" % tag)


def test_each_snapshot_applies_at_every_site_at_the_next_trigger(interp):
    sink = []
    write, plus = increment_node(interp), increment_node(interp, "sends-of",
                                                         "+")
    link = MetaLink()
    link.set_meta_object(recorder(sink, "install"))
    link.set_selector("value")
    install(interp, link, write)
    interp.run("Counter new increment")
    install(interp, link, plus)         # a clean link keeps its snapshot
    interp.run("Counter new increment")
    link.set_meta_object(recorder(sink, "invalidate"))
    invalidate(interp, link)
    interp.run("Counter new increment")
    link.set_meta_object(recorder(sink, "lazy"))
    interp.run("Counter new increment")
    # `+` runs before the write it computes the value of.
    assert sink == ["install"] * 3 + ["invalidate"] * 2 + ["lazy"] * 2


def test_one_link_in_two_interpreters_follows_its_setters_in_both():
    sink = []
    first, second = Interpreter(), Interpreter()
    link = MetaLink()
    link.set_meta_object(recorder(sink, "before"))
    link.set_selector("value")
    for each in (first, second):
        each.run(SOURCE)
        install(each, link, increment_node(each))
        each.run("Counter new increment")
    link.set_meta_object(recorder(sink, "changed"))
    for each in (first, second):
        each.run("Counter new increment")
    assert sink == ["before", "before", "changed", "changed"]


def linked_twice(link):
    """Two interpreters loaded from one source, `link` on the same node of
    each."""
    pair = Interpreter(), Interpreter()
    for each in pair:
        each.run(SOURCE)
        install(each, link, increment_node(each))
    return pair


def assert_unlinked(sink, interps):
    for each in interps:
        assert not each.registry.has_links(increment_node(each).id)
        assert each.class_named("Counter").methods["increment"].twin is None
        each.run("Counter new increment")
    assert sink == []


def test_remove_in_one_interpreter_then_uninstall_in_the_other():
    sink = []
    link = recording_link(sink, "fired")
    first, second = linked_twice(link)
    remove(first, link, increment_node(first))
    uninstall(second, link)
    assert all(link not in each.registry.sites for each in (first, second))
    assert_unlinked(sink, (first, second))


def test_uninstall_in_one_interpreter_keeps_the_others_sites():
    sink = []
    link = recording_link(sink, "fired")
    first, second = linked_twice(link)
    uninstall(second, link)
    uninstall(first, link)
    assert_unlinked(sink, (first, second))


def test_a_live_link_keeps_nothing_of_a_dead_interpreter():
    link = recording_link([], "a")
    interp = Interpreter()
    interp.run(SOURCE)
    target = interp.class_named("Counter")
    install(interp, link, increment_node(interp))
    install(interp, link, increment_node(interp, "sends-of", "+"), target)
    dead = weakref.ref(interp), weakref.ref(target)
    del interp, target
    gc.collect()
    assert [ref() for ref in dead] == [None, None]
    assert set(vars(link)) == {
        "meta_object", "selector", "control", "reification_requests",
        "condition", "condition_args", "level", "enabled", "version"}


def test_a_mutation_valid_in_one_interpreter_only_is_fired_only_there():
    sink = []
    link = recording_link(sink, "a")
    on_send, on_write = Interpreter(), Interpreter()
    for each in (on_send, on_write):
        each.run(SOURCE)
    install(on_send, link, increment_node(on_send, "sends-of", "+"))
    install(on_write, link, increment_node(on_write))
    link.set_selector("value:")
    link.set_arguments(("selector",))   # applies to the send only
    for _ in range(2):
        on_send.run("Counter new increment")
        on_write.run("Counter new increment")   # the old snapshot fires
    assert sink == [("a", "+"), ("a",)] * 2


def kernel_methods(interp):
    return {(cls.name, sel): rec for cls in interp.classes.values()
            for sel, rec in cls.methods.items()
            if isinstance(rec, CompiledMethodRecord)}


def test_the_kernel_is_shared_and_what_one_interpreter_does_to_it_stays_there():
    linked, other = Interpreter(), Interpreter()
    ours, theirs = kernel_methods(linked), kernel_methods(other)
    assert ours.keys() == theirs.keys() and ("Integer", "to:do:") in ours
    for key, record in ours.items():
        assert record is not theirs[key]
        assert record.original_ast is theirs[key].original_ast
    before = {key: unparse(rec.original_ast) for key, rec in theirs.items()}
    sink = []
    link = recording_link(sink, "a")
    to_do = ours["Integer", "to:do:"].original_ast
    install(linked, link, find_nodes(to_do, "sends-of", "value:")[0])
    linked.recompile("Object", "logCr", "logCr [ Transcript show: 'x' ]")
    assert ours["Integer", "to:do:"].twin is not None
    assert linked.run("1 to: 2 do: [ :i | i logCr ]").output == "xx"
    assert sink == [("a",), ("a",)]
    assert other.run("1 to: 2 do: [ :i | i logCr ]").output == "1\n2\n"
    uninstall(linked, link)
    assert ours["Integer", "to:do:"].twin is None
    assert kernel_methods(other) == theirs
    for key, record in theirs.items():
        assert record.twin is None
        assert unparse(record.original_ast) == before[key]
    assert other.run("3 timesRepeat: [ 1 to: 2 do: [ :i | i logCr ] ]") \
        .output == "1\n2\n" * 3
    assert other.hook_visits == other.registry_consults == 0
    assert sink == [("a",), ("a",)]


def test_a_second_interpreter_parses_nothing(monkeypatch):
    Interpreter()
    calls = []
    tokenize = mk_parser.tokenize
    monkeypatch.setattr(mk_parser, "tokenize",
                        lambda *args: calls.append(args) or tokenize(*args))
    interp = Interpreter()
    assert calls == []
    assert interp.run("3 logCr").output == "3\n"
    assert len(calls) == 1


def test_a_before_link_changing_a_later_link_is_seen_in_that_trigger(
        interp):
    sink = []
    node = increment_node(interp)
    later = MetaLink()
    later.set_meta_object(recorder(sink, "old"))
    later.set_selector("value")
    changer = MetaLink()
    changer.set_meta_object(HostFunction(
        lambda: later.set_meta_object(recorder(sink, "new")), "a changer"))
    changer.set_selector("value")
    install(interp, changer, node)
    install(interp, later, node)
    interp.run("Counter new increment")
    # The trigger reads each link's snapshot when it reaches it.
    assert sink == ["new"]


@pytest.mark.parametrize("control", ["before", "after"])
def test_a_link_uninstalled_earlier_in_a_trigger_does_not_fire_in_it(
        interp, control):
    sink = []
    node = increment_node(interp)
    later = recording_link(sink, "later", control=control)
    remover = MetaLink()
    remover.set_meta_object(HostFunction(
        lambda: uninstall(interp, later), "a remover"))
    remover.set_selector("value")
    install(interp, remover, node)
    install(interp, later, node)
    assert interp.run("| c | c := Counter new. c increment. ^ c count") \
        .value == 1
    assert sink == []
    assert later not in interp.registry.sites


def test_installing_a_mutated_link_checks_its_earlier_sites(interp):
    sink = []
    write, plus = increment_node(interp), increment_node(interp, "sends-of",
                                                         "+")
    link = recording_link(sink, "a", reifs=("newValue",))
    install(interp, link, write)
    link.set_arguments(("selector",))   # not applicable to the write
    with pytest.raises(InapplicableReification):
        install(interp, link, plus)
    assert not interp.registry.has_links(plus.id)
    assert interp.run("| c | c := Counter new. c increment. ^ c count") \
        .value == 1
    assert sink == [("a", 1)]           # the old snapshot still fires


def test_an_inapplicable_mutation_keeps_the_old_snapshot_firing(interp):
    sink = []
    link = recording_link(sink, "a", reifs=("newValue",))
    install(interp, link, increment_node(interp))
    link.set_arguments(("selector",))   # no `invalidate`
    for _ in range(2):
        assert interp.run("| c | c := Counter new. c increment. c increment."
                          " ^ c count").value == 2
    assert sink == [("a", 1), ("a", 2)] * 2
    with pytest.raises(InapplicableReification):
        invalidate(interp, link)


def test_linking_the_root_of_a_long_send_chain_deep_in_the_stack():
    interp = Interpreter()
    interp.run("class A [ m [ ^ 1" + " + 1" * 600 + " ] ]")
    root = interp.method_ast("A", "m")
    sink = []
    link = recording_link(sink, "a")

    def install_at(depth):
        if depth:
            return install_at(depth - 1)
        install(interp, link, root)

    install_at(80)
    assert interp.lookup_method("A", "m").twin is not None
    assert interp.run("A new m").value == 601
    assert sink == [("a",)]


CHAIN = "class A [ m [ ^ 1" + " + 1" * 5000 + " ] ]"


def deep(fn):
    """Run `fn` with room for a 5000-level evaluation: a higher recursion
    limit, in a thread whose C stack holds that many frames."""
    out, limit, size = [], sys.getrecursionlimit(), threading.stack_size()
    threading.stack_size(128 << 20)
    try:
        sys.setrecursionlimit(20000)
        thread = threading.Thread(target=lambda: out.append(fn()))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(size)
    return out[0]           # empty if `fn` raised


def test_a_link_on_the_root_of_a_5000_term_chain_copies_only_the_root():
    interp = Interpreter()
    cdef = interp.load(CHAIN).classes[0]
    record = interp.lookup_method("A", "m")
    root = record.original_ast
    install(interp, recording_link([], "a"), root)
    hook = record.twin.woven_ast
    # The method's ids end at its root, and the class's own is the next:
    # it belongs to no method.
    original = list(root.walk())
    assert record.node_ids == id_interval(root) == range(
        root.id - len(original) + 1, root.id + 1)
    assert cdef.id == root.id + 1 and interp.node_owner.get(cdef.id) is None
    assert interp.node_owner.get(record.node_ids[0]) is record
    assert descend(root, root.id) == (root, [])
    assert hook.kind == META_HOOK and hook.id == root.id
    assert hook.original is root
    assert record.twin.copies == {root.id: hook}
    woven = list(hook.walk())
    assert [(n.kind, n.id) for n in woven] == \
        [(META_HOOK, root.id)] + [(n.kind, n.id) for n in original[1:]]
    assert all(a is b for a, b in zip(woven[1:], original[1:]))


def test_a_link_on_the_deepest_node_of_a_5000_term_chain_copies_its_path():
    interp = Interpreter()
    interp.run(CHAIN)
    record = interp.lookup_method("A", "m")
    root = record.original_ast
    before = unparse(root)
    path = [root]
    while path[-1].children:            # a receiver is the deeper side
        path.append(path[-1].children[0])
    assert len(path) > 5000
    # The deepest node is the leftmost leaf: the first id of the method,
    # reached by one descent through each receiver.
    assert path[-1].id == record.node_ids[0]
    assert descend(root, path[-1].id) == (path[-1], [0] * (len(path) - 1))
    sink = []
    link = recording_link(sink, "a")
    install(interp, link, path[-1])     # the descent is iterative
    twin = record.twin
    assert len(twin.copies) == len(path)
    spine = [twin.copies[n.id] for n in path]
    assert spine[0] is twin.woven_ast and spine[-1].original is path[-1]
    for node, copy, below in zip(path, spine, spine[1:]):
        assert copy is not node and copy.id == node.id
        assert copy.children[0] is below
        assert [c.id for c in copy.children] == [c.id for c in node.children]
        assert all(a is b for a, b in zip(copy.children[1:],
                                          node.children[1:]))
    assert deep(lambda: interp.run("A new m").value) == 5001
    assert sink == [("a",)]
    uninstall(interp, link)
    assert record.twin is None
    assert unparse(root) == before


def test_dump_of_a_twin_indents_its_shared_subtrees(interp):
    record = interp.lookup_method("Counter", "increment")
    plus = increment_node(interp, "sends-of", "+")
    install(interp, recording_link([], "a"), plus)
    woven, original = (dump(record.twin.woven_ast),
                       dump(record.original_ast))
    assert woven == original.replace("MessageSend#%d" % plus.id,
                                     "MetaHook#%d" % plus.id)
    assert woven != original


MID_ACTIVATION = """class A [ m [ | s |
    s := 0. 1 to: 3 do: [ :i | s := s + i ]. s := s * 2. ^ s ] ]"""


@pytest.mark.parametrize("first, later, fires", [
    (("writes-of", "s"), ("sends-of", "*"), 1),     # a later statement
    (("sends-of", "to:do:"), ("sends-of", "+"), 3),  # in a block made before
])
def test_a_link_installed_mid_activation_fires_from_the_next_activation(
        first, later, fires):
    # Within the running activation the new link may or may not fire; from
    # the method's next activation on, it fires at every evaluation.
    interp = Interpreter()
    interp.run(MID_ACTIVATION)
    root = interp.method_ast("A", "m")
    sink = []
    late = recording_link(sink, "late")
    installer = MetaLink()
    installer.set_meta_object(HostFunction(
        lambda: install(interp, late, find_nodes(root, *later)[0]),
        "installer"))
    installer.set_selector("value")
    install(interp, installer, find_nodes(root, *first)[0])
    assert interp.run("A new m").value == 12
    during = len(sink)
    assert interp.run("A new m").value == 12
    assert len(sink) - during == fires


def test_class_wide_and_object_centric_links_on_one_node(interp):
    sink = []
    node = increment_node(interp)
    target = interp.run("Counter new").value
    other = interp.run("Counter new").value
    oc_before = recording_link(sink, "oc-before")
    cw_before = recording_link(sink, "cw-before")
    oc_after = recording_link(sink, "oc-after", control="after")
    cw_after = recording_link(sink, "cw-after", control="after")
    install(interp, oc_before, node, target)
    install(interp, cw_before, node)
    install(interp, oc_after, node, target)
    install(interp, cw_after, node)
    for _ in range(2):
        interp.send(target, "increment", [], None)
        interp.send(other, "increment", [], None)
    # Class-wide links first, then the target's own; after-links reversed.
    for_target = [("cw-before",), ("oc-before",), ("oc-after",),
                  ("cw-after",)]
    for_other = [("cw-before",), ("cw-after",)]
    assert sink == (for_target + for_other) * 2


def raise_value_error():
    raise ValueError("a host meta-object failed")


@pytest.mark.parametrize("failing", ["host", "language", "condition"])
def test_meta_level_returns_to_zero_after_any_exception(interp, failing):
    interp.run("class Failing [ fail [ ^ nil boom ] ]")
    link = MetaLink()
    error = MkRuntimeError
    if failing == "host":
        link.set_meta_object(HostFunction(raise_value_error, "raising"))
        link.set_selector("value")
        error = ValueError
    elif failing == "language":
        link.set_meta_object(interp.run("Failing new").value)
        link.set_selector("fail")
    else:
        link.set_meta_object(HostFunction(lambda: None, "a no-op"))
        link.set_selector("value")
        link.set_condition(interp.run("[ nil boom ]").value)
    install(interp, link, increment_node(interp))
    for _ in range(2):
        with pytest.raises(error):
            interp.run("Counter new increment")
        assert interp.meta_level == 0
    uninstall(interp, link)
    assert interp.run("| c | c := Counter new. c increment. ^ c count").value \
        == 1


PROTOCOL_SOURCE = """class Base [ val: x [ Transcript show: 'v'. ^ x * 10 ] ]
class Proto extends Base [ | slot |
    val: x [ ^ (super val: x) + 1 ]
    run: p [ | t b |
        slot := 0.
        b := [ :y | Transcript show: 'b'. y * 2 ].
        t := b value: p + 1.
        slot := t.
        ^ (self val: slot) + 7
    ]
]
"""


def protocol_site(interp, kind):
    """The node of `Proto` that stands for one hookable node kind."""
    run = interp.method_ast("Proto", "run:")
    nodes = run.walk()
    if kind == "message":
        return find_nodes(run, "sends-of", "val:")[0]        # self val: slot
    if kind == "super-send":
        return find_nodes(interp.method_ast("Proto", "val:"), "sends-of",
                          "val:")[0]
    if kind == "method":
        return run
    if kind == "block":
        return next(n for n in nodes if n.kind == "Block")
    if kind == "variable":
        return find_nodes(run, "reads-of", "p")[0]
    if kind == "assignment":
        return find_nodes(run, "writes-of", "slot")[1]       # slot := t
    if kind == "return":
        return next(n for n in nodes if n.kind == "Return")
    return next(n for n in nodes if n.kind == "Literal" and n.value == 7)


# Result of `Proto new run: 4` when an instead-link answering 3 replaces
# the node's value; unlinked, and with before/after links, it is 108.
INSTEAD_RESULTS = {
    "message": 10,      # 3 + 7
    "super-send": 11,   # val: answers 3 + 1
    "method": 3,
    "block": 38,        # t := 3
    "variable": 88,     # p reads as 3
    "assignment": 8,    # the write is skipped, slot stays 0
    "return": 3,
    "literal": 104,     # ... + 3
}


@pytest.mark.parametrize("control", ["before", "instead", "after"])
@pytest.mark.parametrize("kind", sorted(INSTEAD_RESULTS))
def test_trigger_protocol_for_every_node_kind(kind, control):
    interp = Interpreter()
    interp.run(PROTOCOL_SOURCE)
    events = []
    link = MetaLink()
    link.set_meta_object(HostFunction(
        lambda: events.append((control, interp.meta_level)) or 3, "probe"))
    link.set_selector("value")
    link.set_control(control)
    install(interp, link, protocol_site(interp, kind))
    result = interp.run("Proto new run: 4").value
    if control == "instead":
        assert result == INSTEAD_RESULTS[kind]
    else:
        assert result == 108
    # Control leaves the method at a return, so nothing runs after it.
    fires = 0 if (kind, control) == ("return", "after") else 1
    assert events == [(control, 1)] * fires


@pytest.mark.parametrize("kind", ["message", "super-send", "method", "block",
                                  "assignment", "return"])
def test_before_link_performing_the_operation_runs_it_once(kind):
    interp = Interpreter()
    interp.run(PROTOCOL_SOURCE)
    performed = []
    link = MetaLink()
    link.set_meta_object(HostFunction(
        lambda op: performed.append(op.invoke()), "performer"))
    link.set_selector("value:")
    link.set_arguments(("operation",))
    install(interp, link, protocol_site(interp, kind))
    result = interp.run("Proto new run: 4")
    assert (result.value, result.output) == (108, "bv")
    assert len(performed) == 1


def test_positional_wrappers_around_the_trigger_still_run(monkeypatch):
    """The traced benchmark run wraps these two methods with wrappers
    that pass positional arguments only."""
    calls = []

    def positional(fn, name):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("run_trigger", "fire_link"):
        monkeypatch.setattr(Interpreter, name,
                            positional(getattr(Interpreter, name), name))
    interp = Interpreter()
    interp.run(PROTOCOL_SOURCE)
    sink = []
    link = recording_link(sink, "b")
    for kind in INSTEAD_RESULTS:
        install(interp, link, protocol_site(interp, kind))
    assert interp.run("Proto new run: 4").value == 108
    assert len(sink) == len(INSTEAD_RESULTS)
    assert calls.count("fire_link") == len(INSTEAD_RESULTS)
    assert "run_trigger" in calls


def test_linked_super_receiver_stays_a_super_send():
    interp = Interpreter()
    interp.run("class A [ m [ ^ 1 ] ]\n"
               "class B extends A [ m [ ^ super m + 10 ] ]")
    ast = interp.method_ast("B", "m")
    sup = next(n for n in ast.walk() if n.var_name == "super")
    sink = []
    install(interp, recording_link(sink, "super"), sup)
    assert interp.run("B new m").value == 11
    # With the send linked too, the hooked send sees the hooked `super`.
    install(interp, recording_link(sink, "send"),
            find_nodes(ast, "sends-of", "m")[0])
    assert interp.run("B new m").value == 11
    assert sink == [("super",), ("super",), ("send",)]


# Differential: no-op before- and after-links on every installable node
# send each evaluation through the hook path (`_eval_hook`, `_trigger`);
# output and value must equal those of the unlinked fast path.

BLOCK_PROGRAM = """class Base [ | total |
    initialize [ total := 0 ]
    add: n [ total := total + n. ^ total ]
    find: x in: items [
        items do: [ :e | e = x ifTrue: [ ^ e * 10 ] ]. ^ 0 ]
]
class Sub extends Base [
    add: n [ | r | r := super add: n * 2. r > 50 ifTrue: [ ^ r - 1 ]. ^ r ]
    loop [ | i | i := 0. [ i < 5 ] whileTrue: [ self add: i. i := i + 1 ].
        ^ (self find: 3 in: #(1 2 3 4)) + (self add: 0) ]
]
| s |
s := Sub new.
s loop logCr.
(s add: 40) logCr.
(s find: 9 in: #(1 2)) logCr
"""


def test_hook_path_matches_fast_path_on_every_node():
    sources = [gen_program(random.Random(seed))[0] for seed in range(60)]
    for source in sources + [BLOCK_PROGRAM]:
        classes, driver = source.split("\n| ", 1)
        driver = "| " + driver
        plain = Interpreter()
        plain.run(classes)
        expected = plain.run(driver)

        interp = Interpreter()
        interp.run(classes)
        # Kernel methods written in the language are linked too.
        records = [rec for cls in interp.classes.values()
                   for rec in cls.methods.values()
                   if isinstance(rec, CompiledMethodRecord)]
        fired = []
        for control in ("before", "after"):
            link = MetaLink()
            link.set_meta_object(HostFunction(
                lambda *a: fired.append(1), "a no-op"))
            link.set_selector("value")
            link.set_control(control)
            for rec in records:
                for node in installable_nodes(rec):
                    install(interp, link, node)
        actual = interp.run(driver)
        assert fired and interp.hook_visits > 0
        assert (actual.output, actual.value) == \
            (expected.output, expected.value), source


# The lazy operation: a trigger builds its `Operation` only when a link
# reifies `#operation`, and every link of the trigger gets that one object.

@pytest.mark.parametrize("kind", sorted(set(INSTEAD_RESULTS) - {"return"}))
def test_links_of_one_trigger_share_one_operation(kind):
    interp = Interpreter()
    interp.run(PROTOCOL_SOURCE)
    seen = []
    for control in ("before", "after"):
        link = MetaLink()
        link.set_meta_object(HostFunction(
            lambda op, c=control: seen.append((c, op, op.invoked)), "peek"))
        link.set_selector("value:")
        link.set_arguments(("operation",))
        link.set_control(control)
        install(interp, link, protocol_site(interp, kind))
    result = interp.run("Proto new run: 4")
    assert (result.value, result.output) == (108, "bv")
    (before, op, ran_before), (after, op_after, ran_after) = seen
    assert (before, after) == ("before", "after")
    assert op_after is op
    assert (ran_before, ran_after) == (False, True)


def test_a_trigger_without_operation_builds_none(monkeypatch):
    built = []

    class CountingOperation(reify.OperationWrapper):
        __slots__ = ()

        def __init__(self, thunk, node):
            built.append(node)
            super().__init__(thunk, node)

    monkeypatch.setattr(reify, "OperationWrapper", CountingOperation)
    interp = Interpreter()
    interp.run(PROTOCOL_SOURCE)
    sink = []
    for kind in INSTEAD_RESULTS:
        for control in ("before", "after"):
            install(interp, recording_link(sink, control, control,
                                           reifs=("object",)),
                    protocol_site(interp, kind))
    assert interp.run("Proto new run: 4").value == 108
    assert len(sink) == 15 and built == []  # no after phase at a return
    install(interp, recording_link(sink, "op", reifs=("operation",)),
            protocol_site(interp, "message"))
    assert interp.run("Proto new run: 4").value == 108
    assert built == [protocol_site(interp, "message")]


# Output of `Proto new run: 4` when an instead-link replaces the node:
# the block prints "b", `Base>>val:` prints "v"; unlinked it is "bv".
INSTEAD_OUTPUTS = {
    "message": "b", "super-send": "b", "method": "", "block": "v",
    "variable": "bv", "assignment": "bv", "return": "bv", "literal": "bv",
}


@pytest.mark.parametrize("kind", sorted(INSTEAD_RESULTS))
def test_an_instead_link_without_operation_never_runs_the_base(kind):
    interp = Interpreter()
    interp.run(PROTOCOL_SOURCE)
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda: 3, "three"))
    link.set_selector("value")
    link.set_control("instead")
    install(interp, link, protocol_site(interp, kind))
    result = interp.run("Proto new run: 4")
    assert (result.value, result.output) == \
        (INSTEAD_RESULTS[kind], INSTEAD_OUTPUTS[kind])


@pytest.mark.parametrize("kind", sorted(INSTEAD_RESULTS))
def test_an_operation_kept_past_its_trigger_was_already_invoked(kind):
    interp = Interpreter()
    interp.run(PROTOCOL_SOURCE + "class Keeper [ | op |\n"
               "    keep: o [ op := o ] replay [ ^ op value ] ]")
    keeper = interp.send(interp.class_named("Keeper"), "new", [])
    interp.globals["keeper"] = keeper
    link = MetaLink()
    link.set_meta_object(keeper)
    link.set_selector("keep:")
    link.set_arguments(("operation",))
    install(interp, link, protocol_site(interp, kind))
    assert interp.run("Proto new run: 4").value == 108
    with pytest.raises(AlreadyInvoked):
        interp.run("keeper replay")
    assert interp.meta_level == 0


@pytest.mark.parametrize("kind", sorted(set(INSTEAD_RESULTS) - {"return"}))
def test_an_operation_first_reified_after_the_base_was_invoked(kind):
    interp = Interpreter()
    interp.run(PROTOCOL_SOURCE)
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda op: op.invoke(), "replayer"))
    link.set_selector("value:")
    link.set_arguments(("operation",))
    link.set_control("after")
    install(interp, link, protocol_site(interp, kind))
    with pytest.raises(AlreadyInvoked):
        interp.run("Proto new run: 4")
    assert interp.meta_level == 0


def same_reification(a, b):
    """Equal reified values: the same object, or mirrors and arrays built
    from the same parts."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Array):
        return len(a.items) == len(b.items) and all(
            same_reification(x, y) for x, y in zip(a.items, b.items))
    slots = getattr(type(a), "__slots__", ())
    if type(a).__module__ == reify.__name__ and slots:
        return all(same_reification(getattr(a, s), getattr(b, s))
                   for s in slots)
    return a is b or a == b


@pytest.mark.parametrize("site", sorted(INSTEAD_RESULTS))
def test_each_reification_a_link_receives_equals_resolve(site, monkeypatch):
    contexts = []
    fire_link = Interpreter.fire_link

    def spy(*args):
        contexts.append(args[3])
        return fire_link(*args)

    monkeypatch.setattr(Interpreter, "fire_link", spy)
    interp = Interpreter()
    interp.run(PROTOCOL_SOURCE)
    node = protocol_site(interp, site)
    category = reify.table_kind(node)
    expected, checked = set(), []
    for kind, allowed in sorted(reify.APPLICABILITY.items()):
        if category not in allowed or (kind, category) == \
                ("newValue", "variable"):
            continue    # a read never changes the value
        expected.add(kind)

        def check(got, kind=kind):
            checked.append(kind)
            assert same_reification(got, reify.resolve(kind, contexts[-1]))

        link = MetaLink()
        link.set_meta_object(HostFunction(check, "check %s" % kind))
        link.set_selector("value:")
        link.set_arguments((kind,))
        # A send's or a read's value exists only after it ran.
        if kind == "value" and category in ("message", "variable"):
            link.set_control("after")
        install(interp, link, node)
    assert interp.run("Proto new run: 4").value == 108
    assert set(checked) == expected and len(checked) == len(expected)


# The snapshot's fire-time facts (host meta-object, constant condition)
# follow every change of the link, in every interpreter it is in.

META_SOURCE = """class Meta [ | hits |
    initialize [ hits := 0 ]
    hit [ hits := hits + 1 ]
]
"""


@pytest.mark.parametrize("revalidate", ["lazily", "invalidate"])
def test_swapping_host_and_mklang_meta_objects_in_two_interpreters(
        revalidate):
    interps = []
    for _ in range(2):
        i = Interpreter()
        i.run(SOURCE + META_SOURCE)
        interps.append(i)
    calls = []
    link = MetaLink()
    link.set_selector("hit")
    link.set_meta_object(HostFunction(lambda: calls.append("h1"), "h1"))
    for i in interps:
        install(i, link, increment_node(i))
    meta = interps[0].send(interps[0].class_named("Meta"), "new", [])

    def trigger_all(meta_object=None):
        if meta_object is not None:
            link.set_meta_object(meta_object)
            if revalidate == "invalidate":
                for i in interps:
                    i.invalidate(link)
        for i in interps:
            i.run("Counter new increment")
            assert i.meta_level == 0

    trigger_all()
    assert calls == ["h1", "h1"] and meta.slots["hits"] == 0
    trigger_all(meta)
    assert calls == ["h1", "h1"] and meta.slots["hits"] == 2
    trigger_all(HostFunction(lambda: calls.append("h2"), "h2"))
    assert calls == ["h1", "h1", "h2", "h2"] and meta.slots["hits"] == 2
    trigger_all(meta)
    assert len(calls) == 4 and meta.slots["hits"] == 4


# (condition, condition arguments, fires, condition reifications)
CONDITIONS = [
    ("nil", (), True, 0),
    ("nil", ("object",), True, 0),       # nil ignores its arguments
    ("true", (), True, 0),
    ("true", ("object",), True, 1),
    ("false", (), False, 0),
    ("false", ("object",), False, 1),    # reified, then not fired
    ("[ true ]", (), True, 0),
    ("[ false ]", (), False, 0),
    ("[ :o | o notNil ]", ("object",), True, 1),
    ("[ :o | o isNil ]", ("object",), False, 1),
]


@pytest.mark.parametrize("condition, kinds, fires, resolves", CONDITIONS)
def test_constant_and_block_conditions(monkeypatch, interp, condition, kinds,
                                       fires, resolves):
    count = []
    resolve = mk_interp.resolve

    def counting(*args):
        count.append(args[0])
        return resolve(*args)

    monkeypatch.setattr(mk_interp, "resolve", counting)
    sink = []
    link = recording_link(sink, "c")
    link.set_condition(interp.run(condition).value, kinds)
    install(interp, link, increment_node(interp))
    interp.run("| c | c := Counter new. c increment. c increment")
    assert len(sink) == (2 if fires else 0)
    assert len(count) == 2 * resolves
    assert interp.meta_level == 0
    # The same, reached through a setter at the next trigger.
    link.set_condition(None)
    interp.run("Counter new increment")
    assert len(sink) == (3 if fires else 1)


def test_a_false_condition_still_reifies_its_arguments(interp):
    sink = []
    link = recording_link(sink, "f")
    link.set_condition(False, ("value",))  # no value before the send ran
    install(interp, link, increment_node(interp, "sends-of", "+"))
    with pytest.raises(PhaseUnavailable):
        interp.run("Counter new increment")
    assert interp.meta_level == 0
    link.set_condition(False)
    interp.run("Counter new increment")
    assert sink == [] and interp.meta_level == 0


# The traced benchmark run wraps `run_trigger`, `fire_link` and
# `interpreter.resolve` and counts their calls: one per linked trigger,
# one per fire attempt (fired or not), one per reification.

CONTRACT_SOURCE = """class P [ | s |
    run: n [ | t | t := n + 1. s := t. ^ t * 2 ]
]
"""


def test_traced_boundaries_count_triggers_attempts_and_reifications(
        monkeypatch):
    calls = []

    def positional(fn, name):
        def traced(*args):
            calls.append(name)
            return fn(*args)
        return traced

    for name in ("run_trigger", "fire_link"):
        monkeypatch.setattr(Interpreter, name,
                            positional(getattr(Interpreter, name), name))
    monkeypatch.setattr(mk_interp, "resolve",
                        positional(mk_interp.resolve, "resolve"))
    interp = Interpreter()
    interp.run(CONTRACT_SOURCE)
    ast = interp.method_ast("P", "run:")
    plus = find_nodes(ast, "sends-of", "+")[0]
    write = find_nodes(ast, "writes-of", "s")[0]
    ret = next(n for n in ast.walk() if n.kind == "Return")
    sink = []
    # s := t: 1 attempt, 2 reifications
    install(interp, recording_link(sink, "w", reifs=("object", "newValue")),
            write)
    # n + 1: 2 attempts (one disabled), 1 reification
    install(interp, recording_link(sink, "v", "after", reifs=("value",)),
            plus)
    disabled = recording_link(sink, "off")
    install(interp, disabled, plus)
    disabled.disable()
    # the method: 3 attempts (wrong level, false, false with an argument),
    # 1 reification
    install(interp, recording_link(sink, "meta", level=1), ast)
    never = recording_link(sink, "never")
    never.set_condition(False)
    install(interp, never, ast)
    never_reified = recording_link(sink, "never reified")
    never_reified.set_condition(False, ("receiver",))
    install(interp, never_reified, ast)
    # ^ t * 2: 1 attempt, 1 reification
    instead = MetaLink()
    instead.set_meta_object(HostFunction(lambda op: op.invoke(), "around"))
    instead.set_selector("value:")
    instead.set_arguments(("operation",))
    instead.set_control("instead")
    install(interp, instead, ret)
    del calls[:]
    result = interp.run("| p | p := P new. (p run: 1) logCr. "
                        "(p run: 2) logCr. (p run: 3) logCr")
    assert result.output == "4\n6\n8\n"
    assert [tag for tag, *_ in sink] == ["v", "w"] * 3
    runs = 3
    assert calls.count("run_trigger") == 4 * runs
    assert calls.count("fire_link") == 7 * runs
    assert calls.count("resolve") == 5 * runs
    assert interp.hook_visits == interp.registry_consults == 4 * runs
