import random

import pytest

from mklang import Interpreter, MetaLink, links
from mklang.errors import (
    ArityMismatch, InapplicableReification, InsteadConflict, MkRuntimeError,
    NodeNotInstallable,
)
from mklang.interpreter import CompiledMethodRecord
from mklang.links import install, invalidate, remove, uninstall, weave
from mklang.nodes import META_HOOK, find_nodes, unparse
from mklang.parser import parse_method
from mklang.values import HostFunction
from progen import gen_program, installable_nodes

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
    assert not link.installed_on


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
    interp.run("Counter new increment")
    assert sink == []                   # base level is 0, link wants 1


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
    weave(interp, record)
    assert len(record.twin.hook_table) == 1
    assert interp.run("""| c |
c := Counter new. c increment. c count logCr""").output == "1\n"


def count_copies(monkeypatch):
    calls = []
    copy_tree = links.copy_tree

    def counting(*args):
        calls.append(args[0].id)
        return copy_tree(*args)

    monkeypatch.setattr(links, "copy_tree", counting)
    return calls


def test_per_node_remove_unwraps_in_place_without_copying(monkeypatch):
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
    copies = count_copies(monkeypatch)
    for node in sends[:-1]:
        remove(interp, link, node)
        assert record.twin is twin
    assert copies == []
    assert list(twin.hook_table) == [sends[-1].id]
    remove(interp, link, sends[-1])
    assert record.twin is None
    assert copies == []
    assert interp.run("Big new run logCr").output == "200\n"


def test_uninstall_and_invalidate_keep_the_twin(interp, monkeypatch):
    record = interp.lookup_method("Counter", "increment")
    sink = []
    write, plus = increment_node(interp), increment_node(interp, "sends-of",
                                                         "+")
    first, second = recording_link(sink, "a"), recording_link(sink, "b")
    install(interp, first, write)
    install(interp, second, plus)
    twin = record.twin
    copies = count_copies(monkeypatch)
    uninstall(interp, first)
    assert record.twin is twin
    assert list(twin.hook_table) == [plus.id]
    second.set_selector("value:")
    second.set_arguments(("selector",))
    invalidate(interp, second)
    assert record.twin is twin
    assert copies == []
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


# A hook fires from each link's own snapshot; these change a link without
# touching the registry.

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
