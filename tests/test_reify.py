import pytest

from mklang import Interpreter, MetaLink
from mklang.errors import AlreadyInvoked, PhaseUnavailable
from mklang.links import install
from mklang.nodes import META_HOOK, find_nodes
from mklang.reify import (
    APPLICABILITY, ContextMirror, OperationWrapper, VariableMirror,
    table_kind,
)
from mklang.values import Array, HostFunction, Instance, Symbol

SOURCE = """class Probe [ | slot |
    initialize [ slot := 10 ]
    run: p [ | t |
        t := p + 1.
        slot := t.
        ^ slot
    ]
    slot [ ^ slot ]
]
"""


@pytest.fixture
def interp():
    i = Interpreter()
    i.run(SOURCE)
    return i


def capture(interp, node, control="before", reifs=("object",),
            condition=None):
    sink = []
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda *a: sink.append(a), "cap"))
    link.set_selector("value" if not reifs else "value:" * len(reifs))
    link.set_arguments(tuple(reifs))
    link.set_control(control)
    if condition is not None:
        link.set_condition(condition)
    install(interp, link, node)
    return sink


def run_probe(interp, arg=4):
    return interp.run("(Probe new run: %d) logCr" % arg)


def method_node(interp, sel="run:"):
    return interp.method_ast("Probe", sel)


def test_receiver_and_arguments_on_method_entry(interp):
    sink = capture(interp, method_node(interp),
                   reifs=("receiver", "arguments", "selector", "class"))
    run_probe(interp, 9)
    (receiver, args, selector, cls), = sink
    assert isinstance(receiver, Instance)
    assert isinstance(args, Array) and args.items == [9]
    assert selector == Symbol("run:")
    assert cls is interp.class_named("Probe")


def test_message_send_reifications(interp):
    node = find_nodes(method_node(interp), "sends-of", "+")[0]
    sink = capture(interp, node, reifs=("receiver", "arguments", "selector",
                                        "object"))
    run_probe(interp, 4)
    (receiver, args, selector, obj), = sink
    assert receiver == 4                # receiver of the `+` send is p
    assert args.items == [1]
    assert selector == Symbol("+")
    assert isinstance(obj, Instance)    # #object is self, not the receiver


def test_value_phases():
    for control, node_query, ok in [
        ("before", ("writes-of", "slot"), True),    # assignment: pending
        ("after", ("writes-of", "slot"), True),
        ("after", ("sends-of", "+"), True),         # message: result
        ("before", ("sends-of", "+"), False),       # does not exist yet
        ("after", ("reads-of", "t"), True),
        ("before", ("reads-of", "t"), False),
    ]:
        interp = Interpreter()
        interp.run(SOURCE)
        node = find_nodes(method_node(interp), *node_query)[0]
        sink = capture(interp, node, control, reifs=("value",))
        if ok:
            run_probe(interp, 4)
            assert sink and isinstance(sink[0][0], int)
        else:
            with pytest.raises(PhaseUnavailable):
                run_probe(interp, 4)


def test_value_on_return_is_the_pending_value(interp):
    node = find_nodes(method_node(interp), "all-nodes")
    ret = [n for n in node if n.kind == "Return"][0]
    sink = capture(interp, ret, "before", reifs=("value",))
    run_probe(interp, 4)
    assert sink == [(5,)]


def test_new_value_and_name_on_assignment(interp):
    node = find_nodes(method_node(interp), "writes-of", "slot")[0]
    sink = capture(interp, node, "before", reifs=("name", "newValue"))
    run_probe(interp, 4)
    assert sink == [("slot", 5)]


def test_variable_mirror_reads_live_binding(interp):
    node = find_nodes(method_node(interp), "writes-of", "slot")[0]
    sink = capture(interp, node, "after", reifs=("variable",))
    run_probe(interp, 4)
    mirror, = sink[0]
    assert isinstance(mirror, VariableMirror)
    assert mirror.kind == "slot" and mirror.name == "slot"
    assert mirror.read() == 5


def test_context_mirror_and_sender_chain(interp):
    sink = capture(interp, method_node(interp), reifs=("context", "sender"))
    run_probe(interp, 4)
    ctx, sender = sink[0]
    assert isinstance(ctx, ContextMirror)
    assert ctx.selector == "run:"
    assert ctx.sender().selector is None        # called from top level
    assert sender.selector is None              # same frame, as a mirror


def test_sender_of_a_senderless_activation_is_nil(interp):
    interp.run("class Top [ go [ ^ 1 ] ]")
    sink = capture(interp, interp.method_ast("Top", "go"),
                   reifs=("sender",))
    top = interp.send(interp.class_named("Top"), "new", [], None)
    interp.send(top, "go", [], None)    # host-driven call: no sender frame
    assert sink == [(None,)]
    interp.run("Top new go")            # language call: sender is top level
    assert sink[1][0].selector is None


def test_link_reification_is_the_firing_link(interp):
    sink = []
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda l: sink.append(l), ""))
    link.set_selector("value:")
    link.set_arguments(("link",))
    install(interp, link, method_node(interp))
    run_probe(interp)
    assert sink == [link]


def test_method_vs_original_method_mirrors(interp):
    sink = capture(interp, method_node(interp),
                   reifs=("method", "originalMethod", "entity"))
    run_probe(interp)
    woven, original, entity = sink[0]
    assert any(n.kind == META_HOOK for n in woven.ast_root.walk())
    assert all(n.kind != META_HOOK for n in original.ast_root.walk())
    assert entity.record is original.record


def test_node_mirror_wraps_the_original_node(interp):
    node = find_nodes(method_node(interp), "sends-of", "+")[0]
    sink = capture(interp, node, reifs=("node",))
    run_probe(interp)
    mirror, = sink[0]
    assert mirror.node is node          # original, never the woven copy


def test_reifications_on_block_invocation(interp):
    interp.run("class B [ go [ ^ [ :x | x * 2 ] value: 21 ] ]")
    block_node = [n for n in interp.method_ast("B", "go").walk()
                  if n.kind == "Block"][0]
    sink = capture(interp, block_node, reifs=("arguments",))
    out = interp.run("B new go logCr")
    assert out.output == "42\n"
    assert [a.items for a, in sink] == [[21]]


def test_operation_wrapper_instead_semantics(interp):
    node = find_nodes(method_node(interp), "sends-of", "+")[0]
    results = []
    link = MetaLink()
    link.set_meta_object(HostFunction(
        lambda op: results.append(op.invoke()) or op.invoke(), "around"))
    link.set_selector("value:")
    link.set_arguments(("operation",))
    link.set_control("instead")
    install(interp, link, node)
    with pytest.raises(AlreadyInvoked):
        run_probe(interp)
    assert results == [5]               # first invoke performed the add


def test_operation_invoked_by_before_link_is_not_run_twice(interp):
    interp.run("""class Effect [ | n |
    initialize [ n := 0 ]
    bump [ n := n + 1. ^ n ]
    go [ ^ self bump ]
    n [ ^ n ]
]""")
    node = find_nodes(interp.method_ast("Effect", "go"),
                      "sends-of", "bump")[0]
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda op: op.invoke(), "eager"))
    link.set_selector("value:")
    link.set_arguments(("operation",))
    install(interp, link, node)
    result = interp.run("""| e |
e := Effect new. e go logCr. e n logCr""")
    assert result.output == "1\n1\n"    # base operation reused, not re-run


def test_around_instead_is_observationally_neutral(interp):
    node = find_nodes(method_node(interp), "sends-of", "+")[0]
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda op: op.invoke(), "around"))
    link.set_selector("value:")
    link.set_arguments(("operation",))
    link.set_control("instead")
    install(interp, link, node)
    assert run_probe(interp, 4).output == "5\n"


def test_instead_arithmetic_on_captured_operation(interp):
    interp.run("class Calc [ go [ ^ 3 + 4 ] ]")
    node = find_nodes(interp.method_ast("Calc", "go"), "sends-of", "+")[0]
    link = MetaLink()
    link.set_meta_object(HostFunction(lambda op: op.invoke() * 10, ""))
    link.set_selector("value:")
    link.set_arguments(("operation",))
    link.set_control("instead")
    install(interp, link, node)
    assert interp.run("Calc new go logCr").output == "70\n"


def test_positional_mapping_order(interp):
    sink = capture(interp, method_node(interp),
                   reifs=("selector", "object", "arguments"))
    run_probe(interp, 6)
    selector, obj, args = sink[0]
    assert selector == Symbol("run:")
    assert isinstance(obj, Instance)
    assert args.items == [6]


def test_pure_reifications_do_not_change_program_state(interp):
    plain = Interpreter()
    plain.run(SOURCE)
    oracle = plain.run("(Probe new run: 4) logCr").output
    pure = ("class", "receiver", "entity", "link", "method",
            "originalMethod", "node", "object", "selector", "sender",
            "context")
    for kind in pure:
        sink = capture(interp, method_node(interp), reifs=(kind,))
        assert sink is not None
    assert run_probe(interp, 4).output == oracle


def test_applicability_table_shape():
    assert len(APPLICABILITY) == 17
    assert "index" not in APPLICABILITY
    assert APPLICABILITY["receiver"] == {"message", "method"}
    assert APPLICABILITY["arguments"] == {"message", "method", "block"}
    assert APPLICABILITY["name"] == {"variable", "assignment"}
    assert APPLICABILITY["value"] == {"variable", "assignment", "message",
                                      "return"}


def test_table_kind_classification(interp):
    method = method_node(interp)
    kinds = {table_kind(n) for n in method.walk()}
    assert {"method", "assignment", "variable", "message",
            "return", "other"} <= kinds


def test_class_and_print_string_of_reflective_values(interp):
    kinds = ("link", "node", "method", "context", "variable", "operation")
    values = {}
    link = MetaLink()
    link.set_meta_object(HostFunction(
        lambda *a: values.update(zip(kinds, a)), "grab"))
    link.set_selector("value:" * len(kinds))
    link.set_arguments(kinds)
    install(interp, link, find_nodes(method_node(interp), "writes-of",
                                     "slot")[0])
    run_probe(interp)
    expected = {
        "link": ("MetaLink", "a MetaLink"),
        "node": ("NodeMirror", "Assignment(slot)"),
        "method": ("MethodMirror", "Probe>>run: (woven)"),
        "context": ("ContextMirror", "context(run:)"),
        "variable": ("VariableMirror", "variable(slot slot)"),
        "operation": ("Operation", "an Operation(Assignment)"),
    }
    for kind, (class_name, text) in expected.items():
        value = values[kind]
        cls = interp.send(value, "class", [], None)
        assert interp.send(cls, "printString", [], None) == class_name
        assert interp.send(value, "printString", [], None) == text


def test_variable_mirror_of_a_class_name_is_the_class(interp):
    interp.run("class Pr [ t [ ^ Transcript ] ]")
    node = find_nodes(interp.method_ast("Pr", "t"), "reads-of",
                      "Transcript")[0]
    sink = capture(interp, node, "after", reifs=("variable",))
    interp.run("Pr new t")
    mirror, = sink[0]
    assert mirror.kind == "class" and mirror.name == "Transcript"
    assert mirror.read() is interp.classes["Transcript"]
    assert interp.print_string(mirror) == "variable(class Transcript)"
