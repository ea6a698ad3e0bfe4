import pytest

from mklang import Interpreter, MetaLink
from mklang import tools
from mklang.errors import (
    AlreadyInvoked, InapplicableReification, PhaseUnavailable,
)
from mklang.interpreter import Activation
from mklang.kernel import TYPE_CLASSES
from mklang.links import install
from mklang.nodes import KINDS, META_HOOK, RETURN, find_nodes
from mklang.parser import parse
from mklang.reify import (
    APPLICABILITY, ContextMirror, MethodMirror, NodeMirror, OperationWrapper,
    TriggerContext, VariableMirror, check_applicable, resolve, table_kind,
)
from mklang.values import Array, Block, HostFunction, Instance, Symbol

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


# `resolve` files its resolvers by node kind, derived from APPLICABILITY:
# for every node kind it answers exactly where `check_applicable` on the
# node's category lets it, and fails with that check's message elsewhere.

EVERY_KIND_SOURCE = """class Every [ | s |
    m: p [ | t | t := #(1 2). s := [ :x | x ]. ^ self m: p + 1 ]
]
"""


def one_node_of_each_kind():
    program = parse(EVERY_KIND_SOURCE)
    found = {}
    for node in program.classes[0].walk():
        found.setdefault(node.kind, node)
    assert sorted(found) == sorted(KINDS)
    return found


def trigger_context(interp, node, act, phase):
    """A context with its fields set as `Interpreter._trigger` sets them."""
    ctx = TriggerContext()
    ctx.interp, ctx.node, ctx.activation = interp, node, act
    ctx.phase, ctx.perform, ctx.operation = phase, lambda: 4, None
    ctx.pending_receiver, ctx.pending_args = 3, [1]
    ctx.pending_value, ctx.current_link = 4, MetaLink()
    return ctx


def test_resolve_answers_exactly_where_the_applicability_check_lets_it(
        interp):
    record = interp.lookup_method("Probe", "run:")
    receiver = interp.send(interp.class_named("Probe"), "new", [], None)
    act = Activation(receiver, record, None, {"t": 4})
    answered = 0
    for node_kind, node in one_node_of_each_kind().items():
        category = table_kind(node)
        for kind in sorted(APPLICABILITY) + ["index"]:
            try:
                check_applicable(kind, category)
            except InapplicableReification as exc:
                with pytest.raises(InapplicableReification) as got:
                    resolve(kind, trigger_context(interp, node, act,
                                                  "after"))
                assert str(got.value) == str(exc), (kind, node_kind)
                continue
            # A return's value exists only before the unwind, a send's or
            # a read's only after it ran; a read never has a new value.
            phase = "before" if node_kind == RETURN else "after"
            ctx = trigger_context(interp, node, act, phase)
            if (kind, category) == ("newValue", "variable"):
                with pytest.raises(PhaseUnavailable):
                    resolve(kind, ctx)
            else:
                resolve(kind, ctx)
                answered += 1
    assert answered > len(APPLICABILITY) * 3


@pytest.mark.parametrize("kind, node_kind, phase, text", [
    ("value", "message", "before",
     "#value is not available on a message node in before phase"),
    ("value", "variable", "instead",
     "#value is not available on a variable node in instead phase"),
    ("value", "return", "after",
     "#value is not available on a return node in after phase"),
    ("newValue", "variable", "after",
     "#newValue is not available on a variable node in after phase"),
])
def test_phase_errors_name_the_node_category_and_the_phase(
        interp, kind, node_kind, phase, text):
    node = next(n for n in one_node_of_each_kind().values()
                if table_kind(n) == node_kind)
    act = Activation(None, interp.lookup_method("Probe", "run:"), None)
    with pytest.raises(PhaseUnavailable) as got:
        resolve(kind, trigger_context(interp, node, act, phase))
    assert str(got.value) == text


# One rule for a value's class: `class_of`, the `class` primitive, method
# lookup in `send` and `printString` agree on one value of each type.

def one_value_of_each_type(interp):
    interp.run("class Keep [ | b | keep [ b := [ :x | x ] ] b [ ^ b ] ]")
    record = interp.lookup_method("Keep", "keep")
    keep = interp.send(interp.class_named("Keep"), "new", [], None)
    interp.send(keep, "keep", [], None)
    node = record.original_ast
    act = Activation(keep, record, None)
    return [
        True, 3, Symbol("sym"), "str", None, interp.send(keep, "b", [], None),
        MetaLink(), NodeMirror(node), MethodMirror(record),
        ContextMirror(act), VariableMirror("temp", "x", {"x": 1}),
        OperationWrapper(None, node),
        tools.set_breakpoint(interp, "Keep", "keep"),
        tools.watch_variable(interp, "Keep", "b"),
        tools.trace_count(interp, [node]),
        keep, interp.new_array([1]), interp.new_array([], ordered=True),
    ]


def test_class_of_send_and_print_string_agree_on_every_value_type(interp):
    values = one_value_of_each_type(interp)
    assert {type(v) for v in values} >= set(TYPE_CLASSES)
    names = {interp.class_of(v).name for v in values}
    # Each class answers its own name to a method a program adds to it.
    interp.run("\n".join("class %s [ whoAmI [ ^ '%s' ] ]" % (n, n)
                         for n in sorted(names)))
    for v in values:
        cls = interp.class_of(v)
        assert interp.send(v, "class", [], None) is cls
        assert interp.send(v, "whoAmI", [], None) == cls.name
        assert interp.send(v, "printString", [], None) \
            == interp.print_string(v)
        if isinstance(v, (Instance, Block)):
            assert interp.print_string(v) in ("a " + cls.name,
                                              "an " + cls.name)
    assert interp.class_of(interp.classes["Keep"]).name == "Object"
    assert interp.class_of(HostFunction(print)).name == "Object"
