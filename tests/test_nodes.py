"""Value semantics of the AST classes, and `unparse` against a recursive
oracle."""

import random

import pytest

import mklang
from mklang.kernel import KERNEL_SOURCE
from mklang.nodes import (
    ASSIGNMENT, BLOCK, CLASS_DEF, LITERAL, LITERAL_ARRAY, MESSAGE_SEND,
    METHOD_DEF, RETURN, SELF_REF, SEQUENCE, TEMP_DECL, VAR_READ, AstNode,
    SourceSpan, id_interval, selector_arity, unparse,
)
from mklang.parser import parse
from progen import gen_program


def test_source_span_is_a_value():
    span = SourceSpan(3, 7, "a.mk")
    assert span == SourceSpan(3, 7, "a.mk")
    assert span != SourceSpan(3, 8, "a.mk")
    assert span != SourceSpan(3, 7, "b.mk")
    assert span != (3, 7, "a.mk")
    assert hash(span) == hash(SourceSpan(3, 7, "a.mk"))
    assert len({span, SourceSpan(3, 7, "a.mk"), SourceSpan(0, 1)}) == 2
    assert repr(span) == "SourceSpan(start=3, end=7, file='a.mk')"
    assert str(span) == "a.mk:3..7"
    default = SourceSpan(0, 1)
    assert default.file == "<string>"
    assert default == SourceSpan(0, 1, "<string>")
    assert str(default) == "<string>:0..1"


def test_ast_node_defaults_and_identity():
    a = AstNode(VAR_READ, 0, 1)
    b = AstNode(VAR_READ, 0, 1)
    assert (a.id, a.selector, a.var_name, a.value, a.name, a.superclass) \
        == (0, None, None, None, None, None)
    # A node refers to no node above it, and holds no mark of a hook: a
    # twin's hook table records those.
    assert len(AstNode.__slots__) == 13
    assert "original" not in AstNode.__slots__
    assert not hasattr(a, "parent") and "parent" not in AstNode.__slots__
    assert id_interval(AstNode(VAR_READ, 0, 1, id=7)) == range(7, 8)
    # An empty sequence is the one shared tuple, given or defaulted.
    empty = AstNode(BLOCK, 0, 1, children=[], params=[], temps=[])
    for node in (a, b, empty):
        for field in ("children", "params", "temps"):
            assert type(getattr(node, field)) is tuple
            assert getattr(node, field) == ()
            assert getattr(node, field) is getattr(a, field)
    assert a != b and a == a and len({a, b}) == 2
    assert repr(AstNode(MESSAGE_SEND, 0, 1, id=7, selector="+")) \
        == "<MessageSend#7 +>"
    full = AstNode(METHOD_DEF, 0, 9, "a.mk", 3, children=[a],
                   selector="at:", params=["i"], temps=["t"])
    assert (full.children, full.selector, full.params, full.temps) \
        == ([a], "at:", ["i"], ["t"])


def test_ast_node_span_is_built_from_its_fields():
    node = AstNode(LITERAL, 3, 7, "a.mk", value=1)
    assert (node.start, node.end, node.file) == (3, 7, "a.mk")
    assert node.span == SourceSpan(3, 7, "a.mk")
    assert AstNode(LITERAL, 0, 1).span == SourceSpan(0, 1, "<string>")
    with pytest.raises(AttributeError):
        node.span = SourceSpan(0, 1)


# --- the recursive `unparse` this module's iterative one replaced ------------

def oracle(node):
    k = node.kind
    if k == LITERAL:
        return _literal(node.value)
    if k == LITERAL_ARRAY:
        inner = " ".join(_literal(v) if not getattr(v, "is_symbol", False)
                         else str(v) for v in node.value)
        return "#(%s)" % inner
    if k == SELF_REF:
        return node.var_name or "self"
    if k == VAR_READ:
        return node.var_name
    if k == ASSIGNMENT:
        return "%s := %s" % (node.var_name, oracle(node.children[0]))
    if k == RETURN:
        return "^%s" % oracle(node.children[0])
    if k == SEQUENCE:
        parts = node.children
        if parts and parts[0].kind == TEMP_DECL:
            return "%s %s" % (oracle(parts[0]),
                              ". ".join(oracle(c) for c in parts[1:]))
        return ". ".join(oracle(c) for c in parts)
    if k == BLOCK:
        head = "".join(":%s " % p for p in node.params)
        if head:
            head += "| "
        body = oracle(node.children[0]) if node.children else ""
        return "[ %s%s ]" % (head, body)
    if k == MESSAGE_SEND:
        recv = oracle(node.children[0])
        if node.children[0].kind in (MESSAGE_SEND, ASSIGNMENT) \
                and _needs_parens(node, node.children[0]):
            recv = "(%s)" % recv
        sel = node.selector
        args = node.children[1:]
        if not args:
            return "%s %s" % (recv, sel)
        if not sel.endswith(":"):
            return "%s %s %s" % (recv, sel, _argstr(node, args[0]))
        out = recv
        for kw, a in zip(sel.split(":")[:-1], args):
            out += " %s: %s" % (kw, _argstr(node, a))
        return out
    if k == TEMP_DECL:
        return "|%s|" % " ".join(node.temps)
    if k == METHOD_DEF:
        sel = node.selector
        if sel.endswith(":"):
            pat = " ".join("%s: %s" % (kw, p) for kw, p
                           in zip(sel.split(":")[:-1], node.params))
        elif selector_arity(sel) == 1:
            pat = "%s %s" % (sel, node.params[0])
        else:
            pat = sel
        temps = " |%s| " % " ".join(node.temps) if node.temps else " "
        body = oracle(node.children[-1]) if node.children else ""
        return "%s [%s%s ]" % (pat, temps, body)
    if k == CLASS_DEF:
        slots = " |%s|" % " ".join(node.temps) if node.temps else ""
        sup = " extends %s" % node.superclass if node.superclass else ""
        methods = " ".join(oracle(m) for m in node.children
                           if m.kind == METHOD_DEF)
        return "class %s%s [%s %s ]" % (node.name, sup, slots, methods)
    raise ValueError("cannot unparse %s" % k)


def _literal(v):
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "nil"
    if isinstance(v, int):
        return str(v)
    if getattr(v, "is_symbol", False):
        return "#" + str(v)
    return "'%s'" % v.replace("'", "''")


def _keyword(sel):
    return sel.endswith(":")


def _binary(sel):
    return selector_arity(sel) == 1 and not sel.endswith(":")


def _needs_parens(parent, child):
    if child.kind == ASSIGNMENT or _keyword(child.selector):
        return True
    return _binary(child.selector) and not _keyword(parent.selector)


def _argstr(parent, child):
    s = oracle(child)
    if child.kind == ASSIGNMENT:
        return "(%s)" % s
    if child.kind == MESSAGE_SEND:
        cs = child.selector
        if _keyword(cs) or (_binary(cs) and _binary(parent.selector)):
            return "(%s)" % s
    return s


EDGE_CASES = """
class E extends Object [ | a b |
    + other [ ^ (a := other) + (b := 2) ]
    at: i put: v [ | t | t := [ :x :y | ]. ^ (t value: i value: v) at: 1 ]
    k [ ^ #(1 #foo bar: 'it''s' true false nil #+) ]
    e [ ]
]
| z |
z := [ ]. z := [ | ]. (3 + 4) * 5 between: 1 - 2 and: (6 max: 7).
((1 max: 2) max: 3) printString , 'x' , (4 + 5) printString.
super foo. self bar: (x := y := 1). ^ #sym
"""


def test_unparse_matches_the_recursive_oracle():
    rng = random.Random(13)
    sources = [KERNEL_SOURCE, EDGE_CASES]
    sources += [gen_program(rng)[0] for _ in range(60)]
    for source in sources:
        program = parse(source)
        for root in program.classes + [program.main]:
            for node in root.walk():
                assert unparse(node) == oracle(node)


def test_unparse_of_a_5000_term_chain_needs_no_deep_recursion():
    method = parse("class A [ m [ ^ 1" + " + 1" * 5000 + " ] ]") \
        .classes[0].children[0]
    text = mklang.unparse(method)
    assert text == "m [ ^" + "(" * 4999 + "1 + 1" + ") + 1" * 4999 + " ]"
