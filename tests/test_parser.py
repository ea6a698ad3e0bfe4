import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mklang.errors import MkSyntaxError
from mklang.kernel import KERNEL_SOURCE
from mklang.nodes import (
    ASSIGNMENT, BLOCK, LITERAL, MESSAGE_SEND, METHOD_DEF, RETURN, SEQUENCE,
    TEMP_DECL, VAR_READ, AstNode, dump, find_nodes, id_interval,
    selector_arity, unparse,
)
from mklang.parser import MAX_NESTING, parse, parse_method, tokenize
from progen import gen_program


def structurally_equal(a, b):
    if a.kind != b.kind:
        return False
    if (a.selector, a.var_name, a.name, a.superclass) != \
            (b.selector, b.var_name, b.name, b.superclass):
        return False
    if a.params != b.params or a.temps != b.temps:
        return False
    if a.kind == LITERAL:
        if type(a.value) is not type(b.value) or a.value != b.value:
            return False
    if len(a.children) != len(b.children):
        return False
    return all(structurally_equal(x, y)
               for x, y in zip(a.children, b.children))


SAMPLE = """
class Point extends Object [ | x y |
    x [ ^ x ]
    setX: ax y: ay [ x := ax. y := ay ]
    + other [ | s | s := x + other x. ^ s ]
    describe [ ^ 'point ''quoted''', x printString ]
]
| p |
p := Point new setX: 3 y: 4.
(p + p) describe logCr.
#(1 two 'three' true nil) logCr.
[ :a :b | a + b ] value: 1 value: 2
"""


def test_roundtrip_sample():
    program = parse(SAMPLE)
    for root in program.classes + [program.main]:
        again = parse(unparse(root) if root.kind != SEQUENCE
                      else unparse(root))
        target = again.classes[0] if root.kind != SEQUENCE else again.main
        assert structurally_equal(root, target)


def test_precedence_unary_binary_keyword():
    program = parse("1 + 2 * 3 max: 4 factorial")
    send = program.main.children[0]
    assert send.selector == "max:"
    left = send.children[0]
    assert left.selector == "*"            # (1 + 2) * 3
    assert left.children[0].selector == "+"
    assert send.children[1].selector == "factorial"


def test_keyword_selector_collects_all_parts():
    program = parse("d at: 1 put: 2 + 3")
    send = program.main.children[0]
    assert send.selector == "at:put:"
    assert len(send.children) == 3


def test_assignment_binds_looser_than_keyword_send():
    program = parse("x := coll at: 1")
    stmt = program.main.children[0]
    assert stmt.kind == ASSIGNMENT
    assert stmt.children[0].selector == "at:"


def test_cascade_free_statement_sequence():
    program = parse("1 logCr. 2 logCr. 3 logCr.")
    assert [c.kind for c in program.main.children] == [MESSAGE_SEND] * 3


def test_string_escapes_and_comments():
    program = parse('"a comment" x := \'it\'\'s\' "trailing"')
    assert program.main.children[0].children[0].value == "it's"


def test_symbols_and_literal_arrays():
    program = parse("#(#foo bar 3 'txt' #+) logCr")
    items = program.main.children[0].children[0].value
    assert [str(v) for v in items[:2]] == ["foo", "bar"]
    assert items[2] == 3
    assert getattr(items[4], "is_symbol", False)


def test_block_parameters_and_temps():
    program = parse("[ :a :b | a + b ]")
    block = program.main.children[0]
    assert block.kind == BLOCK
    assert block.params == ["a", "b"]


def test_class_is_a_unary_selector_after_a_primary():
    program = parse("3 class logCr")
    inner = program.main.children[0].children[0]
    assert inner.selector == "class"


def test_node_ids_unique_and_spans_inside_source():
    program = parse(SAMPLE)
    seen = set()
    for root in program.classes + [program.main]:
        for n in root.walk():
            assert n.id not in seen
            seen.add(n.id)
            assert 0 <= n.span.start <= n.span.end <= len(SAMPLE)


def test_subtree_ids_are_an_interval_ending_at_the_root():
    """Every subtree holds exactly the ids of `id_interval`, its leftmost
    leaf's up to its root's, and children come in increasing id order; so
    the ids are unique and each interval names exactly one subtree. The
    temp declaration `parse_program` puts at the head of the top level is
    numbered before its statements. No node knows its parent."""
    program = parse(SAMPLE)
    method = parse_method("at: i put: v [ | t | t := v. ^ t ]")
    roots = program.classes + [program.main]
    for root in roots + [method]:
        for n in root.walk():
            assert sorted(m.id for m in n.walk()) == list(id_interval(n))
            ids = [c.id for c in n.children]
            assert ids == sorted(ids)
    for before, after in zip(roots, roots[1:]):
        assert before.id < id_interval(after)[0]
    decl = program.main.children[0]
    assert decl.kind == TEMP_DECL
    assert id_interval(program.main)[0] == decl.id
    assert method.children[0].kind == TEMP_DECL
    assert id_interval(method)[0] == method.children[0].id
    assert "parent" not in AstNode.__slots__


def recursive_preorder(node):
    yield node
    for c in node.children:
        yield from recursive_preorder(c)


def test_walk_is_the_recursive_preorder():
    roots = [parse(KERNEL_SOURCE).main, parse(SAMPLE).main]
    for source in [KERNEL_SOURCE, SAMPLE] + [
            gen_program(random.Random(seed))[0] for seed in range(30)]:
        roots += parse(source).classes
    for root in roots:
        assert list(root.walk()) == list(recursive_preorder(root))


def test_a_dropped_parse_result_is_freed_without_the_cyclic_gc():
    """A node names its parent by id, so a tree holds no reference cycle."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        program = parse(KERNEL_SOURCE)
        assert program.classes
        del program
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_a_parse_leaves_under_two_collected_objects_per_node():
    """A parsed node is one object the cyclic collector tracks, plus a list
    only where `children`, `params` or `temps` is non-empty; an empty one
    is the shared `()`. The collector is paused only while counting."""
    sources = [KERNEL_SOURCE, SAMPLE] + [
        gen_program(random.Random(seed))[0] for seed in range(100)]
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        programs = [parse(source) for source in sources]
        tracked = len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()
    nodes = [n for program in programs
             for root in program.classes + [program.main]
             for n in root.walk()]
    assert len(nodes) > 5000
    assert tracked < 2 * len(nodes), tracked / len(nodes)
    for n in nodes:
        for field in ("children", "params", "temps"):
            value = getattr(n, field)
            assert (type(value) is list and value) or \
                (type(value) is tuple and value == ()), (n, field, value)


def test_find_nodes_queries():
    method = parse_method("run [ x := 1. x logCr. self run2. ^ x ]")
    assert len(find_nodes(method, "writes-of", "x")) == 1
    assert len(find_nodes(method, "reads-of", "x")) == 2
    assert len(find_nodes(method, "sends-of", "run2")) == 1
    assert len(find_nodes(method, "all-sends")) == 2
    stmt = find_nodes(method, "statement-at", 1)
    assert stmt and stmt[0].kind == ASSIGNMENT
    assert find_nodes(method, "statement-at", 9) == []
    with pytest.raises(ValueError):
        find_nodes(method, "no-such-query")


def test_parse_method_rejects_trailing_garbage():
    with pytest.raises(MkSyntaxError):
        parse_method("run [ ^ 1 ] extra")


@pytest.mark.parametrize("source", [
    "class [ ]",              # missing class name
    "x :=",                   # missing rhs
    "( 1 + 2",                # unbalanced paren
    "'unterminated",          # string
    '"unterminated',          # comment
    "#",                      # bare hash
    "1 + ",                   # missing operand
    "foo: 1",                 # keyword send without receiver
])
def test_syntax_errors_have_spans(source):
    with pytest.raises(MkSyntaxError) as exc:
        parse(source)
    assert exc.value.span is not None


@pytest.mark.parametrize("opener, wrap", [
    ("(", lambda inner: "(%s)" % inner),
    ("[", lambda inner: "[ %s ] value" % inner),
    ("a", lambda inner: "a := %s" % inner),
])
def test_nesting_limit(opener, wrap):
    def nested(levels):
        source = "1"
        for _ in range(levels):
            source = wrap(source)
        return "| a | " + source
    parse(nested(MAX_NESTING))
    source = nested(MAX_NESTING + 1)
    with pytest.raises(MkSyntaxError, match="nesting deeper than") as exc:
        parse(source)
    # The span is the opening token of the first level past the limit.
    span = exc.value.span
    assert source[span.start:span.end] == opener
    assert source[:span.start].count(opener) == MAX_NESTING + \
        (opener == "a")                 # the `| a |` declaration


def test_selector_arity():
    assert selector_arity("size") == 0
    assert selector_arity("+") == 1
    assert selector_arity("at:put:") == 2
    assert selector_arity("value:value:value:") == 3


def test_tokenizer_binary_runs():
    types, texts, _starts, _ends = tokenize("a // b \\\\ c")
    kinds = list(zip(types, texts))
    assert ("binop", "//") in kinds and ("binop", "\\\\") in kinds


def test_dump_contains_ids_and_kinds():
    program = parse("x := 1")
    text = dump(program.main)
    assert "Assignment" in text and "#" in text


def test_dump_indents_each_node_by_its_depth_below_the_root():
    def depths(node, depth=0):
        yield depth
        for c in node.children:
            yield from depths(c, depth + 1)

    cdef = parse(SAMPLE).classes[0]
    for root in [cdef] + cdef.children:    # methods have a parent
        lines = dump(root).splitlines()
        assert [(len(l) - len(l.lstrip())) // 2 for l in lines] \
            == list(depths(root))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_generated_programs_roundtrip(seed):
    source, _ = gen_program(random.Random(seed))
    program = parse(source)
    for root in program.classes + [program.main]:
        rendered = unparse(root)
        again = parse(rendered)
        target = again.classes[0] if root.kind != SEQUENCE else again.main
        assert structurally_equal(root, target)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=40))
def test_string_literals_roundtrip(text):
    quoted = "'%s'" % text.replace("'", "''")
    program = parse("x := %s" % quoted)
    assert program.main.children[0].children[0].value == text
