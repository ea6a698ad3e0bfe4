"""Typed AST for the toy language.

Nodes are immutable after parse (link machinery never mutates them; weaving
copies the path from a method's root to each linked node and shares every
other subtree, and a twin's hook table, not a node, records which nodes
are hooked). A node refers to its children only, never to a node above
it, so a tree holds no reference cycle and reference counting frees it
once dropped. A node is one object for the cyclic garbage collector to
track, plus one list per non-empty `children`, `params` or `temps` (an
empty one is the shared `()`); its source range is three plain fields,
from which `span` builds a `SourceSpan` on demand.

Node ids are unique in the process: every parse draws fresh ones, so a
recompile yields fresh ids -- which is exactly why links are lost on
recompilation. The parser numbers each node as it finishes it, so a
subtree's ids are the interval from its leftmost leaf's id to its root's
(`id_interval`), and its children's ids increase. That interval is all
that locates a node: a method's record holds it, and a descent from the
root that takes, at each level, the first child whose id is at least the
target's reaches the node (`links.descend`). Two interpreters share
nodes, and so ids, only for the kernel, which is parsed once per process
(`kernel.kernel_program`); each keeps its own method records and link
state over those nodes.
"""

from __future__ import annotations

from dataclasses import dataclass


class SourceSpan:
    """A half-open character range of a source file; a value, compared and
    hashed by its fields, and never changed once made."""

    __slots__ = ("start", "end", "file")

    def __init__(self, start, end, file="<string>"):
        self.start = start
        self.end = end
        self.file = file

    def __eq__(self, other):
        if other.__class__ is not SourceSpan:
            return NotImplemented
        return (self.start == other.start and self.end == other.end
                and self.file == other.file)

    def __hash__(self):
        return hash((self.start, self.end, self.file))

    def __repr__(self):
        return "SourceSpan(start=%r, end=%r, file=%r)" % (
            self.start, self.end, self.file)

    def __str__(self):
        return "%s:%d..%d" % (self.file, self.start, self.end)


# Node kinds
CLASS_DEF = "ClassDef"
METHOD_DEF = "MethodDef"
SEQUENCE = "Sequence"
TEMP_DECL = "TempDecl"
MESSAGE_SEND = "MessageSend"
VAR_READ = "VarRead"
ASSIGNMENT = "Assignment"
RETURN = "Return"
LITERAL = "Literal"
LITERAL_ARRAY = "LiteralArray"
BLOCK = "Block"
SELF_REF = "SelfRef"
# Every kind a node may have, in an original AST or a twin's copy.
KINDS = (CLASS_DEF, METHOD_DEF, SEQUENCE, TEMP_DECL, MESSAGE_SEND, VAR_READ,
         ASSIGNMENT, RETURN, LITERAL, LITERAL_ARRAY, BLOCK, SELF_REF)

# Kinds a metalink may not be installed on.
NOT_INSTALLABLE = {CLASS_DEF, TEMP_DECL}


class AstNode:
    """One node; equal only to itself. `children`, `params` and `temps` are
    lists when non-empty and the shared `()` when empty, so a leaf holds
    no list. `start`, `end` and `file` are the node's source range; a
    node refers to no node above it. `links._copy` copies every field; a
    twin records its hooks in its `hook_table`, never on a node."""

    __slots__ = ("kind", "start", "end", "file", "id", "children",
                 "selector", "var_name", "value", "name", "superclass",
                 "params", "temps")

    def __init__(self, kind, start, end, file="<string>", id=0, children=(),
                 selector=None, var_name=None, value=None, name=None,
                 superclass=None, params=(), temps=()):
        self.kind = kind
        self.start = start
        self.end = end
        self.file = file
        self.id = id
        self.children = children or ()
        self.selector = selector    # MessageSend / MethodDef
        self.var_name = var_name    # VarRead / Assignment / SelfRef
        self.value = value          # Literal payload, LiteralArray items
        self.name = name            # ClassDef name
        self.superclass = superclass    # ClassDef
        self.params = params or ()  # argument names
        self.temps = temps or ()    # temps, ClassDef slots

    @property
    def span(self):
        return SourceSpan(self.start, self.end, self.file)

    def walk(self):
        """Pre-order, from an explicit stack: a chain may be any depth."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children:
                stack += node.children[::-1]

    def __repr__(self):
        extra = self.selector or self.var_name or self.name or ""
        return "<%s#%d %s>" % (self.kind, self.id, extra)


@dataclass(frozen=True)
class MethodSignature:
    class_name: str
    selector: str


@dataclass
class Program:
    classes: list   # ClassDef nodes
    main: AstNode   # top-level Sequence
    source: str


def selector_arity(selector: str) -> int:
    """0 for unary, 1 for binary, keyword count for keyword selectors."""
    if selector.endswith(":"):
        return selector.count(":")
    if selector and not selector[0].isalpha() and selector[0] != "_":
        return 1
    return 0


def value_selector(n: int) -> str:
    """#value for no argument, else one #value: keyword per argument."""
    return "value:" * n or "value"


# --- queries ---------------------------------------------------------------

def id_interval(root: AstNode) -> range:
    """The ids of `root`'s subtree: from its leftmost leaf's to its own."""
    first = root
    while first.children:
        first = first.children[0]
    return range(first.id, root.id + 1)


def find_nodes(root: AstNode, query: str, arg=None) -> list:
    """Navigate an AST in source order.

    Queries: all-nodes, all-sends, sends-of (arg=selector), reads-of /
    writes-of (arg=var name), statement-at (arg=1-based index into the
    method's top Sequence). An empty result is not an error.
    """
    if query == "all-nodes":
        return list(root.walk())
    if query == "all-sends":
        return [n for n in root.walk() if n.kind == MESSAGE_SEND]
    if query == "sends-of":
        return [n for n in root.walk()
                if n.kind == MESSAGE_SEND and n.selector == arg]
    if query == "reads-of":
        return [n for n in root.walk()
                if n.kind == VAR_READ and n.var_name == arg]
    if query == "writes-of":
        return [n for n in root.walk()
                if n.kind == ASSIGNMENT and n.var_name == arg]
    if query == "statement-at":
        seq = next((n for n in root.walk() if n.kind == SEQUENCE), None)
        if seq is None:
            return []
        stmts = seq.children
        if 1 <= arg <= len(stmts):
            return [stmts[arg - 1]]
        return []
    raise ValueError("unknown node query: %r" % (query,))


# --- printing --------------------------------------------------------------

def _print_literal(v):
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "nil"
    if isinstance(v, int):
        return str(v)
    # Symbols are modeled as a str subclass tagged by the parser.
    if getattr(v, "is_symbol", False):
        return "#" + str(v)
    if isinstance(v, str):
        return "'%s'" % v.replace("'", "''")
    raise TypeError("unprintable literal: %r" % (v,))


def unparse(node: AstNode) -> str:
    """Render a node back to surface syntax; reparsing yields a
    structurally identical tree (same kinds, selectors, literals, order).

    Iterative, from an explicit stack: a chain may be any depth."""
    out = []
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            pieces = _pieces(item)
            pieces.reverse()
            stack += pieces
    return "".join(out)


def _pieces(node):
    """`node`'s rendering as a list of strings and of child nodes, each
    to be rendered in its place."""
    k = node.kind
    if k == LITERAL:
        return [_print_literal(node.value)]
    if k == LITERAL_ARRAY:
        inner = " ".join(_print_literal(v) if not getattr(v, "is_symbol", False)
                         else str(v) for v in node.value)
        return ["#(%s)" % inner]
    if k == SELF_REF:
        return [node.var_name or "self"]
    if k == VAR_READ:
        return ["%s" % node.var_name]
    if k == ASSIGNMENT:
        return ["%s := " % node.var_name, node.children[0]]
    if k == RETURN:
        return ["^", node.children[0]]
    if k == SEQUENCE:
        parts = node.children
        out = []
        if parts and parts[0].kind == TEMP_DECL:
            out += [parts[0], " "]
            parts = parts[1:]
        return out + _joined(parts, ". ")
    if k == BLOCK:
        head = "".join(":%s " % p for p in node.params)
        if head:
            head += "| "
        if not node.children:
            return ["[ %s ]" % head]
        return ["[ " + head, node.children[0], " ]"]
    if k == MESSAGE_SEND:
        recv = node.children[0]
        out = [recv]
        if recv.kind in (MESSAGE_SEND, ASSIGNMENT) \
                and _needs_parens(node, recv):
            out = ["(", recv, ")"]
        sel = node.selector
        args = node.children[1:]
        if not args:
            out.append(" " + sel)
        elif not sel.endswith(":"):
            out.append(" %s " % sel)
            out += _arg(node, args[0])
        else:
            for kw, a in zip(sel.split(":")[:-1], args):
                out.append(" %s: " % kw)
                out += _arg(node, a)
        return out
    if k == TEMP_DECL:
        return ["|%s|" % " ".join(node.temps)]
    if k == METHOD_DEF:
        temps = " |%s| " % " ".join(node.temps) if node.temps else " "
        head = "%s [%s" % (_pattern(node), temps)
        if not node.children:
            return [head + " ]"]
        return [head, node.children[-1], " ]"]
    if k == CLASS_DEF:
        slots = " |%s|" % " ".join(node.temps) if node.temps else ""
        sup = " extends %s" % node.superclass if node.superclass else ""
        methods = [m for m in node.children if m.kind == METHOD_DEF]
        return (["class %s%s [%s " % (node.name, sup, slots)]
                + _joined(methods, " ") + [" ]"])
    raise ValueError("cannot unparse %s" % k)


def _joined(nodes, sep):
    out = []
    for node in nodes:
        if out:
            out.append(sep)
        out.append(node)
    return out


def _pattern(method: AstNode) -> str:
    sel = method.selector
    if not sel.endswith(":"):
        if selector_arity(sel) == 1:
            return "%s %s" % (sel, method.params[0])
        return sel
    parts = sel.split(":")[:-1]
    return " ".join("%s: %s" % (kw, p) for kw, p in zip(parts, method.params))


def _is_keyword(sel):
    return sel.endswith(":")


def _is_binary(sel):
    return selector_arity(sel) == 1 and not sel.endswith(":")


def _needs_parens(parent, child):
    """Parenthesize when the child send binds looser than the parent slot."""
    ps, cs = parent.selector, child.selector
    if child.kind == ASSIGNMENT:
        return True
    if _is_keyword(cs):
        return True
    if _is_binary(cs) and not _is_keyword(ps):
        return True
    return False


def _arg(parent, child):
    """An argument's pieces: parenthesized when it binds looser than its
    slot."""
    if child.kind == ASSIGNMENT:
        return ["(", child, ")"]
    if child.kind == MESSAGE_SEND:
        cs = child.selector
        if _is_keyword(cs) or (_is_binary(cs)
                               and _is_binary(parent.selector)):
            return ["(", child, ")"]
    return [child]


def dump(node: AstNode) -> str:
    """Indented one-node-per-line rendering with ids and spans.

    Depths come from the walk itself: a node knows no parent."""
    lines = []
    stack = [(node, 0)]
    while stack:
        n, d = stack.pop()
        stack += [(c, d + 1) for c in reversed(n.children)]
        extra = n.selector or n.var_name or n.name or ""
        if n.kind == LITERAL:
            extra = _print_literal(n.value)
        elif n.kind == LITERAL_ARRAY:
            extra = unparse(n)
        elif n.kind in (METHOD_DEF, BLOCK) and n.params:
            extra += " (%s)" % " ".join(n.params)
        line = "%s%s#%d %s [%d..%d]" % ("  " * d, n.kind, n.id, extra,
                                        n.start, n.end)
        lines.append(line.rstrip())
    return "\n".join(lines)
