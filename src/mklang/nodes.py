"""Typed AST for the toy language.

Nodes are immutable after parse (link machinery never mutates them; weaving
operates on copies). Node ids are assigned per parse, so a recompile yields
fresh ids -- which is exactly why links are lost on recompilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    file: str = "<string>"

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
META_HOOK = "MetaHook"  # only ever present in woven twin ASTs

# Kinds a metalink may not be installed on.
NOT_INSTALLABLE = {CLASS_DEF, TEMP_DECL}


@dataclass(eq=False)
class AstNode:
    kind: str
    span: SourceSpan
    id: int = 0
    children: list = field(default_factory=list)
    selector: str | None = None      # MessageSend / MethodDef
    var_name: str | None = None      # VarRead / Assignment / SelfRef ("self"/"super")
    value: object = None             # Literal payload, LiteralArray item list
    name: str | None = None          # ClassDef name
    superclass: str | None = None    # ClassDef
    params: list = field(default_factory=list)  # MethodDef / Block argument names
    temps: list = field(default_factory=list)   # MethodDef / TempDecl / ClassDef slots
    parent: "AstNode | None" = field(default=None, repr=False)
    original: "AstNode | None" = field(default=None, repr=False)  # MetaHook only

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def __repr__(self):
        extra = self.selector or self.var_name or self.name or ""
        return "<%s#%d %s>" % (self.kind, self.id, extra)


@dataclass(frozen=True)
class MethodSignature:
    class_name: str
    selector: str
    arity: int


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


def link_parents(node: AstNode, parent: AstNode | None = None):
    node.parent = parent
    for c in node.children:
        link_parents(c, node)


# --- queries ---------------------------------------------------------------

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
    structurally identical tree (same kinds, selectors, literals, order)."""
    k = node.kind
    if k == LITERAL:
        return _print_literal(node.value)
    if k == LITERAL_ARRAY:
        inner = " ".join(_print_literal(v) if not getattr(v, "is_symbol", False)
                         else str(v) for v in node.value)
        return "#(%s)" % inner
    if k == SELF_REF:
        return node.var_name or "self"
    if k == VAR_READ:
        return node.var_name
    if k == ASSIGNMENT:
        return "%s := %s" % (node.var_name, unparse(node.children[0]))
    if k == RETURN:
        return "^%s" % unparse(node.children[0])
    if k == SEQUENCE:
        parts = node.children
        if parts and parts[0].kind == TEMP_DECL:
            return "%s %s" % (unparse(parts[0]),
                              ". ".join(unparse(c) for c in parts[1:]))
        return ". ".join(unparse(c) for c in parts)
    if k == BLOCK:
        head = "".join(":%s " % p for p in node.params)
        if head:
            head += "| "
        body = unparse(node.children[0]) if node.children else ""
        return "[ %s%s ]" % (head, body)
    if k == MESSAGE_SEND:
        recv = unparse(node.children[0])
        if node.children[0].kind in (MESSAGE_SEND, ASSIGNMENT) \
                and _needs_parens(node, node.children[0]):
            recv = "(%s)" % recv
        sel = node.selector
        args = node.children[1:]
        if not args:
            return "%s %s" % (recv, sel)
        if not sel.endswith(":"):
            return "%s %s %s" % (recv, sel, _argstr(node, args[0]))
        parts = sel.split(":")[:-1]
        out = recv
        for kw, a in zip(parts, args):
            out += " %s: %s" % (kw, _argstr(node, a))
        return out
    if k == TEMP_DECL:
        return "|%s|" % " ".join(node.temps)
    if k == METHOD_DEF:
        pat = _pattern(node)
        temps = " |%s| " % " ".join(node.temps) if node.temps else " "
        body = unparse(node.children[-1]) if node.children else ""
        return "%s [%s%s ]" % (pat, temps, body)
    if k == CLASS_DEF:
        slots = " |%s|" % " ".join(node.temps) if node.temps else ""
        sup = " extends %s" % node.superclass if node.superclass else ""
        methods = " ".join(unparse(m) for m in node.children
                           if m.kind == METHOD_DEF)
        return "class %s%s [%s %s ]" % (node.name, sup, slots, methods)
    raise ValueError("cannot unparse %s" % k)


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


def _argstr(parent, child):
    s = unparse(child)
    if child.kind == ASSIGNMENT:
        return "(%s)" % s
    if child.kind == MESSAGE_SEND:
        cs = child.selector
        if _is_keyword(cs):
            return "(%s)" % s
        if _is_binary(cs) and _is_binary(parent.selector):
            return "(%s)" % s
        if _is_keyword(parent.selector) and _is_keyword(cs):
            return "(%s)" % s
    return s


def dump(node: AstNode, indent: int = 0) -> str:
    """Indented one-node-per-line rendering with ids and spans."""
    extra = node.selector or node.var_name or node.name or ""
    if node.kind == LITERAL:
        extra = _print_literal(node.value)
    elif node.kind == LITERAL_ARRAY:
        extra = unparse(node)
    elif node.kind in (METHOD_DEF, BLOCK) and node.params:
        extra += " (%s)" % " ".join(node.params)
    line = "%s%s#%d %s [%d..%d]" % ("  " * indent, node.kind, node.id,
                                    extra, node.span.start, node.span.end)
    lines = [line.rstrip()]
    for c in node.children:
        lines.append(dump(c, indent + 1))
    return "\n".join(lines)
